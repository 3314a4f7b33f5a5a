from itertools import combinations

import pytest

from dbl.errors import NonSeparating, NotClopen, UnsupportedRing, ZeroFunction
from dbl.fixtures import glued_pairs
from dbl.functions import CfinFunction
from dbl.scalars import fp_triv, int_inf, int_triv
from dbl.spaces import FiniteSpace
from dbl.weierstrass import (
    Const,
    Gen,
    Mul,
    Sub,
    expr_to_json,
    sw_construct_indicator,
    sw_idempotentize,
    sw_vanishing_witness,
)

Z = int_inf()
D3 = FiniteSpace.discrete(3)
GENS3 = [CfinFunction(D3, Z, (0, 1, 2))]


def test_vanishing_witness_trace():
    f0 = sw_vanishing_witness(D3, Z, GENS3, 0, {1})
    assert f0.values(GENS3, Z, D3) == (0, 1, 4)
    f2 = sw_vanishing_witness(D3, Z, GENS3, 2, {1})
    assert f2.values(GENS3, Z, D3) == (4, 1, 0)


def test_vanishing_witness_properties():
    for x in range(3):
        for size in (1, 2):
            for pts in combinations(range(3), size):
                u = frozenset(pts)
                if x in u:
                    continue
                f = sw_vanishing_witness(D3, Z, GENS3, x, u)
                vals = f.values(GENS3, Z, D3)
                assert vals[x] == 0
                assert all(v >= 0 for v in vals)
                assert all(vals[p] > 0 for p in u)


def test_idempotentize_trace():
    f0 = sw_vanishing_witness(D3, Z, GENS3, 0, {1})
    a0, e0 = sw_idempotentize(f0, D3, Z, GENS3)
    assert a0 == 4
    assert e0.values(GENS3, Z, D3) == (0, 4, 4)
    # e^2 = a e pointwise
    vals = e0.values(GENS3, Z, D3)
    assert all(v * v == a0 * v for v in vals)


def test_idempotentize_two_valued():
    d2 = FiniteSpace.discrete(2)
    gens = [CfinFunction(d2, Z, (0, 3))]
    f = sw_vanishing_witness(d2, Z, gens, 0, {1})
    a, e = sw_idempotentize(f, d2, Z, gens)
    assert a == 9 and e.values(gens, Z, d2) == (0, 9)


def test_idempotentize_rejects_zero():
    with pytest.raises(ZeroFunction):
        sw_idempotentize(Const(0), D3, Z, GENS3)


def test_construct_indicator_worked_trace():
    cert = sw_construct_indicator(D3, Z, GENS3, {1})
    assert cert.scale == 16
    assert cert.evaluation == (0, 16, 0)
    assert cert.verify(D3, Z, GENS3)


def test_construct_indicator_edge_cases():
    cert = sw_construct_indicator(D3, Z, GENS3, {0, 1, 2})
    assert cert.scale == 1 and cert.evaluation == (1, 1, 1)
    cert = sw_construct_indicator(D3, Z, GENS3, frozenset())
    assert cert.scale == 1 and cert.evaluation == (0, 0, 0)
    assert cert.verify(D3, Z, GENS3)


def test_construct_indicator_all_clopens_small():
    for n in (1, 2, 3, 4):
        space = FiniteSpace.discrete(n)
        gens = [CfinFunction(space, Z, tuple(range(n)))]
        for size in range(n + 1):
            for pts in combinations(range(n), size):
                cert = sw_construct_indicator(space, Z, gens, frozenset(pts))
                assert cert.verify(space, Z, gens)
                assert cert.scale > 0


def test_construct_indicator_over_trivial_norm_ring():
    # the order on the underlying ring does the work; the norm is irrelevant
    space = FiniteSpace.discrete(3)
    ring = int_triv()
    gens = [CfinFunction(space, ring, (0, 1, 2))]
    cert = sw_construct_indicator(space, ring, gens, {1})
    assert cert.scale == 16 and cert.evaluation == (0, 16, 0)


def test_construct_indicator_on_non_discrete_space():
    space = glued_pairs()
    gens = [CfinFunction(space, Z, (0, 5))]
    cert = sw_construct_indicator(space, Z, gens, {2, 3})
    assert cert.verify(space, Z, gens)
    assert cert.scale == 25
    with pytest.raises(NotClopen):
        sw_construct_indicator(space, Z, gens, {0})


def test_non_separating_rejected():
    gens = [CfinFunction(D3, Z, (1, 1, 2))]
    with pytest.raises(NonSeparating) as err:
        sw_construct_indicator(D3, Z, gens, {1})
    assert err.value.pair == (0, 1)


def test_unsupported_ring_rejected():
    gens = [CfinFunction(D3, fp_triv(5), (0, 1, 2))]
    with pytest.raises(UnsupportedRing):
        sw_construct_indicator(D3, fp_triv(5), gens, {1})


def test_certificate_uses_only_ring_operations():
    cert = sw_construct_indicator(D3, Z, GENS3, {1})

    def walk(e):
        if isinstance(e, (Gen, Const)):
            return True
        if isinstance(e, (Mul, Sub)):
            return walk(e.left) and walk(e.right)
        from dbl.weierstrass import Add

        if isinstance(e, Add):
            return walk(e.left) and walk(e.right)
        return False

    assert walk(cert.tree)
    json_tree = expr_to_json(cert.tree)
    assert isinstance(json_tree, dict)


def test_scaled_indicators_span_finite_index():
    # evaluation matrix of {a_U 1_U} over singleton clopens has det prod a_U
    from oracles import bareiss_det

    certs = [
        sw_construct_indicator(D3, Z, GENS3, frozenset({i})) for i in range(3)
    ]
    rows = tuple(c.evaluation for c in certs)
    det = bareiss_det(rows)
    prod = 1
    for c in certs:
        prod *= c.scale
    assert abs(det) == prod != 0

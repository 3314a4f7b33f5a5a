import dataclasses
from fractions import Fraction

import pytest

from dbl.errors import NotClopen, NotInIdeal, RingMismatch, SpaceMismatch
from dbl.fixtures import double_sierpinski, glued_pairs, standard_fixture_spaces
from dbl.functions import (
    CfinFunction,
    enumerate_functions,
    extend_banaschewski,
    ideal_sum_split,
    indicator,
    restrict,
    separates_points,
)
from dbl.normvalue import NV_ZERO, NormValue, nv_sum
from dbl.scalars import RingDescriptor, fp_triv, int_inf, int_triv, zmod_quot, zmod_triv
from dbl.spaces import FiniteSpace, PointMap, banaschewski
from oracles import inclusion_map

D3 = FiniteSpace.discrete(3)
Z = int_inf()


def F(vals, space=D3, ring=Z):
    return CfinFunction(space, ring, tuple(vals))


def test_function_is_a_slotted_frozen_value():
    f = F((1, -2), FiniteSpace.discrete(2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.values = (0, 0)
    assert not hasattr(f, "__dict__")
    with pytest.raises(SpaceMismatch):
        F((1, 2))
    assert repr(f) == (
        "CfinFunction(space=FiniteSpace(n=2, up=[[0], [1]]), "
        "coeff=RingDescriptor(kind='IntInf', p=None, n=None), values=(1, -2))"
    )


def test_equal_functions_hash_equal():
    d1, r = FiniteSpace.discrete(1), zmod_triv(4)
    f, g = CfinFunction(d1, r, (5,)), CfinFunction(d1, r, (1,))
    assert f == g
    assert hash(f) == hash(g)
    assert len({f, g}) == 1


def test_indicator_algebra():
    u = indicator(D3, Z, {0, 1})
    v = indicator(D3, Z, {1, 2})
    assert u.mul(v) == indicator(D3, Z, {1})
    assert u.mul(u) == u  # idempotent
    assert F((1, 2, 3)).add(F((1, 1, 1))) == F((2, 3, 4))


def test_indicator_products_match_intersections():
    space = glued_pairs()
    for u in space.clopens:
        for v in space.clopens:
            lhs = indicator(space, Z, u).mul(indicator(space, Z, v))
            assert lhs == indicator(space, Z, u & v)


def test_indicator_rejects_non_clopen():
    with pytest.raises(NotClopen):
        indicator(FiniteSpace.sierpinski(), Z, {1})


def test_eval_and_constant_on_components():
    space = glued_pairs()
    f = CfinFunction(space, Z, (5, -2))
    assert [f.values[space.component_index(x)] for x in range(4)] == [5, 5, -2, -2]
    with pytest.raises(SpaceMismatch):
        CfinFunction.from_point_values(space, Z, (1, 2, 3, 3))
    g = CfinFunction.from_point_values(space, Z, (7, 7, 0, 0))
    assert g.values == (7, 0)


def test_sup_norm():
    assert F((2, -3, 5)).sup_norm() == NormValue.from_fraction(5)
    assert F((0, 0, 0)).sup_norm() == NV_ZERO
    f = CfinFunction(FiniteSpace.discrete(2), zmod_quot(5), (3, 1))
    assert f.sup_norm() == NormValue.from_fraction(2)


def test_restrict():
    sub, incl = inclusion_map({0}, FiniteSpace.discrete(2))
    f = CfinFunction(FiniteSpace.discrete(2), Z, (1, 2))
    assert restrict(f, incl).values == (1,)
    # collapse of sierpinski onto the point 0 of a discrete space
    sier = FiniteSpace.sierpinski()
    j = PointMap(sier, D3, (0, 0))
    g = restrict(F((1, 2, 3)), j)
    assert g.values == (1,)
    const = CfinFunction.constant(D3, Z, 9)
    assert restrict(const, j) == CfinFunction.constant(sier, Z, 9)


def test_restrict_norm_bound():
    sier = FiniteSpace.sierpinski()
    j = PointMap(sier, D3, (1, 1))
    for f in enumerate_functions(D3, Z, range(-2, 3)):
        assert restrict(f, j).sup_norm() <= f.sup_norm()


def test_extend_banaschewski():
    space = glued_pairs()
    f = CfinFunction(space, Z, (2, 9))
    ext = extend_banaschewski(f)
    assert ext.space.n == 2 and ext.values == (2, 9)
    sier = FiniteSpace.sierpinski()
    const = CfinFunction.constant(sier, Z, 4)
    assert extend_banaschewski(const).values == (4,)


def test_extension_restriction_mutually_inverse_isometries():
    for space in (D3, glued_pairs(), double_sierpinski(), FiniteSpace.sierpinski()):
        zeta, iota = banaschewski(space)
        for f in enumerate_functions(space, Z, range(-2, 3)):
            ext = extend_banaschewski(f)
            assert ext.sup_norm() == f.sup_norm()
            assert restrict(ext, iota) == f


def test_banaschewski_quotient_is_built_once():
    for space in standard_fixture_spaces():
        zeta, iota = banaschewski(space)
        again = banaschewski(space)
        assert again[0] is zeta and again[1] is iota
        for f in enumerate_functions(space, Z, range(-1, 2)):
            ext = extend_banaschewski(f)
            assert ext.space is zeta
            assert restrict(ext, iota) == f


def test_from_point_values_needs_one_value_per_point():
    sier = FiniteSpace.sierpinski()
    for values in ((1,), (1, 1, 1), ()):
        with pytest.raises(SpaceMismatch):
            CfinFunction.from_point_values(sier, Z, values)
    assert CfinFunction.from_point_values(sier, Z, (1, 1)).values == (1,)


def test_ideal_sum_split_proof_trace():
    f = F((0, 4, 0))
    f0, f1 = ideal_sum_split(f, {0}, {2})
    assert f0 == F((0, 4, 0)) and f1.is_zero()
    assert nv_sum([f0.sup_norm(), f1.sup_norm()]) <= nv_sum([f.sup_norm(), f.sup_norm()])
    z = CfinFunction.zero(D3, Z)
    z0, z1 = ideal_sum_split(z, {0}, {1})
    assert z0.is_zero() and z1.is_zero()
    h = F((1, 0, 1))
    h0, h1 = ideal_sum_split(h, {1}, {1})
    assert h0.add(h1) == h
    assert nv_sum([h0.sup_norm(), h1.sup_norm()]) <= NormValue.from_fraction(2) * h.sup_norm()
    # f must vanish on the intersection of the two closed sets
    with pytest.raises(NotInIdeal):
        ideal_sum_split(F((1, 0, 0)), {0, 1}, {0})


def test_ideal_sum_split_properties_exhaustive():
    space = D3
    subsets = [frozenset(s) for s in ({0,}, {2,}, {0, 1}, {1, 2}, set(), {0, 1, 2})]
    for k0 in subsets:
        for k1 in subsets:
            for f in enumerate_functions(space, Z, range(-2, 3)):
                if not f.vanishes_on(k0 & k1):
                    continue
                f0, f1 = ideal_sum_split(f, k0, k1)
                assert f0.add(f1) == f
                assert f0.vanishes_on(k0) and f1.vanishes_on(k1)
                lhs = nv_sum([f0.sup_norm(), f1.sup_norm()])
                assert lhs <= nv_sum([f.sup_norm(), f.sup_norm()])


def test_ideal_arithmetic_exhaustive():
    # I_{K0} I_{K1} = I_{K0 ∪ K1} = I_{K0} ∩ I_{K1} by double inclusion
    space = D3
    k0, k1 = frozenset({0}), frozenset({1})
    union_ideal = []
    for f in enumerate_functions(space, Z, range(-2, 3)):
        in_union = f.vanishes_on(k0 | k1)
        in_meet = f.vanishes_on(k0) and f.vanishes_on(k1)
        assert in_union == in_meet
        if in_union:
            union_ideal.append(f)
            # f = 1_U * f with U = supp(f), and 1_U vanishes on K0
            f0 = indicator(space, Z, f.support())
            assert f0.vanishes_on(k0) and f.vanishes_on(k1)
            assert f0.mul(f) == f
    # products of members land back in the union ideal
    for f in union_ideal[:12]:
        for g in union_ideal[:12]:
            assert f.mul(g).vanishes_on(k0 | k1)


def test_separates_points():
    ok, _ = separates_points([F((0, 1, 2))], D3)
    assert ok
    bad, witness = separates_points([CfinFunction.constant(FiniteSpace.discrete(2), Z, 1)], FiniteSpace.discrete(2))
    assert not bad and witness == (0, 1)
    ok, _ = separates_points([F((0, 1, 0)), F((0, 0, 1))], D3)
    assert ok


def test_module_valued_functions():
    from dbl.modtensor import NONARCH, WeightedFreeModule, elem

    m = WeightedFreeModule(int_triv(), {"a": 1, "b": 2}, NONARCH)
    space = glued_pairs()
    f = CfinFunction(space, m, (elem({"a": 1}), elem({"b": -1})))
    assert f.sup_norm() == NormValue.from_fraction(2)
    g = f.add(f)
    assert g.values[0] == elem({"a": 2})
    zeta, iota = banaschewski(space)
    assert restrict(extend_banaschewski(f), iota) == f


def test_ideal_sum_split_cannot_separate():
    # a connected 4-point "circle": {1} and {3} are disjoint closed sets
    # inside one quasi-component, so no clopen separates them
    from dbl.errors import CannotSeparate

    circle = FiniteSpace(
        4, [frozenset({0}), frozenset({2}), frozenset({0, 1, 2}), frozenset({0, 2, 3})]
    )
    assert len(circle.quasi_components) == 1
    assert circle.is_closed({1}) and circle.is_closed({3})
    f = CfinFunction.constant(circle, Z, 5)
    with pytest.raises(CannotSeparate):
        ideal_sum_split(f, {1}, {3})


def test_ideal_arithmetic_many_pairs():
    space = D3
    pairs = [
        (frozenset({0}), frozenset({1})),
        (frozenset({0, 1}), frozenset({2})),
        (frozenset({1}), frozenset({1, 2})),
        (frozenset(), frozenset({0})),
    ]
    for k0, k1 in pairs:
        for f in enumerate_functions(space, Z, range(-2, 3)):
            in_union = f.vanishes_on(k0 | k1)
            assert in_union == (f.vanishes_on(k0) and f.vanishes_on(k1))
            if in_union:
                f0 = indicator(space, Z, f.support())
                assert f0.vanishes_on(k0) and f.vanishes_on(k1)
                assert f0.mul(f) == f


def test_function_algebra_laws_sampled():
    import random

    rng = random.Random(3)
    space = glued_pairs()
    for ring in (Z, int_triv(), zmod_quot(6)):
        fs = [
            CfinFunction(
                space, ring, tuple(ring.reduce(rng.randint(-5, 5)) for _ in range(2))
            )
            for _ in range(6)
        ]
        for a in fs:
            for b in fs:
                assert a.add(b) == b.add(a)
                assert a.mul(b) == b.mul(a)
                for c in fs[:3]:
                    assert a.add(b).add(c) == a.add(b.add(c))
                    assert a.mul(b).mul(c) == a.mul(b.mul(c))
                    assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))
                # sup norm is submultiplicative and subadditive-in-max
                assert a.mul(b).sup_norm() <= a.sup_norm() * b.sup_norm()


def test_binary_operations_check_space_and_ring():
    d2 = FiniteSpace.discrete(2)
    f, g = F((3, -1), d2), F((2, 5), d2)
    other_space = F((2, 5), FiniteSpace(3, [{0}, {1, 2}]))
    other_ring = F((2, 1), d2, zmod_triv(4))
    # equal space and ring, held by other objects
    twin = F((2, 5), FiniteSpace(2, [{0}, {1}]), int_inf())
    assert twin.space is not d2 and twin.coeff is not Z
    for op, want in ((CfinFunction.add, (5, 4)), (CfinFunction.sub, (1, -6)), (CfinFunction.mul, (6, -5))):
        with pytest.raises(SpaceMismatch):
            op(f, other_space)
        with pytest.raises(RingMismatch):
            op(f, other_ring)
        assert op(f, g).values == op(f, twin).values == want


BIG = 2**200 + 3


@pytest.mark.parametrize(
    "ring",
    [int_inf(), int_triv(), fp_triv(3), zmod_triv(1), zmod_triv(4), zmod_quot(6), zmod_quot(2**32)],
    ids=str,
)
def test_mul_agrees_with_the_ring_product_per_component(ring):
    # negative, unreduced and 200-bit values, on a reduced and an unreduced side
    space = FiniteSpace.discrete(6)
    f = CfinFunction(space, ring, (-7, 5, BIG, -BIG, 0, 2**32 + 1))
    g = CfinFunction(space, ring, (3, -BIG, BIG, 11, -5, 2**32 - 1))
    for a, b in ((f, g), (g, f), (f, f)):
        prod = a.mul(b)
        assert prod.values == tuple(map(ring.mul, a.values, b.values))
        assert all(type(v) is int for v in prod.values)
        # the operands' objects, so an oracle's identity guard passes at once
        assert prod.space is space and prod.coeff is ring
    # values of other types take the one product rule of ring.mul and ring.add
    h = CfinFunction(space, ring, (Fraction(6), 2.0) * 3)
    prod, total = h.mul(h), h.add(h)
    assert prod.values == tuple(map(ring.mul, h.values, h.values))
    assert list(map(type, prod.values)) == [type(ring.mul(a, a)) for a in h.values]
    assert list(map(type, prod.values)) == list(map(type, total.values)) == [Fraction, float] * 3
    singletons = [{x} for x in range(6)]
    twin = CfinFunction(FiniteSpace(6, singletons), dataclasses.replace(ring), g.values)
    assert twin.space is not space and twin.coeff is not ring
    prod = f.mul(twin)
    assert prod.space is space and prod.coeff is ring and prod.values == f.mul(g).values
    with pytest.raises(SpaceMismatch):
        f.mul(CfinFunction(FiniteSpace.discrete(5), ring, g.values[:5]))
    with pytest.raises(RingMismatch):
        f.mul(CfinFunction(space, zmod_triv(5) if ring.modulus != 5 else Z, g.values))


def test_mul_makes_no_per_component_ring_call(monkeypatch):
    calls = []
    ring_mul = RingDescriptor.mul
    monkeypatch.setattr(RingDescriptor, "mul", lambda self, a, b: calls.append(a) or ring_mul(self, a, b))
    for ring in (Z, zmod_quot(6)):
        f = F((4, -1, 5), ring=ring)
        assert f.mul(f).values == tuple(ring_mul(ring, a, a) for a in f.values)
    assert calls == []

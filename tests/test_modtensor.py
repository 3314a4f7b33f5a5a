import random
from fractions import Fraction
from itertools import product

import pytest

from dbl.errors import ModeMismatch, UnsupportedValue
from dbl.fixtures import glued_pairs
from dbl.modtensor import (
    ARCH,
    NONARCH,
    TensorElement,
    WeightedFreeModule,
    absorbing_counterexample,
    absorbing_map,
    cfin_module,
    elem,
    tensor_norm,
    tensor_product_module,
    tensor_rank_lower_bound,
)
from dbl.normvalue import NV_ONE, NV_ZERO, NormValue
from dbl.scalars import fp_triv, int_inf, int_triv, zmod_quot, zmod_triv
from dbl.spaces import FiniteSpace
from oracles import representation_cost, ring_elements, tensor_from_pairs

ZT = int_triv()
ZI = int_inf()


def test_elem_canonical():
    assert elem({"a": 0, "b": 2}) == (("b", 2),)
    assert elem([("b", 1), ("a", 1)]) == (("a", 1), ("b", 1))


def test_module_norms():
    m = WeightedFreeModule(ZT, {"a": 1, "b": 2}, NONARCH)
    assert m.norm(elem({"a": 1, "b": 1})) == NormValue.from_fraction(2)
    assert m.norm(m.zero) == NV_ZERO
    arch = WeightedFreeModule(ZI, {"a": 1, "b": 2}, ARCH)
    assert arch.norm(elem({"a": 3, "b": -1})) == NormValue.from_fraction(5)
    assert m.isolation_gap() == NV_ONE


def test_module_isolation():
    m = WeightedFreeModule(ZT, {"a": Fraction(1, 2)}, NONARCH)
    gap = m.isolation_gap()
    for e in (elem({"a": a}) for a in ring_elements(ZT, 3)):
        if e:
            assert m.norm(e) >= gap


def test_tensor_nonarch_examples():
    m0 = WeightedFreeModule(ZT, {"a": 1}, NONARCH)
    m1 = WeightedFreeModule(ZT, {"b": 1}, NONARCH)
    t = tensor_product_module(m0, m1)
    assert t.symbols == (("a", "b"),) and t.weight(("a", "b")) == NV_ONE

    m0 = WeightedFreeModule(ZT, {"a": 1, "b": 1}, NONARCH)
    m1 = WeightedFreeModule(ZT, {"c": 2}, NONARCH)
    t = tensor_product_module(m0, m1)
    assert {s: t.weight(s) for s in t.symbols} == {
        ("a", "c"): NormValue.from_fraction(2),
        ("b", "c"): NormValue.from_fraction(2),
    }

    te = tensor_from_pairs(
        m0, m1, [(elem({"a": 1}), elem({"c": 1})), (elem({"b": 1}), elem({"c": 1}))]
    )
    assert tensor_norm(te) == NormValue.from_fraction(2)


def test_tensor_mode_guard():
    m0 = WeightedFreeModule(ZT, {"a": 1}, NONARCH)
    m1 = WeightedFreeModule(ZT, {"b": 1}, ARCH)
    with pytest.raises(ModeMismatch):
        tensor_product_module(m0, m1)


def test_tensor_element_representation_independence():
    m = WeightedFreeModule(ZT, {"a": 1, "b": 1}, NONARCH)
    t1 = tensor_from_pairs(m, m, [(elem({"a": 1}), elem({"a": 1, "b": 1}))])
    t2 = tensor_from_pairs(
        m, m, [(elem({"a": 1}), elem({"a": 1})), (elem({"a": 1}), elem({"b": 1}))]
    )
    assert t1 == t2


def test_nonarch_norm_is_infimum_over_representations():
    # the singleton expansion attains tensor_norm and no regrouping beats it
    rng = random.Random(4)
    keys = [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
    rings = (ZI, ZT, fp_triv(3), zmod_triv(4), zmod_quot(6), zmod_quot(1))
    for ring, mode in product(rings, (ARCH, NONARCH)):
        m = WeightedFreeModule(ring, {"a": 1, "b": Fraction(3, 2)}, mode)
        if mode == NONARCH and not (ring.non_archimedean or ring.is_zero_ring):
            # the max of term norms is beaten: 2 (a (x) a) costs 1 as a sum
            a = elem({"a": ring.one})
            t = tensor_from_pairs(m, m, [(a, a), (a, a)])
            assert representation_cost(t, [(a, a), (a, a)]) == NV_ONE
            with pytest.raises(ModeMismatch):
                tensor_norm(t)
            continue
        for combo in product(range(-2, 3), repeat=4):
            t = TensorElement(m, m, elem({k: ring.reduce(c) for k, c in zip(keys, combo)}))
            base = tensor_norm(t)
            pairs = [
                (elem({s0: c}), elem({s1: ring.one})) for (s0, s1), c in t.matrix
            ]
            assert representation_cost(t, pairs) == base
            if mode == ARCH and ring.kind in ("IntInf", "IntTriv", "FpTriv"):
                assert tensor_rank_lower_bound(t) <= base
            # randomized regroupings: u (x) v plus singletons of the rest
            for _ in range(3):
                u = elem({s: ring.reduce(rng.randint(-2, 2)) for s in "ab"})
                v = elem({s: ring.reduce(rng.randint(-2, 2)) for s in "ab"})
                if not u or not v:
                    continue
                shifted = dict(t.matrix)
                for (s0, c0) in u:
                    for (s1, c1) in v:
                        key = (s0, s1)
                        shifted[key] = ring.sub(shifted.get(key, 0), ring.mul(c0, c1))
                rest = [
                    (elem({s0: c}), elem({s1: ring.one}))
                    for (s0, s1), c in elem(shifted)
                ]
                assert representation_cost(t, [(u, v)] + rest) >= base, (ring, mode)


def test_rank_lower_bound_examples():
    m = WeightedFreeModule(ZI, {"e0": 1, "e1": 1, "e2": 1}, ARCH)
    t = tensor_from_pairs(
        m, m, [(elem({f"e{i}": 1}), elem({f"e{i}": 1})) for i in range(3)]
    )
    assert tensor_rank_lower_bound(t) == NormValue.from_fraction(3)
    single = tensor_from_pairs(m, m, [(elem({"e0": 1}), elem({"e1": 1}))])
    assert tensor_rank_lower_bound(single) == NV_ONE
    collapsed = tensor_from_pairs(
        m, m, [(elem({"e0": 1}), elem({"e0": 1})), (elem({"e0": 1}), elem({"e1": 1}))]
    )
    assert tensor_rank_lower_bound(collapsed) == NV_ONE  # rank 1


def test_rank_lower_bound_over_fp_counts_factors_prime_to_p():
    # det [[1,1,0],[0,1,1],[1,0,1]] = 2: rank 2 over F_2, 3 over Q
    rows = ((1, 1, 0), (0, 1, 1), (1, 0, 1))
    for ring, rank in ((fp_triv(2), 2), (fp_triv(3), 3), (ZI, 3)):
        m = WeightedFreeModule(ring, {"e0": 1, "e1": 1, "e2": 1}, ARCH)
        t = tensor_from_pairs(
            m,
            m,
            [
                (elem({f"e{i}": 1}), elem({f"e{j}": c for j, c in enumerate(row)}))
                for i, row in enumerate(rows)
            ],
        )
        assert t.coefficient_rows() == rows
        assert tensor_rank_lower_bound(t) == NormValue.from_fraction(rank), str(ring)


def test_arch_tensor_norm():
    m = WeightedFreeModule(ZI, {"e0": 1, "e1": 1, "e2": 1}, ARCH)
    t = tensor_from_pairs(
        m, m, [(elem({f"e{i}": 1}), elem({f"e{i}": 1})) for i in range(3)]
    )
    assert tensor_norm(t) == NormValue.from_fraction(3)
    assert tensor_norm(TensorElement.zero(m, m)) == NV_ZERO
    one = tensor_from_pairs(m, m, [(elem({"e0": 1}), elem({"e1": 1}))])
    assert tensor_norm(one) == NV_ONE
    # (e0 + e1) (x) (e0 - 2 e1): one term of cost 2 * 3, and exactly 6
    rank_one = tensor_from_pairs(
        m, m, [(elem({"e0": 1, "e1": 1}), elem({"e0": 1, "e1": -2}))]
    )
    assert tensor_norm(rank_one) == NormValue.from_fraction(6)


def test_arch_tensor_norm_requires_rational():
    m0 = WeightedFreeModule(ZI, {"a": NormValue.from_pow(2, Fraction(1, 2))}, ARCH)
    m1 = WeightedFreeModule(ZI, {"b": 1}, ARCH)
    t = tensor_from_pairs(m0, m1, [(elem({"a": 1}), elem({"b": 1}))])
    with pytest.raises(UnsupportedValue):
        tensor_norm(t)


def test_absorbing_map_roundtrip_and_isometry():
    space = glued_pairs()
    m0 = WeightedFreeModule(ZT, {"u": 1}, NONARCH)
    m1 = WeightedFreeModule(ZT, {"c": 1, "d": 2}, NONARCH)
    forward, backward, (cfm0, _), prod = absorbing_map(space, m0, m1)
    keys = [((c, "u"), s1) for c in range(2) for s1 in ("c", "d")]
    for combo in product(range(-2, 3), repeat=4):
        t = TensorElement(cfm0, m1, elem(dict(zip(keys, combo))))
        f = forward(t)
        assert backward(f) == t
        assert f.sup_norm() == tensor_norm(t)


def test_absorbing_indicator_case():
    space = FiniteSpace.discrete(3)
    m0 = WeightedFreeModule(ZT, {"u": 1}, NONARCH)
    m1 = WeightedFreeModule(ZT, {"m": 1}, NONARCH)
    forward, backward, (cfm0, _), prod = absorbing_map(space, m0, m1)
    # 1_U ⊗ m becomes the function with constant value u⊗m on U
    t = TensorElement(
        cfm0, m1, elem({((0, "u"), "m"): 1, ((1, "u"), "m"): 1})
    )
    f = forward(t)
    assert f.values == (elem({("u", "m"): 1}), elem({("u", "m"): 1}), ())


def test_absorbing_counterexample_growth():
    for n in (1, 4, 16):
        _, _, _, f_n, forward, backward = absorbing_counterexample(n)
        assert tensor_rank_lower_bound(f_n) == NormValue.from_fraction(n + 1)
        assert tensor_norm(f_n) == NormValue.from_fraction(n + 1)
        assert forward(f_n).sup_norm() == NV_ONE
        assert backward(forward(f_n)) == f_n


def test_cfin_module_shape():
    space = glued_pairs()
    m = WeightedFreeModule(ZT, {"a": Fraction(1, 2)}, NONARCH)
    cm = cfin_module(space, m)
    assert cm.rank == 2
    assert cm.weight((0, "a")) == NormValue.from_fraction(Fraction(1, 2))

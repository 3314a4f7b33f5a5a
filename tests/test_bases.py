import random
from math import comb

import pytest

from dbl.bases import (
    MAX_MAHLER_LEVEL,
    BasisFamily,
    family_determinant,
    generalised_vdp,
    mahler_coeffs,
    mahler_level_unimodular,
    mahler_matrix,
    mahler_pairing,
    partition_basis,
    vdp_basis_level,
    vdp_expand,
    vdp_orthonormal_check,
    vdp_reconstruct,
)
from dbl.errors import SizeExceeded, SizeMismatch
from dbl.fixtures import glued_pairs, seeded_ultrametric
from dbl.functions import CfinFunction, indicator
from dbl.intlinalg import bareiss_det
from dbl.scalars import fp_triv, int_inf, int_triv, zmod_triv
from dbl.spaces import FiniteSpace, UltrametricSpace
from oracles import mahler_eval


def test_partition_basis():
    fam = partition_basis(FiniteSpace.discrete(3))
    assert [sorted(u) for u in fam.clopens] == [[0], [1], [2]]
    assert family_determinant(fam) in (1, -1)
    sier = partition_basis(FiniteSpace.sierpinski())
    assert [sorted(u) for u in sier.clopens] == [[0, 1]]
    glued = partition_basis(glued_pairs())
    assert [sorted(u) for u in glued.clopens] == [[0, 1], [2, 3]]
    assert family_determinant(glued) in (1, -1)


def indicator_family(space, clopens) -> BasisFamily:
    clopens = tuple(map(frozenset, clopens))
    rows = tuple(indicator(space, int_inf(), U).values for U in clopens)
    return BasisFamily("vanDerPut", space, rows, clopens)


def test_is_unimodular_basis():
    # a family of clopen indicators is a basis exactly when its determinant is +-1
    d3 = FiniteSpace.discrete(3)
    assert family_determinant(indicator_family(d3, [{0}, {1}, {2}])) in (1, -1)
    assert family_determinant(indicator_family(d3, [{0, 1, 2}, {1}, {2}])) in (1, -1)  # triangular
    assert family_determinant(indicator_family(d3, [{0, 1, 2}, {0, 1}, {0, 1}])) == 0  # repeated member
    with pytest.raises(SizeMismatch):
        family_determinant(indicator_family(d3, [{0}, {1}]))


def test_vdp_level_21():
    fam = vdp_basis_level(2, 1)
    assert [sorted(u) for u in fam.clopens] == [[0, 1], [1]]
    assert family_determinant(fam) in (1, -1)


def test_vdp_level_22_normative_family():
    fam = vdp_basis_level(2, 2)
    assert [sorted(u) for u in fam.clopens] == [[0, 1, 2, 3], [1, 3], [2], [3]]
    assert family_determinant(fam) in (1, -1)


def test_vdp_level_members_are_balls():
    # each member is a p-adic ball: for x, y in U and z with
    # v_p(z - x) >= v_p(y - x) pointwise the congruence keeps z in U
    for p, k in ((2, 2), (3, 1), (2, 3), (5, 1)):
        fam = vdp_basis_level(p, k)
        size = p**k
        for u in fam.clopens[1:]:
            n = min(u)
            q = p
            while q <= n:
                q *= p
            assert u == frozenset(x for x in range(size) if x % q == n % q)


def test_vdp_level_cap():
    # the level is capped by the point cap of FiniteSpace (32)
    assert family_determinant(vdp_basis_level(2, 5)) in (1, -1)
    with pytest.raises(SizeExceeded):
        vdp_basis_level(2, 6)
    with pytest.raises(SizeExceeded):
        vdp_basis_level(10, 9)  # rejected before a point is built


def test_generalised_vdp_examples():
    one = generalised_vdp(UltrametricSpace([[0]]))
    assert [sorted(u) for u in one.clopens] == [[0]]

    two = generalised_vdp(UltrametricSpace([[0, 1], [1, 0]]))
    assert [sorted(u) for u in two.clopens] == [[0, 1], [1]]

    three = generalised_vdp(
        UltrametricSpace([[0, 1, 2], [1, 0, 2], [2, 2, 0]])
    )
    assert [sorted(u) for u in three.clopens] == [[0, 1, 2], [1], [2]]
    assert family_determinant(three) in (1, -1)


def test_generalised_vdp_properties_seeded():
    for seed in range(12):
        um = seeded_ultrametric(seed, max_points=12)
        fam = generalised_vdp(um)
        assert fam.size == um.n
        assert family_determinant(fam) in (1, -1)
        for a in fam.clopens:
            for b in fam.clopens:
                assert a & b in (a, b, frozenset())


def test_vdp_expand_examples():
    fam = partition_basis(FiniteSpace.discrete(3))
    ring = int_triv()
    ones = CfinFunction.constant(fam.space, ring, 1)
    assert vdp_expand(ones, fam) == (1, 1, 1)
    member = fam.member(1, ring)
    assert vdp_expand(member, fam) == (0, 1, 0)


def test_vdp_expand_reconstruct_roundtrip():
    fam = vdp_basis_level(2, 2)
    ring = int_inf()
    import itertools

    for vals in itertools.product(range(-2, 3), repeat=4):
        f = CfinFunction(fam.space, ring, vals)
        coeffs = vdp_expand(f, fam)
        assert vdp_reconstruct(fam, ring, coeffs) == f


def test_vdp_orthonormality():
    fam = vdp_basis_level(3, 1)
    ring = fp_triv(3)
    import itertools

    for vals in itertools.product(range(3), repeat=3):
        f = CfinFunction(fam.space, ring, vals)
        assert vdp_orthonormal_check(f, fam)


def test_mahler_coeffs_examples():
    assert mahler_coeffs([0, 1, 2, 3]) == (0, 1, 0, 0)
    assert mahler_coeffs([0, 1, 4, 9]) == (0, 1, 2, 0)
    from math import comb

    vals = [comb(x, 2) for x in range(5)]
    assert mahler_coeffs(vals) == (0, 0, 1, 0, 0)


def test_mahler_coeffs_match_the_binomial_sum():
    # the closed form a_m = sum_j (-1)^(m-j) C(m, j) f(j), term by term
    rng = random.Random(5)
    for n in range(40):
        values = [rng.randint(-10**6, 10**6) for _ in range(n)]
        want = tuple(
            sum((-1) ** (m - j) * comb(m, j) * values[j] for j in range(m + 1))
            for m in range(n)
        )
        assert mahler_coeffs(values) == want
        ring = zmod_triv(12)
        assert mahler_coeffs(values, ring) == tuple(map(ring.reduce, want))


def test_mahler_coeffs_cap():
    assert len(mahler_coeffs([1] * MAX_MAHLER_LEVEL)) == MAX_MAHLER_LEVEL
    with pytest.raises(SizeExceeded):
        mahler_coeffs([1] * (MAX_MAHLER_LEVEL + 1))


def test_mahler_reconstruction():
    for values in ([3, 1, 4, 1, 5], [0, 0, 0], [7], [2, -3, 11, -13]):
        coeffs = mahler_coeffs(values)
        for x, v in enumerate(values):
            assert mahler_eval(coeffs, x) == v


def test_mahler_pairing_examples():
    assert mahler_pairing(2, 2) == 1
    assert mahler_pairing(2, 5) == 0
    assert mahler_pairing(3, 1) == 0


def test_mahler_pairing_delta_grid():
    for n in range(13):
        for i in range(13):
            assert mahler_pairing(n, i) == (1 if n == i else 0)


def test_mahler_level_unimodular():
    cert = mahler_level_unimodular(2, 2)
    assert cert["unimodular"] and cert["det"] == 1 and cert["size"] == 4
    assert mahler_level_unimodular(3, 1)["unimodular"]
    # the certificate agrees with a direct determinant on small sizes
    for p, k in ((2, 1), (2, 2), (3, 1), (2, 3)):
        size = p**k
        assert bareiss_det(mahler_matrix(size)) == 1
    with pytest.raises(SizeExceeded):
        mahler_level_unimodular(2, 11)


def test_mahler_matrix_22_frozen():
    assert mahler_matrix(4) == (
        (1, 0, 0, 0),
        (1, 1, 0, 0),
        (1, 2, 1, 0),
        (1, 3, 3, 1),
    )


def test_vdp_expand_over_residue_rings():
    from dbl.scalars import zmod_quot

    fam = vdp_basis_level(2, 2)
    ring = zmod_quot(4)
    import itertools

    for vals in itertools.product(range(4), repeat=4):
        f = CfinFunction(fam.space, ring, vals)
        coeffs = vdp_expand(f, fam)
        assert vdp_reconstruct(fam, ring, coeffs) == f


def test_mahler_coeffs_with_residue_ring():
    ring = fp_triv(3)
    values = [ring.reduce(v) for v in (2, 5, 1, 7)]
    coeffs = mahler_coeffs(values, ring)
    for x, v in enumerate(values):
        assert mahler_eval(coeffs, x, ring) == ring.reduce(v)

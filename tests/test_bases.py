import random
import time
from math import comb

import pytest

from dbl.bases import (
    MAX_MAHLER_LEVEL,
    BasisFamily,
    family_determinant,
    generalised_vdp,
    mahler_coeffs,
    mahler_level_unimodular,
    mahler_pairing,
    partition_basis,
    vdp_basis_level,
    vdp_expand,
    vdp_orthonormal_check,
    vdp_reconstruct,
)
from dbl.errors import NotClopen, SizeExceeded, SizeMismatch
from dbl.fixtures import glued_pairs, many_fixture_spaces, seeded_ultrametric
from dbl.functions import CfinFunction, indicator
from dbl.scalars import fp_triv, int_inf, int_triv, zmod_quot, zmod_triv
from dbl.spaces import MAX_POINTS, FiniteSpace, UltrametricSpace
from oracles import bareiss_det, mahler_eval, mahler_matrix

# every van der Put level of at most MAX_POINTS points, p prime or not
SMALL_LEVELS = [
    (p, k) for p in range(2, MAX_POINTS + 1) for k in range(1, 6) if p**k <= MAX_POINTS
]


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
    return BasisFamily("vanDerPut", space, tuple(map(frozenset, clopens)))


def indicator_det(family) -> int:
    # the oracle: a Bareiss determinant of the members x components matrix
    rows = tuple(indicator(family.space, int_inf(), U).values for U in family.clopens)
    return bareiss_det(rows)


def test_is_unimodular_basis():
    # a family is certified when member i starts at quasi-component i
    d3 = FiniteSpace.discrete(3)
    assert family_determinant(indicator_family(d3, [{0}, {1}, {2}])) == 1
    assert family_determinant(indicator_family(d3, [{0, 1, 2}, {1}, {2}])) == 1  # triangular
    with pytest.raises(SizeMismatch, match="member 1"):  # a repeated member
        family_determinant(indicator_family(d3, [{0, 1, 2}, {0, 1}, {0, 1}]))
    with pytest.raises(SizeMismatch, match="not square"):
        family_determinant(indicator_family(d3, [{0}, {1}]))
    with pytest.raises(NotClopen):
        family_determinant(indicator_family(FiniteSpace.sierpinski(), [{0}]))


def test_a_unimodular_family_out_of_order_is_refused():
    # det -1, a basis, but member 1 holds component 0: no order is guessed
    fam = indicator_family(FiniteSpace.discrete(3), [{0, 1}, {0}, {2}])
    assert indicator_det(fam) == -1
    refusal = "at member 1: its least quasi-component is 0, not 1"
    with pytest.raises(SizeMismatch, match=refusal):
        family_determinant(fam)
    with pytest.raises(SizeMismatch, match=refusal):
        vdp_expand(CfinFunction.constant(fam.space, int_inf(), 1), fam)


def certified_families():
    for p, k in SMALL_LEVELS:
        yield vdp_basis_level(p, k)
    for seed in range(30):
        yield generalised_vdp(seeded_ultrametric(seed, max_points=MAX_POINTS))
    for space in many_fixture_spaces(30):
        yield partition_basis(space)


def test_the_certificate_agrees_with_the_determinant():
    families = list(certified_families())
    assert len(families) >= len(SMALL_LEVELS) + 20 + 30
    for fam in families:
        assert family_determinant(fam) == indicator_det(fam) == 1, fam.to_json()


def drop_leading_digit(n: int, p: int) -> int:
    q = 1
    while q * p <= n:
        q *= p
    return n % q


def test_vdp_coefficients_have_a_closed_form():
    # a_0 = f(0) and a_n = f(n) - f(n-), n- being n without its leading base-p digit
    rng = random.Random(17)
    for p, k in SMALL_LEVELS:
        fam = vdp_basis_level(p, k)
        for ring in (int_inf(), int_triv(), fp_triv(3), zmod_quot(4)):
            v = tuple(ring.reduce(rng.randint(-50, 50)) for _ in range(fam.size))
            f = CfinFunction(fam.space, ring, v)
            want = (v[0],) + tuple(
                ring.reduce(v[n] - v[drop_leading_digit(n, p)]) for n in range(1, fam.size)
            )
            assert vdp_expand(f, fam) == want, (p, k, ring)
            assert vdp_reconstruct(fam, ring, want) == f


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
    member = indicator(fam.space, ring, fam.clopens[1])
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


def test_mahler_level_at_the_cap_answers_quickly():
    started = time.perf_counter()
    cert = mahler_level_unimodular(2, 10)
    assert time.perf_counter() - started < 2.0
    assert cert == {"size": MAX_MAHLER_LEVEL, "unimodular": True, "det": 1, "triangular": True}


def test_mahler_matrix_22_frozen():
    assert mahler_matrix(4) == (
        (1, 0, 0, 0),
        (1, 1, 0, 0),
        (1, 2, 1, 0),
        (1, 3, 3, 1),
    )


def test_vdp_expand_over_residue_rings():
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

import time
from math import gcd, isqrt, prod

from hypothesis import given, settings
from hypothesis import strategies as st

from dbl.intlinalg import invariant_factors, matmul
from oracles import bareiss_det, transpose
from snf_oracle import smith_normal_form

small_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda r: st.integers(min_value=1, max_value=4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-6, max_value=6), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


def det_by_expansion(m):
    # oracle: Laplace expansion over Fractions
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * det_by_expansion(minor)
        total += term if j % 2 == 0 else -term
    return total


def gcd_of_minors(m, k):
    # oracle for invariant factors: d_k = gcd of all k x k minors
    from itertools import combinations

    rows = range(len(m))
    cols = range(len(m[0]))
    g = 0
    for rsel in combinations(rows, k):
        for csel in combinations(cols, k):
            sub = [[m[i][j] for j in csel] for i in rsel]
            g = gcd(g, abs(det_by_expansion(sub)))
    return g


@given(st.lists(st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3), min_size=3, max_size=3))
@settings(max_examples=120, deadline=None)
def test_bareiss_matches_expansion(m):
    assert bareiss_det(tuple(map(tuple, m))) == det_by_expansion(m)


@given(small_matrices)
@settings(max_examples=120, deadline=None)
def test_snf_properties(rows):
    a = tuple(map(tuple, rows))
    d, s, t = smith_normal_form(a)
    assert matmul(matmul(s, a), t) == d
    assert bareiss_det(s) in (1, -1)
    assert bareiss_det(t) in (1, -1)
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    for i in range(len(diag) - 1):
        if diag[i + 1] != 0:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
    for i in range(len(d)):
        for j in range(len(d[0])):
            if i != j:
                assert d[i][j] == 0


@given(small_matrices)
@settings(max_examples=60, deadline=None)
def test_invariant_factors_match_minor_gcds(rows):
    a = tuple(map(tuple, rows))
    facs = invariant_factors(a)
    prev = 1
    for k in range(1, len(facs) + 1):
        dk = gcd_of_minors(rows, k)
        assert dk == prev * facs[k - 1]
        prev = dk


@given(small_matrices)
@settings(max_examples=120, deadline=None)
def test_invariant_factors_match_the_transform_oracle(rows):
    a = tuple(map(tuple, rows))
    d, _, _ = smith_normal_form(a)
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    assert invariant_factors(a) == [x for x in diag if x]


@st.composite
def dense_square_matrices(draw):
    # a common factor k keeps the entries in [-50, 50] and gives d_1 = k
    # more often than chance would
    n = draw(st.integers(min_value=1, max_value=12))
    k = draw(st.sampled_from((1, 1, 2, 6)))
    entries = st.integers(min_value=-(50 // k), max_value=50 // k).map(lambda x: k * x)
    return tuple(
        tuple(draw(entries) for _ in range(n)) for _ in range(n)
    )


def minor(a, i, j):
    return tuple(row[:j] + row[j + 1 :] for r, row in enumerate(a) if r != i)


@given(dense_square_matrices())
@settings(max_examples=100, deadline=None)
def test_invariant_factors_of_dense_matrices_match_minors(a):
    n = len(a)
    started = time.perf_counter()
    facs = invariant_factors(a)
    assert time.perf_counter() - started < 1
    assert all(e > 0 for e in facs)
    assert all(b % e == 0 for e, b in zip(facs, facs[1:]))
    entries_gcd = gcd(*(x for row in a for x in row))
    assert (facs[0] if facs else 0) == entries_gcd
    if facs:
        # Hadamard: every nonzero minor is at most the product of the
        # norms of the nonzero rows, and d_r divides an r-minor
        hadamard_sq = prod(sum(x * x for x in row) for row in a if any(row))
        assert facs[-1].bit_length() <= isqrt(hadamard_sq).bit_length()
    det = bareiss_det(a)
    if det:
        assert len(facs) == n and prod(facs) == abs(det)
        minors_gcd = gcd(*(bareiss_det(minor(a, i, j)) for i in range(n) for j in range(n)))
        assert prod(facs[:-1]) == minors_gcd


def test_dense_6x6_finishes_quickly():
    # the first 6x6 draw of random.Random(6) with entries in [-50, 50]; the
    # dense elimination with transforms did not finish it in a minute
    a = (
        (23, -40, 12, 47, -17, -46),
        (-50, -32, 34, 25, 10, 47),
        (44, -3, -10, 48, -48, -16),
        (12, -25, 43, 2, 18, 19),
        (37, -38, -26, 22, 20, 39),
        (43, -17, 34, 28, 37, -39),
    )
    started = time.perf_counter()
    facs = invariant_factors(a)
    assert time.perf_counter() - started < 1
    assert facs == [1, 1, 1, 1, 1, 42136588692] == [1] * 5 + [abs(bareiss_det(a))]


@given(
    st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data()
)
@settings(max_examples=200, deadline=None)
def test_matmul_matches_row_times_column(ra, ca, cb, data):
    # mostly-zero entries exercise the skipped zeros of the left factor
    entries = st.sampled_from((0, 0, 0, 1, -1, 2, -5))
    a = tuple(tuple(data.draw(entries) for _ in range(ca)) for _ in range(ra))
    b = tuple(tuple(data.draw(entries) for _ in range(cb)) for _ in range(ca))
    width = cb if ca else 0  # a 0-row b carries no column count
    naive = tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(ca)) for j in range(width))
        for i in range(ra)
    )
    assert matmul(a, b) == naive


def test_transpose_matmul_shapes():
    a = ((1, 2, 3),)
    assert transpose(a) == ((1,), (2,), (3,))
    assert matmul((), a) == ()

from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from dbl.intlinalg import (
    bareiss_det,
    identity,
    invariant_factors,
    inverse_unimodular,
    matmul,
    smith_normal_form,
    transpose,
)

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


def test_inverse_unimodular():
    m = ((1, 1), (0, 1))
    inv = inverse_unimodular(m)
    assert matmul(m, inv) == identity(2)
    try:
        inverse_unimodular(((2, 0), (0, 1)))
    except ValueError:
        pass
    else:
        raise AssertionError("non-unimodular matrix accepted")


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

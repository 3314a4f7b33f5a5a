"""Exact integer linear algebra.

Matrices are tuples of tuples of ints.  Everything here is big-integer
exact: Bareiss determinants, Smith normal form with unimodular transforms
and its invariant factors, and inverses of unimodular matrices.  Ranks and
homology over Q, F_p and Z/n are read off invariant factors by callers.
"""

from __future__ import annotations

from fractions import Fraction


def identity(n: int):
    return tuple(
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
    )


def matmul(a, b):
    ra, ca = len(a), len(a[0]) if a else 0
    rb, cb = len(b), len(b[0]) if b else 0
    if ra and ca != rb:
        raise ValueError(f"shape mismatch {ra}x{ca} * {rb}x{cb}")
    out = []
    for row in a:
        # row of a*b = sum of x * b[j] over the nonzero entries x = row[j]
        acc = [0] * cb
        for x, b_row in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, b_row)]
        out.append(tuple(acc))
    return tuple(out)


def matvec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def transpose(a):
    return tuple(zip(*a)) if a else ()


def is_zero_matrix(a) -> bool:
    return all(all(x == 0 for x in row) for row in a)


def bareiss_det(a) -> int:
    """Determinant of a square integer matrix, fraction-free."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def smith_normal_form(a):
    """Smith normal form: returns (d, s, t) with s*a*t = d.

    d is diagonal with d[i] | d[i+1] and nonnegative entries; s and t are
    unimodular.
    """
    m = [list(row) for row in a]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    s = [list(row) for row in identity(nr)]
    t = [list(row) for row in identity(nc)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        s[i], s[j] = s[j], s[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in t:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        m[dst] = [x + c * y for x, y in zip(m[dst], m[src])]
        s[dst] = [x + c * y for x, y in zip(s[dst], s[src])]

    def add_col(src, dst, c):
        for row in m:
            row[dst] += c * row[src]
        for row in t:
            row[dst] += c * row[src]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        s[i] = [-x for x in s[i]]

    k = 0
    while k < min(nr, nc):
        # find a pivot
        piv = None
        for i in range(k, nr):
            for j in range(k, nc):
                if m[i][j] != 0:
                    if piv is None or abs(m[i][j]) < abs(m[piv[0]][piv[1]]):
                        piv = (i, j)
        if piv is None:
            break
        swap_rows(k, piv[0])
        swap_cols(k, piv[1])
        while True:
            # clear column k
            dirty = False
            for i in range(k + 1, nr):
                if m[i][k] != 0:
                    q = m[i][k] // m[k][k]
                    add_row(k, i, -q)
                    if m[i][k] != 0:
                        swap_rows(k, i)
                        dirty = True
            for j in range(k + 1, nc):
                if m[k][j] != 0:
                    q = m[k][j] // m[k][k]
                    add_col(k, j, -q)
                    if m[k][j] != 0:
                        swap_cols(k, j)
                        dirty = True
            if not dirty:
                break
        if m[k][k] < 0:
            negate_row(k)
        # enforce divisibility of later entries by m[k][k]
        fixed = False
        for i in range(k + 1, nr):
            for j in range(k + 1, nc):
                if m[i][j] % m[k][k] != 0:
                    add_row(i, k, 1)
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        k += 1
    return (
        tuple(tuple(row) for row in m),
        tuple(tuple(row) for row in s),
        tuple(tuple(row) for row in t),
    )


def invariant_factors(a) -> list[int]:
    d, _, _ = smith_normal_form(a)
    out = []
    for i in range(min(len(d), len(d[0]) if d else 0)):
        if d[i][i] != 0:
            out.append(d[i][i])
    return out


def inverse_unimodular(a):
    """Exact inverse of an integer matrix with determinant +-1."""
    n = len(a)
    det = bareiss_det(a)
    if det not in (1, -1):
        raise ValueError(f"matrix is not unimodular (det {det})")
    rows = [list(map(Fraction, row)) + list(map(Fraction, e)) for row, e in zip(a, identity(n))]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        pv = rows[col][col]
        rows[col] = [x / pv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    inv = []
    for row in rows:
        out = []
        for x in row[n:]:
            if x.denominator != 1:
                raise ValueError("inverse is not integral")
            out.append(int(x))
        inv.append(tuple(out))
    return tuple(inv)

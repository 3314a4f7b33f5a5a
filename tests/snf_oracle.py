"""Smith normal form with unimodular transforms: a test oracle.

The library computes only the invariant factors (intlinalg.invariant_factors).
The tests also need the transforms: columns of t beyond the rank span the
kernel of a matrix, and rows of s beyond the rank its left kernel.  This
dense elimination carries both, and its diagonal cross-checks the
transform-free one.
"""

from dbl.intlinalg import identity


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

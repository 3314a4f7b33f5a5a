"""Exact integer linear algebra.

Matrices are tuples of tuples of ints.  Everything here is big-integer
exact: identities, products and invariant factors (the Smith diagonal,
found by sparse row elimination without transforms).  Ranks and homology
over Q, F_p and Z/n are read off invariant factors by callers.
"""

from __future__ import annotations


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


def invariant_factors(a) -> list[int]:
    """The nonzero Smith diagonal of an integer matrix, without transforms.

    Returns the positive invariant factors d_1 | d_2 | ... .  Rows are
    kept sparse, as dicts from column to nonzero entry (Dumas, Saunders
    and Villard 2001), and every step is unimodular (Kannan and Bachem
    1979).  A step takes an entry p of least absolute value as the pivot
    and reduces the rows that meet its column.  Once p is alone in its
    column, the column operations that clear its row only reduce the
    row's entries mod p, since every other row is 0 there.  A row with an
    entry that p does not divide is added to the pivot row, and reduced
    mod p, before p is emitted.  A step that leaves a nonzero remainder
    starts again from a pivot smaller than |p|, so the loop ends; an
    emitted p divides every entry left, so the factors come out in
    divisibility order.
    """
    rows = [r for r in ({j: x for j, x in enumerate(row) if x} for row in a) if r]
    out = []
    while rows:
        pr, pc, p = _least_entry(rows)
        prow = rows.pop(pr)
        # reduce the rows that meet the pivot column
        alone = True
        for row in rows:
            x = row.get(pc)
            if x is None:
                continue
            q = x // p
            for j, y in prow.items():
                z = row.get(j, 0) - q * y
                if z:
                    row[j] = z
                else:
                    del row[j]
            alone = alone and pc not in row
        rows = [r for r in rows if r]
        if alone:
            _reduce_mod(prow, pc, p)
            if len(prow) == 1 and p not in (1, -1):
                # p must divide every entry left; a row with an entry that
                # it does not divide is added to the pivot row, as a remainder
                bad = next((r for r in rows if any(y % p for y in r.values())), None)
                if bad is not None:
                    prow.update(bad)
                    _reduce_mod(prow, pc, p)
            if len(prow) == 1:
                out.append(abs(p))
                continue
        rows.append(prow)
    return out


def _reduce_mod(row: dict, pc: int, p: int):
    """Reduce every entry of row outside column pc mod p, dropping zeros."""
    for j, y in list(row.items()):
        if j != pc:
            z = y % p
            if z:
                row[j] = z
            else:
                del row[j]


def _least_entry(rows) -> tuple[int, int, int]:
    """(row index, column, entry) of an entry of least absolute value."""
    best = None
    for i, row in enumerate(rows):
        for j, x in row.items():
            if x in (1, -1):
                return i, j, x
            if best is None or abs(x) < abs(best[2]):
                best = (i, j, x)
    return best


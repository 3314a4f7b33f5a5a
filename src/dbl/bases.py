"""Integer bases of function algebras: partitions, van der Put, Mahler.

A basis family carries an evaluation matrix (members x quasi-components);
a unimodularity certificate is its determinant being +-1, which proves
Z-linear basis status over any coefficient ring.  Van der Put families
consist of nested-or-disjoint clopen indicators (pair products land in
{e0, e1, 0}); the Mahler matrix of truncated binomial coefficients is
lower unitriangular on 0..p^k-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import SizeExceeded, SizeMismatch
from .intlinalg import bareiss_det, inverse_unimodular, matvec, transpose
from .normvalue import NV_ZERO
from .scalars import RingDescriptor
from .spaces import MAX_POINTS, BallNode, FiniteSpace, UltrametricSpace, ball_tree
from .functions import CfinFunction

MAX_MAHLER_LEVEL = 1024


def _level_size(p: int, k: int, cap: int) -> int:
    """p**k for p >= 2 and k >= 1, refused as soon as the product passes cap."""
    if p < 2 or k < 1:
        raise ValueError(f"a level needs p >= 2 and k >= 1, got p={p}, k={k}")
    size = 1
    for _ in range(k):
        size *= p
        if size > cap:
            raise SizeExceeded(f"p^k = {p}^{k} > {cap}")
    return size


@dataclass(frozen=True)
class BasisFamily:
    """A finite family of functions given by an evaluation matrix.

    rows[i][c] is the value of member i on quasi-component c.  For
    idempotent kinds the members are clopen indicators and clopens[i]
    records the point set.
    """

    kind: str  # 'partition' | 'vanDerPut' | 'generalisedVdP'
    space: FiniteSpace
    rows: tuple
    clopens: tuple | None = None

    @property
    def size(self) -> int:
        return len(self.rows)

    def member(self, i: int, ring: RingDescriptor) -> CfinFunction:
        return CfinFunction(
            self.space, ring, tuple(ring.reduce(v) for v in self.rows[i])
        )

    def to_json(self):
        out = {"kind": self.kind, "size": self.size}
        if self.clopens is not None:
            out["clopens"] = [sorted(U) for U in self.clopens]
        else:
            out["rows"] = [list(r) for r in self.rows]
        return out


def _indicator_rows(space: FiniteSpace, clopens):
    rows = []
    for U in clopens:
        comps = space.clopen_component_indices(U)
        rows.append(
            tuple(
                1 if c in comps else 0
                for c in range(len(space.quasi_components))
            )
        )
    return tuple(rows)


def partition_basis(space: FiniteSpace) -> BasisFamily:
    """Indicators of the quasi-components (a permutation matrix)."""
    clopens = tuple(space.quasi_components)
    return BasisFamily(
        "partition", space, _indicator_rows(space, clopens), clopens
    )


def family_determinant(family: BasisFamily) -> int:
    if family.size != len(family.space.quasi_components):
        raise SizeMismatch("family is not square")
    return bareiss_det(family.rows)


def vdp_basis_level(p: int, k: int) -> BasisFamily:
    """Level-k truncation of the van der Put clopens on Z/p^k.

    Member 0 is the whole space; member n (1 <= n < p^k) is the set of
    residues congruent to n modulo the smallest power of p exceeding n.
    Each set is a ball for the p-adic metric.
    """
    size = _level_size(p, k, MAX_POINTS)
    space = FiniteSpace.discrete(size)
    clopens = [frozenset(range(size))]
    for n in range(1, size):
        q = p
        while q <= n:
            q *= p
        clopens.append(frozenset(x for x in range(size) if x % q == n % q))
    return BasisFamily(
        "vanDerPut", space, _indicator_rows(space, clopens), tuple(clopens)
    )


def _collect_generalised(node: BallNode, out: list):
    for child in node.children:
        if min(child.points) != min(node.points):
            out.append(child.points)
        _collect_generalised(child, out)


def generalised_vdp(um: UltrametricSpace) -> BasisFamily:
    """Ball-tree basis: the root plus every non-distinguished ball.

    At each node the child containing the minimal point is distinguished
    and omitted; the remaining balls, with the whole space, give exactly
    one indicator per point, pairwise products in {e0, e1, 0}.
    """
    tree = ball_tree(um)
    space = FiniteSpace.discrete(um.n)
    sets = [tree.points]
    _collect_generalised(tree, sets)
    sets = [sets[0]] + sorted(sets[1:], key=lambda b: (min(b), -len(b)))
    return BasisFamily(
        "generalisedVdP", space, _indicator_rows(space, sets), tuple(sets)
    )


def vdp_expand(f: CfinFunction, family: BasisFamily) -> tuple:
    """Coefficients a with sum a_i * member_i = f, solved exactly.

    The family must be unimodular on f's space; over Z the inverse matrix
    is integral, and residues reduce it modulo the ring.
    """
    if f.space != family.space:
        raise SizeMismatch("function and family live on different spaces")
    det = family_determinant(family)
    if det not in (1, -1):
        raise SizeMismatch(f"family is not unimodular (det {det})")
    ring = f.coeff
    inv = inverse_unimodular(transpose(family.rows))
    coeffs = matvec(inv, f.values)
    return tuple(ring.reduce(c) for c in coeffs)


def vdp_reconstruct(family: BasisFamily, ring: RingDescriptor, coeffs) -> CfinFunction:
    vals = matvec(transpose(family.rows), coeffs)
    return CfinFunction(
        family.space, ring, tuple(ring.reduce(v) for v in vals)
    )


def vdp_orthonormal_check(f: CfinFunction, family: BasisFamily) -> bool:
    """max |a_i| == sup norm of f, for non-Archimedean unit-weight rings."""
    coeffs = vdp_expand(f, family)
    ring = f.coeff
    lhs = NV_ZERO
    for c in coeffs:
        nc = ring.norm(ring.reduce(c))
        if nc > lhs:
            lhs = nc
    return lhs == f.sup_norm()


# -- Mahler ----------------------------------------------------------------


def mahler_coeffs(values, ring: RingDescriptor | None = None) -> tuple:
    """Forward differences a_n = sum (-1)^{n-j} C(n,j) f(j), of at most MAX_MAHLER_LEVEL values."""
    if len(values) > MAX_MAHLER_LEVEL:
        raise SizeExceeded(f"{len(values)} values > MAX_MAHLER_LEVEL = {MAX_MAHLER_LEVEL}")
    out, row = [], list(values)
    while row:
        out.append(row[0] if ring is None else ring.reduce(row[0]))
        row = [b - a for a, b in zip(row, row[1:])]
    return tuple(out)


def mahler_pairing(n: int, i: int) -> int:
    """sum_{j<=i} (-1)^{n-j} C(i,j) C(j,n); the Kronecker delta of (n, i)."""
    if n < 0 or i < 0:
        raise ValueError("indices must be nonnegative")
    acc = 0
    for j in range(i + 1):
        term = comb(i, j) * comb(j, n)
        acc += -term if (n - j) % 2 else term
    return acc


def mahler_matrix(size: int):
    return tuple(
        tuple(comb(i, n) for n in range(size)) for i in range(size)
    )


def mahler_level_unimodular(p: int, k: int) -> dict:
    """Certificate that [C(i, n)] on 0..p^k-1 is lower unitriangular.

    Unit diagonal plus vanishing above the diagonal force determinant 1,
    so the truncated binomials are a basis over any coefficient ring.
    """
    size = _level_size(p, k, MAX_MAHLER_LEVEL)
    m = mahler_matrix(size)
    for i in range(size):
        if m[i][i] != 1:
            return {"size": size, "unimodular": False, "det": None}
        for n in range(i + 1, size):
            if m[i][n] != 0:
                return {"size": size, "unimodular": False, "det": None}
    return {"size": size, "unimodular": True, "det": 1, "triangular": True}

"""Integer bases of function algebras: partitions, van der Put, Mahler.

A basis family is a list of clopen indicators in member order.  It is
certified by its shape: member i holds quasi-component i and none before
it, so the members x quasi-components matrix is upper unitriangular, its
determinant is 1, and the family is a Z-linear basis over any coefficient
ring (Schikhof, Ultrametric Calculus, 62-63).  Expansion is back
substitution in that order.  Van der Put families consist of
nested-or-disjoint clopen indicators (pair products land in {e0, e1, 0});
the Mahler matrix of truncated binomial coefficients is lower
unitriangular on 0..p^k-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import SizeExceeded, SizeMismatch, _printable
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
    """A finite family of clopen indicators: member i is 1 on clopens[i]."""

    kind: str  # 'partition' | 'vanDerPut' | 'generalisedVdP'
    space: FiniteSpace
    clopens: tuple

    @property
    def size(self) -> int:
        return len(self.clopens)

    def to_json(self):
        return {
            "kind": self.kind,
            "size": self.size,
            "clopens": [sorted(U) for U in self.clopens],
        }


def _certified_members(family: BasisFamily) -> list[frozenset]:
    """The quasi-component indices of each member, once the family is certified.

    The certificate: there are as many members as quasi-components, and
    the least component of member i is i.  A set that is not clopen raises
    NotClopen; the first member that breaks the order raises SizeMismatch.
    """
    space = family.space
    if family.size != len(space.quasi_components):
        raise SizeMismatch("family is not square")
    members = [space.clopen_component_indices(U) for U in family.clopens]
    for i, comps in enumerate(members):
        least = min(comps, default=None)
        if least != i:
            raise SizeMismatch(
                f"family is not unitriangular at member {i}: "
                f"its least quasi-component is {least}, not {i}"
            )
    return members


def family_determinant(family: BasisFamily) -> int:
    """1, the determinant of a certified family's upper unitriangular matrix."""
    _certified_members(family)
    return 1


def partition_basis(space: FiniteSpace) -> BasisFamily:
    """Indicators of the quasi-components (the identity matrix)."""
    return BasisFamily("partition", space, tuple(space.quasi_components))


def vdp_basis_level(p: int, k: int) -> BasisFamily:
    """Level-k truncation of the van der Put clopens on Z/p^k.

    Member 0 is the whole space; member n (1 <= n < p^k) is the set of
    residues congruent to n modulo the smallest power of p exceeding n.
    Each set is a ball for the p-adic metric, and n is its least point.
    """
    size = _level_size(p, k, MAX_POINTS)
    clopens = [frozenset(range(size))]
    for n in range(1, size):
        q = p
        while q <= n:
            q *= p
        clopens.append(frozenset(range(n, size, q)))
    return BasisFamily("vanDerPut", FiniteSpace.discrete(size), tuple(clopens))


def _collect_generalised(node: BallNode, out: list):
    for child in node.children:
        if min(child.points) != min(node.points):
            out.append(child.points)
        _collect_generalised(child, out)


def generalised_vdp(um: UltrametricSpace) -> BasisFamily:
    """Ball-tree basis: the root plus every non-distinguished ball.

    At each node the child containing the minimal point is distinguished
    and omitted; the remaining balls, with the whole space, give exactly
    one indicator per point, pairwise products in {e0, e1, 0}.  Point x > 0
    is the least point of exactly one of them, the largest ball it is
    least in, so in order of least points member x starts at x.
    """
    tree = ball_tree(um)
    sets = [tree.points]
    _collect_generalised(tree, sets)
    sets = [sets[0]] + sorted(sets[1:], key=min)
    return BasisFamily("generalisedVdP", FiniteSpace.discrete(um.n), tuple(sets))


def vdp_expand(f: CfinFunction, family: BasisFamily) -> tuple:
    """Coefficients a with sum a_i * member_i = f, by back substitution.

    On a certified family f(c) is a_c plus the a_i of the members i < c
    that hold c, so a_c = f(c) - those a_i, exactly over Z; each is then
    reduced in f's ring.
    """
    if f.space != family.space:
        raise SizeMismatch("function and family live on different spaces")
    members = _certified_members(family)
    coeffs = []
    for c, v in enumerate(f.values):
        coeffs.append(v - sum(a for a, comps in zip(coeffs, members) if c in comps))
    return tuple(map(f.coeff.reduce, coeffs))


def vdp_reconstruct(family: BasisFamily, ring: RingDescriptor, coeffs) -> CfinFunction:
    """sum a_i * member_i: at each quasi-component, the a_i of the members holding it."""
    space = family.space
    members = [space.clopen_component_indices(U) for U in family.clopens]
    return CfinFunction(
        space,
        ring,
        tuple(
            ring.reduce(sum(a for a, comps in zip(coeffs, members) if c in comps))
            for c in range(len(space.quasi_components))
        ),
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
        out.append(_printable(row[0] if ring is None else ring.reduce(row[0]), "a coefficient"))
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


def mahler_level_unimodular(p: int, k: int) -> dict:
    """Certificate that [C(i, n)] on 0..p^k-1 is lower unitriangular.

    Unit diagonal plus vanishing above the diagonal force determinant 1,
    so the truncated binomials are a basis over any coefficient ring.
    """
    size = _level_size(p, k, MAX_MAHLER_LEVEL)
    for i in range(size):
        # entry (i, n) is C(i, n): 1 on the diagonal, 0 for every n > i
        if comb(i, i) != 1 or any(comb(i, n) for n in range(i + 1, size)):
            return {"size": size, "unimodular": False, "det": None}
    return {"size": size, "unimodular": True, "det": 1, "triangular": True}

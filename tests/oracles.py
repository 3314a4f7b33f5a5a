"""Brute-force references that only the tests need.

Each one lists or scans what the library reads off directly: every clopen,
every lift, every representation.  They cross-check the library on small
inputs.
"""

from itertools import combinations, product

from dbl.cech import CoverFamily, GluedModule
from dbl.errors import NotEmbedding, NotUltrafilter
from dbl.functions import indicator
from dbl.modtensor import ARCH, QuotientModule, TensorElement, elem
from dbl.normvalue import NV_ZERO, NormValue, nv_max, nv_sum
from dbl.spaces import FiniteSpace
from dbl.spectrum import SeminormOracle, SpectrumPoint, _identify_base


def topologies(n: int):
    """Every topology on the points 0..n-1, one space each (n <= 4).

    A finite topology is a preorder: every transitive set of ordered pairs
    x <= y gives the minimal opens up[x] = {x} and the y above x.
    """
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    for size in range(len(pairs) + 1):
        for chosen in combinations(pairs, size):
            rel = set(chosen)
            if all(
                (x, z) in rel
                for x, y in rel
                for y2, z in rel
                if y == y2 and x != z
            ):
                yield FiniteSpace(
                    n, [{x} | {y for a, y in rel if a == x} for x in range(n)]
                )


def check_embeddings_by_pieces(space: FiniteSpace, family: CoverFamily):
    """The per-piece embedding check: each piece's components recomputed.

    Raises NotEmbedding, with the message tate_verdict gives, at the first
    piece whose components land in one component of the space.
    """
    for K in family.sets:
        seen: dict[int, int] = {}
        for i, block in enumerate(space.components(K)):
            j = seen.setdefault(space.component_index(min(block)), i)
            if j != i:
                raise NotEmbedding(
                    f"inclusion of {sorted(K)} merges quasi-components {(j, i)}"
                )


def ultrafilters(space: FiniteSpace) -> list[frozenset]:
    """All ultrafilters of the Boolean algebra of clopens.

    One per quasi-component: the clopens containing that block, as a
    frozenset of clopens.
    """
    return [
        frozenset(U for U in space.clopens if block <= U)
        for block in space.quasi_components
    ]


def g_split_by_sweep(oracle: SeminormOracle) -> SpectrumPoint:
    """g_split testing every clopen indicator: the full 2^k sweep (k <= 12).

    The clopens of nonzero value must be the ultrafilter of one
    quasi-component; the base point is then read as g_split reads it.
    """
    space, ring = oracle.space, oracle.ring
    hits = frozenset(
        U for U in space.clopens if not oracle(indicator(space, ring, U)).is_zero
    )
    for c, filt in enumerate(ultrafilters(space)):
        if hits == filt:
            return SpectrumPoint(c, _identify_base(space, ring, oracle))
    raise NotUltrafilter("indicator values are not the ultrafilter of one quasi-component")


def norm_by_scan(q: QuotientModule, e: tuple, radius: int) -> NormValue:
    """The quotient norm of e, minimized over lifts shifted by k*n, |k| <= radius."""
    coords = list(q.project(e))
    best = None
    for shifts in product(range(-radius, radius + 1), repeat=len(coords)):
        lift = elem({s: c + k * q.modulus for (s, c), k in zip(coords, shifts)})
        val = q.ambient.norm(lift)
        if best is None or val < best:
            best = val
    return best if best is not None else NV_ZERO


def representation_cost(t: TensorElement, pairs) -> NormValue:
    """Cost of one representation: sum (arch) or max (nonarch) of term norms."""
    if TensorElement.from_pairs(t.m0, t.m1, pairs).matrix != t.matrix:
        raise ValueError("pairs do not represent the tensor")
    terms = [t.m0.norm(e0) * t.m1.norm(e1) for e0, e1 in pairs]
    if not terms:
        return NV_ZERO
    return nv_sum(terms) if t.m0.mode == ARCH else nv_max(terms)


def restrict_to_piece(glued: GluedModule, family: CoverFamily, i: int) -> dict:
    """The fiber ranks of the components that meet piece i."""
    return {
        c: glued.fiber_rank[c]
        for c, block in enumerate(glued.space.quasi_components)
        if block & family.sets[i]
    }

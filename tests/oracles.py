"""Brute-force references and law checks that only the tests need.

Each one lists or scans what the library reads off directly: every clopen,
every lift, every representation, every sampled pair of a ring or a
seminorm.  They cross-check the library on small inputs.
"""

from itertools import combinations
from math import comb

from dbl import cech
from dbl.cech import ChainComplex, CoverFamily
from dbl.errors import NotEmbedding, NotUltrafilter, RingMismatch, ValidationFailure
from dbl.functions import indicator
from dbl.modtensor import ARCH, TensorElement, elem
from dbl.normvalue import NV_ONE, NV_ZERO, NormValue, nv_max, nv_sum
from dbl.scalars import RingDescriptor
from dbl.spaces import FiniteSpace, PointMap
from dbl.spectrum import (
    BasePoint,
    SeminormOracle,
    SpectrumPoint,
    _identify_base,
    _Probes,
    base_eval,
    canonical_point,
    is_admissible,
)


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


def block_keys_by_relabelling(space: FiniteSpace, sets) -> list[tuple]:
    """The memo key of the sets' traces on each block, one block at a time.

    Each quasi-component (the empty space has one empty block) is
    relabelled 0..m-1 in increasing order on its own; its key is the
    bitmasks of its points' up sets and of the sets' traces on it.  A
    one-point block has no key (None).
    """
    keys = []
    for block in space.quasi_components or (frozenset(),):
        if len(block) == 1:
            keys.append(None)
            continue
        index = {x: i for i, x in enumerate(sorted(block))}

        def mask(points):
            return sum(1 << index[y] for y in points)

        keys.append((
            tuple(mask(space.up[x]) for x in index),
            tuple(mask(K & block) for K in sets),
        ))
    return keys


def zeta_is_cover(space: FiniteSpace, family: CoverFamily) -> bool:
    """Cover test at quasi-component level: every block meets some set."""
    for block in space.quasi_components:
        if not any(block & K for K in family.sets):
            return False
    return True


def exactness(complex_: ChainComplex) -> dict:
    """The homology report of a whole complex, the reference for tate_verdict.

    It eliminates every differential of the complex of the family's traces
    on all of X, where tate_verdict sums the entries of its blocks; both
    read the report off the invariant factors by one rule (cech._homology).
    """
    return cech._homology(
        tuple(map(len, complex_.terms)),
        tuple(map(cech._invariants, complex_.diffs)),
        complex_.ring.modulus or 0,
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
            return SpectrumPoint(c, _identify_base(_Probes(space, ring), oracle))
    raise NotUltrafilter("indicator values are not the ultrafilter of one quasi-component")


def is_up_set(space: FiniteSpace, U) -> bool:
    """The preorder's rule for an open set: it holds up[x] for each of its points x."""
    return all(space.up[x] <= U for x in U)


def tensor_from_pairs(m0, m1, pairs) -> TensorElement:
    """The sum of the simple tensors e0 (x) e1 over the pairs, expanded term by term."""
    ring = m0.ring
    if m1.ring != ring:
        raise RingMismatch("tensor factors over different rings")
    coeffs: dict = {}
    for e0, e1 in pairs:
        for s0, c0 in e0:
            for s1, c1 in e1:
                key = (s0, s1)
                coeffs[key] = ring.add(coeffs.get(key, 0), ring.mul(c0, c1))
    return TensorElement(m0, m1, elem(coeffs))


def representation_cost(t: TensorElement, pairs) -> NormValue:
    """Cost of one representation: sum (arch) or max (nonarch) of term norms."""
    if tensor_from_pairs(t.m0, t.m1, pairs).matrix != t.matrix:
        raise ValueError("pairs do not represent the tensor")
    terms = [t.m0.norm(e0) * t.m1.norm(e1) for e0, e1 in pairs]
    if not terms:
        return NV_ZERO
    return nv_sum(terms) if t.m0.mode == ARCH else nv_max(terms)



def inclusion_map(subset, space: FiniteSpace) -> tuple[FiniteSpace, PointMap]:
    """Subspace on a point subset, with its inclusion into space.

    The subspace's smallest opens are up[x] & subset, renumbered.
    """
    pts = sorted(frozenset(subset))
    idx = {x: i for i, x in enumerate(pts)}
    if not idx.keys() <= set(space.points):
        raise ValueError(f"{pts} not within the space")
    sub = FiniteSpace(
        len(pts), [frozenset(idx[y] for y in space.up[x] if y in idx) for x in pts]
    )
    return sub, PointMap(sub, space, tuple(pts))


def mahler_eval(coeffs, x: int, ring: RingDescriptor | None = None):
    """sum a_n C(x, n): the function with Mahler coefficients a_n, at x."""
    acc = 0
    for n, a in enumerate(coeffs):
        acc += a * comb(x, n)
    return ring.reduce(acc) if ring is not None else acc


def mahler_matrix(size: int):
    """The binomials [C(i, n)] for i, n < size, every entry built."""
    return tuple(tuple(comb(i, n) for n in range(size)) for i in range(size))


def matvec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def transpose(a):
    return tuple(zip(*a)) if a else ()


def bareiss_det(a) -> int:
    """Determinant of a square integer matrix, fraction-free (Bareiss 1968)."""
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


def validate_ring(ring: RingDescriptor, sample_bound: int) -> dict:
    """Check the normed-ring laws on all pairs of sampled elements.

    Verifies submultiplicativity, the triangle inequality (strong form when
    the ring is declared non-Archimedean), the norm gap (every nonzero
    element has norm >= 1), and norm(a) = 0 iff a = 0.  Raises
    ValidationFailure with the first witness pair.
    """
    if sample_bound < 2:
        raise ValueError("sample_bound must be >= 2")
    sample = ring.elements(sample_bound)
    for a in sample:
        na = ring.norm(a)
        if (a == ring.zero) != na.is_zero:
            raise ValidationFailure("definiteness", a)
        if a != ring.zero and na < NV_ONE:
            raise ValidationFailure("isolation", a)
    for a in sample:
        na = ring.norm(a)
        for b in sample:
            nb = ring.norm(b)
            nprod = ring.norm(ring.mul(a, b))
            if nprod > na * nb:
                raise ValidationFailure("submultiplicativity", (a, b))
            nsum = ring.norm(ring.add(a, b))
            if ring.non_archimedean:
                bigger = na if na >= nb else nb
                if nsum > bigger:
                    raise ValidationFailure("strong triangle", (a, b))
            elif nsum.as_fraction() > na.as_fraction() + nb.as_fraction():
                raise ValidationFailure("triangle", (a, b))
    return {
        "ring": str(ring),
        "sample_bound": sample_bound,
        "pairs_checked": len(sample) ** 2,
        "submultiplicative": True,
        "triangle": "strong" if ring.non_archimedean else "weak",
        "one_norm": ring.norm(ring.one).to_json(),
    }


def validate_point(ring: RingDescriptor, point: BasePoint, sample_bound: int = 20) -> dict:
    """Check multiplicativity, boundedness, unit norms and the triangle law.

    The triangle inequality for arch points is certified by the base-level
    criterion: |a+b| <= |a| + |b| for the Euclidean value on the samples
    together with eps in [0, 1] (t -> t^eps is subadditive there).
    """
    if not is_admissible(ring, point):
        raise ValidationFailure("admissibility", str(point))
    point = canonical_point(ring, point)
    sample = ring.elements(sample_bound)

    def value(a):
        return base_eval(point, ring, a)

    if value(ring.zero) != NV_ZERO:
        raise ValidationFailure("zero", 0)
    if not ring.is_zero_ring and value(ring.one) != NV_ONE:
        raise ValidationFailure("unit", 1)
    for a in sample:
        va = value(a)
        if va > ring.norm(a):
            raise ValidationFailure("boundedness", a)
        for b in sample:
            vb = value(b)
            vab = value(ring.mul(a, b))
            if vab != va * vb:
                raise ValidationFailure("multiplicativity", (a, b))
            vsum = value(ring.add(a, b))
            if point.kind == "arch":
                # base-level check; subadditivity of t^eps does the rest
                if abs(ring.add(a, b)) > abs(a) + abs(b):
                    raise ValidationFailure("triangle(base)", (a, b))
            else:
                bigger = va if va >= vb else vb
                if vsum > bigger:
                    raise ValidationFailure("strong triangle", (a, b))
    return {
        "ring": str(ring),
        "point": str(point),
        "samples": len(sample),
        "multiplicative": True,
        "bounded": True,
    }

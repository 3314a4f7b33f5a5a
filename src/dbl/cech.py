"""Closed-cover complexes, exactness by normal forms, and strict sections.

The complex of a finite family of closed subsets has degree-k term the
product of function modules on the k-fold intersections (degree 0 is X)
with alternating restriction differentials: one free summand per
quasi-component of an intersection, read off the space's specialization
preorder by FiniteSpace.components without building a subspace.  Each
piece C(X, R) -> C(K, R) must be a homotopy epimorphism (zeta(K) -> zeta(X)
injective), that is, no trace of K on a quasi-component of X may fall
apart.  The differentials are integer matrices: the rings here are
discrete, so the complex over R is the integer complex tensored with R,
and its homology over Z, F_p, Z/n and the zero ring is read off the
invariant factors of each integer differential (intlinalg.invariant_factors,
a sparse elimination that keeps no transforms) by one rule, _degrees.

C(X, R) is the product of C(B, R) over the quasi-components B of X, so
the complex of a family is the direct sum of the complexes of its traces
on the blocks, and a verdict is the sum of its blocks' entries: term
ranks, each differential's rank and invariant factors greater than 1,
the quasi-component cover test, and the index of the first piece with
two degree-1 labels, if any (see _integer_invariants); the empty space
has one empty block.  The homology report reads nothing else, so an
entry stands for its complex up to homotopy equivalence, with the same
number of terms.  A one-point block held by j of the sets has the
augmented cochain complex of the full simplex on them: R for j = 0, and
for j >= 1 a bounded exact complex of free modules, so contractible,
whose entry is the zero complex of j + 1 terms (_point_entry).  A
discrete space (FiniteSpace.is_discrete), all of whose blocks are
points, sums those: R^u in degree 0, u the points in no set, then zero
terms up to the most sets holding a point.  Neither is built or stored.
Any other block's complex is built on the caller's space, its labels the
components of each intersection within the block (each tuple's
intersection cut from its prefix's, and only nonempty prefixes
extended), and its entry is kept in _MEMO, so it is built and eliminated
once for every ring and every space that contains it.  The key is the
point bitmasks of the block's up sets and of the sets' traces on it, its
points relabelled 0..m-1 (spaces are equal when their up sets are, so
the key is exact, and no space is kept alive); a connected space's one
block is the space itself.  The homology over a ring is read off an
entry by _degrees and kept in _DEGREES per entry and modulus (see
_homology).  The README's "Memory bounds" table gives each table's key,
bound and worst-case size.

The only cap on the points of a complex is spaces.MAX_POINTS.  Covers are
characterized by exactness (Ben-Bassat and Kremnizer, arXiv:1312.0338).
The constructive side is strict_sections, a selection homotopy whose
per-stage constants are reported with the section matrices; the other
side is descent_faithful_witness, a nonzero function that restricts to
zero on every set of a non-cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, zip_longest
from math import gcd
from operator import add

from ._memo import Memo
from .errors import EquivalenceViolation, IsCover, NoSection, NotEmbedding, SizeExceeded
from .functions import CfinFunction
from .intlinalg import identity, invariant_factors, matmul
from .scalars import RingDescriptor, int_inf
from .spaces import _PLAIN_INT, FiniteSpace, _ints, merged_pair

MAX_FAMILY = 6

# bounds of the memo tables behind tate_verdict: entries, and the bits of
# the factors greater than 1 (and torsion) of a kept entry or result
MEMO_COMPLEXES = 1024
MEMO_FACTOR_BITS = 64


@dataclass(frozen=True)
class CoverFamily:
    """A finite nonempty family of closed subsets of a finite space."""

    space: FiniteSpace
    sets: tuple[frozenset, ...]

    def __post_init__(self):
        space, sets = self.space, self.sets
        if not sets:
            raise ValueError("family must be nonempty")
        if len(sets) > MAX_FAMILY:
            raise SizeExceeded(f"family size {len(sets)} > {MAX_FAMILY}")
        # every set of points of a discrete space is closed, so one pass
        # over the family's points checks it: each a plain int, and all
        # among the space's points; a family that fails takes the per-set
        # check below, which names the fault
        if (
            space.is_discrete
            and _PLAIN_INT.issuperset(map(type, chain.from_iterable(sets)))
            and space._point_set.issuperset(chain.from_iterable(sets))
        ):
            return
        for K in sets:
            if not space.is_closed(K):
                _ints(K)  # a point that is not an int is named first
                raise ValueError(f"{sorted(K)} is not closed")

    @staticmethod
    def make(space: FiniteSpace, sets) -> "CoverFamily":
        return CoverFamily(space, tuple(map(frozenset, sets)))


def is_cover(space: FiniteSpace, family: CoverFamily) -> bool:
    """Set-theoretic union test on points."""
    return frozenset().union(*family.sets) == space._point_set


@dataclass(frozen=True)
class ChainComplex:
    """An integer complex of free modules, read over ``ring``.

    terms[k] is the list of basis labels in degree k; diffs[k] maps degree
    k to degree k+1 (matrix rows indexed by degree-k+1 labels).  The
    differentials are integer matrices whose consecutive products vanish
    over Z, not only modulo the ring's modulus.
    """

    ring: RingDescriptor
    terms: tuple
    diffs: tuple

    def __post_init__(self):
        for k in range(len(self.diffs) - 1):
            first, second = self.diffs[k], self.diffs[k + 1]
            if second and len(second[0]) != len(first):
                raise ValueError(f"shape mismatch between degrees {k + 1} and {k + 2}")
            if any(map(any, matmul(second, first))):
                raise ValueError(f"d∘d nonzero between degrees {k} and {k + 2}")

    @property
    def length(self) -> int:
        return len(self.terms)

    def rank(self, k: int) -> int:
        return len(self.terms[k])


def _columns(labels) -> dict:
    """(tuple, point) -> index of the label whose component holds the point."""
    return {(tup, x): j for j, (tup, c) in enumerate(labels) for x in c}


def build_tate_cech(
    space: FiniteSpace,
    family: CoverFamily,
    ring: RingDescriptor,
) -> ChainComplex:
    """The alternating complex of a finite closed family over ring.

    It is the complex of the family's traces on all of X (see _cech), so
    its degree-0 labels are X's quasi-components.  tate_verdict sums the
    complexes of the traces on each quasi-component instead.
    """
    return ChainComplex(ring, *_cech(space, family.sets, frozenset(space.points)))


def _cech(space: FiniteSpace, sets, within: frozenset) -> tuple[tuple, tuple]:
    """The terms and differentials of the complex of the sets' traces on within.

    Degree k is the product over strictly increasing k-fold tuples I of C
    of within ∩ K_I; degree 0 is the empty tuple, whose intersection is
    within.  Each tuple is labelled by space.components(within ∩ K_I), so
    no subspace is built.  Each k-tuple's intersection is its (k-1)-prefix's
    cut by its last set, and only prefixes with a nonempty intersection
    are extended: any other tuple's intersection is empty and has no
    label.  A degree's tuples come out in lexicographic order, the
    prefixes' order, and the terms stop at the first empty degree past 0.
    Differentials are signed restrictions: a component of an intersection
    is connected, so it lies in exactly one component of each face, the
    one holding its least point.
    """
    # labels per degree: (tuple_of_indices, component_frozenset)
    terms = [tuple(((), c) for c in space.components(within))]
    level = [((), within)] if within else []
    while level:
        labels, longer = [], []
        for tup, meet in level:
            for i in range(tup[-1] + 1 if tup else 0, len(sets)):
                cut = meet & sets[i]
                if cut:
                    ext = tup + (i,)
                    longer.append((ext, cut))
                    labels.extend((ext, c) for c in space.components(cut))
        if labels:
            terms.append(tuple(labels))
        level = longer

    diffs = []
    for k in range(len(terms) - 1):
        src, dst = terms[k], terms[k + 1]
        col = _columns(src)
        rows = []
        for tup_d, comp_d in dst:
            row = [0] * len(src)
            least, sign = min(comp_d), 1
            for pos in range(len(tup_d)):
                face = tup_d[:pos] + tup_d[pos + 1 :]
                row[col[(face, least)]] += sign
                sign = -sign
            rows.append(tuple(row))
        diffs.append(tuple(rows))
    return tuple(terms), tuple(diffs)


def _invariants(d) -> tuple[int, tuple[int, ...]]:
    """The rank of an integer matrix and its invariant factors greater than 1."""
    factors = invariant_factors(d)
    return len(factors), tuple(e for e in factors if e > 1)


def _homology(ranks, factors, n: int) -> dict:
    """Per-degree homology report over Z/n (n = 0 for Z); see _degrees.

    The degrees of each (ranks, factors, n), the ring-free entry of a
    complex and the ring's modulus, are kept in _DEGREES, its bits those
    of its factors greater than 1 and its torsion, as the report's rows,
    each degree's (degree, free rank, torsion, vanishes), and whether the
    complex is exact; the report's dicts and lists are built afresh from
    them on every call, so no caller shares them.
    """
    key = ranks, factors, n
    result = _DEGREES.get(key)
    if result is None:
        degrees = _degrees(ranks, factors, n)
        result = (
            tuple((k, *d) for k, d in enumerate(degrees)),
            all(vanishes for _, _, vanishes in degrees),
        )
        torsion_bits = sum(e.bit_length() for _, torsion, _ in degrees for e in torsion)
        result = _DEGREES.store(key, result, _factor_bits(factors) + torsion_bits)
    rows, exact = result
    return {
        "degrees": [
            {"degree": k, "free_rank": free, "torsion": [*torsion], "vanishes": vanishes}
            for k, free, torsion, vanishes in rows
        ],
        "exact": exact,
    }


def _degrees(ranks, factors, n: int) -> tuple[tuple[int, tuple[int, ...], bool], ...]:
    """(free rank, torsion, vanishes) per degree of an integer complex over Z/n.

    ranks[k] is the rank of the degree-k term and factors[k] is
    _invariants of the differential out of it.  The complex over R is the
    integer complex tensored with R = Z/n, since C(K, R) = C(K, Z) (x) R.
    Over Z it splits into pieces Z --e--> Z, one per invariant factor e of
    a differential, and free pieces Z.  Tensored with Z/n, a piece in
    degrees k, k+1 leaves Z/gcd(e, n) in degree k+1 and, when n > 0, its
    kernel Z/gcd(e, n) in degree k; each free piece leaves Z/n (universal
    coefficients).  Here Z/0 = Z, and a unit factor leaves Z/1 = 0, so it
    counts only in the rank.
    """
    degrees = []
    for k, rank in enumerate(ranks):
        r_out, e_out = factors[k] if k < len(factors) else (0, ())
        r_in, e_in = factors[k - 1] if k >= 1 else (0, ())
        summands = [n] * (rank - r_out - r_in) + [gcd(e, n) for e in e_in]
        if n:
            summands += [gcd(e, n) for e in e_out]
        torsion = [m for m in summands if m > 1]
        if len(torsion) > 1:
            # the invariant factors of the diagonal matrix of the summands
            diagonal = tuple(
                tuple(m if i == j else 0 for j in range(len(torsion)))
                for i, m in enumerate(torsion)
            )
            torsion = [e for e in invariant_factors(diagonal) if e > 1]
        free_rank = summands.count(0)
        degrees.append((free_rank, tuple(torsion), free_rank == 0 and not torsion))
    return tuple(degrees)


_MEMO = Memo(MEMO_COMPLEXES, MEMO_FACTOR_BITS)  # entry per (block, traces) key
_DEGREES = Memo(MEMO_COMPLEXES, MEMO_FACTOR_BITS)  # degrees per (entry, modulus)


def _integer_invariants(space: FiniteSpace, family: CoverFamily):
    """The ring-free part of tate_verdict: the sum of its blocks' entries.

    Returns the term ranks of the integer complex, _invariants of each
    differential and the quasi-component cover test, or raises
    NotEmbedding when a piece merges quasi-components.  An entry stands
    for its complex up to homotopy equivalence, with the same number of
    terms.  A discrete space (space.is_discrete), whose blocks are all
    points, counts the sets holding each point: its entry, the sum of the
    points' (see _point_entry), is R^u in degree 0, u the points in no
    set, then as many zero terms as the most sets holding one point.  Any
    other space sums its blocks' entries (see _sum_entries) on every call;
    each block's entry is kept (see _block_entry).  An entry stores the
    index of the first piece that merges quasi-components, and the
    NotEmbedding message is built from the caller's space, so no space or
    exception object is kept.
    """
    sets = family.sets
    if space.n and space.is_discrete:
        # every block is a point
        held = [0] * space.n
        for K in sets:
            for x in K:
                held[x] += 1
        top, uncovered = max(held), held.count(0)
        entry = (uncovered,) + (0,) * top, ((0, ()),) * top, uncovered == 0, None
    else:
        blocks = space.quasi_components or (frozenset(),)
        entry = _sum_entries([_block_entry(space, sets, B) for B in blocks])
    *invariants, rejected = entry
    if rejected is not None:
        K = sets[rejected]
        pair = merged_pair([space.component_index(min(c)) for c in space.components(K)])
        raise NotEmbedding(f"inclusion of {sorted(K)} merges quasi-components {pair}")
    return invariants


def _factor_bits(factors) -> int:
    """The bits of the invariant factors greater than 1 of an entry's differentials."""
    return sum(e.bit_length() for _, big in factors for e in big)


def _block_entry(space: FiniteSpace, sets, block: frozenset) -> tuple:
    """The entry of the sets' traces on a quasi-component (or the empty block).

    An entry stands for its complex up to homotopy equivalence, with the
    same number of terms.  A one-point block's entry is the closed form
    for the j sets holding its point (see _point_entry), and takes no slot
    in _MEMO.  Any other block's entry is kept in _MEMO under its key: the
    bitmasks of its points' up sets (a quasi-component is clopen, so it
    holds them) and of the sets' traces, its points relabelled 0..m-1 in
    increasing order; an entry's bits are those of its factors greater
    than 1.  A miss builds the complex of the traces on the caller's space
    (see _cech) over Z, which checks d∘d.  A piece merges quasi-components
    exactly when it has two degree-1 labels, which are adjacent; the entry
    of a family with such a piece keeps only the first one's index.
    """
    if len(block) == 1:
        return _point_entry(sum(block <= K for K in sets))
    bit = {x: 1 << i for i, x in enumerate(sorted(block))}
    key = (
        tuple(sum(map(bit.__getitem__, space.up[x])) for x in bit),
        tuple(sum(map(bit.__getitem__, K & block)) for K in sets),
    )
    entry = _MEMO.get(key)
    if entry is not None:
        return entry
    complex_ = ChainComplex(int_inf(), *_cech(space, sets, block))
    pieces = [tup for tup, _ in complex_.terms[1]] if complex_.length > 1 else []
    merging = next((i for (i,), t in zip(pieces, pieces[1:]) if t == (i,)), None)
    if merging is not None:
        return _MEMO.store(key, ((), (), False, merging))
    ranks = tuple(map(len, complex_.terms))
    factors = tuple(map(_invariants, complex_.diffs))
    covers = not block or any(K & block for K in sets)
    return _MEMO.store(key, (ranks, factors, covers, None), _factor_bits(factors))


def _point_entry(j: int) -> tuple:
    """The entry of a one-point block held by j of the sets.

    Every nonempty trace of the sets on the point is the point itself, so
    the complex is the augmented cochain complex of the full simplex on
    the j sets.  For j = 0 it is one term, R.  For j >= 1 it is a bounded
    exact complex of free modules, so contractible: its entry is the zero
    complex of j + 1 terms, each differential of rank 0 (padded, since
    _degrees reads the differential into every degree), a cover, and no
    piece merges anything.
    """
    if j == 0:
        return (1,), (), False, None
    return (0,) * (j + 1), ((0, ()),) * j, True, None


def _sum_entries(entries) -> tuple:
    """The entry of a direct sum of complexes, one entry per summand.

    Term ranks add, padded to the longest summand (the nonempty terms of a
    complex are a prefix); the ranks of the differentials add and their
    factors greater than 1 concatenate (_homology normalizes several
    torsion summands).  The sum covers when every summand does, and its
    first merging piece is the least over the summands.
    """
    merging = [e[3] for e in entries if e[3] is not None]
    if merging:
        return (), (), False, min(merging)
    ranks = tuple(map(sum, zip_longest(*(e[0] for e in entries), fillvalue=0)))
    factors = tuple(
        (sum(r for r, _ in diffs), tuple(chain.from_iterable(big for _, big in diffs)))
        for diffs in zip_longest(*(e[1] for e in entries), fillvalue=(0, ()))
    )
    return ranks, factors, all(e[2] for e in entries), None


def _selection_homotopy(family, terms, k):
    """Matrix of the contracting homotopy C^{k+1} -> C^k by clopen selection.

    For each quasi-component the smallest family index whose set meets it
    is selected; the homotopy inserts that index and reorders with the
    alternating sign.  Valid whenever the family covers every
    quasi-component.
    """
    src = terms[k + 1]
    dst = terms[k]
    col = _columns(src)
    rows = []
    for tup_d, comp_d in dst:
        row = [0] * len(src)
        i_sel = next((i for i, K in enumerate(family.sets) if comp_d <= K), None)
        if i_sel is None:
            raise NoSection(f"no family set meets component {sorted(comp_d)}")
        if i_sel in tup_d:
            # inserting a repeated index gives zero in the alternating sum
            rows.append(tuple(row))
            continue
        # comp_d lies in the selected set, so it is a component of the
        # inserted tuple's intersection too
        bigger = tuple(sorted(tup_d + (i_sel,)))
        row[col[(bigger, min(comp_d))]] = (-1) ** bigger.index(i_sel)
        rows.append(tuple(row))
    return tuple(rows)


def strict_sections(space: FiniteSpace, family: CoverFamily, ring: RingDescriptor) -> list[dict]:
    """Explicit sections with norm constants for an exact cover complex.

    For each stage k >= 1 the selection homotopy h satisfies
    d_{k-1} h v = v for every v in ker(d_k), so h is a section onto the
    kernel; the reported constant bounds its sup-operator norm (1 for pure
    selections).  The selection needs every quasi-component inside some
    family set (true for point covers, in particular on discrete spaces);
    otherwise NoSection is raised even when the complex happens to be
    exact for other reasons.  The homotopy is an integer matrix, so its
    identity checked over Z holds over every ring.  That identity,
    d_k h_k + h_{k+1} d_{k+1} = id, certifies exactness in every degree
    >= 1, so a complex that is not exact there raises NoSection.
    """
    complex_ = build_tate_cech(space, family, ring)
    if ring.is_zero_ring:
        return []
    homotopies = [
        _selection_homotopy(family, complex_.terms, k)
        for k in range(len(complex_.diffs))
    ]
    out = []
    for k, h in enumerate(homotopies):
        constant = max((sum(map(abs, row)) for row in h), default=0)
        # verify the integer matrix identity d_k h_k (+ h_{k+1} d_{k+1}) = id,
        # which makes h_k a section of d_k on ker(d_{k+1})
        total = matmul(complex_.diffs[k], h)
        if k + 1 < len(complex_.diffs):
            later = matmul(homotopies[k + 1], complex_.diffs[k + 1])
            total = tuple(tuple(map(add, r, s)) for r, s in zip(total, later))
        if total != identity(complex_.rank(k + 1)):
            raise NoSection(f"homotopy identity fails into degree {k + 1}")
        out.append({"degree": k + 1, "section": h, "constant": constant})
    return out


def descent_faithful_witness(
    space: FiniteSpace, family: CoverFamily, ring: RingDescriptor
) -> CfinFunction:
    """A nonzero function restricting to zero on every set of a non-cover.

    It is the indicator of the first quasi-component that no set meets
    (see _witness_values).
    """
    if ring.is_zero_ring:
        raise IsCover("the zero ring makes every family a cover")
    values = _witness_values(space, family.sets, ring)
    if values is None:
        raise IsCover("the family covers every quasi-component")
    return CfinFunction(space, ring, values)


def _witness_values(space: FiniteSpace, sets, ring: RingDescriptor) -> tuple | None:
    """The values of the indicator of the first quasi-component no set meets.

    A quasi-component is clopen, so its indicator, 1 on it alone, is a
    function on the space; None when the sets meet every quasi-component.
    """
    blocks = space.quasi_components
    for c, block in enumerate(blocks):
        if all(map(block.isdisjoint, sets)):
            zero = (ring.zero,)
            return zero * c + (ring.one,) + zero * (len(blocks) - 1 - c)
    return None


def tate_verdict(space: FiniteSpace, family: CoverFamily, ring: RingDescriptor) -> dict:
    """The cover test against the homology of the complex, without listings.

    Pieces must embed at component level, which is read off the degree-1
    labels of each block's complex before its homology is computed.  The
    verdict is the sum of the blocks' (C(X, R) is the product of the
    C(B, R)), and each block's integer complex is built and eliminated once
    for every ring and every space that contains it (see
    _integer_invariants).  The keys are those of
    tate_equivalence_report from "cover_components" to "agreement", in
    its order; a disagreement is reported, not raised.
    """
    ranks, factors, cover_zeta = _integer_invariants(space, family)
    hom = _homology(ranks, factors, ring.modulus or 0)
    return {
        "cover_components": cover_zeta,
        "zero_ring": ring.is_zero_ring,
        "exact": hom["exact"],
        "homology": hom["degrees"],
        "agreement": hom["exact"] == (cover_zeta or ring.is_zero_ring),
    }


def tate_equivalence_report(
    space: FiniteSpace, family: CoverFamily, ring: RingDescriptor
) -> dict:
    """Independent cover test vs homology, with agreement asserted.

    The complex only sees quasi-component data, so the cover side of the
    equivalence is the quasi-component-level test (equal to the point
    test on discrete spaces, which is also reported).  The report is
    tate_verdict with the space, the family and the point test listed
    ahead of it and, for a non-cover, a witness after it; a disagreement
    raises EquivalenceViolation.
    """
    verdict = tate_verdict(space, family, ring)
    report = {
        "space": space.to_json(),
        "family": [sorted(K) for K in family.sets],
        "ring": str(ring),
        "cover_points": is_cover(space, family),
        **verdict,
    }
    if not (verdict["cover_components"] or verdict["zero_ring"]):
        report["witness"] = list(_witness_values(space, family.sets, ring))
    if not report["agreement"]:
        raise EquivalenceViolation(
            f"cover test and homology disagree: {report}"
        )
    return report

from itertools import combinations, product
from math import gcd

import pytest

from dbl import cech
from dbl._memo import Memo
from dbl.cech import (
    MEMO_COMPLEXES,
    MEMO_FACTOR_BITS,
    ChainComplex,
    CoverFamily,
    build_tate_cech,
    descent_faithful_witness,
    is_cover,
    strict_sections,
    tate_equivalence_report,
    tate_verdict,
)
from dbl.errors import IsCover, NoSection, NotEmbedding, SizeExceeded
from dbl.functions import indicator
from dbl.intlinalg import identity, invariant_factors, matmul
from dbl.scalars import fp_triv, int_inf, int_triv, zmod_quot, zmod_triv
from dbl.spaces import MAX_POINTS, FiniteSpace
from oracles import (
    block_keys_by_relabelling,
    check_embeddings_by_pieces,
    exactness,
    inclusion_map,
    matvec,
    topologies,
    transpose,
    zeta_is_cover,
)
from snf_oracle import smith_normal_form

Z = int_inf()
D2 = FiniteSpace.discrete(2)
D3 = FiniteSpace.discrete(3)


def fam(space, *sets):
    return CoverFamily.make(space, [frozenset(s) for s in sets])


@pytest.fixture
def memo(monkeypatch):
    """An empty table of integer invariants for the test, the module's restored after it."""
    table = Memo(MEMO_COMPLEXES, MEMO_FACTOR_BITS)
    monkeypatch.setattr(cech, "_MEMO", table)
    return table


def test_is_cover():
    assert is_cover(D3, fam(D3, {0, 1}, {1, 2}))
    assert not is_cover(D2, fam(D2, {0}))
    assert not is_cover(FiniteSpace.discrete(1), fam(FiniteSpace.discrete(1), set()))


def test_build_single_set_is_identity_complex():
    c = build_tate_cech(D3, fam(D3, {0, 1, 2}), Z)
    assert [c.rank(k) for k in range(c.length)] == [3, 3]
    assert c.diffs[0] in (
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    )


def test_build_ranks_example():
    c = build_tate_cech(D3, fam(D3, {0, 1}, {1, 2}), Z)
    assert [c.rank(k) for k in range(c.length)] == [3, 4, 1]


def test_build_restriction_kernel():
    c = build_tate_cech(D2, fam(D2, {0}), Z)
    assert [c.rank(k) for k in range(c.length)] == [2, 1]
    rep = exactness(c)
    assert rep["degrees"][0]["free_rank"] == 1  # functions vanishing on {0}


def test_differentials_compose_to_zero():
    for sets in ([{0, 1}, {1, 2}], [{0}, {1}, {2}], [{0, 1, 2}, {2}], [{0, 1}, {1, 2}, {0, 2}]):
        c = build_tate_cech(D3, fam(D3, *sets), Z)
        for k in range(len(c.diffs) - 1):
            prod = matmul(c.diffs[k + 1], c.diffs[k])
            assert all(all(x == 0 for x in row) for row in prod)


def test_exactness_cover_and_noncover():
    rep = exactness(build_tate_cech(D3, fam(D3, {0, 1}, {1, 2}), Z))
    assert rep["exact"]
    rep = exactness(build_tate_cech(D3, fam(D3, {0, 1}), Z))
    assert not rep["exact"]
    zero_ring_complex = build_tate_cech(D2, fam(D2, {0}), zmod_triv(1))
    assert exactness(zero_ring_complex)["exact"]


def test_exactness_over_fp_and_zn():
    family = fam(D3, {0, 1}, {1, 2})
    for ring in (fp_triv(2), fp_triv(3), zmod_triv(4), zmod_quot(6), int_triv()):
        c = build_tate_cech(D3, family, ring)
        assert exactness(c)["exact"], str(ring)
    non = fam(D3, {0})
    for ring in (fp_triv(2), zmod_triv(4), int_triv()):
        assert not exactness(build_tate_cech(D3, non, ring))["exact"]


def test_zn_homology_detects_torsion():
    # 0 -> Z/4 --2--> Z/4 -> 0 has kernel/image {0, 2}/{0, 2}: exact in middle?
    # H at degree 0 of the two-term complex with d = (2): kernel = {0,2}
    c = ChainComplex(zmod_triv(4), (("a",), ("b",)), (((2,),),))
    rep = exactness(c)
    assert rep["degrees"][0]["torsion"] == [2]  # ker d = {0,2} ≅ Z/2
    assert rep["degrees"][1]["torsion"] == [2]  # coker = Z/4 / {0,2}


def test_strict_sections_cover():
    family = fam(D3, {0, 1}, {1, 2})
    secs = strict_sections(D3, family, Z)
    assert [s["degree"] for s in secs] == [1, 2]
    assert all(s["constant"] <= 2 for s in secs)
    # identity stage has an identity-like section of constant 1
    single = fam(D3, {0, 1, 2})
    secs = strict_sections(D3, single, Z)
    assert secs[0]["constant"] == 1


def test_strict_sections_verifies_on_kernel():
    family = fam(D3, {0, 1}, {1, 2}, {2})
    c = build_tate_cech(D3, family, Z)
    secs = strict_sections(D3, family, Z)
    for s in secs:
        k = s["degree"]
        h = s["section"]
        if k < len(c.diffs):
            # columns of t beyond the rank span the kernel of d_k
            _, _, t = smith_normal_form(c.diffs[k])
            kern = transpose(t)[len(invariant_factors(c.diffs[k])) :]
        else:
            kern = identity(c.rank(k))
        assert kern
        for v in kern:
            assert matvec(c.diffs[k - 1], matvec(h, v)) == tuple(v)


def test_strict_sections_noncover_raises():
    family = fam(D3, {0, 1})
    with pytest.raises(NoSection):
        strict_sections(D3, family, Z)


def test_tate_equivalence_report():
    rep = tate_equivalence_report(D3, fam(D3, {0, 1}, {1, 2}), Z)
    assert rep["agreement"] and rep["cover_points"] and rep["exact"]
    rep = tate_equivalence_report(D2, fam(D2, {0}), Z)
    assert rep["agreement"] and not rep["exact"]
    assert rep["witness"] == [0, 1]  # indicator of the uncovered point
    # zero ring branch: complex of zero modules is exact for any family
    rep = tate_equivalence_report(D2, fam(D2, {0}), zmod_triv(1))
    assert rep["agreement"] and rep["zero_ring"] and rep["exact"]


def test_tate_equivalence_sierpinski_zeta_level():
    # {0} is closed in the Sierpinski space and meets the unique
    # quasi-component, so the complex is exact although the point test fails
    sier = FiniteSpace.sierpinski()
    rep = tate_equivalence_report(sier, fam(sier, {0}), Z)
    assert rep["cover_components"] and not rep["cover_points"]
    assert rep["exact"] and rep["agreement"]


def test_tate_equivalence_rejects_non_embedding_pieces():
    # the subspace {0, 2} of the 3-point chain has two quasi-components
    # landing in the single quasi-component of the whole space, so its
    # inclusion is not a component-level embedding
    space = FiniteSpace(3, [frozenset({0, 1}), frozenset({1, 2})])
    assert len(space.quasi_components) == 1
    family = fam(space, {0, 2})
    with pytest.raises(NotEmbedding, match=r"merges quasi-components \(0, 1\)$"):
        tate_equivalence_report(space, family, Z)
    # two chains, each with a merging piece: the message names the first
    # piece of the family, whose block comes second
    twice = FiniteSpace(6, [{0, 1}, {1, 2}, {3, 4}, {4, 5}])
    want = r"^inclusion of \[3, 5\] merges quasi-components \(0, 1\)$"
    family = fam(twice, {3, 5}, {0, 2})
    with pytest.raises(NotEmbedding, match=want):
        tate_verdict(twice, family, Z)
    with pytest.raises(NotEmbedding, match=want):
        check_embeddings_by_pieces(twice, family)


def test_exhaustive_small_equivalence_discrete():
    # all discrete spaces up to 3 points, families of up to 2 subsets
    for n in (1, 2, 3):
        space = FiniteSpace.discrete(n)
        subsets = [frozenset(c) for size in range(n + 1) for c in combinations(range(n), size)]
        for k in (1, 2):
            for sets in combinations(subsets, k):
                family = CoverFamily.make(space, sets)
                rep = tate_equivalence_report(space, family, Z)
                assert rep["agreement"]
                assert rep["exact"] == is_cover(space, family)


def test_verdict_is_the_tail_of_the_report():
    sier = FiniteSpace.sierpinski()
    cases = [
        (D3, fam(D3, {0, 1}, {1, 2}), Z),
        (D2, fam(D2, {0}), fp_triv(2)),
        (D2, fam(D2, {0}), zmod_triv(1)),
        (sier, fam(sier, {0}), zmod_quot(6)),
    ]
    for space, family, ring in cases:
        rep = tate_equivalence_report(space, family, ring)
        verdict = tate_verdict(space, family, ring)
        keys = list(rep)[4 : 4 + len(verdict)]
        assert keys == list(verdict) == [
            "cover_components", "zero_ring", "exact", "homology", "agreement"
        ]
        assert verdict == {k: rep[k] for k in keys}
    space = FiniteSpace(3, [frozenset({0, 1}), frozenset({1, 2})])
    with pytest.raises(NotEmbedding):
        tate_verdict(space, fam(space, {0, 2}), Z)


def _verdict_or_message(space, sets, ring):
    try:
        return tate_verdict(space, CoverFamily.make(space, sets), ring)
    except NotEmbedding as err:
        return str(err)


def block_pairs(space, sets):
    """The distinct (subspace, traces) pairs of a space's quasi-components of two or more points."""
    pairs = set()
    for block in space.quasi_components:
        if len(block) < 2:
            continue
        sub, inclusion = inclusion_map(block, space)
        traces = tuple(
            frozenset(i for i, x in enumerate(inclusion.images) if x in K) for K in sets
        )
        pairs.add((sub, traces))
    return pairs


def test_embedding_check_matches_the_per_piece_check(memo):
    # every topology on <= 3 points, every family of <= 3 closed sets: the
    # check on the degree-1 labels raises what the per-piece check raises,
    # and otherwise the verdict is the complex's homology.  Each ring's
    # cold verdict is taken on an empty table; the warm ones then read the
    # entries the last ring left, on a fresh but equal space.  A discrete
    # space leaves no table entry; any other leaves one per distinct block
    # of two or more points (a connected space's one block is the space
    # itself), and the empty space one for its empty block
    rings = (Z, zmod_triv(4), int_triv(), fp_triv(2), zmod_quot(6), zmod_triv(1))
    cases = rejected = discretes = 0
    for n in range(4):
        for space in topologies(n):
            full = frozenset(space.points)
            closed = [full - U for U in space.opens]
            for size in (1, 2, 3):
                for sets in combinations(closed, size):
                    family = CoverFamily.make(space, sets)
                    try:
                        check_embeddings_by_pieces(space, family)
                        want = None
                    except NotEmbedding as err:
                        want = str(err)
                    cold = {}
                    for ring in rings:
                        memo.clear()
                        cold[ring] = verdict = _verdict_or_message(space, sets, ring)
                        cases += 1
                        if want is not None:
                            rejected += 1
                            assert verdict == want
                            continue
                        hom = exactness(build_tate_cech(space, family, ring))
                        assert verdict["homology"] == hom["degrees"]
                        assert verdict["exact"] == hom["exact"]
                        assert verdict["cover_components"] == zeta_is_cover(space, family)
                    same = FiniteSpace(space.n, space.up)
                    for ring in rings:
                        assert _verdict_or_message(same, sets, ring) == cold[ring]
                    blocks = len(space.quasi_components)
                    discrete = blocks == space.n > 0
                    if discrete:
                        assert memo == {}
                        discretes += 1
                    else:
                        pairs = len(block_pairs(space, sets)) if space.n else 1
                        assert len(memo) == pairs
    assert cases > rejected > 0 and discretes > 0


# a space with the blocks {0, 1, 2} and {3, 4}, neither a point, so every
# block entry goes through the table, and a family of closed sets on it
TWO_BLOCK_OPENS = [{0}, {1}, {0, 1, 2}, {3}, {3, 4}]
TWO_BLOCK_SETS = [{2, 3, 4}, {1, 2}, {0, 1, 2}]


@pytest.mark.parametrize("r", [1, 2, 3])
def test_verdict_computes_each_intersections_components_once(monkeypatch, memo, r):
    # the space's two quasi-components are split off by one components
    # call; each block's complex then takes one call per tuple of the sets
    # that meet it, the empty tuple's being the block itself: 2^r for the
    # block {0, 1, 2}, 2 for {3, 4}, which meets only {2, 3, 4}, none for
    # the embedding check, and all on the caller's space.  A fresh but
    # equal space over a second ring is split again and reads its blocks
    # off the table
    calls = []
    components = FiniteSpace.components

    def counted(self, subset):
        calls.append(self)
        return components(self, subset)

    monkeypatch.setattr(FiniteSpace, "components", counted)
    sets = TWO_BLOCK_SETS[:r]
    space = FiniteSpace(5, TWO_BLOCK_OPENS)
    tate_verdict(space, fam(space, *sets), Z)
    assert len(calls) == 1 + 2**r + 2
    assert all(s is space for s in calls)
    calls.clear()
    again = FiniteSpace(5, TWO_BLOCK_OPENS)
    tate_verdict(again, fam(again, *sets), zmod_triv(4))
    assert len(calls) == 1 and calls[0] is again


def test_cold_verdict_builds_no_space_and_no_family(monkeypatch, memo):
    # each block's complex is built on the caller's space and family sets
    space = FiniteSpace(5, TWO_BLOCK_OPENS)
    family = fam(space, *TWO_BLOCK_SETS)
    built = []
    space_init, family_check = FiniteSpace.__init__, CoverFamily.__post_init__

    def counted_space(self, *args):
        built.append(FiniteSpace)
        space_init(self, *args)

    def counted_family(self):
        built.append(CoverFamily)
        family_check(self)

    monkeypatch.setattr(FiniteSpace, "__init__", counted_space)
    monkeypatch.setattr(CoverFamily, "__post_init__", counted_family)
    assert tate_verdict(space, family, Z)["agreement"]
    assert len(memo) == 2 and built == []


def test_block_keys_are_the_blocks_relabelled_one_by_one(memo):
    # every topology on <= 4 points with every family of <= 3 closed sets:
    # a cold verdict leaves in the table the key of each block of two or
    # more points relabelled on its own, and nothing for a one-point block
    cases = split = keyed = 0
    for n in range(5):
        for space in topologies(n):
            full = frozenset(space.points)
            closed = [full - U for U in space.opens]
            for size in (1, 2, 3):
                for sets in combinations(closed, size):
                    memo.clear()
                    _verdict_or_message(space, sets, Z)
                    keys = block_keys_by_relabelling(space, sets)
                    assert set(memo) == {k for k in keys if k is not None}
                    cases += 1
                    if len(keys) > 1:
                        split += 1
                        keyed += any(keys) and None in keys
    assert cases > split > keyed > 0


def test_repeat_verdict_on_an_equal_space_reads_its_blocks_off_the_table(monkeypatch, memo):
    # with every block entry in the table, a verdict on a fresh but equal
    # space builds no complex, splits the space once and writes nothing
    sets = TWO_BLOCK_SETS[:2]
    space = FiniteSpace(5, TWO_BLOCK_OPENS)
    want = tate_verdict(space, fam(space, *sets), Z)
    assert len(memo) == 2
    again = FiniteSpace(5, TWO_BLOCK_OPENS)
    family = fam(again, *sets)
    built = counted_builds(monkeypatch)
    calls = []
    components = FiniteSpace.components

    def counted(self, subset):
        calls.append(subset)
        return components(self, subset)

    monkeypatch.setattr(FiniteSpace, "components", counted)
    assert tate_verdict(again, family, Z) == want
    assert built == [] and len(calls) == 1 and len(memo) == 2


def counted_builds(monkeypatch):
    """The family sets cech builds a complex for, from here on."""
    built = []
    build = cech._cech

    def counted(space, sets, within):
        built.append(sets)
        return build(space, sets, within)

    monkeypatch.setattr(cech, "_cech", counted)
    return built


def test_memo_drops_its_oldest_entry_and_stays_small(monkeypatch, memo):
    # MEMO_COMPLEXES + 1 distinct 6-set families of a connected 32-point
    # space, each set {a, 31}, so every family has one entry and every
    # complex has all seven terms: reading the first entry does not move
    # it, and the next miss drops it
    import gc
    import pickle
    import tracemalloc

    built = counted_builds(monkeypatch)
    # point 31 specializes to every other point, so {a, 31} is closed
    space = FiniteSpace(32, [{a} for a in range(31)] + [range(32)])
    assert len(space.quasi_components) == 1
    families = (
        CoverFamily.make(space, sets)
        for sets in combinations([{a, 31} for a in range(31)], 6)
    )
    first = next(families)
    assert len(tate_verdict(space, first, Z)["homology"]) == 7
    for _ in range(MEMO_COMPLEXES - 1):
        tate_verdict(space, next(families), Z)
    assert len(memo) == len(built) == MEMO_COMPLEXES
    tate_verdict(space, first, zmod_triv(4))
    assert len(built) == MEMO_COMPLEXES
    tate_verdict(space, next(families), Z)
    tate_verdict(space, first, zmod_triv(4))
    assert len(memo) == MEMO_COMPLEXES
    assert len(built) == MEMO_COMPLEXES + 2 and built[-1] == first.sets
    # the full table, measured as the allocations of an equal copy, stays
    # under the seminorm memo's 5 MiB (about 1.9 MiB)
    data = pickle.dumps(memo)
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        copy = pickle.loads(data)
        size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert copy == memo
    assert size < 5 * 2**20


def test_memo_writes_from_threads_keep_the_bound(memo):
    # four threads share a table of one-set families of a 13-point space
    # with the blocks {0, .., 11}, where 11 specializes to every other
    # point, and {12}: 1,600 families distinct in all, each thread's
    # overlapping the next one's, with 1,600 distinct traces on the block
    # {0, .., 11}, so each family writes that block's entry and the table
    # evicts.  A family is exact when its set holds 11 and 12
    import sys
    import threading

    space = FiniteSpace(13, [{x} for x in range(11)] + [range(12), {12}])
    assert [len(B) for B in space.quasi_components] == [12, 1]
    free = [*range(11), 12]
    subsets = []
    for m in range(2**12):
        K = {x for i, x in enumerate(free) if m >> i & 1}
        subsets.append(frozenset(K | {11} if K - {12} else K))
    errors = []

    def work(start):
        try:
            for K in subsets[start : start + 700]:
                verdict = tate_verdict(space, fam(space, K), Z)
                if verdict["exact"] != ({11, 12} <= K) or not verdict["agreement"]:
                    errors.append(K)
        except Exception as err:  # reported by the assertion below
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(2348 - 300 * k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(memo) == MEMO_COMPLEXES and memo.evictions > 0


def rp2_star_cover():
    """The six vertex stars of the 6-vertex RP^2, on its 31-point face poset.

    The smallest open around a face is its set of subfaces, so the stars
    are closed and each intersection is the (connected) star of a face or
    empty: the integer complex is the augmented cochain complex of RP^2,
    with H^3 = H^2(RP^2; Z) = Z/2.
    """
    tri = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
           (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]
    edges = {frozenset(e) for t in tri for e in combinations(t, 2)}
    faces = [frozenset({v}) for v in range(6)] + list(edges) + list(map(frozenset, tri))
    space = FiniteSpace(len(faces), [[i for i, g in enumerate(faces) if g <= f] for f in faces])
    stars = [[i for i, f in enumerate(faces) if v in f] for v in range(6)]
    return space, CoverFamily.make(space, stars)


def test_memo_skips_entries_past_the_factor_bits(monkeypatch):
    # the RP^2 star complex's factor 2 takes 2 bits: a table of 1 bit keeps
    # nothing, and the default one keeps its degrees once per modulus; the
    # reports are the same, Z/2 in degree 3 over Z, exact over F_3 only
    space, family = rp2_star_cover()
    rings = (Z, fp_triv(2), fp_triv(3), zmod_triv(4))
    complexes = {r: build_tate_cech(space, family, r) for r in rings}
    want = {}
    for bits, stored in ((1, 0), (MEMO_FACTOR_BITS, len(rings))):
        table = Memo(MEMO_COMPLEXES, bits)
        monkeypatch.setattr(cech, "_DEGREES", table)
        for ring in rings * 2:
            report = exactness(complexes[ring])
            assert want.setdefault(ring, report) == report
        assert len(table) == stored and table.misses == (2 if bits == 1 else 1) * len(rings)
    assert [d["torsion"] for d in want[Z]["degrees"]] == [[], [], [], [2]]
    assert want[fp_triv(3)]["exact"] and not want[fp_triv(2)]["exact"]


def test_torsion_survives_the_sum_over_blocks():
    # the RP^2 star cover beside an isolated point in no set: the sum of the
    # RP^2 block's entry, read off its whole complex, and the point's, that
    # of j = 0 sets holding it, has the homology of the 32-point complex,
    # torsion and all.  A sum adds ranks and concatenates the factors
    # greater than 1, so two RP^2 blocks have two factors 2
    rp2, stars = rp2_star_cover()
    space = FiniteSpace(rp2.n + 1, list(rp2.up) + [{rp2.n}])
    family = CoverFamily.make(space, stars.sets)
    assert space.n == MAX_POINTS and len(space.quasi_components) == 2
    block = build_tate_cech(rp2, stars, Z)
    entry = (tuple(map(len, block.terms)), tuple(map(cech._invariants, block.diffs)), True, None)
    assert [big for _, big in entry[1]] == [(), (), (2,)]
    ranks, factors, covers, merging = cech._sum_entries([entry, cech._point_entry(0)])
    assert ranks == (entry[0][0] + 1, *entry[0][1:]) and factors == entry[1]
    assert not covers and merging is None
    wants = {
        Z: [(1, []), (0, []), (0, []), (0, [2])],
        fp_triv(3): [(0, [3]), (0, []), (0, []), (0, [])],
    }
    for ring, want in wants.items():
        report = exactness(build_tate_cech(space, family, ring))
        assert cech._homology(ranks, factors, ring.modulus or 0) == report
        assert [(d["free_rank"], d["torsion"]) for d in report["degrees"]] == want
    twice = cech._sum_entries([entry, entry])
    assert twice[0] == tuple(2 * r for r in entry[0])
    assert twice[1] == tuple((2 * r, big + big) for r, big in entry[1])
    assert cech._homology(*twice[:2], 0)["degrees"][3]["torsion"] == [2, 2]


def test_criterion_1_builds_no_complex(monkeypatch, memo):
    # criterion 1's families of <= 3 subsets of discrete(n), n <= 4, split
    # into one-point blocks, whose entries are closed forms: all 805
    # families over all three rings build no complex and leave no table
    # entry.  Each verdict over Z is the homology of the family's whole
    # complex
    from dbl.suite import _tate_cases

    cases = _tate_cases(4, 3)
    assert len(set(cases)) == 805
    spaces = {n: FiniteSpace.discrete(n) for n in range(1, 5)}
    families = [CoverFamily.make(spaces[n], sets) for n, sets in cases]
    wholes = [exactness(build_tate_cech(f.space, f, Z)) for f in families]
    built = counted_builds(monkeypatch)
    for family, whole in zip(families, wholes):
        for ring in (Z, int_triv(), fp_triv(2)):
            assert tate_verdict(family.space, family, ring)["agreement"]
        assert tate_verdict(family.space, family, Z)["homology"] == whole["degrees"]
    assert built == [] and memo == {}


def test_a_points_entry_is_the_full_simplex_on_the_sets_holding_it():
    # on a one-point block every nonempty trace is the point, so the
    # complex is the augmented cochain complex of the full simplex on the
    # j sets holding it, built here by the general rule on discrete(1)
    # with j copies of its point (ChainComplex checks d∘d).  The closed
    # form, R for j = 0 and the zero complex of j + 1 terms otherwise, has
    # its homology over every ring, in as many degrees
    point = FiniteSpace.discrete(1)
    whole = frozenset(point.points)
    for j in range(cech.MAX_FAMILY + 1):
        terms, diffs = cech._cech(point, (whole,) * j, whole)
        ranks, factors, covers, merging = cech._point_entry(j)
        assert covers == (j > 0) and merging is None
        for ring in (Z, zmod_triv(4), fp_triv(2), zmod_triv(1), zmod_quot(6)):
            want = exactness(ChainComplex(ring, terms, diffs))
            assert cech._homology(ranks, factors, ring.modulus or 0) == want
            assert len(want["degrees"]) == j + 1


def test_discrete_verdicts_are_the_whole_complexes(memo):
    # random families of 1..6 sets on discrete spaces up to the point cap,
    # each set drawn with its own density: the verdict read off the counts
    # of sets holding each point is the homology of the family's whole
    # complex over every ring, and no entry goes into the table
    import random

    rng = random.Random(26)
    rings = (Z, int_triv(), fp_triv(2), zmod_triv(4), zmod_triv(1), zmod_quot(6))
    cases = 0
    for n in (1, 2, 3, 5, 8, 32):
        space = FiniteSpace.discrete(n)
        for _ in range(12):
            density = rng.random()
            sets = [
                frozenset(x for x in space.points if rng.random() < density)
                for _ in range(rng.randint(1, cech.MAX_FAMILY))
            ]
            family = CoverFamily.make(space, sets)
            for ring in rings:
                verdict = tate_verdict(space, family, ring)
                hom = exactness(build_tate_cech(space, family, ring))
                assert verdict["homology"] == hom["degrees"], (n, sets, ring)
                assert verdict["exact"] == hom["exact"]
                assert verdict["cover_components"] == is_cover(space, family)
                cases += 1
    assert cases == 6 * 12 * 6 and memo == {}


def test_verdicts_are_the_whole_complexes_on_every_small_topology(memo):
    # every topology on <= 4 points with every family of <= 2 closed sets,
    # and of 3 on the 4-point spaces with two or more quasi-components: the
    # verdict is the homology of the whole complex, or the per-piece
    # check's NotEmbedding message.  Each family is read on an empty table,
    # then over every ring from the table that read left
    rings = (Z, zmod_triv(4), fp_triv(2), zmod_triv(1))
    cases = rejected = split = 0
    for n in range(5):
        for space in topologies(n):
            full = frozenset(space.points)
            closed = [full - U for U in space.opens]
            sizes = (1, 2, 3) if n == 4 and len(space.quasi_components) > 1 else (1, 2)
            for size in sizes:
                for sets in combinations(closed, size):
                    family = CoverFamily.make(space, sets)
                    try:
                        check_embeddings_by_pieces(space, family)
                    except NotEmbedding as err:
                        want = dict.fromkeys(rings, str(err))
                        rejected += 1
                    else:
                        # exactness of the whole complex over each ring, its
                        # differentials eliminated once
                        whole = build_tate_cech(space, family, Z)
                        ranks = tuple(map(len, whole.terms))
                        factors = tuple(map(cech._invariants, whole.diffs))
                        want = {}
                        for ring in rings:
                            hom = cech._homology(ranks, factors, ring.modulus or 0)
                            want[ring] = (hom["degrees"], hom["exact"])
                    split += len(space.quasi_components) > 1
                    cases += 1
                    memo.clear()
                    for ring in rings[:1] + rings:
                        try:
                            verdict = tate_verdict(space, family, ring)
                        except NotEmbedding as err:
                            verdict = str(err)
                        else:
                            verdict = (verdict["homology"], verdict["exact"])
                        assert verdict == want[ring], (space, sets, ring)
    assert cases > split > rejected > 0


@pytest.fixture
def degrees(monkeypatch):
    """An empty table of homology degrees for the test, the module's restored after it."""
    table = Memo(MEMO_COMPLEXES, MEMO_FACTOR_BITS)
    monkeypatch.setattr(cech, "_DEGREES", table)
    return table


def as_degrees(homology):
    return tuple((d["free_rank"], tuple(d["torsion"]), d["vanishes"]) for d in homology)


def test_stored_degrees_are_the_direct_computation(memo, degrees):
    # criterion 1's 805 families of <= 3 subsets of discrete(n), n <= 4, and
    # every family of <= 2 closed sets of every topology on <= 3 points,
    # read twice over five rings: each verdict's homology, cold or read off
    # the table, is _degrees computed afresh on its entry and modulus
    from dbl.suite import _tate_cases

    families = [
        CoverFamily.make(FiniteSpace.discrete(n), sets) for n, sets in _tate_cases(4, 3)
    ]
    for n in range(4):
        for space in topologies(n):
            closed = [frozenset(space.points) - U for U in space.opens]
            families += [
                CoverFamily.make(space, sets)
                for size in (1, 2)
                for sets in combinations(closed, size)
            ]
    rings = (Z, fp_triv(2), zmod_triv(4), zmod_quot(6), zmod_triv(1))
    checked = 0
    for _ in range(2):
        for family in families:
            try:
                ranks, factors, _ = cech._integer_invariants(family.space, family)
            except NotEmbedding:
                continue
            for ring in rings:
                n = ring.modulus or 0
                verdict = tate_verdict(family.space, family, ring)
                assert as_degrees(verdict["homology"]) == cech._degrees(ranks, factors, n)
                assert verdict["exact"] == all(v for _, _, v in cech._degrees(ranks, factors, n))
                checked += 1
    assert checked > 2 * 805 * len(rings)
    assert 0 < len(degrees) < checked // 4


def test_a_verdict_shares_no_state_with_the_next(degrees):
    # the RP^2 star complex has torsion Z/2 in degree 3 over Z: changing the
    # lists and dicts of one homology report, which tate_verdict returns as
    # it is, leaves the next report off the kept result as it was
    space, family = rp2_star_cover()
    complex_ = build_tate_cech(space, family, Z)
    first = exactness(complex_)["degrees"]
    assert len(degrees) == 1
    want = [dict(d, torsion=list(d["torsion"])) for d in first]
    first[3]["torsion"].append(7)
    first[3]["torsion"][0] = 5
    first[0]["free_rank"] = 9
    first.pop()
    again = exactness(complex_)["degrees"]
    assert again == want and again[3]["torsion"] == [2]
    assert again[3]["torsion"] is not first[2]["torsion"]


def test_degrees_past_the_factor_bits_are_not_stored(memo, degrees):
    # 32 points in no set leave (Z/4)^32 in degree 0, 96 bits of torsion:
    # the degrees are computed every time and not stored
    d32 = FiniteSpace.discrete(MAX_POINTS)
    empty = fam(d32, set())
    for _ in range(2):
        homology = tate_verdict(d32, empty, zmod_triv(4))["homology"]
        assert homology == [{"degree": 0, "free_rank": 0, "torsion": [4] * 32, "vanishes": False}]
    assert degrees == {} and degrees.misses == 2


def test_degrees_table_drops_its_oldest_result_and_stays_small(degrees):
    # MEMO_COMPLEXES + 1 distinct entries of seven terms at the 6-set bound
    # on 32 points, 16 factors 2 spread over the six differentials in a
    # different way in each, so over Z their torsion is 16 copies of Z/2:
    # 64 bits in all, the most a stored result holds.  The table keeps the
    # last MEMO_COMPLEXES
    import gc
    import pickle
    import tracemalloc

    ranks = (32, 192, 480, 640, 480, 192, 32)
    dranks = (32, 160, 320, 320, 160, 32)
    entries = [
        ((*ranks,), tuple((r, (2,) * c) for r, c in zip(dranks, (*cuts, 16 - sum(cuts)))))
        for cuts in product(range(17), repeat=5)
        if sum(cuts) <= 16
    ][: MEMO_COMPLEXES + 1]
    for ranks_, factors in entries:
        report = cech._homology(ranks_, factors, 0)
        assert sum(len(d["torsion"]) for d in report["degrees"]) == 16
    assert len(degrees) == MEMO_COMPLEXES
    assert (*entries[0], 0) not in degrees and (*entries[1], 0) in degrees
    # the full table, measured as the allocations of an equal copy (about
    # 1.9 MiB), stays under the entry table's 5 MiB
    data = pickle.dumps(degrees)
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        copy = pickle.loads(data)
        size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert copy == degrees
    assert size < 5 * 2**20


def test_degrees_writes_from_threads_keep_the_bound(degrees):
    # four threads read the homology of 1,600 one-term complexes Z^k, each
    # thread's range overlapping the next one's: every report is right and
    # the table ends full, never past MEMO_COMPLEXES
    import sys
    import threading

    errors = []

    def work(start):
        try:
            for k in range(start, start + 700):
                report = cech._homology((k,), (), 0)
                if report["degrees"][0]["free_rank"] != k or report["exact"] != (k == 0):
                    errors.append(k)
        except Exception as err:  # reported by the assertion below
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(300 * k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(degrees) == MEMO_COMPLEXES



def test_family_points_are_ints():
    # True == 1 and 0.0 == 0 pass is_closed; the family rejects them before
    # a report reaches its bitmasks
    for sets in ([{True}, {0.0}], [{0}, {1.0}], [{False, 1}], [{"a", 5}]):
        with pytest.raises(ValueError, match="is not an int"):
            CoverFamily.make(D2, sets)
    with pytest.raises(ValueError, match="is not an int"):
        CoverFamily(D2, (frozenset({1}), frozenset({0.0})))


def test_discrete_family_check_names_each_fault_as_the_per_set_check(monkeypatch):
    # a family on a discrete space is checked in one pass over its points;
    # a family that fails it gets the per-set check's message, and the
    # per-set check is not reached by a family that passes
    wants = {
        frozenset({True}): "point True is not an int",
        frozenset({0.0}): "point 0.0 is not an int",
        frozenset({"a", 1}): "point 'a' is not an int",
        frozenset({2}): "[2] is not closed",
        frozenset({-1}): "[-1] is not closed",
    }
    for bad, want in wants.items():
        for sets in ([bad], [{0}, bad], [{1}, bad, {0, 1}]):
            with pytest.raises(ValueError) as err:
                CoverFamily.make(D2, sets)
            assert type(err.value) is ValueError and str(err.value) == want
    with pytest.raises(ValueError, match="^family must be nonempty$"):
        CoverFamily.make(D2, [])
    with pytest.raises(SizeExceeded, match=r"^family size 7 > 6$"):
        CoverFamily.make(D2, [{0}] * 7)
    monkeypatch.setattr(FiniteSpace, "is_closed", lambda self, K: pytest.fail("per-set check"))
    for sets in ([set()], [{0}, {1}], [{0, 1}] * 6):
        assert CoverFamily.make(D2, sets).sets == tuple(map(frozenset, sets))


def test_report_witness_is_the_descent_faithful_witness(monkeypatch):
    # every non-cover of criterion 1 reports the values of
    # descent_faithful_witness, and the report builds no function for it
    from dbl.suite import _tate_cases

    rings = (Z, int_triv(), fp_triv(2))
    cases = [(FiniteSpace.discrete(n), sets) for n, sets in _tate_cases(4, 3)]
    witnesses = {}
    for space, sets in cases:
        family = CoverFamily.make(space, sets)
        for ring in rings:
            try:
                witnesses[space, sets, ring] = descent_faithful_witness(space, family, ring).values
            except IsCover:
                pass
    monkeypatch.setattr(cech, "CfinFunction", lambda *args: pytest.fail("built a function"))
    reported = {}
    for space, sets in cases:
        family = CoverFamily.make(space, sets)
        for ring in rings:
            report = tate_equivalence_report(space, family, ring)
            if "witness" in report:
                reported[space, sets, ring] = tuple(report["witness"])
    assert reported == witnesses and len(reported) > 0


def test_size_caps():
    with pytest.raises(SizeExceeded):
        CoverFamily.make(D3, [frozenset({0})] * 7)
    # spaces.MAX_POINTS is the only cap on the points of a complex
    big = FiniteSpace.discrete(13)
    c = build_tate_cech(big, CoverFamily.make(big, [frozenset(range(13))]), Z)
    assert [c.rank(k) for k in range(c.length)] == [13, 13]
    assert exactness(c)["exact"]


def test_descent_faithful_witness():
    w = descent_faithful_witness(D2, fam(D2, {0}), Z)
    assert w.values == (0, 1)
    w = descent_faithful_witness(D3, fam(D3, {0}, {1}), Z)
    assert w.values == (0, 0, 1)
    with pytest.raises(IsCover):
        descent_faithful_witness(D2, fam(D2, {0}, {1}), Z)
    with pytest.raises(IsCover):
        descent_faithful_witness(D2, fam(D2, {0}), zmod_triv(1))


def test_witness_is_the_indicator_of_the_first_uncovered_block():
    # every topology on <= 3 points with every family of <= 2 closed sets
    # that misses a quasi-component
    rings = (Z, zmod_triv(4), fp_triv(2))
    cases = 0
    for n in range(1, 4):
        for space in topologies(n):
            full = frozenset(space.points)
            closed = [full - U for U in space.opens]
            for size in (1, 2):
                for sets in combinations(closed, size):
                    family = CoverFamily.make(space, sets)
                    missed = [B for B in space.quasi_components if not any(B & K for K in sets)]
                    if not missed:
                        continue
                    for ring in rings:
                        w = descent_faithful_witness(space, family, ring)
                        want = indicator(space, ring, missed[0])
                        assert w == want and w.values == want.values
                        cases += 1
    assert cases > 0


def test_zeta_cover_vs_point_cover():
    sier = FiniteSpace.sierpinski()
    assert zeta_is_cover(sier, fam(sier, {0}))
    assert not is_cover(sier, fam(sier, {0}))


def brute_force_zn_torsion_orders(d_in, d_out, rank, n):
    """|H[m]| = |{x in ker d_out : m x in im d_in}| / |im d_in| over Z/n
    for every divisor m of n (m = n gives |H|), by enumerating (Z/n)^rank;
    an empty d_in or d_out is the zero map."""
    from itertools import product as iproduct

    def apply(m, v):
        return tuple(sum(m[i][j] * v[j] for j in range(len(v))) % n for i in range(len(m)))

    kernel = [
        v
        for v in iproduct(range(n), repeat=rank)
        if not any(apply(d_out, v))
    ]
    image = (
        {apply(d_in, w) for w in iproduct(range(n), repeat=len(d_in[0]))}
        if d_in
        else {(0,) * rank}
    )
    assert image <= set(kernel)
    return {
        m: sum(1 for v in kernel if tuple(m * x % n for x in v) in image) // len(image)
        for m in range(1, n + 1)
        if n % m == 0
    }


def test_zn_homology_matches_brute_force():
    import random

    rng = random.Random(5)
    checked = 0
    for n in (4, 6, 8):
        for ring in (zmod_triv(n), zmod_quot(n)):
            for _ in range(15):
                r0, r1, r2 = rng.randint(1, 2), rng.randint(1, 3), rng.randint(1, 2)
                d0 = tuple(
                    tuple(rng.randint(-n, n) for _ in range(r0)) for _ in range(r1)
                )
                # rows of s beyond the rank annihilate d0 over Z, so integer
                # combinations of them give d1 with d1 d0 = 0 over Z
                _, s, _ = smith_normal_form(d0)
                left_kernel = s[len(invariant_factors(d0)) :]
                d1 = []
                for _ in range(r2):
                    coeffs = [rng.randint(-2, 2) for _ in left_kernel]
                    d1.append(
                        tuple(
                            sum(a * y[j] for a, y in zip(coeffs, left_kernel))
                            for j in range(r1)
                        )
                    )
                d1 = tuple(d1)
                c = ChainComplex(
                    ring, (tuple(range(r0)), tuple(range(r1)), tuple(range(r2))), (d0, d1)
                )
                rep = exactness(c)
                for deg, d_in, d_out, rank in (
                    (rep["degrees"][0], (), d0, r0),
                    (rep["degrees"][1], d0, d1, r1),
                    (rep["degrees"][2], d1, (), r2),
                ):
                    assert deg["free_rank"] == 0
                    want = brute_force_zn_torsion_orders(d_in, d_out, rank, n)
                    torsion = deg["torsion"]
                    assert all(t > 1 and n % t == 0 for t in torsion)
                    assert all(b % a == 0 for a, b in zip(torsion, torsion[1:]))
                    # the order of H, then |H[m]| = prod gcd(t, m), which pins
                    # the invariant factors of a group of exponent dividing n
                    order = 1
                    for t in torsion:
                        order *= t
                    assert order == want[n], (n, deg, d0, d1)
                    got = {}
                    for m in want:
                        got[m] = 1
                        for t in torsion:
                            got[m] *= gcd(t, m)
                    assert got == want, (n, deg, d0, d1)
                checked += 1
    assert checked == 90


def test_complex_rejects_composition_vanishing_only_mod_n():
    # d1 d0 = (4): zero over Z/4 but not over Z, so not an integer complex
    with pytest.raises(ValueError):
        ChainComplex(zmod_triv(4), (("a",), ("b",), ("c",)), (((2,),), ((2,),)))


def test_complex_checks_d_squared_like_the_dense_product():
    import random

    rng = random.Random(5)
    for _ in range(300):
        n0, n1, n2 = (rng.randint(0, 4) for _ in range(3))
        a = tuple(tuple(rng.choice((0, 0, 1, -1, 2)) for _ in range(n0)) for _ in range(n1))
        b = tuple(tuple(rng.choice((0, 0, 1, -1, 3)) for _ in range(n1)) for _ in range(n2))
        terms = (("x",) * n0, ("y",) * n1, ("z",) * n2)
        if any(map(any, matmul(b, a))):
            with pytest.raises(ValueError, match="d∘d nonzero"):
                ChainComplex(Z, terms, (a, b))
        else:
            ChainComplex(Z, terms, (a, b))
    with pytest.raises(ValueError, match="shape mismatch"):
        ChainComplex(Z, (("x",), ("y",), ("z",)), (((1,),), ((1, 0),)))


def test_cover_complex_at_the_caps_is_fast():
    import time

    space = FiniteSpace.discrete(12)
    family = fam(space, *(set(range(12)) - {i} for i in range(6)))
    started = time.perf_counter()
    rep = tate_equivalence_report(space, family, zmod_triv(4))
    assert time.perf_counter() - started < 2
    assert rep["exact"] and rep["agreement"]


def test_exactness_at_the_caps_takes_under_a_tenth_of_a_second():
    import time

    space = FiniteSpace.discrete(12)
    c = build_tate_cech(space, fam(space, *[range(12)] * 6), zmod_triv(4))
    assert max(map(len, c.terms)) == 240
    times = []
    for _ in range(3):
        started = time.perf_counter()
        rep = exactness(c)
        times.append(time.perf_counter() - started)
    assert min(times) < 0.1
    assert rep["exact"]


def test_cover_complexes_at_32_points_are_fast():
    import time

    ring = zmod_triv(4)
    discrete = FiniteSpace.discrete(32)
    # point 0 specializes to each of the closed points 1..31
    connected = FiniteSpace(32, [{0}] + [{0, x} for x in range(1, 32)])
    closed = set(range(1, 32))
    cases = (
        # six copies of the whole space: terms up to 640, exact
        (discrete, fam(discrete, *[range(32)] * 6), {}, None),
        # every point but 0 lies in five or six pieces; over Z the complex
        # has H^1 = Z^31 / Z, the constants on each point mod the global ones
        (connected, fam(connected, *(closed - {i} for i in range(1, 7))), {1: [4] * 30}, NotEmbedding),
    )
    for space, family, torsion, rejected in cases:
        started = time.perf_counter()
        c = build_tate_cech(space, family, ring)
        rep = exactness(c)
        assert time.perf_counter() - started < 3
        assert [d["torsion"] for d in rep["degrees"]] == [
            torsion.get(k, []) for k in range(7)
        ]
        assert all(d["free_rank"] == 0 for d in rep["degrees"])
        started = time.perf_counter()
        if rejected is None:
            # the report writes the space as its 32 minimal opens
            report = tate_equivalence_report(space, family, ring)
            assert report["exact"]
            assert report["space"]["opens"] == [[x] for x in range(32)]
        else:
            # the pieces of the connected space merge its quasi-component
            with pytest.raises(rejected):
                tate_equivalence_report(space, family, ring)
        assert time.perf_counter() - started < 1
    started = time.perf_counter()
    sections = strict_sections(discrete, cases[0][1], ring)
    assert time.perf_counter() - started < 5
    assert [s["degree"] for s in sections] == [1, 2, 3, 4, 5, 6]


def test_equivalence_on_non_discrete_spaces_with_embedding_pieces():
    from dbl.fixtures import chain_space, double_sierpinski, glued_pairs

    for space in (glued_pairs(), double_sierpinski(), chain_space(3), FiniteSpace.sierpinski()):
        closed = [frozenset(range(space.n)) - U for U in space.opens]
        for a in closed:
            for b in closed:
                family = CoverFamily.make(space, (a, b) if a != b else (a,))
                try:
                    rep = tate_equivalence_report(space, family, Z)
                except NotEmbedding:
                    continue
                assert rep["agreement"]
                assert rep["exact"] == (rep["cover_components"] or False)


def test_section_constants_bounded_on_enumerated_covers():
    # every cover of a small discrete space yields sections of constant <= 2
    for n in (1, 2, 3):
        space = FiniteSpace.discrete(n)
        subsets = [frozenset(c) for size in range(n + 1) for c in combinations(range(n), size)]
        for k in (1, 2):
            for sets in combinations(subsets, k):
                family = CoverFamily.make(space, sets)
                if not is_cover(space, family):
                    continue
                for s in strict_sections(space, family, Z):
                    assert s["constant"] <= 2

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbl import spaces
from dbl._memo import Memo
from dbl.cech import CoverFamily
from dbl.errors import NotClopen, NotContinuous, SizeExceeded
from dbl.fixtures import chain_space, double_sierpinski, glued_pairs
from dbl.spaces import (
    MAX_LISTED,
    MAX_POINTS,
    FiniteSpace,
    PointMap,
    UltrametricSpace,
    ball_tree,
    banaschewski,
    merged_pair,
)
from oracles import inclusion_map, is_up_set, topologies, ultrafilters


def brute_clopens(space):
    # oracle: scan every subset for being simultaneously open and closed
    out = []
    for size in range(space.n + 1):
        for c in combinations(range(space.n), size):
            U = frozenset(c)
            if is_up_set(space, U) and space.is_closed(U):
                out.append(U)
    return sorted(out, key=lambda u: tuple(sorted(u)))


def test_clopens_examples():
    assert len(FiniteSpace.discrete(3).clopens) == 8
    sier = FiniteSpace.sierpinski()
    assert sorted(map(sorted, sier.clopens)) == [[], [0, 1]]
    glued = glued_pairs()
    assert sorted(map(sorted, glued.clopens)) == [[], [0, 1], [0, 1, 2, 3], [2, 3]]


def test_clopens_match_brute_force():
    for space in (FiniteSpace.discrete(3), FiniteSpace.sierpinski(), glued_pairs(), double_sierpinski()):
        assert sorted(space.clopens, key=lambda u: tuple(sorted(u))) == brute_clopens(space)


def test_quasi_components():
    assert [sorted(b) for b in FiniteSpace.discrete(3).quasi_components] == [[0], [1], [2]]
    assert [sorted(b) for b in FiniteSpace.sierpinski().quasi_components] == [[0, 1]]
    assert [sorted(b) for b in double_sierpinski().quasi_components] == [[0, 1], [2, 3]]


def test_component_is_meet_of_clopens():
    for space in (glued_pairs(), double_sierpinski(), FiniteSpace.sierpinski()):
        for x in range(space.n):
            block = frozenset(range(space.n))
            for U in space.clopens:
                if x in U:
                    block &= U
            assert block == space.quasi_components[space.component_index(x)]


def test_banaschewski():
    disc = FiniteSpace.discrete(3)
    zeta, iota = banaschewski(disc)
    assert zeta.n == 3 and iota.images == (0, 1, 2)
    zeta, iota = banaschewski(FiniteSpace.sierpinski())
    assert zeta.n == 1
    zeta, iota = banaschewski(glued_pairs())
    assert zeta.n == 2 and iota.images == (0, 0, 1, 1)


def test_banaschewski_idempotent():
    space = FiniteSpace.discrete(4)
    zeta, iota = banaschewski(space)
    assert zeta == space and iota.images == tuple(range(4))


def test_clopen_closure_uniqueness():
    for space in (FiniteSpace.discrete(3), glued_pairs(), double_sierpinski()):
        zeta, iota = banaschewski(space)
        for U in space.clopens:
            bar = space.clopen_component_indices(U)
            pre = frozenset(x for x in range(space.n) if iota(x) in bar)
            assert pre == U
            # uniqueness: no other clopen of the component space pulls back to U
            others = [
                V
                for V in zeta.clopens
                if frozenset(x for x in range(space.n) if iota(x) in V) == U
            ]
            assert others == [bar]


def test_is_closed_rejects_points_outside_the_space():
    disc = FiniteSpace.discrete(2)
    assert disc.is_closed({0}) and disc.is_closed(set())
    assert not disc.is_closed({0, 5})
    assert not disc.is_closed({-1})
    with pytest.raises(ValueError):
        CoverFamily.make(disc, [{0, 1, -3}])


def test_up_is_the_intersection_of_the_generating_opens_around_each_point():
    # the one-pass up against the intersection formula, on random families
    # with an empty open, the whole space and repeated opens, given as a
    # list, a generator and lists of points
    import random

    rng = random.Random(0)
    for _ in range(400):
        n = rng.randrange(9)
        full = frozenset(range(n))
        gens = [
            frozenset(x for x in range(n) if rng.random() < 0.4)
            for _ in range(rng.randrange(6))
        ]
        gens += [frozenset(), full] + gens[:2]
        rng.shuffle(gens)
        want = tuple(full.intersection(*(U for U in gens if x in U)) for x in range(n))
        assert FiniteSpace(n, gens).up == want
        assert FiniteSpace(n, (U for U in gens)).up == want
        assert FiniteSpace(n, [sorted(U) for U in gens]).up == want
    # an open outside the points is named as before, the first in order
    for gens in ([{0}, {1, 3}, {-1}], ({0}, {1, 3}, {-1}), iter([{1, 3}, {-1}])):
        with pytest.raises(ValueError, match=r"^open set \[1, 3\] not within 0..2$"):
            FiniteSpace(3, gens)


def test_points_are_ints():
    # True == 1 and 0.0 == 0 pass a subset test of the points; a space's
    # opens reject them as points, ahead of the range check
    for gens in ([{True}, {0.0, 2}], [{0.0, 2}], [{0}, [False]], [{Fraction(1)}], [{"a", 5}]):
        with pytest.raises(ValueError, match="is not an int"):
            FiniteSpace(3, gens)


def test_point_count_is_an_int():
    # a bool, a float or a string is no point count: each is a ValueError
    # before any work, so no space reports "points": true
    for n in (True, False, 2.0, "3", None, Fraction(2)):
        with pytest.raises(ValueError, match="point count .* is not an int"):
            FiniteSpace(n)
        with pytest.raises(ValueError, match="point count .* is not an int"):
            FiniteSpace.discrete(n)
    for build in (FiniteSpace, FiniteSpace.discrete):
        with pytest.raises(ValueError, match="point count must be >= 0"):
            build(-1)
    for n in (0, 1, 5, MAX_POINTS):
        report = FiniteSpace.discrete(n).to_json()
        assert type(report["points"]) is int and report["points"] == n
        assert FiniteSpace.from_json(report) == FiniteSpace.discrete(n)


# hash-equal stand-ins for the points 0 and 1 of a two-point space
NOT_POINTS = (True, False, 1.0, 0.0, Fraction(1))


def test_open_closed_and_clopen_tests_are_false_for_points_that_are_not_ints():
    d = FiniteSpace.discrete(2)
    for x in NOT_POINTS:
        for S in ({x}, {x, 1 - x}):
            assert not d.is_closed(S) and not d.is_clopen(S)
    assert d.is_closed({1}) and d.is_clopen({0, 1})


def test_components_reject_points_that_are_not_ints():
    d = FiniteSpace.discrete(2)
    for x in NOT_POINTS:
        with pytest.raises(ValueError, match="is not an int"):
            d.components({x})
    assert d.components({1}) == (frozenset({1}),)


def test_clopen_component_indices_reject_points_that_are_not_ints():
    d = FiniteSpace.discrete(2)
    for x in NOT_POINTS:
        with pytest.raises(NotClopen):
            d.clopen_component_indices({x})
    assert d.clopen_component_indices({1}) == {1}


def test_clopen_component_indices_name_a_point_that_is_not_an_int():
    # a set mixing types cannot be sorted for the message; the point that
    # is not an int is named instead, and the error stays NotClopen
    d = FiniteSpace.discrete(2)
    for U in ({"a", 1}, {"a"}, {1, None}):
        with pytest.raises(NotClopen, match=r"^point .* is not an int$"):
            d.clopen_component_indices(U)
    with pytest.raises(NotClopen, match=r"^\[0, 5\] is not clopen$"):
        d.clopen_component_indices({0, 5})


def test_component_index_rejects_points_that_are_not_ints():
    d = FiniteSpace.discrete(2)
    for x in NOT_POINTS:
        with pytest.raises(ValueError, match="outside the space"):
            d.component_index(x)
    assert d.component_index(1) == 1


def test_point_maps_reject_images_that_are_not_ints():
    d = FiniteSpace.discrete(2)
    for x in NOT_POINTS:
        with pytest.raises(ValueError, match="outside the target"):
            PointMap(d, d, (x, 0))
    assert PointMap(d, d, (1, 0)).images == (1, 0)


def test_clopen_closure_rejects_non_clopen():
    with pytest.raises(NotClopen):
        FiniteSpace.sierpinski().clopen_component_indices(frozenset({1}))


# discrete spaces built in other ways than FiniteSpace.discrete: every up
# set is its point alone, however the opens were given
GENERATED_DISCRETE = (
    (3, [{0, 1}, {1, 2}, {0}, {2}]),
    (4, [{0, 1}, {1, 2}, {2, 3}, {0, 3}]),
    (5, [{0, 1, 2}, {2, 3, 4}, {0, 3}, {1, 4}, {0, 4}, {1, 3}]),
    (MAX_POINTS, [set(range(MAX_POINTS)) - {x} for x in range(MAX_POINTS)]),
)


def short_path_spaces():
    for n in range(5):
        yield from topologies(n)
    for n in range(MAX_POINTS + 1):
        yield FiniteSpace.discrete(n)
    for n, gens in GENERATED_DISCRETE:
        yield FiniteSpace(n, gens)


def test_discrete_spaces_take_the_short_path_to_the_same_answers():
    # a space is discrete exactly when each up set is its point; then its
    # quasi-components are the general components of its points, and
    # is_closed agrees with the preorder's rule (the complement is an up
    # set) on every subset up to 5 points.  Sets holding a bool, a float
    # or a string are not closed, on either path
    discrete = 0
    for space in short_path_spaces():
        points = frozenset(space.points)
        assert space.is_discrete == all(space.up[x] == {x} for x in space.points)
        discrete += space.is_discrete
        assert space.quasi_components == space.components(points)
        if space.n <= 5:
            for size in range(space.n + 1):
                for K in map(frozenset, combinations(space.points, size)):
                    assert space.is_closed(K) == is_up_set(space, points - K), (space, K)
        for bad in (True, 0.0, "a"):
            assert not space.is_closed({bad})
            assert not space.is_closed({bad} | points)
    assert discrete == 1 + (MAX_POINTS + 1) + len(GENERATED_DISCRETE) + 4
    assert not FiniteSpace.sierpinski().is_discrete and not glued_pairs().is_discrete


def test_discrete_is_built_from_its_count_alone(monkeypatch):
    # a call of discrete(n) reads no generating open, yet its space equals
    # the one those singletons generate in every field a caller sees (the
    # counts it rejects are in test_point_count_is_an_int and
    # test_size_cap)
    calls = []
    checked = spaces._ints
    monkeypatch.setattr(spaces, "_ints", lambda S: calls.append(S) or checked(S))
    for n in range(MAX_POINTS + 1):
        fast = FiniteSpace.discrete(n)
        assert not calls
        general = FiniteSpace(n, [{x} for x in range(n)])
        assert len(calls) == n
        calls.clear()
        assert fast == general and hash(fast) == hash(general)
        assert fast.up == general.up and fast.is_discrete and general.is_discrete
        assert fast.quasi_components == general.quasi_components == fast.components(fast.points)
        # a discrete space has its quasi-components from construction
        assert fast.quasi_components is fast.up and general.quasi_components is general.up
        indices = [(fast.component_index(x), general.component_index(x)) for x in fast.points]
        assert indices == [(x, x) for x in range(n)]
        assert fast.to_json() == general.to_json()


def test_discrete_spaces_are_shared_per_point_count():
    # one space per point count, equal to the space its singletons
    # generate; its JSON form is computed once, but each call returns fresh
    # lists.  A bad count is checked on every call, so it raises the same
    # error each time and is never cached
    for n in range(MAX_POINTS + 1):
        shared = FiniteSpace.discrete(n)
        assert FiniteSpace.discrete(n) is shared
        general = FiniteSpace(n, [{x} for x in range(n)])
        assert shared is not general and shared == general
        for field in ("n", "points", "up", "is_discrete", "quasi_components"):
            assert getattr(shared, field) == getattr(general, field), (n, field)
        assert shared.to_json() == general.to_json() == {"points": n, "opens": [[x] for x in range(n)]}
        report = shared.to_json()
        report["opens"].append([n])
        if n:
            report["opens"][0].append(n)
        assert shared.to_json() == general.to_json()
    for bad in (True, -1, MAX_POINTS + 1, 2.0):
        errors = []
        for _ in range(3):
            with pytest.raises((ValueError, SizeExceeded)) as err:
                FiniteSpace.discrete(bad)
            errors.append((type(err.value), str(err.value)))
        assert errors == errors[:1] * 3, bad


def test_threads_that_first_ask_for_a_discrete_space_get_one_object(monkeypatch):
    # four threads ask for every point count on an empty cache, with a
    # short switch interval: each count still has one shared space
    import sys
    import threading

    monkeypatch.setattr(spaces, "_DISCRETE", Memo(MAX_POINTS + 1))
    got = [[] for _ in range(4)]

    def work(out):
        out.extend(FiniteSpace.discrete(n) for n in range(MAX_POINTS + 1))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(out,)) for out in got]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for n in range(MAX_POINTS + 1):
        assert {id(out[n]) for out in got} == {id(spaces._DISCRETE[n])}



def test_ultrafilters():
    assert len(ultrafilters(FiniteSpace.discrete(2))) == 2
    sier = ultrafilters(FiniteSpace.sierpinski())
    assert sier == [frozenset({frozenset({0, 1})})]
    glued = ultrafilters(glued_pairs())
    assert len(glued) == 2
    # bijection with the component space
    for space in (FiniteSpace.discrete(3), glued_pairs(), double_sierpinski()):
        zeta, _ = banaschewski(space)
        assert len(ultrafilters(space)) == zeta.n


def test_ultrafilter_laws():
    for space in (glued_pairs(), double_sierpinski()):
        full = frozenset(range(space.n))
        for filt in ultrafilters(space):
            assert full in filt and frozenset() not in filt
            for U in space.clopens:
                comp = full - U
                assert (U in filt) != (comp in filt)


def test_size_cap():
    assert MAX_POINTS == 32 and MAX_LISTED == 4096
    FiniteSpace.discrete(MAX_POINTS)
    with pytest.raises(SizeExceeded):
        FiniteSpace(MAX_POINTS + 1)
    with pytest.raises(SizeExceeded):
        FiniteSpace.discrete(MAX_POINTS + 1)
    # listing opens or clopens stops at MAX_LISTED sets, whatever the points
    assert len(chain_space(MAX_POINTS).opens) == MAX_POINTS + 1
    assert len(FiniteSpace.discrete(12).opens) == MAX_LISTED
    assert len(FiniteSpace.discrete(12).clopens) == MAX_LISTED
    with pytest.raises(SizeExceeded):
        FiniteSpace.discrete(13).opens
    with pytest.raises(SizeExceeded):
        FiniteSpace.discrete(13).clopens


def test_point_map_continuity():
    sier = FiniteSpace.sierpinski()
    disc = FiniteSpace.discrete(2)
    # identity on points: sierpinski -> discrete is NOT continuous
    j = PointMap(sier, disc, (0, 1))
    assert not j.is_continuous()
    # discrete -> sierpinski always continuous
    assert PointMap(disc, sier, (0, 1)).is_continuous()


def test_zeta_embedding_check():
    # a map is injective on quasi-components when its component map has no merged pair
    disc2 = FiniteSpace.discrete(2)
    disc1 = FiniteSpace.discrete(1)
    sub, incl = inclusion_map({0}, disc2)
    assert merged_pair(incl.component_map()) is None
    collapse = PointMap(disc2, disc1, (0, 0))
    assert merged_pair(collapse.component_map()) == (0, 1)
    # sierpinski into discrete 2 collapsing both points: zeta(K) is a point
    sier = FiniteSpace.sierpinski()
    j = PointMap(sier, disc2, (0, 0))
    assert j.is_continuous()
    assert merged_pair(j.component_map()) is None


def test_merged_pair_is_the_first_repeat():
    assert merged_pair([]) is None
    assert merged_pair((0, 2, 1)) is None
    assert merged_pair([0, 0]) == (0, 1)
    assert merged_pair([0, 1, 0]) == (0, 2)
    # the first index whose image repeats decides, then its first preimage
    assert merged_pair([5, 1, 2, 1, 5]) == (1, 3)
    assert merged_pair([1, 1, 0, 0]) == (0, 1)
    assert merged_pair(iter([3, 4, 4])) == (1, 2)


def test_zeta_embedding_requires_continuity():
    sier = FiniteSpace.sierpinski()
    j = PointMap(sier, FiniteSpace.discrete(2), (0, 1))
    with pytest.raises(NotContinuous):
        j.component_map()


def three_point_um():
    return UltrametricSpace(
        [[0, 1, 2], [1, 0, 2], [2, 2, 0]]
    )


def test_ultrametric_validation():
    with pytest.raises(ValueError):
        UltrametricSpace([[0, 3], [3, 1]])  # nonzero diagonal
    with pytest.raises(ValueError):
        UltrametricSpace([[0, 1, 5], [1, 0, 1], [5, 1, 0]])  # not ultrametric


def test_ball_tree_examples():
    single = ball_tree(UltrametricSpace([[0]]))
    assert single.points == frozenset({0}) and not single.children

    tree = ball_tree(three_point_um())
    assert tree.points == frozenset({0, 1, 2})
    kids = [sorted(c.points) for c in tree.children]
    assert kids == [[0, 1], [2]]
    inner = tree.children[0]
    assert [sorted(c.points) for c in inner.children] == [[0], [1]]

    # all pairwise distances equal: root with n singleton children
    um = UltrametricSpace([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    tree = ball_tree(um)
    assert [sorted(c.points) for c in tree.children] == [[0], [1], [2]]
    assert not any(c.children for c in tree.children)


def test_ball_tree_nested_or_disjoint():
    from dbl.fixtures import seeded_ultrametric

    for seed in range(6):
        um = seeded_ultrametric(seed, max_points=10)
        tree = ball_tree(um)
        walk, nodes = [tree], []
        while walk:
            nodes.append(walk.pop())
            walk.extend(nodes[-1].children)
        for a in nodes:
            for b in nodes:
                assert a.points & b.points in (a.points, b.points, frozenset())
        for node in nodes:
            if node.children:
                assert frozenset().union(*(c.points for c in node.children)) == node.points


def test_space_json_roundtrip():
    for space in (FiniteSpace.discrete(3), glued_pairs(), FiniteSpace.sierpinski()):
        again = FiniteSpace.from_json(space.to_json())
        assert again == space


@pytest.mark.parametrize(
    "obj",
    [
        [1, 2],
        "space",
        {"points": 2},
        {"opens": []},
        {"points": "2", "opens": []},
        {"points": True, "opens": []},
        {"points": 2, "opens": {"0": [0]}},
        {"points": 2, "opens": [[0, "1"]]},
        {"points": 2, "opens": [0]},
        {"points": 2, "opens": [[0.5]]},
        {"points": 2, "opens": [[2]]},
        {"points": -1, "opens": []},
    ],
)
def test_space_from_json_rejects_malformed_input(obj):
    with pytest.raises(ValueError):
        FiniteSpace.from_json(obj)


# -- the preorder representation against the topology closure ----------------


def close_topology(family):
    """Closure of a family of sets under pairwise union and intersection."""
    family = set(family)
    while True:
        new = set()
        fam = list(family)
        for i, A in enumerate(fam):
            for B in fam[i + 1 :]:
                u = A | B
                if u not in family:
                    new.add(u)
                v = A & B
                if v not in family:
                    new.add(v)
        if not new:
            return frozenset(family)
        family |= new


def closure_opens(n, gens):
    return close_topology(set(gens) | {frozenset(), frozenset(range(n))})


@st.composite
def generated_spaces(draw, max_points=6):
    n = draw(st.integers(min_value=0, max_value=max_points))
    subsets = st.frozensets(st.integers(min_value=0, max_value=max(n - 1, 0)))
    gens = draw(st.lists(subsets, max_size=5)) if n else []
    return n, gens


@given(generated_spaces(), st.data())
@settings(max_examples=150, deadline=None)
def test_preorder_matches_topology_closure(spec, data):
    n, gens = spec
    space = FiniteSpace(n, gens)
    opens = closure_opens(n, gens)
    full = frozenset(range(n))
    assert frozenset(space.opens) == opens
    assert list(space.opens) == sorted(opens, key=lambda u: tuple(sorted(u)))
    assert list(space.clopens) == brute_clopens(space)
    assert list(space.clopens) == sorted(
        (U for U in opens if full - U in opens), key=lambda u: tuple(sorted(u))
    )
    for x in range(n):
        block = full
        for U in space.clopens:
            if x in U:
                block &= U
        assert block == space.quasi_components[space.component_index(x)]
    for U in opens:
        assert is_up_set(space, U) and space.is_closed(full - U)
    # continuity is "preimages of opens are open" on random maps
    m, other_gens = data.draw(generated_spaces(max_points=4))
    if m:
        target = FiniteSpace(m, other_gens)
        images = tuple(
            data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        )
        target_opens = closure_opens(m, other_gens)
        preimages_open = all(
            frozenset(x for x in range(n) if images[x] in U) in opens
            for U in target_opens
        )
        assert PointMap(space, target, images).is_continuous() == preimages_open
    # the subspace topology on A is {U & A}
    A = sorted(data.draw(st.frozensets(st.integers(0, max(n - 1, 0)))) & full)
    sub, incl = inclusion_map(A, space)
    idx = {x: i for i, x in enumerate(A)}
    assert incl.images == tuple(A)
    assert frozenset(sub.opens) == frozenset(
        frozenset(idx[x] for x in U & frozenset(A)) for U in opens
    )
    # the components of a subset, read off the preorder, are the
    # quasi-components of the subspace built by inclusion_map
    for _ in range(3):
        S = data.draw(st.frozensets(st.sampled_from(range(n)))) if n else frozenset()
        sub, incl = inclusion_map(S, space)
        assert space.components(S) == tuple(
            frozenset(incl(x) for x in block) for block in sub.quasi_components
        )
    for outside in (-1, n):
        with pytest.raises(ValueError):
            space.components(full | {outside})
    # equality and hash depend on the topology, not on its generators
    same = FiniteSpace(n, opens)
    assert same == space and hash(same) == hash(space)
    assert FiniteSpace.from_json(space.to_json()) == space

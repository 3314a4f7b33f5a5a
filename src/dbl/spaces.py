"""Finite topological spaces, clopen algebra, and finite ultrametric spaces.

A finite topology is stored as its specialization preorder: up[x] is the
smallest open set containing x, the intersection of the generating opens
that contain x (Stong 1966; Barmak, LNM 2032).  Opens are the up-sets of
that preorder, continuity is monotonicity, and a subspace restricts the
preorder.  Quasi-components — the intersections of all clopens containing
a point — are the connected components of the graph joining x to up[x]
(for a subset S, to up[x] & S, so no subspace is built to find them);
they are the finite-stage fibers of the map to the Banaschewski
compactification, which here is just the discrete space of
quasi-components, built once per space with its quotient map.  Whether a
space is discrete is decided once, when it is built, from its up sets
(however its opens were given): a discrete space takes its up sets as its
quasi-components and calls every set of its points closed, with no
component or preorder pass.  FiniteSpace.discrete(n) returns one shared
space per point count, built on its first request and kept in the _memo
table _DISCRETE with what it caches (see the README's "Memory bounds"
table).  Spaces have at most MAX_POINTS points, the one
cap a command meets: a space goes on the wire as its minimal opens, and
only an explicit listing of its opens or clopens stops at MAX_LISTED
sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import filterfalse

from ._memo import Memo
from .errors import NotClopen, NotContinuous, SizeExceeded

MAX_POINTS = 32
MAX_LISTED = 4096

_DISCRETE = Memo(MAX_POINTS + 1)  # the shared discrete space of each point count


def _canon(points) -> tuple[int, ...]:
    return tuple(sorted(points))


def _unions(pieces) -> tuple[frozenset, ...]:
    """Every union of some of the pieces, in canonical order."""
    found = {frozenset()}
    for P in pieces:
        found |= {U | P for U in found}
        if len(found) > MAX_LISTED:
            raise SizeExceeded(f"more than {MAX_LISTED} sets to list")
    return tuple(sorted(found, key=_canon))


class FiniteSpace:
    """A finite topological space on points 0..n-1, at most MAX_POINTS.

    up[x] is the smallest open set containing x; equality and hashing
    compare these, so two generating families of one topology give equal
    spaces.  up is built in one pass over the generating opens: each is
    checked as it is read (its points ints within 0..n-1), then
    intersected into up[x] for each of its points x.  The point set is
    kept as one frozenset, which the closed, clopen and component tests
    read.  Whether the space is discrete, every up[x] the point x alone,
    is decided once, from up: a discrete space's quasi-components are its
    up sets, set when it is built, and every subset of its points is
    closed.  Any other space finds its quasi-components on first read.
    The constructor and the shared FiniteSpace.discrete(n) end in one
    finishing step, _finish.
    """

    def __init__(self, n: int, generating_opens=()):
        full = frozenset(range(_point_count(n)))
        up = [full] * n
        for U in generating_opens:
            U = _ints(U)
            if not U <= full:
                raise ValueError(f"open set {sorted(U)} not within 0..{n - 1}")
            for x in U:
                up[x] &= U
        self._finish(full, tuple(up))

    @staticmethod
    def discrete(n: int) -> "FiniteSpace":
        """The discrete space on n points, one shared space per point count.

        n is checked on every call as the constructor checks it (an int and
        no bool, 0..MAX_POINTS), so a bad n raises each time.  The space is
        built on the first request for n, with the singletons made here, so
        no generating open is read or checked; it equals FiniteSpace(n, the
        singletons) in every field, and is kept in _DISCRETE.
        """
        space = _DISCRETE.get(_point_count(n))
        if space is None:
            space = object.__new__(FiniteSpace)
            points = range(n)
            space._finish(frozenset(points), tuple(map(frozenset, zip(points))))
            space = _DISCRETE.store(n, space)
        return space

    def _finish(self, full: frozenset, up: tuple[frozenset, ...]):
        """Set the fields of the space with these up sets on the points in full."""
        self.n = n = len(up)
        self.points = tuple(range(n))
        self._point_set = full
        self.up = up
        # each point is open alone, so every subset is clopen and the up
        # sets, already in point order, are the quasi-components
        self.is_discrete = sum(map(len, up)) == n
        if self.is_discrete:
            self.quasi_components = up

    @staticmethod
    def sierpinski() -> "FiniteSpace":
        # open point 1, closed point 0
        return FiniteSpace(2, [frozenset([1])])

    @cached_property
    def opens(self) -> tuple[frozenset, ...]:
        """Every open set (the unions of the sets up[x]), in canonical order."""
        return _unions(self.up)

    def is_closed(self, K) -> bool:
        K = frozenset(K)
        if not (K <= self._point_set and _all_ints(K)):
            return False
        if self.is_discrete:
            return True
        U = self._point_set - K
        return all(self.up[x] <= U for x in U)

    def is_clopen(self, U) -> bool:
        U = frozenset(U)
        return U <= self._point_set and _all_ints(U) and all(
            block <= U or not block & U for block in self.quasi_components
        )

    @cached_property
    def clopens(self) -> tuple[frozenset, ...]:
        """Every clopen set (the unions of quasi-components), in canonical order."""
        return _unions(self.quasi_components)

    def components(self, subset) -> tuple[frozenset, ...]:
        """Quasi-components of a subset S in its subspace topology, by least point.

        The smallest open of the subspace around x is up[x] & S, so these
        are the connected components of the graph joining each x in S to
        every point of up[x] & S; no subspace is built.
        """
        S = frozenset(subset)
        if not (S <= self._point_set and _all_ints(S)):
            _ints(S)  # a point that is not an int is named first
            raise ValueError(f"{sorted(S)} not within the space")
        blocks: list[frozenset] = []
        for x in S:
            U = self.up[x] & S
            meets = [b for b in blocks if b & U]
            blocks = [b for b in blocks if not b & U] + [U.union(*meets)]
        return tuple(sorted(blocks, key=min))

    @cached_property
    def quasi_components(self) -> tuple[frozenset, ...]:
        """Partition of the points; block of x = meet of clopens containing x.

        Computed on first read, except for a discrete space, which has it
        from construction (see _finish).
        """
        return self.components(self._point_set)

    @cached_property
    def _component_of(self) -> dict[int, int]:
        return {x: i for i, block in enumerate(self.quasi_components) for x in block}

    def component_index(self, x: int) -> int:
        # a plain int, the usual case, makes no call
        if not ((type(x) is int or _is_int(x)) and x in self._component_of):
            raise ValueError(f"point {x} outside the space")
        return self._component_of[x]

    def clopen_component_indices(self, U) -> frozenset:
        """Indices of the quasi-components making up a clopen U."""
        U = frozenset(U)
        if not self.is_clopen(U):
            try:
                _ints(U)  # a point that is not an int is named first
            except ValueError as err:
                raise NotClopen(str(err)) from None
            raise NotClopen(f"{sorted(U)} is not clopen")
        return frozenset(self._component_of[x] for x in U)

    @cached_property
    def _banaschewski(self) -> tuple["FiniteSpace", "PointMap"]:
        # spaces are immutable, so the quotient is built once; see banaschewski
        zeta = FiniteSpace.discrete(len(self.quasi_components))
        return zeta, PointMap(self, zeta, tuple(map(self.component_index, self.points)))

    def __eq__(self, other):
        if not isinstance(other, FiniteSpace):
            return NotImplemented
        return self.up == other.up

    def __hash__(self):
        return hash(self.up)

    def __repr__(self):
        return f"FiniteSpace(n={self.n}, up={[sorted(U) for U in self.up]})"

    @cached_property
    def _json_opens(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(map(_canon, set(self.up))))

    def to_json(self):
        """The points and the distinct minimal opens up[x], in canonical order.

        The opens are sorted once per space; each call returns fresh lists.
        """
        return {"points": self.n, "opens": list(map(list, self._json_opens))}

    @staticmethod
    def from_json(obj) -> "FiniteSpace":
        if not (
            isinstance(obj, dict)
            and _is_int(obj.get("points"))
            and isinstance(obj.get("opens"), list)
            and all(
                isinstance(U, list) and _all_ints(U) for U in obj["opens"]
            )
        ):
            raise ValueError('a space is {"points": int, "opens": [[int, ...], ...]}')
        return FiniteSpace(obj["points"], [frozenset(U) for U in obj["opens"]])


def _point_count(n) -> int:
    """n, once it is checked to be a point count: an int (no bool), 0..MAX_POINTS."""
    # a plain int, the usual case, makes no call
    if not (type(n) is int or _is_int(n)):
        raise ValueError(f"point count {n!r} is not an int")
    if n < 0:
        raise ValueError("point count must be >= 0")
    if n > MAX_POINTS:
        raise SizeExceeded(f"{n} points > cap {MAX_POINTS}")
    return n


def _is_int(x) -> bool:
    """Whether x can be a point: an int and no bool.

    True == 1 and 1.0 == 1 hash alike, so a set test of points alone takes
    them; every entry of a space checks its points' type with this.
    """
    return isinstance(x, int) and not isinstance(x, bool)


_PLAIN_INT = frozenset([int])


def _all_ints(S) -> bool:
    """Whether every member of S can be a point (see _is_int).

    Plain ints, the usual case, are told by their type in one pass that
    makes no Python call per member.
    """
    return _PLAIN_INT.issuperset(map(type, S)) or all(map(_is_int, S))


def _ints(S) -> frozenset:
    """S as a frozenset, after a ValueError naming a member that is no point."""
    S = frozenset(S)
    if not _all_ints(S):
        raise ValueError(f"point {next(filterfalse(_is_int, S))!r} is not an int")
    return S


@dataclass(frozen=True)
class PointMap:
    """A map of finite spaces, stored as the image of each point."""

    source: FiniteSpace
    target: FiniteSpace
    images: tuple[int, ...]

    def __post_init__(self):
        if len(self.images) != self.source.n:
            raise ValueError("one image per source point required")
        for y in self.images:
            if not (_is_int(y) and 0 <= y < self.target.n):
                raise ValueError(f"image {y} outside the target")

    def __call__(self, x: int) -> int:
        return self.images[x]

    def is_continuous(self) -> bool:
        """Monotonicity: y in up[x] implies f(y) in up'[f(x)]."""
        f, up = self.images, self.target.up
        return all(
            f[y] in up[f[x]] for x, U in enumerate(self.source.up) for y in U
        )

    def check_continuous(self):
        if not self.is_continuous():
            raise NotContinuous(f"{self.images} is not continuous")

    def component_map(self) -> tuple[int, ...]:
        """Induced map on quasi-components (source block -> target block).

        A continuous map sends each quasi-component into one
        quasi-component, so a block is read at its least point.
        """
        self.check_continuous()
        # every image is a point of the target, checked when the map was built
        index = self.target._component_of
        return tuple(index[self.images[min(block)]] for block in self.source.quasi_components)


def banaschewski(space: FiniteSpace) -> tuple[FiniteSpace, PointMap]:
    """The discrete space of quasi-components with the quotient map.

    Built once per space: every call returns the same two objects.
    """
    return space._banaschewski


def merged_pair(cmap) -> tuple[int, int] | None:
    """(i, j) with i < j, cmap[i] == cmap[j] and j least; None when cmap is injective."""
    seen: dict[int, int] = {}
    for j, t in enumerate(cmap):
        if seen.setdefault(t, j) != j:
            return seen[t], j
    return None


# -- ultrametric spaces -------------------------------------------------


class UltrametricSpace:
    """A finite set with an exact rational ultrametric."""

    def __init__(self, dist):
        n = len(dist)
        d = tuple(tuple(Fraction(x) for x in row) for row in dist)
        for i in range(n):
            if len(d[i]) != n:
                raise ValueError("distance matrix must be square")
            if d[i][i] != 0:
                raise ValueError("diagonal must be zero")
            for k in range(n):
                if d[i][k] != d[k][i]:
                    raise ValueError("distance matrix must be symmetric")
                if i != k and d[i][k] <= 0:
                    raise ValueError("distinct points need positive distance")
        for i in range(n):
            for jj in range(n):
                for k in range(n):
                    if d[i][k] > max(d[i][jj], d[jj][k]):
                        raise ValueError(
                            f"ultrametric inequality fails at ({i},{jj},{k})"
                        )
        self.n = n
        self.dist = d

    def closed_ball(self, x: int, r: Fraction) -> frozenset:
        return frozenset(y for y in range(self.n) if self.dist[x][y] <= r)

    def radii(self):
        out = {Fraction(0)}
        for i in range(self.n):
            for k in range(i + 1, self.n):
                out.add(self.dist[i][k])
        return sorted(out)


@dataclass
class BallNode:
    points: frozenset
    children: list


def ball_tree(space: UltrametricSpace) -> BallNode:
    """The tree of all distinct closed balls, ordered by inclusion.

    Root is the whole space, leaves are singletons, and the children of a
    node partition it (closed balls in an ultrametric space are nested or
    disjoint).
    """
    balls = {frozenset(range(space.n))}
    radii = space.radii()
    for x in range(space.n):
        for r in radii:
            balls.add(space.closed_ball(x, r))
    balls.discard(frozenset())
    ordered = sorted(balls, key=lambda b: (-len(b), min(b)))

    def build(points: frozenset) -> BallNode:
        kids = []
        rest = set(points)
        for b in ordered:
            if b < points and b <= rest:
                kids.append(b)
                rest -= b
        # keep only maximal proper sub-balls, in min-point order
        node = BallNode(points, [])
        for b in sorted(kids, key=min):
            node.children.append(build(b))
        return node

    if space.n == 0:
        raise ValueError("empty ultrametric space has no ball tree")
    return build(frozenset(range(space.n)))

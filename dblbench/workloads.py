"""The three workloads of the dbl benchmark: inputs, answers and case runners.

Each workload is a closed loop of cases.  ``prepare(workload, seed)`` makes
the workload's inputs from the seed and returns them with two callables:

* ``run(case)`` calls a layer's public API and returns its verdict as plain
  data;
* ``check(case, verdict)`` says whether the verdict is right, against an
  answer worked out here from the inputs rather than by the layer under
  test.

Every workload has a fixed part that is the same for every seed and a
seeded part drawn from ``random.Random(seed)``.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from dbl import cech, fixtures, functions, normvalue, scalars, spaces, spectrum, suite
from dbl.errors import EquivalenceViolation, NotEmbedding, SizeExceeded

# Errors a case may raise by contract; they count in rejected_frac.
REJECTED = "rejected"
CONTRACT_ERRORS = (NotEmbedding, SizeExceeded)
# tate_equivalence_report's verdict when its cover test and the homology
# disagree; it counts in violation_frac.
VIOLATION = "violation"


@dataclass
class Prepared:
    cases: list
    run: Callable
    check: Callable
    profile: dict


# -- finite topology, worked out without dbl ----------------------------------


def minimal_opens(n: int, gens) -> list[frozenset]:
    """U_x, the intersection of the generating opens containing x.

    ``gens`` None means the discrete space, where U_x = {x}.
    """
    if gens is None:
        return [frozenset([x]) for x in range(n)]
    full = frozenset(range(n))
    return [full.intersection(*(g for g in gens if x in g)) for x in range(n)]


def components(points, U) -> list[frozenset]:
    """Connected components of the graph joining x to every point of U[x].

    Restricted to ``points``, these are the components of the subspace on
    ``points``, since its minimal opens are U[x] & points.
    """
    points = frozenset(points)
    root = {x: x for x in points}

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for x in points:
        for y in U[x] & points:
            root[find(x)] = find(y)
    blocks: dict = {}
    for x in points:
        blocks.setdefault(find(x), set()).add(x)
    return sorted((frozenset(b) for b in blocks.values()), key=min)


def _random_gens(rng: random.Random, n: int) -> tuple:
    return tuple(
        tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        for _ in range(rng.randint(1, 4))
    )


def _random_closed(rng: random.Random, U) -> tuple:
    """Closure of a random point set S: every y whose U_y meets S."""
    seeds = {x for x in range(len(U)) if rng.random() < 0.5}
    return tuple(y for y in range(len(U)) if U[y] & seeds)


def _span(values) -> list:
    return [min(values), max(values)] if values else []


# -- cover: cech.tate_equivalence_report ---------------------------------------

COVER_FIXED_RINGS = ("IntInf", "IntTriv", "FpTriv(2)")
COVER_SEEDED_RINGS = ("ZmodTriv(4)", "ZmodQuot(6)", "IntInf", "FpTriv(3)")
# (discrete, points, closed sets) of the seeded cases, the same for every
# ring.  Each point count 4-8 and family size 2-5 occurs, half the spaces
# are discrete.  The set is kept small so that case_p99_ms falls among the
# fixed cases: with 160 seeded cases (every points x sets pair), the 1% rank
# fell among seeded Z/n cases whose cost varies up to tenfold with the
# random sets, and its spread between seeds exceeded every allowed bound.
COVER_SEEDED_STRATA = (
    (True, 4, 5), (True, 6, 4), (True, 8, 2),
    (False, 5, 2), (False, 7, 3), (False, 8, 5),
)


@dataclass(frozen=True)
class CoverCase:
    n: int
    gens: tuple | None  # generating opens; None for a discrete space
    family: tuple  # closed sets, each a sorted tuple of points
    ring: str


def cover_fixed_cases() -> list[CoverCase]:
    """The 2415 criterion-1 cases, in the order the criterion runs them.

    Every family of 1-3 subsets of a discrete space on 1-4 points, over
    three rings.
    """
    families = []
    for n in range(1, 5):
        subsets = [
            c for size in range(n + 1) for c in itertools.combinations(range(n), size)
        ]
        for k in range(1, 4):
            families.extend((n, fam) for fam in itertools.combinations(subsets, k))
    return [
        CoverCase(n, None, fam, ring)
        for ring in COVER_FIXED_RINGS
        for n, fam in families
    ]


def cover_seeded_cases(seed: int) -> list[CoverCase]:
    """One case per ring and stratum of ``COVER_SEEDED_STRATA``.

    Only the random opens and closed sets change with the seed.  Generated
    spaces come from 1-4 random opens.
    """
    rng = random.Random(seed)
    out = []
    for ring, (discrete, n, k) in itertools.product(COVER_SEEDED_RINGS, COVER_SEEDED_STRATA):
        gens = None if discrete else _random_gens(rng, n)
        U = minimal_opens(n, gens)
        family = tuple(_random_closed(rng, U) for _ in range(k))
        out.append(CoverCase(n, gens, family, ring))
    return out


def cover_complex(n: int, U, family) -> tuple[list[int], list[list[list[int]]]]:
    """The augmented cover complex, built on points: term ranks and matrices.

    Degree 0 has one basis vector per component of the space, degree m >= 1
    one per component of each m-fold intersection of the family, and the
    differential into degree m + 1 is the alternating sum of restrictions,
    as for the Cech complex.  Empty top degrees are dropped.
    """
    points = frozenset(range(n))
    sets = [frozenset(K) for K in family]
    labels = [[((), c) for c in components(points, U)]]
    for m in range(1, len(sets) + 1):
        term = []
        for tup in itertools.combinations(range(len(sets)), m):
            meet = points.intersection(*(sets[i] for i in tup))
            term.extend((tup, c) for c in components(meet, U))
        labels.append(term)
    while len(labels) > 1 and not labels[-1]:
        labels.pop()
    matrices = []
    for m in range(len(labels) - 1):
        owner = {(tup, x): i for i, (tup, c) in enumerate(labels[m]) for x in c}
        rows = []
        for tup, c in labels[m + 1]:
            row = [0] * len(labels[m])
            for pos in range(len(tup)):
                row[owner[(tup[:pos] + tup[pos + 1 :], min(c))]] += (-1) ** pos
            rows.append(row)
        matrices.append(rows)
    return [len(term) for term in labels], matrices


def invariant_factors(matrix) -> list[int]:
    """Nonzero invariant factors of an integer matrix, by Smith reduction."""
    a = [list(row) for row in matrix]
    out = []
    while a and a[0]:
        nonzero = [(abs(x), i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        a[0], a[i] = a[i], a[0]
        for row in a:
            row[0], row[j] = row[j], row[0]
        p = a[0][0]
        for row in a[1:]:
            q = row[0] // p
            for c in range(len(row)):
                row[c] -= q * a[0][c]
        for c in range(1, len(a[0])):
            q = a[0][c] // p
            for row in a:
                row[c] -= q * row[0]
        if any(row[0] for row in a[1:]) or any(a[0][1:]):
            continue  # remainders left: the next pivot is smaller
        bad = next((row for row in a[1:] if any(x % p for x in row[1:])), None)
        if bad is not None:
            a[0] = [x + y for x, y in zip(a[0], bad)]
            continue
        out.append(abs(p))
        a = [row[1:] for row in a[1:]]
    return out


def _primes(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def is_exact(ring: str, dims, matrices) -> bool:
    """Whether the complex tensored with the ring is exact in every degree.

    Over F_p the rank of a differential is the number of its invariant
    factors prime to p; over Z/n the complex is exact iff it is over F_p
    for every prime p dividing n; over Z iff it is over Q and every
    invariant factor is 1.
    """
    factors = [invariant_factors(m) for m in matrices]

    def exact_mod(p: int) -> bool:  # p = 0 means over Q
        ranks = [0] + [sum(1 for e in fs if p == 0 or e % p) for fs in factors] + [0]
        return all(d == ranks[m] + ranks[m + 1] for m, d in enumerate(dims))

    name, _, arg = ring.partition("(")
    if name in ("IntInf", "IntTriv"):
        return exact_mod(0) and all(e == 1 for fs in factors for e in fs)
    return all(exact_mod(p) for p in _primes(int(arg.rstrip(")"))))


def cover_answers(case: CoverCase) -> frozenset:
    """The verdicts that are right for a cover case, worked out on points.

    Discrete: exact iff the family's union is every point.  Otherwise a set
    whose own components would merge inside one component of the space is
    rejected (NotEmbedding), and exactness comes from the homology of the
    cover complex over the case's ring.  The library states that exactness
    is equivalent to every component meeting a set; where that fails, it
    must either raise EquivalenceViolation or give the exact answer.
    """
    family = [frozenset(K) for K in case.family]
    points = frozenset(range(case.n))
    if case.gens is None:
        return frozenset({"exact" if frozenset().union(*family) == points else "not_exact"})
    U = minimal_opens(case.n, case.gens)
    blocks = components(points, U)
    owner = {x: i for i, block in enumerate(blocks) for x in block}
    for K in family:
        owners = [owner[min(c)] for c in components(K, U)]
        if len(owners) != len(set(owners)):
            return frozenset({REJECTED})
    exact = is_exact(case.ring, *cover_complex(case.n, U, family))
    answer = "exact" if exact else "not_exact"
    if exact == all(any(block & K for K in family) for block in blocks):
        return frozenset({answer})
    return frozenset({answer, VIOLATION})


def check_cover(case: CoverCase, verdict) -> bool:
    return verdict in cover_answers(case)


def run_cover(case: CoverCase) -> str:
    ring = scalars.RingDescriptor.parse(case.ring)
    if case.gens is None:
        space = spaces.FiniteSpace.discrete(case.n)
    else:
        space = spaces.FiniteSpace(case.n, case.gens)
    family = cech.CoverFamily.make(space, case.family)
    try:
        report = cech.tate_equivalence_report(space, family, ring)
    except CONTRACT_ERRORS:
        return REJECTED
    except EquivalenceViolation:
        return VIOLATION
    return "exact" if report["exact"] else "not_exact"


def prepare_cover(seed: int) -> Prepared:
    fixed = cover_fixed_cases()
    seeded = cover_seeded_cases(seed)
    cases = fixed + seeded
    profile = {
        "fixed_cases": len(fixed),
        "seeded_cases": len(seeded),
        "points": _span([c.n for c in cases]),
        "family_sizes": _span([len(c.family) for c in cases]),
        "seeded_points": _span([c.n for c in seeded]),
        "seeded_family_sizes": _span([len(c.family) for c in seeded]),
        "rings": dict(Counter(c.ring for c in cases)),
        "kinds": dict(
            Counter("discrete" if c.gens is None else "generated" for c in cases)
        ),
    }
    return Prepared(cases, run_cover, check_cover, profile)


# -- spectrum: g_split(g_inverse(...)) and multiplicativity ---------------------

SPECTRUM_SEEDED_COMPONENTS = 16
SPECTRUM_PAIRS = 16
SPECTRUM_VALUES = range(-3, 4)


@dataclass(frozen=True)
class SpectrumCase:
    space: int  # index into the workload's spaces
    component: int
    point: int  # index into the criterion-2 point grid
    pairs: tuple  # ((values of f, values of g), ...) for the law check


def spectrum_seeded_specs(seed: int) -> list[tuple]:
    """Random spaces on 2-7 points with 16 components between them.

    A drawn space is kept when its components fit in what is left, so every
    seed adds the same number of cases.
    """
    rng = random.Random(seed)
    left = SPECTRUM_SEEDED_COMPONENTS
    out = []
    while left:
        n = rng.randint(2, 7)
        gens = _random_gens(rng, n)
        k = len(components(range(n), minimal_opens(n, gens)))
        if k <= left:
            out.append((n, gens))
            left -= k
    return out


def prepare_spectrum(seed: int) -> Prepared:
    ring = scalars.int_inf()
    grid = suite.acceptance_point_grid()
    specs = spectrum_seeded_specs(seed)
    fixed = fixtures.standard_fixture_spaces() + fixtures.many_fixture_spaces(30)
    space_list = fixed + [spaces.FiniteSpace(n, gens) for n, gens in specs]
    width = [len(s.quasi_components) for s in fixed] + [
        len(components(range(n), minimal_opens(n, g))) for n, g in specs
    ]
    rng = random.Random(seed)

    def draw(k):
        return tuple(rng.choice(SPECTRUM_VALUES) for _ in range(k))

    cases = [
        SpectrumCase(
            s, c, b, tuple((draw(k), draw(k)) for _ in range(SPECTRUM_PAIRS))
        )
        for s, k in enumerate(width)
        for c in range(k)
        for b in range(len(grid))
    ]

    def run(case: SpectrumCase):
        space = space_list[case.space]
        oracle = spectrum.g_inverse(case.component, grid[case.point], space, ring)
        point = spectrum.g_split(oracle)
        multiplicative = True
        for fv, gv in case.pairs:
            f = functions.CfinFunction(space, ring, fv)
            g = functions.CfinFunction(space, ring, gv)
            if oracle(f.mul(g)) != oracle(f) * oracle(g):
                multiplicative = False
        return point, multiplicative

    def check(case: SpectrumCase, verdict) -> bool:
        base = spectrum.canonical_point(ring, grid[case.point])
        return verdict == (spectrum.SpectrumPoint(case.component, base), True)

    profile = {
        "fixed_spaces": len(fixed),
        "seeded_spaces": len(specs),
        "fixed_cases": sum(c.space < len(fixed) for c in cases),
        "seeded_cases": sum(c.space >= len(fixed) for c in cases),
        "points": _span([s.n for s in space_list]),
        "components": _span(width),
        "grid_points": len(grid),
        "pairs_per_case": SPECTRUM_PAIRS,
        "rings": {str(ring): len(cases)},
    }
    return Prepared(cases, run, check, profile)


# -- isometry: extension/restriction and the sum split ---------------------------

ISOMETRY_SPLITS = 4000
ISOMETRY_VALUES = range(-2, 3)
SPLIT_VALUES = (-5, 5)


@dataclass(frozen=True)
class ExtensionCase:
    space: int
    values: tuple


@dataclass(frozen=True)
class SplitCase:
    space: int
    values: tuple
    k0: frozenset
    k1: frozenset


def _plain_norm(values) -> Fraction:
    return Fraction(max((abs(v) for v in values), default=0))


def prepare_isometry(seed: int) -> Prepared:
    ring = scalars.int_inf()
    space_list = fixtures.standard_fixture_spaces()
    quotients = [spaces.banaschewski(s)[1] for s in space_list]
    blocks = [s.quasi_components for s in space_list]
    cases: list = [
        ExtensionCase(i, values)
        for i, s in enumerate(space_list)
        for values in itertools.product(ISOMETRY_VALUES, repeat=len(blocks[i]))
    ]
    # Seeded criterion-3 cases: values are zeroed on the components that
    # meet both closed sets, so f lies in the ideal of K0 & K1.  Splits cost
    # more than extensions and set case_p99_ms, so each space gets the same
    # share of them rather than a random one, and there are enough of them
    # (500 per space) that the 1% rank falls inside the splits on the
    # largest spaces.  With 1000 it fell where the extensions that meet a
    # garbage-collector pause begin, and jumped from pass to pass.
    rng = random.Random(seed)
    closed = [
        sorted((frozenset(range(s.n)) - U for U in s.opens), key=sorted)
        for s in space_list
    ]
    for j in range(ISOMETRY_SPLITS):
        i = j % len(space_list)  # the same number of splits on every space
        k0 = rng.choice(closed[i])
        k1 = rng.choice(closed[i])
        values = [rng.randint(*SPLIT_VALUES) for _ in blocks[i]]
        for j, block in enumerate(blocks[i]):
            if block & k0 and block & k1:
                values[j] = 0
        cases.append(SplitCase(i, tuple(values), k0, k1))

    def run(case):
        space = space_list[case.space]
        f = functions.CfinFunction(space, ring, case.values)
        if isinstance(case, ExtensionCase):
            ext = functions.extend_banaschewski(f)
            back = functions.restrict(ext, quotients[case.space])
            return (
                back.values,
                f.sup_norm().as_fraction(),
                ext.sup_norm().as_fraction(),
            )
        f0, f1 = functions.ideal_sum_split(f, case.k0, case.k1)
        lhs = normvalue.nv_sum([f0.sup_norm(), f1.sup_norm()])
        bound = normvalue.nv_sum([f.sup_norm(), f.sup_norm()])
        return (
            f0.values,
            f1.values,
            f0.add(f1) == f,
            f0.vanishes_on(case.k0) and f1.vanishes_on(case.k1),
            not lhs > bound,
        )

    def check(case, verdict) -> bool:
        if isinstance(case, ExtensionCase):
            norm = _plain_norm(case.values)
            return verdict == (case.values, norm, norm)
        return check_split(case, blocks[case.space], verdict)

    profile = {
        "fixed_cases": sum(isinstance(c, ExtensionCase) for c in cases),
        "seeded_cases": sum(isinstance(c, SplitCase) for c in cases),
        "kinds": {
            "extension": sum(isinstance(c, ExtensionCase) for c in cases),
            "sum_split": sum(isinstance(c, SplitCase) for c in cases),
        },
        "points": _span([s.n for s in space_list]),
        "components": _span([len(b) for b in blocks]),
        "rings": {str(ring): len(cases)},
    }
    return Prepared(cases, run, check, profile)


def check_split(case: SplitCase, blocks, verdict) -> bool:
    """Whether a split verdict is right, judged on the split's own values.

    The values of f0 and f1 must add up to f, f0 must vanish on the
    components meeting K0 and f1 on those meeting K1, and
    max|f0| + max|f1| <= 2 max|f| must hold in plain Fractions.  The three
    flags the library reports (sum, ideal, bound) must all be True.
    """
    f0, f1, *flags = verdict
    if len(f0) != len(blocks) or len(f1) != len(blocks):
        return False
    sums = all(a + b == v for a, b, v in zip(f0, f1, case.values))
    ideal = all(
        not (block & case.k0 and a) and not (block & case.k1 and b)
        for block, a, b in zip(blocks, f0, f1)
    )
    bound = _plain_norm(f0) + _plain_norm(f1) <= 2 * _plain_norm(case.values)
    return sums and ideal and bound and flags == [True, True, True]


PREPARE = {
    "cover": prepare_cover,
    "spectrum": prepare_spectrum,
    "isometry": prepare_isometry,
}


def prepare(workload: str, seed: int) -> Prepared:
    return PREPARE[workload](seed)

"""Multiplicative seminorms on the supported rings and on C_fin(X, R).

Points of the spectrum of a base ring are drawn from a parameterized
admissible family (powers of the Euclidean absolute value, p-adic powers,
p-residue seminorms, the trivial seminorm); the family is one rule keyed
on the ring's modulus.  A point of the spectrum of C_fin(X, R) is a pair
(quasi-component ultrafilter, base point); G_inverse builds the
evaluation seminorm from the pair and G_split recovers the pair from any
seminorm oracle, reading the component off 2k+1 clopen indicators and the
base point off the constants of one bounded sample (see _Probes), and
rejecting oracles outside the family.  The oracle is assumed to be a
multiplicative seminorm, and is checked on those functions and nowhere
else (see g_split).  The oracle's values on the sample are read into one
tuple, in sample order; each probe prime's value is read at its position
there, and the tuple is compared with the candidate's values in one tuple
comparison.  The values of each (base point, ring) pair are one _memo
table (see _PointValues), which every evaluation reads by subscription;
a miss is the checked evaluation, and keeps the value if it is small.
The tables of MEMO_POINTS pairs are kept in _POINT_VALUES.  An oracle of
G_inverse holds its pair's table and reads a value off it in one frame,
its own call.  The functions G_split evaluates an oracle on depend only
on (space, ring), so the probes of the last pair split are kept in
_PROBES and reused while the next split is on the same space and ring
objects.  The README's "Memory bounds" table gives each table's key,
bound and worst-case size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, repeat

from ._memo import Memo
from .errors import (
    DisconnectedSpectrum,
    NotUltrafilter,
    RingMismatch,
    UnrecognizedBasePoint,
    ValidationFailure,
)
from .normvalue import NV_ONE, NV_ZERO, NormValue, _valuation, factor_int
from .scalars import MAX_MODULUS, RingDescriptor, _is_prime
from .spaces import FiniteSpace, _is_int
from .functions import CfinFunction

# probe primes of Z for _identify_base, and the primes of the grid of
# admissible_points, whose pairwise products _identify_base also samples
_SAMPLE_PRIMES = (2, 3, 5, 7, 11, 13)
_GRID_PRIMES = (2, 3, 5)
_GRID_EPS = (Fraction(1, 2), Fraction(1))
# the constants _identify_base samples on Z: -12..12, the probe primes and
# the products of two grid primes, each once (-12..13 and 15)
_Z_SAMPLE = tuple(
    dict.fromkeys(
        (*range(-12, 13), *_SAMPLE_PRIMES, *(p * q for p, q in combinations(_GRID_PRIMES, 2)))
    )
)


@dataclass(frozen=True)
class BasePoint:
    """An admissible multiplicative seminorm on a base ring.

    kind is one of 'trivial', 'arch', 'padic', 'residue'.  Construction
    canonicalizes: arch/padic with exponent 0 become trivial.  The p of a
    padic or residue point is a prime int <= MAX_MODULUS, and the eps of an
    arch or padic point a Fraction; any other kind, and a p or eps on a
    point whose kind takes none, raise UnrecognizedBasePoint.
    """

    kind: str
    p: int | None = None
    eps: Fraction | None = None

    def __post_init__(self):
        kind, p, eps = self.kind, self.p, self.eps
        if kind not in ("trivial", "arch", "padic", "residue"):
            raise UnrecognizedBasePoint(f"unknown kind {kind!r}")
        if kind in ("padic", "residue"):
            if not (_is_int(p) and p <= MAX_MODULUS and _is_prime(p)):
                raise UnrecognizedBasePoint(
                    f"{kind} points need a prime p <= MAX_MODULUS, got {p!r}"
                )
        elif p is not None:
            raise UnrecognizedBasePoint(f"{kind} points take no p")
        if kind in ("arch", "padic"):
            if not isinstance(eps, Fraction):
                raise UnrecognizedBasePoint(f"{kind} points need a Fraction eps, got {eps!r}")
        elif eps is not None:
            raise UnrecognizedBasePoint(f"{kind} points take no eps")

    @staticmethod
    def trivial() -> "BasePoint":
        """The trivial point, one shared object (points are frozen)."""
        return _TRIVIAL

    @staticmethod
    def arch(eps) -> "BasePoint":
        eps = Fraction(eps)
        if eps == 0:
            return _TRIVIAL
        return BasePoint("arch", eps=eps)

    @staticmethod
    def padic(p: int, eps) -> "BasePoint":
        eps = Fraction(eps)
        if eps == 0:
            return _TRIVIAL
        return BasePoint("padic", p=p, eps=eps)

    @staticmethod
    def residue(p: int) -> "BasePoint":
        return BasePoint("residue", p=p)

    def __str__(self):
        if self.kind == "trivial":
            return "TrivialPoint"
        if self.kind == "arch":
            return f"ArchPow({self.eps})"
        if self.kind == "padic":
            return f"PadicPow({self.p},{self.eps})"
        return f"PadicResidue({self.p})"


_TRIVIAL = BasePoint("trivial")


def canonical_point(ring: RingDescriptor, point: BasePoint) -> BasePoint:
    """Identify coinciding descriptions on a given ring.

    On Z/p and F_p the trivial seminorm equals the p-residue seminorm; the
    residue form is canonical for Z/n rings, the trivial form for F_p.
    """
    m = ring.modulus
    if ring.kind == "FpTriv" and point.kind == "residue" and point.p == m:
        return BasePoint.trivial()
    if ring.kind in ("ZmodTriv", "ZmodQuot") and point.kind == "trivial" and _is_prime(m):
        return BasePoint.residue(m)
    return point


def admissible_points(ring: RingDescriptor) -> list[BasePoint]:
    """The standard sample grid of admissible points for a ring, canonical."""
    m = ring.modulus
    primes = _GRID_PRIMES if m is None else [q for q, _ in factor_int(m)]
    grid = [BasePoint.trivial(), *(BasePoint.arch(e) for e in _GRID_EPS)]
    for p in primes:
        grid += [*(BasePoint.padic(p, e) for e in _GRID_EPS), BasePoint.residue(p)]
    admissible = (canonical_point(ring, b) for b in grid if is_admissible(ring, b))
    return list(dict.fromkeys(admissible))


def is_admissible(ring: RingDescriptor, point: BasePoint) -> bool:
    """Whether the point belongs to the ring's admissible family.

    One rule keyed on the modulus: Z has the trivial, p-adic and residue
    points, and IntInf also the arch points with 0 < eps <= 1; Z/n has the
    residue points of the primes dividing n, which for a prime n include
    the trivial point.
    """
    m = ring.modulus
    if m is not None:
        if point.kind == "trivial":
            return _is_prime(m)
        return point.kind == "residue" and m % point.p == 0
    if point.kind == "arch":
        return ring.kind == "IntInf" and 0 < point.eps <= 1
    if point.kind == "padic":
        return point.eps > 0
    return True


# bounds of the value tables behind base_eval (see _PointValues)
MEMO_POINTS = 32
MEMO_ELEMENTS = 512
MEMO_KEY_BITS = 64
MEMO_VALUE_BITS = 1024


def _evaluate(point: BasePoint, ring: RingDescriptor, a) -> NormValue:
    a = ring.check_element(a)
    if ring.modulus is not None and point.kind == "padic":
        raise UnrecognizedBasePoint("p-adic powers need a Z-based ring")
    if a == ring.zero:
        return NV_ZERO
    if point.kind == "trivial":
        return NV_ONE
    if point.kind == "arch":
        return NormValue.from_pow(abs(a), point.eps)
    if point.kind == "padic":
        return NormValue.from_pow(point.p, -point.eps * _valuation(a, point.p)[0])
    # residue seminorm: 0 iff p divides a (well defined mod n when p | n)
    return NV_ZERO if a % point.p == 0 else NV_ONE


class _PointValues(Memo):
    """The values of one base point on one ring, a table of MEMO_ELEMENTS elements.

    Its keys are plain ints: a reader sends anything else (True hashes
    like 1 but is no element) straight to _evaluate.  A miss checks the
    element and the point as _evaluate does, so an input that is rejected
    raises every time and is never stored.  Only small values are kept:
    an element of at most MEMO_KEY_BITS bits with a value of at most
    MEMO_VALUE_BITS.
    """

    __slots__ = ("point", "ring")

    def __init__(self, point: BasePoint, ring: RingDescriptor):
        super().__init__(MEMO_ELEMENTS, MEMO_VALUE_BITS)
        self.point = point
        self.ring = ring

    def __missing__(self, a: int) -> NormValue:
        v = _evaluate(self.point, self.ring, a)
        return self.store(a, v, v.bit_length()) if a.bit_length() <= MEMO_KEY_BITS else v


_POINT_VALUES = Memo(MEMO_POINTS)  # the value table of each (point, ring) pair


def _point_values(point: BasePoint, ring: RingDescriptor) -> _PointValues:
    """The value table of a (point, ring) pair, one while the pair is in _POINT_VALUES."""
    values = _POINT_VALUES.get((point, ring))
    if values is None:
        values = _POINT_VALUES.store((point, ring), _PointValues(point, ring))
    return values


def base_eval(point: BasePoint, ring: RingDescriptor, a: int) -> NormValue:
    """Evaluate the seminorm at a ring element, exactly (memoized)."""
    return _point_values(point, ring)[a] if type(a) is int else _evaluate(point, ring, a)


@dataclass(frozen=True)
class SpectrumPoint:
    component: int
    base: BasePoint


class SeminormOracle:
    """A total seminorm on C_fin(X, R), wrapped as a callable."""

    def __init__(self, space: FiniteSpace, ring: RingDescriptor, fn):
        self.space = space
        self.ring = ring
        self._fn = fn

    def __call__(self, f: CfinFunction) -> NormValue:
        space, coeff = f.space, f.coeff
        if (space is not self.space and space != self.space) or (
            coeff is not self.ring and coeff != self.ring
        ):
            raise RingMismatch("oracle evaluated outside its algebra")
        return self._fn(f)


class _EvaluationOracle(SeminormOracle):
    """The oracle of g_inverse, evaluated in one frame.

    It reads the component's value of f off its pair's value table
    by subscription, as base_eval does: a plain int hits or takes the table's
    checked miss, and any other value goes straight to _evaluate.
    """

    def __init__(self, space: FiniteSpace, ring: RingDescriptor, component: int, values: _PointValues):
        self.space = space
        self.ring = ring
        self._component = component
        self._values = values

    def __call__(self, f: CfinFunction) -> NormValue:
        space, coeff = f.space, f.coeff
        if (space is not self.space and space != self.space) or (
            coeff is not self.ring and coeff != self.ring
        ):
            raise RingMismatch("oracle evaluated outside its algebra")
        a, values = f.values[self._component], self._values
        return values[a] if type(a) is int else _evaluate(values.point, values.ring, a)


def g_inverse(component: int, base: BasePoint, space: FiniteSpace, ring: RingDescriptor) -> SeminormOracle:
    """The seminorm f -> base(limit of f along the component).

    The oracle looks the point's value table up once, here, and reads the
    component's value of f straight off it in its own call.  The component
    must be an int in 0..k-1 for a space with k quasi-components.
    """
    k = len(space.quasi_components)
    if not (_is_int(component) and 0 <= component < k):
        raise ValueError(f"component {component!r} is not one of the {k} quasi-components")
    base = canonical_point(ring, base)
    if not is_admissible(ring, base):
        raise ValidationFailure("admissibility", str(base))
    return _EvaluationOracle(space, ring, component, _point_values(base, ring))


class _Probes:
    """The functions g_split evaluates an oracle on, for one (space, ring).

    empty is the empty clopen's indicator, inside[i] and outside[i] those
    of quasi-component i and of its complement, sample the constants
    _identify_base tests: _Z_SAMPLE and the probe primes (_SAMPLE_PRIMES
    for Z, the prime divisors of n for Z/n), reduced by the ring, each
    once and in that order (_Z_SAMPLE itself on Z, every residue of Z/n
    for n <= 26, at most 27 + omega(n) past it), constants[j] the
    constant function of sample[j], and primes each probe prime with the
    position of its residue in sample.  All of them live on the space and
    ring objects they were built for, so an oracle's identity guard
    passes at once.
    """

    __slots__ = ("space", "ring", "empty", "inside", "outside", "primes", "sample", "constants")

    def __init__(self, space: FiniteSpace, ring: RingDescriptor):
        k = len(space.quasi_components)
        zero, one = ring.zero, ring.one
        # component blocks are clopen, so every 0/1 tuple is an indicator
        fn = partial(CfinFunction, space, ring)
        self.space = space
        self.ring = ring
        self.empty = fn((zero,) * k)
        self.inside = tuple(fn((zero,) * c + (one,) + (zero,) * (k - 1 - c)) for c in range(k))
        self.outside = tuple(fn((one,) * c + (zero,) + (one,) * (k - 1 - c)) for c in range(k))
        m = ring.modulus
        primes = _SAMPLE_PRIMES if m is None else tuple(q for q, _ in factor_int(m))
        self.sample = tuple(dict.fromkeys(map(ring.reduce, (*_Z_SAMPLE, *primes))))
        self.primes = tuple((p, self.sample.index(ring.reduce(p))) for p in primes)
        self.constants = tuple(fn((a,) * k) for a in self.sample)


# the probes of the last split, keyed on the ids of its space and ring objects
# (which they keep alive): a case loop splits one pair many times in a row
_PROBES = Memo(1)


def _identify_base(probes: _Probes, oracle) -> BasePoint:
    """Match the oracle's values on constants against the admissible family.

    The oracle is called once on each of the probes' constants, in sample
    order, and the values are kept in one tuple; each probe prime's value
    is read at its position there.  The first probe with a value other
    than 1 names the candidate (value 0: residue; p**eps: arch; p**-eps:
    p-adic); with none it is the trivial point.  The candidate must be
    admissible and match the oracle on every constant of the sample,
    whose values are read off its pair's table on every split, and on
    nothing else.  On Z the sample also holds the products of two
    distinct _GRID_PRIMES, where the max of two p-adic points of the grid
    first fails multiplicativity.
    """
    ring, sample = probes.ring, probes.sample
    got = tuple(map(oracle, probes.constants))
    candidate = _TRIVIAL
    for p, i in probes.primes:
        v = got[i]
        if not isinstance(v, NormValue):
            raise UnrecognizedBasePoint(f"the value at {p} is a {type(v).__name__}, not a NormValue")
        if v.is_one:
            continue
        if v.is_zero:
            candidate = BasePoint.residue(p)
        else:
            e = v.exponent(p)
            if e is None:
                raise UnrecognizedBasePoint(
                    f"value of {v.bit_length()} bits at {p} is no admissible power"
                )
            candidate = BasePoint.arch(e) if e > 0 else BasePoint.padic(p, -e)
        break
    candidate = canonical_point(ring, candidate)
    if not is_admissible(ring, candidate):
        raise UnrecognizedBasePoint(f"{candidate} is not admissible here")
    values = _point_values(candidate, ring)
    want = tuple([values[a] if type(a) is int else _evaluate(candidate, ring, a) for a in sample])
    if got != want:
        a = next(a for a, v, w in zip(sample, got, want) if v != w)
        raise UnrecognizedBasePoint(f"constant {a} disagrees with {candidate}")
    return candidate


def g_split(oracle: SeminormOracle) -> SpectrumPoint:
    """Recover (ultrafilter component, base point) from a seminorm oracle.

    The oracle is tested on 2k+1 clopen indicators of a space with k
    quasi-components: the empty clopen, each component's e_i and each
    1 - e_i.  In a multiplicative seminorm e_i e_j = 0 and sum e_i = 1, so
    exactly one |e_c| is nonzero and |1_U| != 0 exactly when U holds that
    component; a sample that shows otherwise raises NotUltrafilter.  No
    other clopen is tested.  The base point is read off the probe primes'
    constants and checked on the bounded constant sample of _Probes, and
    nowhere else.  The oracle is assumed to be a multiplicative seminorm,
    for which that is enough: once the indicators fix the component c,
    |f| = |f e_c| = |f(c)|, and on Z/n a point is fixed by its values at
    the primes dividing n.  An oracle that lies only off those samples
    passes.  A value on an indicator that is not a NormValue raises
    NotUltrafilter, and one on a probe prime, or a probe value that names
    no admissible point, raises UnrecognizedBasePoint.
    """
    key = id(oracle.space), id(oracle.ring)
    probes = _PROBES.get(key)
    if probes is None:
        probes = _PROBES.store(key, _Probes(oracle.space, oracle.ring))
    empty = oracle(probes.empty)
    if not isinstance(empty, NormValue):
        raise NotUltrafilter(f"the empty clopen's value is a {type(empty).__name__}, not a NormValue")
    if not empty.is_zero:
        raise NotUltrafilter("the empty clopen has nonzero value")
    values = [*map(oracle, probes.inside), *map(oracle, probes.outside)]
    if not all(map(isinstance, values, repeat(NormValue))):
        raise NotUltrafilter("an indicator's value is not a NormValue")
    zero = [v.is_zero for v in values]
    k = len(probes.inside)
    # exactly one e_c is nonzero, and 1 - e_i is zero exactly when e_i is not
    if zero[:k].count(False) != 1 or zero[k:] != [not z for z in zero[:k]]:
        raise NotUltrafilter(
            "indicator values are not the ultrafilter of one quasi-component"
        )
    return SpectrumPoint(zero.index(False), _identify_base(probes, oracle))


def gelfand_roundtrip(space: FiniteSpace, ring: RingDescriptor) -> dict:
    """Certify the component bijection between X and the split spectrum.

    For every quasi-component and every admissible base point in the
    standard grid, splitting the evaluation seminorm must return the same
    component (independently of the base point), and distinct components
    must stay distinct.  Requires a connected base spectrum.
    """
    if not ring.spectrum_connected:
        raise DisconnectedSpectrum(ring, ring.nontrivial_idempotent())
    grid = admissible_points(ring)
    n_comp = len(space.quasi_components)
    recovered = {}
    for c in range(n_comp):
        classes = set()
        for b in grid:
            pt = g_split(g_inverse(c, b, space, ring))
            classes.add(pt.component)
            if pt.base != canonical_point(ring, b):
                raise ValidationFailure("base point drift", (c, str(b)))
        if len(classes) != 1:
            raise ValidationFailure("component split", c)
        recovered[c] = classes.pop()
    if len(set(recovered.values())) != n_comp:
        raise ValidationFailure("components merged", recovered)
    return {
        "space_components": n_comp,
        "recovered_classes": sorted(set(recovered.values())),
        "bijection": [[c, recovered[c]] for c in sorted(recovered)],
        "points_per_component": len(grid),
    }

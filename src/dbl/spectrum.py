"""Multiplicative seminorms on the supported rings and on C_fin(X, R).

Points of the spectrum of a base ring are drawn from a parameterized
admissible family (powers of the Euclidean absolute value, p-adic powers,
p-residue seminorms, the trivial seminorm).  A point of the spectrum of
C_fin(X, R) is a pair (quasi-component ultrafilter, base point); G_inverse
builds the evaluation seminorm from the pair and G_split recovers the pair
from any seminorm oracle, rejecting oracles outside the family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DisconnectedSpectrum,
    NotUltrafilter,
    RingMismatch,
    UnrecognizedBasePoint,
    ValidationFailure,
)
from .normvalue import NV_ONE, NV_ZERO, NormValue, factor_int
from .scalars import RingDescriptor
from .spaces import FiniteSpace
from .functions import CfinFunction, indicator, limit_along

_SAMPLE_PRIMES = (2, 3, 5, 7, 11, 13)


def _vp(a: int, p: int) -> int:
    if a == 0:
        raise ValueError("valuation of zero")
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


@dataclass(frozen=True)
class BasePoint:
    """An admissible multiplicative seminorm on a base ring.

    kind is one of 'trivial', 'arch', 'padic', 'residue'.  Construction
    canonicalizes: arch/padic with exponent 0 become trivial.
    """

    kind: str
    p: int | None = None
    eps: Fraction | None = None

    @staticmethod
    def trivial() -> "BasePoint":
        return BasePoint("trivial")

    @staticmethod
    def arch(eps) -> "BasePoint":
        eps = Fraction(eps)
        if eps == 0:
            return BasePoint("trivial")
        return BasePoint("arch", eps=eps)

    @staticmethod
    def padic(p: int, eps) -> "BasePoint":
        eps = Fraction(eps)
        if eps == 0:
            return BasePoint("trivial")
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

    def to_json(self):
        names = {
            "trivial": "Trivial",
            "arch": "ArchPow",
            "padic": "PadicPow",
            "residue": "PadicResidue",
        }
        out = {"kind": names[self.kind]}
        if self.p is not None:
            out["p"] = self.p
        if self.eps is not None:
            out["eps"] = f"{self.eps.numerator}/{self.eps.denominator}"
        return out

    @staticmethod
    def from_json(obj) -> "BasePoint":
        kind = obj["kind"]
        if kind == "Trivial":
            return BasePoint.trivial()
        if kind == "ArchPow":
            return BasePoint.arch(Fraction(obj["eps"]))
        if kind == "PadicPow":
            return BasePoint.padic(obj["p"], Fraction(obj["eps"]))
        if kind == "PadicResidue":
            return BasePoint.residue(obj["p"])
        raise UnrecognizedBasePoint(f"unknown kind {kind!r}")


def canonical_point(ring: RingDescriptor, point: BasePoint) -> BasePoint:
    """Identify coinciding descriptions on a given ring.

    On Z/p and F_p the trivial seminorm equals the p-residue seminorm; the
    residue form is canonical for Z/n rings, the trivial form for F_p.
    """
    m = ring.modulus
    if m is None:
        return point
    if ring.kind == "FpTriv" and point == BasePoint.residue(ring.p):
        return BasePoint.trivial()
    if ring.kind in ("ZmodTriv", "ZmodQuot"):
        if point.kind == "trivial" and m >= 2 and len(factor_int(m)) == 1 and factor_int(m)[0][1] == 1:
            return BasePoint.residue(m)
    return point


def admissible_points(ring: RingDescriptor, primes=(2, 3, 5), eps_grid=(Fraction(1, 2), Fraction(1))) -> list[BasePoint]:
    """The standard sample grid of admissible points for a ring."""
    out: list[BasePoint] = []
    if ring.kind == "IntInf":
        out.append(BasePoint.trivial())
        out.extend(BasePoint.arch(e) for e in eps_grid if 0 < e <= 1)
        for p in primes:
            out.extend(BasePoint.padic(p, e) for e in eps_grid if e > 0)
            out.append(BasePoint.residue(p))
    elif ring.kind == "IntTriv":
        out.append(BasePoint.trivial())
        for p in primes:
            out.extend(BasePoint.padic(p, e) for e in eps_grid if e > 0)
            out.append(BasePoint.residue(p))
    elif ring.kind == "FpTriv":
        out.append(BasePoint.trivial())
    else:
        m = ring.modulus
        if m is not None and m > 1:
            out.extend(BasePoint.residue(p) for p, _ in factor_int(m))
    return out


def is_admissible(ring: RingDescriptor, point: BasePoint) -> bool:
    point = canonical_point(ring, point)
    if ring.kind == "IntInf":
        if point.kind == "arch":
            return 0 < point.eps <= 1
        if point.kind == "padic":
            return point.eps > 0
        return point.kind in ("trivial", "residue")
    if ring.kind == "IntTriv":
        if point.kind == "padic":
            return point.eps > 0
        return point.kind in ("trivial", "residue")
    if ring.kind == "FpTriv":
        return point.kind == "trivial"
    m = ring.modulus
    if m == 1:
        return False
    return point.kind == "residue" and m % point.p == 0


def base_eval(point: BasePoint, ring: RingDescriptor, a: int) -> NormValue:
    """Evaluate the seminorm at a ring element, exactly."""
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
        return NormValue.from_pow(point.p, -point.eps * _vp(a, point.p))
    # residue seminorm: 0 iff p divides a (well defined mod n when p | n)
    return NV_ZERO if a % point.p == 0 else NV_ONE


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
    if base_eval(point, ring, ring.zero) != NV_ZERO:
        raise ValidationFailure("zero", 0)
    if not ring.is_zero_ring and base_eval(point, ring, ring.one) != NV_ONE:
        raise ValidationFailure("unit", 1)
    for a in sample:
        va = base_eval(point, ring, a)
        if va > ring.norm(a):
            raise ValidationFailure("boundedness", a)
        for b in sample:
            vb = base_eval(point, ring, b)
            vab = base_eval(point, ring, ring.mul(a, b))
            if vab != va * vb:
                raise ValidationFailure("multiplicativity", (a, b))
            vsum = base_eval(point, ring, ring.add(a, b))
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
        "point": point.to_json(),
        "samples": len(sample),
        "multiplicative": True,
        "bounded": True,
    }


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
        if f.space != self.space or f.coeff != self.ring:
            raise RingMismatch("oracle evaluated outside its algebra")
        return self._fn(f)


def eval_seminorm(point: SpectrumPoint, f: CfinFunction) -> NormValue:
    if not isinstance(f.coeff, RingDescriptor):
        raise RingMismatch("seminorms act on ring-valued functions")
    return base_eval(point.base, f.coeff, limit_along(point.component, f))


def g_inverse(component: int, base: BasePoint, space: FiniteSpace, ring: RingDescriptor) -> SeminormOracle:
    """The seminorm f -> base(limit of f along the component)."""
    base = canonical_point(ring, base)
    if not is_admissible(ring, base):
        raise ValidationFailure("admissibility", str(base))
    pt = SpectrumPoint(component, base)
    return SeminormOracle(space, ring, lambda f: eval_seminorm(pt, f))


def _identify_base(space: FiniteSpace, ring: RingDescriptor, oracle) -> BasePoint:
    """Match the oracle's values on constants against the admissible family."""

    def const_val(a: int) -> NormValue:
        return oracle(CfinFunction.constant(space, ring, ring.reduce(a)))

    if ring.modulus is not None:
        sample = ring.elements(0)
    else:
        sample = [a for a in range(-12, 13)]
    candidate = None
    if ring.modulus is None:
        prime_vals = {p: const_val(p) for p in _SAMPLE_PRIMES}
        nontriv = {p: v for p, v in prime_vals.items() if not v.is_one}
        if not nontriv:
            candidate = BasePoint.trivial()
        elif all(not v.is_zero and v > NV_ONE for v in nontriv.values()):
            # Archimedean power: solve 2^eps = value at 2
            v2 = prime_vals[2]
            base, exp = v2.canonical_pow()
            if base != 2:
                raise UnrecognizedBasePoint("constants do not follow |.|^eps")
            candidate = BasePoint.arch(exp)
        elif len(nontriv) == 1:
            p, v = next(iter(nontriv.items()))
            if v.is_zero:
                candidate = BasePoint.residue(p)
            else:
                base, exp = v.canonical_pow()
                if base != Fraction(1, p):
                    raise UnrecognizedBasePoint(
                        "constants do not follow a p-adic power"
                    )
                candidate = BasePoint.padic(p, exp)
        else:
            raise UnrecognizedBasePoint("several primes have nontrivial value")
    else:
        m = ring.modulus
        zero_primes = [
            p
            for p, _ in (factor_int(m) if m > 1 else ())
            if const_val(ring.reduce(p)).is_zero
        ]
        if len(zero_primes) == 1:
            candidate = BasePoint.residue(zero_primes[0])
        elif not zero_primes and ring.kind == "FpTriv":
            candidate = BasePoint.trivial()
        else:
            raise UnrecognizedBasePoint("no admissible point matches")
    candidate = canonical_point(ring, candidate)
    if not is_admissible(ring, candidate):
        raise UnrecognizedBasePoint(f"{candidate} is not admissible here")
    for a in sample:
        if const_val(a) != base_eval(candidate, ring, ring.reduce(a)):
            raise UnrecognizedBasePoint(
                f"constant {a} disagrees with {candidate}"
            )
    return candidate


def g_split(oracle: SeminormOracle) -> SpectrumPoint:
    """Recover (ultrafilter component, base point) from a seminorm oracle.

    Tests the oracle on every clopen indicator; the clopens with nonzero
    value must form the principal ultrafilter of exactly one
    quasi-component.  The base point is identified from the values on
    constants, then verified on the whole constant sample.
    """
    space, ring = oracle.space, oracle.ring
    hits = []
    for U in space.clopens:
        v = oracle(indicator(space, ring, U))
        if not v.is_zero:
            hits.append(U)
    hit_set = frozenset(hits)
    if frozenset() in hit_set:
        raise NotUltrafilter("the empty clopen has nonzero value")
    selected = None
    for i, block in enumerate(space.quasi_components):
        expected = frozenset(U for U in space.clopens if block <= U)
        if expected == hit_set:
            selected = i
            break
    if selected is None:
        raise NotUltrafilter(
            "indicator values are not the ultrafilter of one quasi-component"
        )
    base = _identify_base(space, ring, oracle)
    return SpectrumPoint(selected, base)


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

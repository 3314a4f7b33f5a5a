"""Finite-image continuous functions on a finite space.

A function is a slotted, frozen value holding one coefficient value per
quasi-component, which makes continuity (constancy on quasi-components)
hold by construction.
Coefficients live in a RingDescriptor or in any module-like object exposing
zero/add/norm/eq (weighted free modules qualify), so C_fin(X, M) and
C_fin(X, R) share one representation.

The ideal sum split behind closed covers cuts f = f0 + f1 through a
separating clopen with the exact norm bound |f0| + |f1| <= 2 |f|.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul as _times

from .errors import CannotSeparate, NotInIdeal, RingMismatch, SpaceMismatch
from .normvalue import NV_ZERO, nv_max
from .scalars import RingDescriptor
from .spaces import FiniteSpace, PointMap, banaschewski


@dataclass(frozen=True, slots=True, init=False)
class CfinFunction:
    """A continuous finite-image function: one value per quasi-component."""

    space: FiniteSpace
    coeff: object  # RingDescriptor or module-like coefficient object
    values: tuple

    def __init__(self, space: FiniteSpace, coeff, values: tuple):
        if len(values) != len(space.quasi_components):
            raise SpaceMismatch("one value per quasi-component required")
        # slot descriptors store past the frozen __setattr__ at half the generated __init__'s cost
        _set_space(self, space)
        _set_coeff(self, coeff)
        _set_values(self, values)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def constant(space: FiniteSpace, coeff, value) -> "CfinFunction":
        return CfinFunction(space, coeff, (value,) * len(space.quasi_components))

    @staticmethod
    def zero(space: FiniteSpace, coeff) -> "CfinFunction":
        return CfinFunction.constant(space, coeff, coeff.zero)

    @staticmethod
    def from_point_values(space: FiniteSpace, coeff, point_values) -> "CfinFunction":
        """Build from per-point values; they must be component-constant."""
        if len(point_values) != space.n:
            raise SpaceMismatch(
                f"{len(point_values)} values for a space of {space.n} points"
            )
        vals = []
        for block in space.quasi_components:
            got = {point_values[x] for x in block}
            if len(got) != 1:
                raise SpaceMismatch(
                    f"values not constant on quasi-component {sorted(block)}"
                )
            vals.append(got.pop())
        return CfinFunction(space, coeff, tuple(vals))

    # -- evaluation -------------------------------------------------------

    def _compat(self, other: "CfinFunction"):
        if self.space is not other.space and self.space != other.space:
            raise SpaceMismatch("functions live on different spaces")
        if self.coeff is not other.coeff and self.coeff != other.coeff:
            raise RingMismatch("functions have different coefficients")

    # -- algebra ----------------------------------------------------------

    # the operands share a space, so their value tuples have its length
    # and the results are built unchecked

    def add(self, other: "CfinFunction") -> "CfinFunction":
        if self.space is not other.space or self.coeff is not other.coeff:
            self._compat(other)
        vals = tuple(
            self.coeff.add(a, b) for a, b in zip(self.values, other.values)
        )
        return _unchecked(self.space, self.coeff, vals)

    def sub(self, other: "CfinFunction") -> "CfinFunction":
        if self.space is not other.space or self.coeff is not other.coeff:
            self._compat(other)
        vals = tuple(
            self.coeff.sub(a, b) for a, b in zip(self.values, other.values)
        )
        return _unchecked(self.space, self.coeff, vals)

    def mul(self, other: "CfinFunction") -> "CfinFunction":
        """The pointwise product: a * b, reduced mod n on Z/n, on whole tuples.

        On int values it equals RingDescriptor.mul component by component,
        without one Python call per component.
        """
        if self.space is not other.space or self.coeff is not other.coeff:
            self._compat(other)
        vals = map(_times, self.values, other.values)
        m = self.coeff.modulus
        vals = tuple(vals) if m is None else tuple([v % m for v in vals])
        return _unchecked(self.space, self.coeff, vals)

    def is_zero(self) -> bool:
        return all(self.coeff.eq(v, self.coeff.zero) for v in self.values)

    def __eq__(self, other):
        if not isinstance(other, CfinFunction):
            return NotImplemented
        return (
            self.space == other.space
            and self.coeff == other.coeff
            and all(
                self.coeff.eq(a, b) for a, b in zip(self.values, other.values)
            )
        )

    def __hash__(self):
        # equal functions may hold different representatives of one value
        # (5 and 1 in Z/4), so only the exactly compared space is hashed
        return hash(self.space)

    # -- norm and support ----------------------------------------------------

    def sup_norm(self):
        return nv_max((self.coeff.norm(v) for v in self.values), default=NV_ZERO)

    def support(self) -> frozenset:
        """The clopen set where the function is nonzero."""
        out = frozenset()
        for i, block in enumerate(self.space.quasi_components):
            if not self.coeff.eq(self.values[i], self.coeff.zero):
                out |= block
        return out

    def vanishes_on(self, subset) -> bool:
        return not (self.support() & frozenset(subset))


_set_space = CfinFunction.space.__set__
_set_coeff = CfinFunction.coeff.__set__
_set_values = CfinFunction.values.__set__
_new = object.__new__


def _unchecked(space: FiniteSpace, coeff, values: tuple) -> CfinFunction:
    """CfinFunction(space, coeff, values) without the length check."""
    f = _new(CfinFunction)
    _set_space(f, space)
    _set_coeff(f, coeff)
    _set_values(f, values)
    return f


def indicator(space: FiniteSpace, coeff, U) -> CfinFunction:
    """Characteristic function of a clopen set."""
    comps = space.clopen_component_indices(U)  # raises NotClopen
    vals = tuple(
        coeff.one if i in comps else coeff.zero
        for i in range(len(space.quasi_components))
    )
    return CfinFunction(space, coeff, vals)


def restrict(f: CfinFunction, j: PointMap) -> CfinFunction:
    """Pullback f∘j along a continuous map into f's space."""
    if j.target != f.space:
        raise SpaceMismatch("map does not land in the function's space")
    return CfinFunction(j.source, f.coeff, tuple(f.values[t] for t in j.component_map()))


def extend_banaschewski(f: CfinFunction) -> CfinFunction:
    """The unique function on the component space pulling back to f."""
    zeta, _ = banaschewski(f.space)
    return CfinFunction(zeta, f.coeff, f.values)


def ideal_sum_split(f: CfinFunction, K0, K1):
    """Split f = f0 + f1 with f0|K0 = 0, f1|K1 = 0 and |f0|+|f1| <= 2|f|.

    Construction: separate K0 from K2 = K1 minus the zero set of f by a
    clopen V (the union of quasi-components meeting K0), then cut f by
    1_{X\\V} and 1_V.  The two parts have sup norm <= |f|, giving the
    constant 2.
    """
    K0, K1 = frozenset(K0), frozenset(K1)
    if not f.vanishes_on(K0 & K1):
        raise NotInIdeal("f does not vanish on the intersection")
    zero_set = frozenset(range(f.space.n)) - f.support()
    K2 = K1 - zero_set
    V = frozenset()
    for block in f.space.quasi_components:
        if block & K0:
            V |= block
    if V & K2:
        raise CannotSeparate(
            "no clopen separates the closed sets at quasi-component level"
        )
    one = indicator(f.space, f.coeff, frozenset(range(f.space.n)))
    ind_v = indicator(f.space, f.coeff, V)
    f0 = f.mul(one.sub(ind_v))
    f1 = f.mul(ind_v)
    return f0, f1


def separates_points(functions, space: FiniteSpace):
    """Whether a family distinguishes every pair of quasi-components."""
    for f in functions:
        if f.space != space:
            raise SpaceMismatch("family members live on different spaces")
    k = len(space.quasi_components)
    for i in range(k):
        for j in range(i + 1, k):
            if not any(
                not f.coeff.eq(f.values[i], f.values[j]) for f in functions
            ):
                return False, (i, j)
    return True, None


def enumerate_functions(space: FiniteSpace, ring: RingDescriptor, values):
    """All functions with component values drawn from the given pool."""
    from itertools import product

    k = len(space.quasi_components)
    for combo in product(values, repeat=k):
        yield CfinFunction(space, ring, tuple(ring.reduce(v) for v in combo))

"""Finite-image continuous functions on a finite space.

A function is stored as one coefficient value per quasi-component, which
makes continuity (constancy on quasi-components) hold by construction.
Coefficients live in a RingDescriptor or in any module-like object exposing
zero/add/norm/eq (weighted free modules qualify), so C_fin(X, M) and
C_fin(X, R) share one representation.

The ideal operations implement the constructive splittings behind closed
covers: a product split f = 1_U * f off the support, and a sum split
f = f0 + f1 through a separating clopen with the exact norm bound
|f0| + |f1| <= 2 |f|.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    CannotSeparate,
    NotEmbedding,
    NotInIdeal,
    RingMismatch,
    SpaceMismatch,
)
from .normvalue import NV_ZERO, nv_max
from .scalars import RingDescriptor
from .spaces import FiniteSpace, PointMap, banaschewski, merged_pair


@dataclass(frozen=True)
class CfinFunction:
    """A continuous finite-image function: one value per quasi-component."""

    space: FiniteSpace
    coeff: object  # RingDescriptor or module-like coefficient object
    values: tuple

    def __post_init__(self):
        if len(self.values) != len(self.space.quasi_components):
            raise SpaceMismatch("one value per quasi-component required")

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

    def eval(self, x: int):
        return self.values[self.space.component_index(x)]

    def point_values(self) -> tuple:
        return tuple(self.eval(x) for x in range(self.space.n))

    def _compat(self, other: "CfinFunction"):
        if self.space != other.space:
            raise SpaceMismatch("functions live on different spaces")
        if self.coeff != other.coeff:
            raise RingMismatch("functions have different coefficients")

    # -- algebra ----------------------------------------------------------

    def add(self, other: "CfinFunction") -> "CfinFunction":
        self._compat(other)
        vals = tuple(
            self.coeff.add(a, b) for a, b in zip(self.values, other.values)
        )
        return CfinFunction(self.space, self.coeff, vals)

    def sub(self, other: "CfinFunction") -> "CfinFunction":
        self._compat(other)
        vals = tuple(
            self.coeff.sub(a, b) for a, b in zip(self.values, other.values)
        )
        return CfinFunction(self.space, self.coeff, vals)

    def mul(self, other: "CfinFunction") -> "CfinFunction":
        self._compat(other)
        vals = tuple(map(self.coeff.mul, self.values, other.values))
        return CfinFunction(self.space, self.coeff, vals)

    def scalar(self, a) -> "CfinFunction":
        if isinstance(self.coeff, RingDescriptor):
            vals = tuple(self.coeff.mul(a, v) for v in self.values)
        else:
            vals = tuple(self.coeff.scalar(a, v) for v in self.values)
        return CfinFunction(self.space, self.coeff, vals)

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
        return hash((self.space, self.values))

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

    def to_json(self):
        return {
            "space": self.space.to_json(),
            "ring": self.coeff.to_json(),
            "values": {str(i): v for i, v in enumerate(self.values)},
        }


def indicator(space: FiniteSpace, coeff, U) -> CfinFunction:
    """Characteristic function of a clopen set."""
    comps = space.clopen_component_indices(U)  # raises NotClopen
    vals = tuple(
        coeff.one if i in comps else coeff.zero
        for i in range(len(space.quasi_components))
    )
    return CfinFunction(space, coeff, vals)


def decompose(f: CfinFunction) -> list[tuple[frozenset, object]]:
    """Partition of the space into level sets: [(U_m, m)] with sum 1_U*m = f.

    Blocks are ordered by their minimal point; each block is a nonempty
    clopen, blocks are disjoint, and their union is the whole space.
    """
    groups: dict = {}
    for i, block in enumerate(f.space.quasi_components):
        groups.setdefault(f.values[i], []).append(block)
    out = []
    for value, blocks in groups.items():
        U = frozenset().union(*blocks)
        out.append((U, value))
    out.sort(key=lambda pair: min(pair[0]) if pair[0] else -1)
    return out


def reconstruct(space: FiniteSpace, coeff, pieces) -> CfinFunction:
    """Inverse of decompose: sum of value * indicator over the pieces."""
    vals = [coeff.zero] * len(space.quasi_components)
    for U, value in pieces:
        for i in space.clopen_component_indices(U):
            vals[i] = coeff.add(vals[i], value)
    return CfinFunction(space, coeff, tuple(vals))


def restrict(f: CfinFunction, j: PointMap) -> CfinFunction:
    """Pullback f∘j along a continuous map into f's space."""
    if j.target != f.space:
        raise SpaceMismatch("map does not land in the function's space")
    return CfinFunction(j.source, f.coeff, tuple(f.values[t] for t in j.component_map()))


def extend_banaschewski(f: CfinFunction) -> CfinFunction:
    """The unique function on the component space pulling back to f."""
    zeta, _ = banaschewski(f.space)
    return CfinFunction(zeta, f.coeff, f.values)


def tietze_extend(f: CfinFunction, j: PointMap) -> CfinFunction:
    """Extend f along an embedding by zero, preserving the sup norm."""
    if j.source != f.space:
        raise SpaceMismatch("function does not live on the map's source")
    cmap = j.component_map()
    pair = merged_pair(cmap)
    if pair is not None:
        raise NotEmbedding(f"components {pair} merged in the target")
    vals = [f.coeff.zero] * len(j.target.quasi_components)
    for i, t in enumerate(cmap):
        vals[t] = f.values[i]
    return CfinFunction(j.target, f.coeff, tuple(vals))


def dominating_idempotent(fs, X0) -> frozenset:
    """The clopen U with 1_U * f = f for every f, disjoint from X0."""
    X0 = frozenset(X0)
    U = frozenset()
    for f in fs:
        if not f.vanishes_on(X0):
            raise NotInIdeal(f"a function does not vanish on {sorted(X0)}")
        U |= f.support()
    return U


def ideal_product_split(f: CfinFunction, K0, K1):
    """Factor f = f0 * f1 with f0 vanishing on K0 and f1 on K1.

    Requires f to vanish on K0 ∪ K1; f0 is the support indicator, f1 = f.
    """
    K0, K1 = frozenset(K0), frozenset(K1)
    if not f.vanishes_on(K0 | K1):
        raise NotInIdeal("f does not vanish on the union")
    U = f.support()
    f0 = indicator(f.space, f.coeff, U)
    return f0, f


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


def limit_along(component_index: int, f: CfinFunction):
    """Value of f on the quasi-component picked by an ultrafilter."""
    return f.values[component_index]


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

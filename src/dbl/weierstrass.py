"""Constructive indicator certificates over ordered rings.

Given a separating family of generators in C_fin(X, R) for an ordered ring
R with a norm gap, every clopen indicator has a positive multiple lying in
the generated subring, and the construction is fully explicit: squares of
shifted generators vanish at a chosen point and stay positive on the
target; an idempotentizing polynomial flattens them; a product over a
covering set of outside points yields a_U * 1_U.

Certificates are expression trees over the generator symbols using only
+, -, * and integer constants, so membership in the subring is visible by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonSeparating, UnsupportedRing, ZeroFunction, _printable
from .functions import CfinFunction, separates_points
from .scalars import RingDescriptor
from .spaces import FiniteSpace


class Expr:
    """Expression tree over generator symbols; evaluates pointwise."""

    def evaluate(self, gens: list[CfinFunction], ring: RingDescriptor, comp: int):
        raise NotImplementedError

    def values(self, gens, ring: RingDescriptor, space: FiniteSpace) -> tuple:
        return tuple(
            self.evaluate(gens, ring, c)
            for c in range(len(space.quasi_components))
        )


@dataclass(frozen=True)
class Gen(Expr):
    index: int

    def evaluate(self, gens, ring, comp):
        return gens[self.index].values[comp]


@dataclass(frozen=True)
class Const(Expr):
    value: int

    def evaluate(self, gens, ring, comp):
        return ring.reduce(self.value)


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr

    def evaluate(self, gens, ring, comp):
        return ring.add(
            self.left.evaluate(gens, ring, comp),
            self.right.evaluate(gens, ring, comp),
        )


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr

    def evaluate(self, gens, ring, comp):
        return ring.sub(
            self.left.evaluate(gens, ring, comp),
            self.right.evaluate(gens, ring, comp),
        )


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr

    def evaluate(self, gens, ring, comp):
        return ring.mul(
            self.left.evaluate(gens, ring, comp),
            self.right.evaluate(gens, ring, comp),
        )


def expr_to_json(e: Expr):
    if isinstance(e, Gen):
        return {"gen": e.index}
    if isinstance(e, Const):
        return {"const": e.value}
    ops = {Add: "+", Sub: "-", Mul: "*"}
    return {
        "op": ops[type(e)],
        "left": expr_to_json(e.left),
        "right": expr_to_json(e.right),
    }


@dataclass(frozen=True)
class SWCertificate:
    """A membership certificate: tree evaluates to scale * 1_{clopen}."""

    clopen: frozenset
    scale: int
    tree: Expr
    evaluation: tuple

    def verify(self, space: FiniteSpace, ring: RingDescriptor, gens) -> bool:
        got = self.tree.values(gens, ring, space)
        if got != self.evaluation:
            return False
        comps = space.clopen_component_indices(self.clopen)
        want = tuple(
            self.scale if c in comps else 0
            for c in range(len(space.quasi_components))
        )
        return got == want

    def to_json(self):
        return {
            "clopen": sorted(self.clopen),
            "a_U": self.scale,
            "tree": expr_to_json(self.tree),
            "evaluation": list(self.evaluation),
        }


def _require_ordered(ring: RingDescriptor):
    if not ring.ordered_ring:
        raise UnsupportedRing(f"{ring} is not an ordered ring")


def sw_vanishing_witness(
    space: FiniteSpace,
    ring: RingDescriptor,
    gens: list[CfinFunction],
    x: int,
    U,
) -> Expr:
    """An expression vanishing at x, nonnegative, strictly positive on U.

    Built as a sum of squares of shifted generators: for each uncovered
    quasi-component of U, greedily pick a generator separating it from x.
    """
    _require_ordered(ring)
    ok, witness = separates_points(gens, space)
    if not ok:
        raise NonSeparating(witness)
    U = frozenset(U)
    cx = space.component_index(x)
    target_comps = sorted(space.clopen_component_indices(U))
    covered: set[int] = set()
    terms: list[Expr] = []
    for d in target_comps:
        if d in covered:
            continue
        gsel = None
        for gi, g in enumerate(gens):
            if g.values[d] != g.values[cx]:
                gsel = gi
                break
        if gsel is None:
            raise NonSeparating((cx, d))
        shifted = Sub(Gen(gsel), Const(gens[gsel].values[cx]))
        sq = Mul(shifted, shifted)
        vals = sq.values(gens, ring, space)
        terms.append(sq)
        for c in target_comps:
            if vals[c] != 0:
                covered.add(c)
    if not terms:
        return Const(0)
    expr = terms[0]
    for t in terms[1:]:
        expr = Add(expr, t)
    return expr


def sw_idempotentize(
    f_expr: Expr,
    space: FiniteSpace,
    ring: RingDescriptor,
    gens: list[CfinFunction],
) -> tuple[int, Expr]:
    """Flatten a nonnegative expression to (a, e) with e in {0, a}, e^2 = a e.

    a is the product of the nonzero values of the expression and
    e = a - prod (v - f) over those values; e vanishes exactly where f does.
    """
    _require_ordered(ring)
    vals = f_expr.values(gens, ring, space)
    nonzero = sorted(set(v for v in vals if v != 0))
    if not nonzero:
        raise ZeroFunction("expression vanishes everywhere")
    a = 1
    for v in nonzero:
        a = _printable(a * v, "a scale")
    prod: Expr | None = None
    for v in nonzero:
        factor = Sub(Const(v), f_expr)
        prod = factor if prod is None else Mul(prod, factor)
    e = Sub(Const(a), prod)
    return a, e


def sw_construct_indicator(
    space: FiniteSpace,
    ring: RingDescriptor,
    gens: list[CfinFunction],
    U,
) -> SWCertificate:
    """Certificate that a positive multiple of 1_U lies in the subring.

    For each uncovered point outside U (greedy scan in point order) build
    the idempotentized witness; the product over the chosen points
    evaluates to (prod a_x) * 1_U.
    """
    _require_ordered(ring)
    U = frozenset(U)
    in_comps = space.clopen_component_indices(U)
    ok, witness = separates_points(gens, space)
    if not ok:
        raise NonSeparating(witness)
    n_comp = len(space.quasi_components)
    if not U:
        cert = SWCertificate(U, 1, Const(0), (0,) * n_comp)
        return cert
    if U == frozenset(range(space.n)):
        return SWCertificate(U, 1, Const(1), (1,) * n_comp)
    a_total = 1
    tree: Expr | None = None
    covered: set[int] = set()
    outside = [c for c in range(n_comp) if c not in in_comps]
    for c in outside:
        if c in covered:
            continue
        x = min(space.quasi_components[c])
        f_expr = sw_vanishing_witness(space, ring, gens, x, U)
        a_x, e_x = sw_idempotentize(f_expr, space, ring, gens)
        a_total = _printable(a_total * a_x, "a scale")
        e_vals = e_x.values(gens, ring, space)
        tree = e_x if tree is None else Mul(tree, e_x)
        for c2 in outside:
            if e_vals[c2] == 0:
                covered.add(c2)
    evaluation = tree.values(gens, ring, space)
    want = tuple(
        a_total if c in in_comps else 0 for c in range(n_comp)
    )
    if evaluation != want or a_total <= 0:
        raise ValueError("certificate construction failed verification")
    return SWCertificate(U, a_total, tree, evaluation)

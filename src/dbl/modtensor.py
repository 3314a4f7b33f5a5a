"""Weighted free modules and exact tensor products.

Module elements are finitely supported coefficient maps over a symbol
basis, stored as canonically sorted tuples so they hash and compare.  The
norm is sum-of-terms in Archimedean mode and max-of-terms in
non-Archimedean mode; with a norm gap in the ring and positive weights the
module is again discretely normed.

The tensor norm has a closed form in both modes: on the pair basis with
multiplied weights, the module norm of the coefficient matrix is the
infimum over representations (l1 (x)_pi l1 = l1, and its max analogue).
The bound gap^2 * matrix-rank from below is kept as an independent
oracle; against the sup norm 1 of the forward image it reproduces the
unboundedness of the inverse absorbing map.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import (
    ModeMismatch,
    RingMismatch,
    UnsupportedValue,
)
from .intlinalg import invariant_factors
from .normvalue import NV_ONE, NV_ZERO, NormValue, nv_max, nv_sum
from .scalars import RingDescriptor, int_inf
from .spaces import FiniteSpace

ARCH = "arch"
NONARCH = "nonarch"


def _symbol_key(s):
    if isinstance(s, tuple):
        return (1, tuple(_symbol_key(x) for x in s))
    return (0, (type(s).__name__, repr(s)))


def elem(pairs_or_dict) -> tuple:
    """Canonical module element from {symbol: coeff} or pair iterable."""
    d = dict(pairs_or_dict)
    items = [(s, c) for s, c in d.items() if c != 0]
    items.sort(key=lambda sc: _symbol_key(sc[0]))
    return tuple(items)


class WeightedFreeModule:
    """Free module on weighted symbols over a supported ring."""

    def __init__(self, ring: RingDescriptor, weights, mode: str = NONARCH):
        if mode not in (ARCH, NONARCH):
            raise ModeMismatch(f"unknown mode {mode!r}")
        self.ring = ring
        self.mode = mode
        ws = {}
        for s, w in dict(weights).items():
            w = w if isinstance(w, NormValue) else NormValue.from_fraction(w)
            if w.is_zero:
                raise ValueError(f"weight of {s!r} must be positive")
            ws[s] = w
        self.weights = ws
        self.symbols = tuple(sorted(ws, key=_symbol_key))

    # -- basic structure -------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.symbols)

    @property
    def zero(self) -> tuple:
        return ()

    def weight(self, s) -> NormValue:
        return self.weights[s]

    # -- element operations ------------------------------------------------

    def add(self, a: tuple, b: tuple) -> tuple:
        d = dict(a)
        for s, c in b:
            d[s] = self.ring.add(d.get(s, 0), c)
        return elem(d)

    def eq(self, a: tuple, b: tuple) -> bool:
        return elem(a) == elem(b)

    def norm(self, a: tuple) -> NormValue:
        terms = [self.ring.norm(c) * self.weights[s] for s, c in a]
        if not terms:
            return NV_ZERO
        if self.mode == ARCH:
            return nv_sum(terms)
        return nv_max(terms)

    def isolation_gap(self) -> NormValue:
        """Lower bound for the norm of nonzero elements: the least weight.

        Every nonzero ring element has norm >= 1, so a nonzero element's
        norm is at least the weight of a symbol it uses.
        """
        return min(self.weights.values(), default=NV_ONE)

    def elements(self, coeff_pool):
        for combo in product(coeff_pool, repeat=self.rank):
            yield elem(
                {s: self.ring.reduce(c) for s, c in zip(self.symbols, combo)}
            )

    def __eq__(self, other):
        return (
            isinstance(other, WeightedFreeModule)
            and self.ring == other.ring
            and self.mode == other.mode
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.ring, self.mode, tuple(sorted(self.weights.items(), key=lambda kv: _symbol_key(kv[0])))))

    def __repr__(self):
        return f"WeightedFreeModule({self.ring}, rank={self.rank}, {self.mode})"


def tensor_product_module(m0: WeightedFreeModule, m1: WeightedFreeModule) -> WeightedFreeModule:
    """M0 (x) M1 on the pair basis: weights multiply, the mode is shared.

    Its norm is the exact tensor norm in either mode (see tensor_norm), so
    no completion happens and the result is again discretely normed.
    """
    if m0.mode != m1.mode:
        raise ModeMismatch("tensor factors in different modes")
    if m0.ring != m1.ring:
        raise RingMismatch("tensor factors over different rings")
    weights = {
        (s0, s1): m0.weight(s0) * m1.weight(s1)
        for s0 in m0.symbols
        for s1 in m1.symbols
    }
    return WeightedFreeModule(m0.ring, weights, m0.mode)


@dataclass(frozen=True)
class TensorElement:
    """An element of M0 (x) M1 in canonical coefficient-matrix form."""

    m0: WeightedFreeModule
    m1: WeightedFreeModule
    matrix: tuple  # canonical elem over pair symbols

    @staticmethod
    def zero(m0, m1) -> "TensorElement":
        return TensorElement(m0, m1, ())

    def coefficient_rows(self):
        """Dense matrix of coefficients, rows = m0 symbols, cols = m1 symbols."""
        idx0 = {s: i for i, s in enumerate(self.m0.symbols)}
        idx1 = {s: i for i, s in enumerate(self.m1.symbols)}
        rows = [[0] * len(idx1) for _ in idx0]
        for (s0, s1), c in self.matrix:
            rows[idx0[s0]][idx1[s1]] = c
        return tuple(tuple(r) for r in rows)


def tensor_norm(t: TensorElement) -> NormValue:
    """Exact tensor norm: sum (arch) or max (nonarch) of |c_ij| w0_i w1_j.

    A representation sum u_k (x) v_k has c_ij = sum_k u_ki v_kj, so by the
    triangle inequality and submultiplicativity it costs at least this
    value, and the singleton expansion costs exactly this value.  The max
    form needs the strong triangle inequality, so max mode over an
    Archimedean ring raises ModeMismatch.  Sums of irrational values raise
    UnsupportedValue.
    """
    ring = t.m0.ring
    if t.m0.mode == NONARCH and not (ring.non_archimedean or ring.is_zero_ring):
        raise ModeMismatch(f"max-mode tensor norm needs a non-Archimedean ring, got {ring}")
    return tensor_product_module(t.m0, t.m1).norm(t.matrix)


def tensor_rank_lower_bound(t: TensorElement) -> NormValue:
    """Certified lower bound gap(M0) * gap(M1) * rank for the arch seminorm.

    Any representation with k nonzero terms has k >= rank of the
    coefficient matrix, and each nonzero term costs at least the product
    of the module gaps.
    """
    rows = t.coefficient_rows()
    if not rows or not rows[0]:
        return NV_ZERO
    ring = t.m0.ring
    if ring.modulus is None:
        r = len(invariant_factors(rows))
    elif ring.kind == "FpTriv":
        r = sum(1 for e in invariant_factors(rows) if e % ring.p)
    else:
        raise UnsupportedValue("rank bound needs a Z-based ring or F_p")
    if r == 0:
        return NV_ZERO
    return t.m0.isolation_gap() * t.m1.isolation_gap() * NormValue.from_fraction(r)


# -- C_fin(X, M) as a weighted free module --------------------------------


def cfin_module(space: FiniteSpace, m: WeightedFreeModule) -> WeightedFreeModule:
    """C_fin(X, M) for free M: basis (component, symbol), same weights."""
    weights = {
        (c, s): m.weight(s)
        for c in range(len(space.quasi_components))
        for s in m.symbols
    }
    return WeightedFreeModule(m.ring, weights, m.mode)


def absorbing_map(space: FiniteSpace, m0: WeightedFreeModule, m1: WeightedFreeModule):
    """The mutually inverse pair between C_fin(X,M0)⊗M1 and C_fin(X,M0⊗M1).

    forward sends sum f_i ⊗ m_i to x -> sum f_i(x) ⊗ m_i; backward
    rebuilds the tensor from the level-set decomposition.  Returns
    (forward, backward, domain_pair, target_module).
    """
    from .functions import CfinFunction

    cfm0 = cfin_module(space, m0)
    prod = tensor_product_module(m0, m1)

    def forward(t: TensorElement) -> CfinFunction:
        if (t.m0, t.m1) != (cfm0, m1):
            raise RingMismatch("tensor element outside the domain")
        n_comp = len(space.quasi_components)
        vals: list[dict] = [dict() for _ in range(n_comp)]
        ring = m0.ring
        for ((c, s0), s1), coeff in t.matrix:
            key = (s0, s1)
            vals[c][key] = ring.add(vals[c].get(key, 0), coeff)
        return CfinFunction(space, prod, tuple(elem(v) for v in vals))

    def backward(f) -> TensorElement:
        if f.space != space or f.coeff != prod:
            raise RingMismatch("function outside the target algebra")
        coeffs: dict = {}
        for c, value in enumerate(f.values):
            for (s0, s1), coeff in value:
                coeffs[((c, s0), s1)] = coeff
        return TensorElement(cfm0, m1, elem(coeffs))

    return forward, backward, (cfm0, m1), prod


def absorbing_counterexample(n: int):
    """The identity-like tensor with unbounded backward norm growth.

    On the discrete space with n+1 points over IntInf, f_n sends each
    singleton indicator to a distinct unit basis vector.  Its forward image
    has sup norm 1 while the rank lower bound is n+1.
    """
    space = FiniteSpace.discrete(n + 1)
    ring = int_inf()
    m0 = WeightedFreeModule(ring, {"u": 1}, ARCH)
    m1 = WeightedFreeModule(ring, {("d", i): 1 for i in range(n + 1)}, ARCH)
    forward, backward, (cfm0, _), _ = absorbing_map(space, m0, m1)
    f_n = TensorElement(
        cfm0,
        m1,
        elem({((i, "u"), ("d", i)): 1 for i in range(n + 1)}),
    )
    return space, m0, m1, f_n, forward, backward


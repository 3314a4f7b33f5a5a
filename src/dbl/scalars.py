"""Exact normed rings with a norm gap at 0.

Five ring descriptors are supported:

  IntInf      Z with the Euclidean absolute value
  IntTriv     Z with the trivial norm (1 on nonzero)
  FpTriv(p)   the field F_p with the trivial norm
  ZmodTriv(n) Z/n with the trivial norm
  ZmodQuot(n) Z/n with the quotient norm inherited from IntInf

Every nonzero element has norm >= 1, so the norm topology is discrete.
Elements are plain Python ints, reduced to [0, n) for the Z/n variants.
n = 1 is allowed for the Z/n variants and gives the zero ring.  Moduli
above MAX_MODULUS are rejected, which bounds the trial division that
checks primality and factors n.  A ring computes its modulus, and its
one, once: on first use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from ._memo import Memo
from .errors import ElementOutOfRange, UnsupportedRing
from .normvalue import NV_ONE, NV_ZERO, NormValue, factor_int

_KINDS = ("IntInf", "IntTriv", "FpTriv", "ZmodTriv", "ZmodQuot")
MAX_MODULUS = 2**32
# how many names RingDescriptor.parse keeps a descriptor for
PARSED_NAMES = 64
_PARSED = Memo(PARSED_NAMES)  # the descriptor of each ring name parsed
_RING_NAME = re.compile(
    rf"(IntInf|IntTriv)|(FpTriv|ZmodTriv|ZmodQuot)\(([0-9]{{1,{len(str(MAX_MODULUS))}}})\)"
)


def _is_prime(p: int) -> bool:
    return p >= 2 and factor_int(p) == ((p, 1),)


@dataclass(frozen=True)
class RingDescriptor:
    """A supported exact normed ring, with declared metadata flags."""

    kind: str
    p: int | None = None
    n: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise UnsupportedRing(f"unknown ring kind {self.kind!r}")
        for name, used in (("p", ("FpTriv",)), ("n", ("ZmodTriv", "ZmodQuot"))):
            if getattr(self, name) is not None and self.kind not in used:
                raise UnsupportedRing(f"{self.kind} takes no {name}")
        for m in (self.p, self.n):
            if m is not None and m > MAX_MODULUS:
                raise UnsupportedRing(
                    f"{self.kind} modulus of {m.bit_length()} bits exceeds MAX_MODULUS = 2**32"
                )
        if self.kind == "FpTriv":
            if self.p is None or not _is_prime(self.p):
                raise UnsupportedRing(f"FpTriv needs a prime, got {self.p}")
        if self.kind in ("ZmodTriv", "ZmodQuot"):
            if self.n is None or self.n < 1:
                raise UnsupportedRing(f"Z/n needs n >= 1, got {self.n}")

    # -- structure ------------------------------------------------------

    # cached in the instance dict, which eq, hash and repr never read
    @cached_property
    def modulus(self) -> int | None:
        if self.kind == "FpTriv":
            return self.p
        if self.kind in ("ZmodTriv", "ZmodQuot"):
            return self.n
        return None

    @property
    def is_zero_ring(self) -> bool:
        return self.modulus == 1

    @property
    def non_archimedean(self) -> bool:
        return self.kind in ("IntTriv", "FpTriv", "ZmodTriv")

    @property
    def ordered_ring(self) -> bool:
        return self.kind in ("IntInf", "IntTriv")

    @property
    def spectrum_connected(self) -> bool:
        # Declared metadata: for Z/n the spectrum is one point per prime
        # divisor of n, so connected means n is a prime power.
        m = self.modulus
        if m is None or self.kind == "FpTriv":
            return True
        return len(factor_int(m)) == 1 if m > 1 else False

    def nontrivial_idempotent(self) -> int | None:
        """The least idempotent other than 0, 1 when the ring has one.

        The idempotents of Z/n are the CRT solutions of e = 0 or 1 modulo
        each prime-power factor q of n: sums of the unit vectors u_q.
        """
        m = self.modulus
        if m is None:
            return None
        idempotents = {0}
        for p, k in factor_int(m):
            q = p**k
            u = m // q * pow(m // q, -1, q)
            idempotents |= {(e + u) % m for e in idempotents}
        return min(idempotents - {0, 1}, default=None)

    # -- element arithmetic ----------------------------------------------

    def reduce(self, a: int) -> int:
        m = self.modulus
        return a if m is None else a % m

    def check_element(self, a) -> int:
        if not isinstance(a, int) or isinstance(a, bool):
            raise ElementOutOfRange(f"{a!r} is not an integer element")
        m = self.modulus
        if m is not None and not 0 <= a < m:
            raise ElementOutOfRange(f"{a} not reduced mod {m}")
        return a

    @property
    def zero(self) -> int:
        return 0

    @cached_property
    def one(self) -> int:
        return 0 if self.is_zero_ring else 1

    def add(self, a: int, b: int) -> int:
        return self.reduce(a + b)

    def sub(self, a: int, b: int) -> int:
        return self.reduce(a - b)

    def mul(self, a: int, b: int) -> int:
        return self.reduce(a * b)

    def eq(self, a: int, b: int) -> bool:
        return self.reduce(a) == self.reduce(b)

    # -- norms -----------------------------------------------------------

    def norm(self, a) -> NormValue:
        a = self.check_element(a)
        if self.kind == "IntInf":
            return NormValue.from_fraction(abs(a))
        if self.kind == "ZmodQuot":
            # min |a + kn| over representatives, attained in (-n/2, n/2]
            return NV_ZERO if a == 0 else NormValue.from_fraction(min(a, self.n - a))
        # trivial-norm variants
        return NV_ZERO if a == 0 else NV_ONE

    # -- serialization -----------------------------------------------------

    @staticmethod
    def from_json(obj) -> "RingDescriptor":
        p, n = obj.get("p"), obj.get("n")
        for x in (p, n):
            if x is not None and (not isinstance(x, int) or isinstance(x, bool)):
                raise ValueError('a ring object is {"kind": str, "p": int, "n": int}')
        return RingDescriptor(obj["kind"], p=p, n=n)

    @staticmethod
    def parse(text: str) -> "RingDescriptor":
        """The ring a name such as 'IntInf', 'FpTriv(3)' or 'ZmodQuot(6)' names.

        After surrounding whitespace is stripped, a name is exactly IntInf,
        IntTriv, or Kind(d) for the three other kinds, with d ASCII digits,
        no more of them than MAX_MODULUS has; anything else, and anything
        that is not a str, raises UnsupportedRing.  Descriptors are
        immutable, so every call with one name returns the same instance
        while the name is in _PARSED; a rejected name raises on every call
        and is never stored.
        """
        if not isinstance(text, str):
            raise UnsupportedRing(f"a ring name is a str, not a {type(text).__name__}")
        ring = _PARSED.get(text)
        if ring is None:
            name = _RING_NAME.fullmatch(text.strip())
            if name is None:
                raise UnsupportedRing(f"cannot parse ring {text.strip()!r}")
            plain, kind, digits = name.groups()
            modulus = {"p" if kind == "FpTriv" else "n": int(digits)} if kind else {}
            ring = _PARSED.store(text, RingDescriptor(plain or kind, **modulus))
        return ring

    def __str__(self):
        m = self.modulus
        return self.kind if m is None else f"{self.kind}({m})"


def int_inf() -> RingDescriptor:
    return RingDescriptor("IntInf")


def int_triv() -> RingDescriptor:
    return RingDescriptor("IntTriv")


def fp_triv(p: int) -> RingDescriptor:
    return RingDescriptor("FpTriv", p=p)


def zmod_triv(n: int) -> RingDescriptor:
    return RingDescriptor("ZmodTriv", n=n)


def zmod_quot(n: int) -> RingDescriptor:
    return RingDescriptor("ZmodQuot", n=n)

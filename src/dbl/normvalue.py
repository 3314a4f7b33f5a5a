"""Exact arithmetic for norm values of the form q^e (q, e rational).

Every such value v equals r**(1/d) for a rational r >= 0 and a least
integer d >= 1: d generates {k : v**k rational} and r = v**d.  A NormValue
stores that canonical pair, so equality compares pairs: identity first,
then d and the integer numerator and denominator of r.  Products and
powers combine pairs through the lcm of the d's; a product with the shared
NV_ONE is the other factor, one with the shared NV_ZERO is NV_ZERO, and two
rationals (d = 1) multiply their r's directly.  Comparison raises both
sides to a common power only when their d's differ, and then
cross-multiplies integers: a/b < c/e exactly when a*e < c*b.  Only
exponent denominators are factored.  Every power goes through one helper
that raises SizeExceeded past MAX_BITS bits; MAX_BITS also bounds exponent
denominators.  A value prints as its stored pair, "r" or "r^1/d", with
no search for a simpler base; exponent(p) reads e off a value p**e.

Values that happen to be rational numbers (d = 1) support exact addition;
adding anything else raises UnsupportedValue, which keeps every operation
in the library decidable.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from fractions import Fraction
from math import isqrt, lcm
from types import SimpleNamespace

from ._memo import Memo
from .errors import SizeExceeded, UnsupportedValue

MAX_BITS = 1 << 22
MEMO_FACTORS = 4096  # how many factorizations factor_int keeps

_FACTORS = Memo(MEMO_FACTORS)  # the factorization of each n
_factor_calls = 0  # calls of factor_int, for factor_int.cache_info


def factor_int(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of a positive integer by trial division, kept in _FACTORS."""
    global _factor_calls
    _factor_calls += 1
    factors = _FACTORS.get(n)
    if factors is not None:
        return factors
    if n <= 0:
        raise ValueError("factor_int needs a positive integer")
    out, m = [], n
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return _FACTORS.store(n, tuple(out))


# factor_int's hits and misses, as functools' caches report them, for dblbench's tracer
factor_int.cache_info = lambda: SimpleNamespace(hits=_factor_calls - _FACTORS.misses, misses=_FACTORS.misses)


def _power(q: Fraction, k: int) -> Fraction:
    """q**k for an integer k; SizeExceeded if a part would pass MAX_BITS bits."""
    if k == 1:
        return q
    # 2**(bits-1) <= part < 2**bits: what passes has fewer than 2*MAX_BITS bits
    bits = max(q.numerator.bit_length(), q.denominator.bit_length())
    if (bits - 1) * abs(k) >= MAX_BITS:
        raise SizeExceeded(f"a power of more than {MAX_BITS} bits")
    return q**k


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0 and k >= 1, by Newton's method from above."""
    if n < 2 or k == 1:
        return n
    if k == 2:
        return isqrt(n)
    # start from the root of n's top bits when the root has bits to spare
    b = n.bit_length()
    m = b // k // 2
    x = (_iroot(n >> (k * m), k) + 1) << m if m else 1 << -(-b // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _root(q: Fraction, k: int) -> Fraction | None:
    """The k-th root of q >= 0 when it is rational, else None."""
    num = _iroot(q.numerator, k)
    if num**k == q.numerator:
        den = _iroot(q.denominator, k)
        if den**k == q.denominator:
            return Fraction(num, den)
    return None


def _valuation(a: int, p: int) -> tuple[int, int]:
    """(v, a // p**v) for the largest v with p**v dividing a != 0, p >= 2.

    Divides by p, p**2, p**4, ... while they divide, then by the same
    powers back down: O(log v) divisions, not v.
    """
    powers, q = [], p
    while a % q == 0:
        a //= q
        powers.append(q)
        q *= q
    v = (1 << len(powers)) - 1
    for i in reversed(range(len(powers))):
        if a % powers[i] == 0:
            a //= powers[i]
            v += 1 << i
    return v, a


# str(int) refuses integers of more than sys.get_int_max_str_digits()
# digits (4300 by default, never below 640 unless unlimited); larger ones
# are converted by halves in Decimal, which is also fast where plain
# str(int) is quadratic.
_SHORT = 10**600  # integers below it print with str()
_DECIMAL = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)  # exact on ints


def _to_digits(n: int) -> str:
    """str(n) for an integer n >= 0 of any size."""
    if n < _SHORT:
        return str(n)
    # n = hi * 2**k + lo, summed in Decimal, whose multiplication is
    # subquadratic; pows[m] = 2**(1024 << m), and a part below
    # 2**(1024 << m) splits at k = 1024 << (m - 1)
    pows = [Decimal(1 << 1024)]
    while 1024 << len(pows) < n.bit_length():
        pows.append(_DECIMAL.multiply(pows[-1], pows[-1]))

    def convert(x: int, m: int) -> Decimal:
        if m == 0:
            return Decimal(x)
        k = 1024 << (m - 1)
        hi, lo = x >> k, x & ((1 << k) - 1)
        return _DECIMAL.add(
            _DECIMAL.multiply(convert(hi, m - 1), pows[m - 1]), convert(lo, m - 1)
        )

    return str(convert(n, len(pows)))


def _ratio(q: Fraction) -> str:
    return f"{_to_digits(q.numerator)}/{_to_digits(q.denominator)}"


class NormValue:
    """An exact nonnegative real r**(1/d), totally ordered."""

    __slots__ = ("_r", "_d")

    def __init__(self, r: Fraction, d: int = 1):
        """The value r**(1/d) for a Fraction r >= 0 and an integer d >= 1."""
        if d > MAX_BITS:
            raise SizeExceeded(f"exponent denominator {d} > {MAX_BITS}")
        if d > 1:
            for p, _ in factor_int(d):
                while d % p == 0:
                    root = _root(r, p)
                    if root is None:
                        break
                    r, d = root, d // p
        self._r = r
        self._d = d

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_fraction(q) -> "NormValue":
        q = Fraction(q)
        if q.numerator < 0:
            raise ValueError("norm values are nonnegative")
        return NormValue(q)

    @staticmethod
    def from_pow(base, exponent) -> "NormValue":
        """The value base**exponent with base a positive rational."""
        base = Fraction(base)
        exponent = Fraction(exponent)
        if base <= 0:
            raise ValueError("base must be positive")
        if base == 1 or exponent == 0:
            return _ONE
        return NormValue(_power(base, exponent.numerator), exponent.denominator)

    # -- predicates ---------------------------------------------------

    # r >= 0, so r is 0 exactly when its numerator is
    @property
    def is_zero(self) -> bool:
        return self._r.numerator == 0

    @property
    def is_one(self) -> bool:
        r = self._r
        return r.numerator == 1 and r.denominator == 1

    def bit_length(self) -> int:
        """The bits of r's numerator and denominator: the size of the value."""
        return self._r.numerator.bit_length() + self._r.denominator.bit_length()

    def as_fraction(self) -> Fraction:
        if self._d != 1:
            raise UnsupportedValue(f"{self} is irrational")
        return self._r

    def exponent(self, p: int) -> Fraction | None:
        """The e with self == p**e for a prime p, or None: r is p**j or 1/p**j."""
        if p < 2:
            raise ValueError("exponent needs a prime p")
        r = self._r
        if r == 0 or min(r.numerator, r.denominator) > 1:
            return None
        j, rest = _valuation(r.numerator * r.denominator, p)
        return Fraction(j if r.denominator == 1 else -j, self._d) if rest == 1 else None

    # -- arithmetic ----------------------------------------------------

    def __mul__(self, other: "NormValue") -> "NormValue":
        if self is _ONE or other is _ZERO:
            return other
        if other is _ONE or self is _ZERO:
            return self
        if self._d == other._d == 1:
            return NormValue(self._r * other._r)
        d = lcm(self._d, other._d)
        r = _power(self._r, d // self._d) * _power(other._r, d // other._d)
        return NormValue(r, d)

    def __pow__(self, exponent) -> "NormValue":
        exponent = Fraction(exponent)
        if self._r == 0 and exponent <= 0:
            raise ValueError("0**e needs e > 0")
        return NormValue(
            _power(self._r, exponent.numerator), self._d * exponent.denominator
        )

    def __add__(self, other: "NormValue") -> "NormValue":
        # Sums are only exact for rational values; everything that needs
        # addition (Archimedean bounds) is restricted to those.
        return NormValue.from_fraction(self.as_fraction() + other.as_fraction())

    # -- total order ----------------------------------------------------

    def compare(self, other: "NormValue") -> int:
        """-1, 0, or 1 as self <, =, > other."""
        a, b = self._r, other._r
        if self._d != other._d:
            d = lcm(self._d, other._d)
            a = _power(a, d // self._d)
            b = _power(b, d // other._d)
        # a < b exactly when a.num * b.den < b.num * a.den (denominators > 0)
        x = a.numerator * b.denominator
        y = b.numerator * a.denominator
        return (x > y) - (x < y)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, NormValue):
            return NotImplemented
        a, b = self._r, other._r
        return self._d == other._d and a.numerator == b.numerator and a.denominator == b.denominator

    def __hash__(self):
        return hash((self._r, self._d))

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    # -- presentation ----------------------------------------------------

    def __repr__(self):
        r = self._r
        # str(Fraction): "n", or "n/d" when d > 1
        text = _to_digits(r.numerator) if r.denominator == 1 else _ratio(r)
        return f"NormValue({text})" if self._d == 1 else f"NormValue({text}^1/{self._d})"

    def to_json(self):
        if self._r == 0:
            return {"kind": "zero"}
        if self._d == 1:
            return {"kind": "rational", "value": _ratio(self._r)}
        return {"kind": "pow", "base": _ratio(self._r), "exp": f"1/{self._d}"}


_ZERO = NormValue(Fraction(0))
_ONE = NormValue(Fraction(1))

NV_ZERO = _ZERO
NV_ONE = _ONE


def nv_max(values, default=None):
    out = default
    for v in values:
        if out is None or v.compare(out) > 0:
            out = v
    if out is None:
        raise ValueError("nv_max of empty sequence needs a default")
    return out


def nv_sum(values) -> NormValue:
    total = Fraction(0)
    for v in values:
        total += v.as_fraction()
    return NormValue.from_fraction(total)

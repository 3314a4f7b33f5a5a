import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dbl.errors import SizeExceeded, UnsupportedValue
from dbl.normvalue import (
    MAX_BITS,
    NV_ONE,
    NV_ZERO,
    NormValue,
    factor_int,
    nv_max,
    nv_sum,
)
from dbl.scalars import int_inf
from dbl.spectrum import BasePoint, base_eval


@contextmanager
def any_digit_count():
    """Lift Python's limit on the digits of str(int), restored afterwards."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class VecNormValue:
    """Reference: a norm value as its vector of prime exponents.

    The value prod p**e_p is kept as the sorted pairs (p, e_p), built by
    factoring every numerator and denominator; products add vectors and
    comparison clears the exponent denominators.
    """

    def __init__(self, zero, vec):
        self._zero = zero
        self._vec = vec

    @staticmethod
    def _factor(q):
        vec = {}
        for p, e in factor_int(q.numerator):
            vec[p] = vec.get(p, Fraction(0)) + e
        for p, e in factor_int(q.denominator):
            vec[p] = vec.get(p, Fraction(0)) - e
        return {p: e for p, e in vec.items() if e != 0}

    @staticmethod
    def from_fraction(q):
        q = Fraction(q)
        if q == 0:
            return VecNormValue(True, ())
        return VecNormValue(False, tuple(sorted(VecNormValue._factor(q).items())))

    @staticmethod
    def from_pow(base, exponent):
        base, exponent = Fraction(base), Fraction(exponent)
        if base == 1 or exponent == 0:
            return VecNormValue(False, ())
        vec = {p: e * exponent for p, e in VecNormValue._factor(base).items()}
        return VecNormValue(False, tuple(sorted(vec.items())))

    def pair(self):
        """(r, d) with the value r**(1/d): d is the lcm of the exponent denominators."""
        d = lcm(1, *(e.denominator for _, e in self._vec))
        r = Fraction(1)
        for p, e in self._vec:
            r *= Fraction(p) ** int(e * d)
        return r, d

    def __mul__(self, other):
        if self._zero or other._zero:
            return VecNormValue(True, ())
        vec = dict(self._vec)
        for p, e in other._vec:
            s = vec.get(p, Fraction(0)) + e
            if s == 0:
                vec.pop(p, None)
            else:
                vec[p] = s
        return VecNormValue(False, tuple(sorted(vec.items())))

    def __pow__(self, exponent):
        exponent = Fraction(exponent)
        if self._zero:
            if exponent <= 0:
                raise ValueError("0**e needs e > 0")
            return self
        if exponent == 0:
            return VecNormValue(False, ())
        return VecNormValue(False, tuple((p, e * exponent) for p, e in self._vec))

    def compare(self, other):
        if self._zero or other._zero:
            return other._zero - self._zero
        diff = dict(self._vec)
        for p, e in other._vec:
            s = diff.get(p, Fraction(0)) - e
            if s == 0:
                diff.pop(p, None)
            else:
                diff[p] = s
        den = 1
        for e in diff.values():
            den = den * e.denominator // gcd(den, e.denominator)
        num = inv = 1
        for p, e in diff.items():
            m = int(e * den)
            if m > 0:
                num *= p**m
            else:
                inv *= p ** (-m)
        return (num > inv) - (num < inv)

    def __eq__(self, other):
        return self._zero == other._zero and self._vec == other._vec

    @any_digit_count()
    def __repr__(self):
        if self._zero:
            return "NormValue(0)"
        r, d = self.pair()
        return f"NormValue({r})" if d == 1 else f"NormValue({r}^1/{d})"

    @any_digit_count()
    def to_json(self):
        if self._zero:
            return {"kind": "zero"}
        r, d = self.pair()
        if d == 1:
            return {"kind": "rational", "value": f"{r.numerator}/{r.denominator}"}
        return {"kind": "pow", "base": f"{r.numerator}/{r.denominator}", "exp": f"1/{d}"}


def test_compare_examples():
    # 7^(1/2) vs 3: cross-exponentiation compares 7^1 with 3^2 = 9
    assert NormValue.from_pow(7, Fraction(1, 2)).compare(NormValue.from_fraction(3)) < 0
    assert NV_ZERO.compare(NV_ONE) < 0 < NV_ONE.compare(NV_ZERO)
    assert NormValue.from_pow(2, Fraction(3, 2)).compare(NormValue.from_pow(2, Fraction(3, 2))) == 0
    assert NormValue.from_pow(8, Fraction(1, 2)).compare(NormValue.from_pow(2, Fraction(3, 2))) == 0


def test_zero_absorbing_and_minimal():
    v = NormValue.from_pow(5, Fraction(2, 3))
    assert (NV_ZERO * v).is_zero
    assert NV_ZERO < v
    assert NV_ZERO < NV_ONE


def test_multiplication_exact():
    a = NormValue.from_pow(2, Fraction(1, 2))
    assert a * a == NormValue.from_fraction(2)
    b = NormValue.from_pow(3, Fraction(1, 3))
    assert (b * b * b) == NormValue.from_fraction(3)
    # mixed bases multiply through the lcm of the exponent denominators
    assert a * b == NormValue.from_pow(2, Fraction(1, 2)) * NormValue.from_pow(3, Fraction(1, 3))


def test_rational_detection_and_addition():
    q = NormValue.from_fraction(Fraction(3, 4))
    r = NormValue.from_fraction(Fraction(1, 4))
    assert (q + r) == NV_ONE
    irr = NormValue.from_pow(2, Fraction(1, 2))
    with pytest.raises(UnsupportedValue):
        irr.as_fraction()
    with pytest.raises(UnsupportedValue):
        _ = irr + q


def test_values_print_their_stored_pair():
    assert NormValue.from_pow(4, Fraction(1, 2)) == NormValue.from_fraction(2)
    assert repr(NormValue.from_pow(3, -1)) == "NormValue(1/3)"
    assert repr(NormValue.from_fraction(4)) == "NormValue(4)"
    v = NormValue.from_pow(2, Fraction(3, 2))
    assert repr(v) == "NormValue(8^1/2)"
    assert v.to_json() == {"kind": "pow", "base": "8/1", "exp": "1/2"}


def test_no_perfect_power_search_is_left():
    # a value prints its stored pair and reads p's exponent off it, so the
    # public methods hold no search for a simpler base
    public = {name for name in dir(NormValue) if not name.startswith("_")}
    assert public == {
        "as_fraction", "bit_length", "compare", "exponent", "from_fraction",
        "from_pow", "is_one", "is_zero", "to_json",
    }


def test_from_json_reads_old_and_new_pow_forms_alike():
    # 2**(3/2) = 8**(1/2): the old print searched for the base 2, the new
    # one writes the stored pair; from_pow stores either form as that pair
    old = NormValue.from_pow(2, Fraction(3, 2))
    new = NormValue.from_pow(8, Fraction(1, 2))
    assert old == new
    assert old.to_json() == new.to_json() == {"kind": "pow", "base": "8/1", "exp": "1/2"}


def test_exponent_reads_a_power_of_p():
    for p, e in ((2, Fraction(3, 2)), (3, Fraction(-5, 7)), (7, 4), (5, -1), (2, 0)):
        assert NormValue.from_pow(p, e).exponent(p) == e
    for v in (NV_ZERO, NormValue.from_fraction(6), NormValue.from_pow(Fraction(2, 3), 1),
              NormValue.from_pow(3, Fraction(1, 2))):
        assert v.exponent(2) is None
    with pytest.raises(ValueError):
        NV_ONE.exponent(1)


def test_large_irrational_value_prints_at_once():
    # r of 32768 bits that is no cube: the value r**(1/3) prints as that pair
    r = (1 << 32767) + 3
    v = NormValue.from_pow(r, Fraction(1, 3))
    with any_digit_count():
        digits = str(r)
    got = answered_within_a_second(lambda: (v.to_json(), repr(v)))
    assert got == ({"kind": "pow", "base": f"{digits}/1", "exp": "1/3"}, f"NormValue({digits}^1/3)")


def test_json_roundtrip():
    # a report's norm value reads back as its value, or as base**exp
    def read(obj):
        if obj["kind"] == "zero":
            return NV_ZERO
        if obj["kind"] == "rational":
            return NormValue.from_fraction(Fraction(obj["value"]))
        return NormValue.from_pow(Fraction(obj["base"]), Fraction(obj["exp"]))

    for v in (NV_ZERO, NV_ONE, NormValue.from_fraction(Fraction(7, 5)), NormValue.from_pow(2, Fraction(2, 3))):
        assert read(v.to_json()) == v


fractions = st.fractions(min_value=Fraction(1, 6), max_value=9, max_denominator=6)
exponents = st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4)
values = st.one_of(
    st.just(NV_ZERO),
    st.builds(NormValue.from_pow, fractions, exponents),
)


@given(values, values)
@settings(max_examples=150, deadline=None)
def test_order_antisymmetric(u, v):
    cu, cv = u.compare(v), v.compare(u)
    assert cu == -cv


@given(values, values, values)
@settings(max_examples=150, deadline=None)
def test_order_transitive(u, v, w):
    if u <= v and v <= w:
        assert u <= w


@given(values, values)
@settings(max_examples=150, deadline=None)
def test_mul_respects_order_oracle(u, v):
    # float logarithms as an independent (approximate) cross-check of compare
    import math

    def approx(x):
        if x.is_zero:
            return float("-inf")
        obj = x.to_json()
        if obj["kind"] == "rational":
            return math.log(Fraction(obj["value"]))
        return math.log(Fraction(obj["base"])) / Fraction(obj["exp"]).denominator

    got = u.compare(v)
    lo, hi = approx(u), approx(v)
    if abs(lo - hi) > 1e-9:
        assert got == (-1 if lo < hi else 1)


def test_nv_max_and_sum():
    a, b = NormValue.from_fraction(2), NormValue.from_fraction(5)
    assert nv_max([a, b]) == b
    assert nv_sum([a, b]) == NormValue.from_fraction(7)
    assert nv_max([], default=NV_ZERO) == NV_ZERO


factors = st.one_of(
    st.tuples(
        st.just("fraction"),
        st.fractions(min_value=0, max_value=60, max_denominator=12),
    ),
    st.tuples(
        st.just("pow"),
        st.fractions(min_value=Fraction(1, 12), max_value=60, max_denominator=12),
        st.fractions(min_value=-6, max_value=6, max_denominator=9),
    ),
)
products = st.lists(factors, min_size=1, max_size=3)


def build(cls, product):
    out = None
    for kind, *args in product:
        v = cls.from_fraction(*args) if kind == "fraction" else cls.from_pow(*args)
        out = v if out is None else out * v
    return out


def raised(v, e):
    try:
        return (v**e).to_json()
    except ValueError:
        return "ValueError"


@given(products, products, st.fractions(min_value=-4, max_value=4, max_denominator=6))
@settings(max_examples=300, deadline=None)
# u prints a base of 6145 digits, past Python's default str(int) limit
@example(
    [("pow", Fraction(1, 12), Fraction(1, 7)), ("pow", Fraction(1, 12), Fraction(1, 8)),
     ("pow", Fraction(557, 12), Fraction(28, 9))],
    [("fraction", Fraction(0))],
    Fraction(0),
)
def test_pair_matches_exponent_vector_reference(pu, pv, e):
    u, v = build(NormValue, pu), build(NormValue, pv)
    ru, rv = build(VecNormValue, pu), build(VecNormValue, pv)
    assert u.to_json() == ru.to_json()
    assert repr(u) == repr(ru)
    assert (u == v) == (ru == rv)
    assert u != v or hash(u) == hash(v)
    assert u.compare(v) == ru.compare(rv)
    assert raised(u, e) == raised(ru, e)


def answered_within_a_second(fn):
    started = time.perf_counter()
    out = fn()
    assert time.perf_counter() - started < 1.0
    return out


def test_large_semiprime_norm_is_answered():
    n = 1000000007 * 998244353
    v = answered_within_a_second(lambda: NormValue.from_fraction(n))
    assert v.to_json() == {"kind": "rational", "value": f"{n}/1"}
    assert answered_within_a_second(lambda: int_inf().norm(-n)) == v
    root = answered_within_a_second(
        lambda: base_eval(BasePoint.arch(Fraction(1, 2)), int_inf(), n)
    )
    assert root * root == v


def test_large_valuation_is_answered():
    v = answered_within_a_second(lambda: base_eval(BasePoint.padic(2, 1), int_inf(), 2**200000))
    assert v == NormValue.from_pow(2, -200000)


def test_large_exponent_denominators_compare():
    u = NormValue.from_pow(2, Fraction(1, 10**6))
    v = NormValue.from_pow(3, Fraction(1, 10**6 + 3))
    assert answered_within_a_second(lambda: u.compare(v)) == -1


def test_size_bounds():
    for make in (
        lambda: NormValue.from_pow(2, 10**9),
        lambda: NormValue.from_pow(2, Fraction(1, 10**18 + 3)),
        lambda: NormValue.from_fraction(2) ** Fraction(1, 10**18 + 3),
    ):
        started = time.perf_counter()
        with pytest.raises(SizeExceeded):
            make()
        assert time.perf_counter() - started < 1.0


# Pairs (r, d) for the value r**(1/d), with parts of several hundred bits.
parts = st.integers(min_value=1, max_value=1 << 600)
pairs = st.tuples(
    st.one_of(st.just(Fraction(0)), st.builds(Fraction, parts, parts)),
    st.integers(min_value=1, max_value=6),
)


def fraction_key(pairs_, D):
    """r**(D/d) for each pair: the D-th powers, ordered as the values are."""
    return [r ** (D // d) for r, d in pairs_]


@given(pairs, pairs, st.sampled_from(["any", "same d", "same value"]))
@settings(max_examples=300, deadline=None)
def test_compare_matches_fraction_order(a, b, relation):
    if relation == "same d":
        b = (b[0], a[1])
    elif relation == "same value":
        b = a
    ka, kb = fraction_key([a, b], lcm(a[1], b[1]))
    u, v = NormValue(*a), NormValue(*b)
    want = (ka > kb) - (ka < kb)
    assert u.compare(v) == want and v.compare(u) == -want
    assert (u < v, u == v, u > v) == (ka < kb, ka == kb, ka > kb)


@given(st.lists(pairs, min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_nv_max_is_max_under_fraction_order(pairs_):
    D = lcm(*(d for _, d in pairs_))
    keys = fraction_key(pairs_, D)
    top = max(range(len(pairs_)), key=keys.__getitem__)
    assert nv_max(NormValue(*p) for p in pairs_) == NormValue(*pairs_[top])


def decimal_oracle(n):
    """The decimal digits of n >= 0, by divmod in chunks that str() accepts."""
    chunks = []
    while n >= 10**1000:
        n, low = divmod(n, 10**1000)
        chunks.append(str(low).zfill(1000))
    return str(n) + "".join(reversed(chunks))


# up to 700 digits, or around str()'s default limit of 4300 digits
numerals = st.one_of(
    st.integers(min_value=1, max_value=10**700),
    st.integers(min_value=10**4290, max_value=10**4400),
)


@given(numerals, numerals)
@settings(max_examples=60, deadline=None)
def test_json_prints_decimal_digits_past_the_str_limit(num, den):
    q = Fraction(num, den)
    v = NormValue.from_fraction(q)
    want = f"{decimal_oracle(q.numerator)}/{decimal_oracle(q.denominator)}"
    assert v.to_json() == {"kind": "rational", "value": want}


def test_json_past_4300_digits():
    # the base 2 * 3**9100 has 4343 digits, over str()'s default limit
    base = 2 * 3**9100
    v = NormValue.from_pow(base, Fraction(1, 2))
    assert v.to_json() == {"kind": "pow", "base": f"{decimal_oracle(base)}/1", "exp": "1/2"}
    assert repr(v) == f"NormValue({decimal_oracle(base)}^1/2)"


def test_json_roundtrip_near_max_bits():
    q = Fraction((1 << (MAX_BITS - 2)) + 12345, 3**1001)
    v = NormValue.from_fraction(q)
    text = v.to_json()["value"]
    num, den = text.split("/")
    assert num[-30:] == str(q.numerator % 10**30).zfill(30)
    assert den == decimal_oracle(q.denominator)


def test_bit_length_counts_both_parts_of_r():
    assert NormValue.from_fraction(Fraction(3, 4)).bit_length() == 2 + 3
    assert NormValue.from_pow(2, Fraction(1, 2)).bit_length() == 2 + 1
    assert NV_ZERO.bit_length() == 0 + 1


def test_reference_restores_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    v = VecNormValue.from_pow(2 * 3**9100, Fraction(1, 2))
    assert v.to_json()["base"] == f"{decimal_oracle(2 * 3**9100)}/1"
    assert repr(v).startswith("NormValue(")
    assert sys.get_int_max_str_digits() == limit


def test_products_with_shared_one_and_zero_return_a_factor(monkeypatch):
    v = NormValue.from_pow(2, Fraction(1, 3))
    built = []
    init = NormValue.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(NormValue, "__init__", counted)
    assert NV_ONE * v is v and v * NV_ONE is v
    assert v * NV_ZERO is NV_ZERO and NV_ZERO * v is NV_ZERO
    assert NV_ONE * NV_ZERO is NV_ZERO and NV_ZERO * NV_ONE is NV_ZERO
    assert built == []
    # a 1 or 0 that is not the shared value takes the general path, same value
    assert NormValue(Fraction(1)) * v == v and v * NormValue(Fraction(0)) == NV_ZERO
    assert built


def test_equal_values_that_are_not_shared_compare_and_hash_alike():
    pairs = [
        (NormValue.from_pow(8, Fraction(1, 2)), NormValue.from_pow(2, Fraction(3, 2))),
        (NormValue(Fraction(1)), NV_ONE),
        (NormValue(Fraction(0)), NV_ZERO),
        (NormValue.from_fraction(Fraction(6, 4)), NormValue.from_pow(Fraction(9, 4), Fraction(1, 2))),
    ]
    for u, v in pairs:
        assert u is not v
        assert u == v and v == u and not u != v
        assert hash(u) == hash(v)
    assert NormValue.from_fraction(2) != NormValue.from_pow(4, Fraction(1, 3))
    assert NormValue.from_fraction(Fraction(2, 3)) != NormValue.from_fraction(Fraction(2, 5))
    assert NormValue.from_fraction(3) != 3


rationals = st.fractions(min_value=0, max_value=10**6, max_denominator=10**6)


@given(rationals, rationals)
@settings(max_examples=200, deadline=None)
def test_rational_products_match_the_general_path(a, b):
    u, v = NormValue.from_fraction(a), NormValue.from_fraction(b)
    # square roots of non-squares have d = 2, so their product takes the lcm path
    half = Fraction(1, 2)
    general = (u**half * v**half) ** 2
    product = u * v
    assert product.as_fraction() == a * b
    assert product == general == NormValue.from_fraction(a * b)
    assert hash(product) == hash(general)
    assert product.to_json() == general.to_json()


def test_zero_and_one_read_both_parts_of_r():
    cases = (
        (NV_ZERO, True, False),
        (NormValue(Fraction(0)), True, False),
        (NV_ONE, False, True),
        (NormValue.from_pow(5, 0), False, True),
        (NormValue.from_fraction(Fraction(1, 2)), False, False),
        (NormValue.from_fraction(2), False, False),
        (NormValue.from_pow(2, Fraction(-1, 3)), False, False),
        (NormValue.from_pow(3, Fraction(1, 2)), False, False),
    )
    for v, zero, one in cases:
        assert (v.is_zero, v.is_one) == (zero, one)

import time
from fractions import Fraction

import pytest

from dbl import scalars
from dbl.errors import ElementOutOfRange, SizeExceeded, UnsupportedRing
from dbl.normvalue import NV_ONE, NV_ZERO, NormValue
from dbl.scalars import (
    MAX_ELEMENTS,
    RingDescriptor,
    fp_triv,
    int_inf,
    int_triv,
    zmod_quot,
    zmod_triv,
)
from oracles import validate_ring


# ring objects as a request gives them, keyed by ring name
RING_OBJECTS = {
    "IntInf": {"kind": "IntInf"},
    "IntTriv": {"kind": "IntTriv"},
    "FpTriv(3)": {"kind": "FpTriv", "p": 3},
    "FpTriv(5)": {"kind": "FpTriv", "p": 5},
    "ZmodTriv(1)": {"kind": "ZmodTriv", "n": 1},
    "ZmodTriv(6)": {"kind": "ZmodTriv", "n": 6},
    "ZmodQuot(5)": {"kind": "ZmodQuot", "n": 5},
    "ZmodQuot(6)": {"kind": "ZmodQuot", "n": 6},
}


def scan_quotient_norm(n, a):
    # independent oracle: scan representatives a + kn for k in [-10, 10]
    return NormValue.from_fraction(min(abs(a + k * n) for k in range(-10, 11)))


def test_norm_examples():
    assert int_inf().norm(-7) == NormValue.from_fraction(7)
    assert int_triv().norm(42) == NV_ONE
    assert zmod_quot(5).norm(4) == scan_quotient_norm(5, 4) == NV_ONE


def test_quotient_norm_examples():
    assert zmod_quot(5).norm(0) == NV_ZERO
    assert zmod_quot(5).norm(3) == NormValue.from_fraction(2)
    assert zmod_quot(2).norm(1) == NV_ONE


def test_quotient_norm_matches_scan_oracle():
    for n in (2, 3, 5, 6, 12):
        for a in range(n):
            assert zmod_quot(n).norm(a) == scan_quotient_norm(n, a)


def test_quotient_norm_below_representatives():
    # |a mod n| <= |r| for every representative r = a + kn, |r| <= 3n
    for n in (4, 5, 7):
        for a in range(n):
            q = zmod_quot(n).norm(a)
            for r in range(-3 * n, 3 * n + 1):
                if (r - a) % n == 0:
                    assert q <= int_inf().norm(r)


def test_element_bounds():
    with pytest.raises(ElementOutOfRange):
        zmod_quot(5).norm(5)
    with pytest.raises(ElementOutOfRange):
        zmod_quot(5).norm(-1)


def test_ring_parse_and_json():
    for text in ("IntInf", "IntTriv", "FpTriv(3)", "ZmodTriv(6)", "ZmodQuot(5)"):
        r = RingDescriptor.parse(text)
        assert str(r) == text
        assert RingDescriptor.from_json(RING_OBJECTS[text]) == r
    # a name is IntInf, IntTriv or Kind(d) with d ASCII digits, and no more
    # of them than MAX_MODULUS has; surrounding whitespace is stripped
    assert RingDescriptor.parse(" FpTriv(3)\n") == fp_triv(3)
    assert RingDescriptor.parse("ZmodTriv(0004)") == zmod_triv(4)
    for text in (
        "NumberField(5)",
        "FpTriv(3",
        "ZmodTriv(4))))",
        "ZmodTriv(1_6)",
        "FpTriv(+3)",
        "ZmodTriv(\u0664)",  # an Arabic-Indic digit four
        "FpTriv(3)x",
        "FpTriv( 3 )",
        "FpTriv()",
        "IntInf()",
        "IntInf(3)",
        "ZmodTriv(-1)",
        "ZmodTriv(" + "0" * 10 + "4)",
        "zmodtriv(4)",
    ):
        with pytest.raises(UnsupportedRing):
            RingDescriptor.parse(text)
    with pytest.raises(UnsupportedRing):
        fp_triv(6)


def test_parse_shares_one_descriptor_per_name():
    rings = (
        int_inf(),
        int_triv(),
        fp_triv(3),
        zmod_triv(6),
        zmod_quot(5),
        fp_triv(65521),
        zmod_quot(2**32),
    )
    for r in rings:
        assert RingDescriptor.parse(str(r)) is RingDescriptor.parse(str(r))
        assert RingDescriptor.parse(str(r)) == r
    # a rejected name raises on every call and takes no place in the table
    stored = len(scalars._PARSED)
    for text in ("FpTriv(4)", "ZmodTriv(0)", "FpTriv(3"):
        for _ in range(2):
            with pytest.raises(UnsupportedRing):
                RingDescriptor.parse(text)
    assert len(scalars._PARSED) == stored


def test_parse_rejects_a_name_that_is_no_str_before_the_table():
    for bad in (["IntInf"], 3, None, b"IntInf", ("IntInf",)):
        with pytest.raises(UnsupportedRing, match="a ring name is a str"):
            RingDescriptor.parse(bad)


@pytest.mark.parametrize(
    "obj, unused",
    [
        ({"kind": "IntInf", "p": 7}, "p"),
        ({"kind": "IntTriv", "n": 7}, "n"),
        ({"kind": "FpTriv", "p": 7, "n": 7}, "n"),
        ({"kind": "ZmodTriv", "n": 6, "p": 2}, "p"),
        ({"kind": "ZmodQuot", "n": 6, "p": 3}, "p"),
    ],
)
def test_ring_rejects_a_parameter_its_kind_does_not_use(obj, unused):
    # otherwise {"kind": "IntInf", "p": 7} would print as IntInf but differ
    # from int_inf()
    with pytest.raises(UnsupportedRing, match=f"{obj['kind']} takes no {unused}$"):
        RingDescriptor.from_json(obj)


def test_flags():
    assert int_inf().ordered_ring and int_triv().ordered_ring
    assert not zmod_triv(6).ordered_ring
    assert int_triv().non_archimedean and not int_inf().non_archimedean
    assert not zmod_quot(5).non_archimedean
    assert int_inf().spectrum_connected
    assert zmod_triv(4).spectrum_connected  # prime power
    assert not zmod_triv(6).spectrum_connected
    assert zmod_triv(6).nontrivial_idempotent() in (3, 4)
    assert zmod_triv(1).is_zero_ring


def test_validate_ring_passes():
    rep = validate_ring(int_inf(), 50)
    assert rep["submultiplicative"] and rep["triangle"] == "weak"
    rep = validate_ring(int_triv(), 50)
    assert rep["triangle"] == "strong"
    validate_ring(zmod_quot(6), 6)
    validate_ring(zmod_triv(6), 6)
    validate_ring(fp_triv(7), 7)


def test_multiplicativity_on_z_rings():
    # |ab| = |a||b| exactly for the Euclidean and trivial norms
    for ring in (int_inf(), int_triv()):
        for a in range(-6, 7):
            for b in range(-6, 7):
                assert ring.norm(a * b) == ring.norm(a) * ring.norm(b)


def test_norm_definiteness_exhaustive():
    for ring in (int_inf(), int_triv(), fp_triv(5), zmod_triv(8), zmod_quot(9)):
        for a in ring.elements(10):
            assert (ring.norm(a) == NV_ZERO) == (a == 0)


def test_nontrivial_idempotent_is_the_least_one():
    for n in range(1, 400):
        scan = next((e for e in range(2, n) if (e * e - e) % n == 0), None)
        assert zmod_triv(n).nontrivial_idempotent() == scan
    assert int_inf().nontrivial_idempotent() is None
    assert fp_triv(7).nontrivial_idempotent() is None


def test_nontrivial_idempotent_under_the_modulus_cap_is_quick():
    started = time.perf_counter()
    assert zmod_triv(2 * (2**31 - 1)).nontrivial_idempotent() == 2**31 - 1
    assert time.perf_counter() - started < 1.0


def test_element_samples_stop_at_max_elements():
    assert len(zmod_triv(MAX_ELEMENTS).elements(0)) == MAX_ELEMENTS
    assert len(int_inf().elements(MAX_ELEMENTS // 2 - 1)) == MAX_ELEMENTS - 1
    for ring, bound in ((fp_triv(65537), 0), (zmod_quot(2**32), 0), (int_triv(), MAX_ELEMENTS // 2)):
        with pytest.raises(SizeExceeded):
            ring.elements(bound)


@pytest.mark.parametrize(
    "ring, modulus, one",
    [
        (int_inf(), None, 1),
        (int_triv(), None, 1),
        (fp_triv(5), 5, 1),
        (zmod_triv(6), 6, 1),
        (zmod_quot(6), 6, 1),
        (zmod_triv(1), 1, 0),
    ],
    ids=str,
)
def test_cached_ring_fields_leave_the_value_alone(ring, modulus, one):
    import dataclasses

    fresh = RingDescriptor.from_json(RING_OBJECTS[str(ring)])
    before = (hash(ring), repr(ring), str(ring))
    assert (ring.modulus, ring.one) == (modulus, one)
    assert (ring.modulus, ring.one) == (modulus, one)  # now cached
    assert (hash(ring), repr(ring), str(ring)) == before
    assert ring == fresh and fresh == ring and hash(fresh) == hash(ring)
    assert len({ring, fresh}) == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        ring.kind = "IntInf"
    assert ring.mul(5, 7) == (35 if modulus is None else 35 % modulus)
    # reduce takes a remainder and converts nothing, so mul keeps a Fraction
    assert ring.mul(Fraction(6), 2) == (12 if modulus is None else 12 % modulus)
    assert type(ring.mul(Fraction(6), 2)) is Fraction

import re
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbl import spectrum
from dbl.errors import (
    DisconnectedSpectrum,
    ElementOutOfRange,
    NotUltrafilter,
    RingMismatch,
    UnrecognizedBasePoint,
    ValidationFailure,
)
from dbl.fixtures import double_sierpinski, glued_pairs, standard_fixture_spaces
from dbl.functions import CfinFunction, enumerate_functions
from dbl.normvalue import NV_ONE, NV_ZERO, NormValue
from dbl.scalars import fp_triv, int_inf, int_triv, zmod_quot, zmod_triv
from dbl.spaces import FiniteSpace
from dbl.spectrum import (
    MEMO_ELEMENTS,
    MEMO_KEY_BITS,
    MEMO_POINTS,
    MEMO_VALUE_BITS,
    BasePoint,
    SeminormOracle,
    SpectrumPoint,
    admissible_points,
    base_eval,
    canonical_point,
    g_inverse,
    g_split,
    gelfand_roundtrip,
    is_admissible,
)
from oracles import g_split_by_sweep, topologies, validate_point

Z = int_inf()


def test_base_point_canonicalization():
    assert BasePoint.arch(0) == BasePoint.trivial()
    assert BasePoint.padic(3, 0) == BasePoint.trivial()
    assert canonical_point(zmod_triv(5), BasePoint.trivial()) == BasePoint.residue(5)
    assert canonical_point(fp_triv(3), BasePoint.residue(3)) == BasePoint.trivial()


def test_base_eval_examples():
    assert base_eval(BasePoint.arch(1), Z, -3) == NormValue.from_fraction(3)
    assert base_eval(BasePoint.residue(2), Z, 4) == NV_ZERO
    assert base_eval(BasePoint.padic(3, Fraction(1, 2)), Z, 9) == NormValue.from_pow(3, -1)
    assert base_eval(BasePoint.arch(Fraction(1, 2)), Z, 2) == NormValue.from_pow(2, Fraction(1, 2))
    assert base_eval(BasePoint.trivial(), Z, 17) == NV_ONE


def test_eval_seminorm_examples():
    # the seminorm of a point (component, base) is base at f's value on the component
    d2 = FiniteSpace.discrete(2)
    seminorm = g_inverse(0, BasePoint.arch(1), d2, Z)
    assert seminorm(CfinFunction(d2, Z, (-3, 5))) == NormValue.from_fraction(3)
    seminorm = g_inverse(1, BasePoint.residue(2), d2, Z)
    assert seminorm(CfinFunction.constant(d2, Z, 4)) == NV_ZERO
    seminorm = g_inverse(1, BasePoint.padic(3, Fraction(1, 2)), d2, Z)
    assert seminorm(CfinFunction(d2, Z, (1, 9))) == NormValue.from_pow(Fraction(1, 3), 1)


def test_validate_point_pass_and_reject():
    assert validate_point(Z, BasePoint.arch(Fraction(1, 2)), 30)["multiplicative"]
    with pytest.raises(ValidationFailure):
        validate_point(Z, BasePoint.arch(2))
    with pytest.raises(ValidationFailure):
        validate_point(int_triv(), BasePoint.arch(1))
    validate_point(int_triv(), BasePoint.padic(2, 1))
    validate_point(zmod_triv(6), BasePoint.residue(3))
    with pytest.raises(ValidationFailure):
        validate_point(zmod_triv(6), BasePoint.residue(5))


def test_every_grid_point_validates():
    for ring in (Z, int_triv(), fp_triv(3), zmod_triv(6), zmod_quot(6)):
        for b in admissible_points(ring):
            validate_point(ring, b, 12)


def test_g_inverse_examples():
    d2 = FiniteSpace.discrete(2)
    x = g_inverse(0, BasePoint.trivial(), d2, Z)
    assert x(CfinFunction(d2, Z, (0, 5))) == NV_ZERO
    x = g_inverse(1, BasePoint.arch(1), d2, Z)
    assert x(CfinFunction(d2, Z, (2, -7))) == NormValue.from_fraction(7)
    glued = glued_pairs()
    x = g_inverse(1, BasePoint.residue(3), glued, Z)
    assert x(CfinFunction(glued, Z, (1, 6))) == NV_ZERO


def test_g_split_roundtrip_all_rings():
    spaces = (FiniteSpace.discrete(2), glued_pairs(), double_sierpinski(), FiniteSpace.sierpinski())
    for ring in (Z, int_triv(), fp_triv(3), zmod_triv(6), zmod_quot(6)):
        for space in spaces:
            for c in range(len(space.quasi_components)):
                for b in admissible_points(ring):
                    pt = g_split(g_inverse(c, b, space, ring))
                    assert pt == SpectrumPoint(c, canonical_point(ring, b))


def test_g_split_on_oracles_matches_inverse_pointwise():
    space = glued_pairs()
    for b in admissible_points(Z):
        oracle = g_inverse(0, b, space, Z)
        pt = g_split(oracle)
        rebuilt = g_inverse(pt.component, pt.base, space, Z)
        for f in enumerate_functions(space, Z, range(-3, 4)):
            assert oracle(f) == rebuilt(f)


def test_g_split_rejects_adversarial_oracles():
    space = FiniteSpace.discrete(2)
    zero_oracle = SeminormOracle(space, Z, lambda f: NV_ZERO)
    with pytest.raises(NotUltrafilter):
        g_split(zero_oracle)
    one_oracle = SeminormOracle(space, Z, lambda f: NV_ONE)
    with pytest.raises(NotUltrafilter):
        g_split(one_oracle)

    # max of two honest points: passes indicators on neither single component
    a = g_inverse(0, BasePoint.trivial(), space, Z)
    b = g_inverse(1, BasePoint.trivial(), space, Z)
    blend = SeminormOracle(space, Z, lambda f: max(a(f), b(f)))
    with pytest.raises(NotUltrafilter):
        g_split(blend)

    # right ultrafilter but constants follow no admissible point
    honest = g_inverse(0, BasePoint.arch(1), space, Z)
    squared = SeminormOracle(space, Z, lambda f: honest(f) * honest(f))
    with pytest.raises(UnrecognizedBasePoint):
        g_split(squared)


def _verdict(split, oracle):
    try:
        return split(oracle)
    except (NotUltrafilter, UnrecognizedBasePoint) as err:
        return type(err)


def test_g_split_sample_agrees_with_the_full_sweep():
    spaces = [s for n in range(5) for s in topologies(n)] + standard_fixture_spaces()
    rings = (Z, int_triv(), fp_triv(3), zmod_quot(6))
    for space in spaces:
        for ring in rings:
            for c in range(len(space.quasi_components)):
                for b in admissible_points(ring):
                    x = g_inverse(c, b, space, ring)
                    assert _verdict(g_split, x) == _verdict(g_split_by_sweep, x)

    # the oracles of test_g_split_rejects_adversarial_oracles
    d2 = FiniteSpace.discrete(2)
    a = g_inverse(0, BasePoint.trivial(), d2, Z)
    b = g_inverse(1, BasePoint.trivial(), d2, Z)
    honest = g_inverse(0, BasePoint.arch(1), d2, Z)
    for fn, want in (
        (lambda f: NV_ZERO, NotUltrafilter),
        (lambda f: NV_ONE, NotUltrafilter),
        (lambda f: max(a(f), b(f)), NotUltrafilter),
        (lambda f: honest(f) * honest(f), UnrecognizedBasePoint),
    ):
        x = SeminormOracle(d2, Z, fn)
        assert _verdict(g_split, x) == _verdict(g_split_by_sweep, x) == want

    # on no point there is no ultrafilter, whatever the oracle says
    empty = FiniteSpace(0)
    for value in (NV_ZERO, NV_ONE):
        x = SeminormOracle(empty, Z, lambda f, value=value: value)
        assert _verdict(g_split, x) == _verdict(g_split_by_sweep, x) == NotUltrafilter

    # the sample tests no union of two of four components: an oracle wrong
    # only on {1, 2} passes it, and only the sweep rejects it
    d4 = FiniteSpace.discrete(4)
    first = g_inverse(0, BasePoint.trivial(), d4, Z)
    odd = SeminormOracle(d4, Z, lambda f: NV_ONE if f.values == (0, 1, 1, 0) else first(f))
    assert g_split(odd) == SpectrumPoint(0, BasePoint.trivial())
    assert _verdict(g_split_by_sweep, odd) == NotUltrafilter


def test_g_split_tests_2k_plus_1_indicators_before_the_constants():
    for space in [*standard_fixture_spaces(), FiniteSpace.discrete(32)]:
        k = len(space.quasi_components)
        honest = g_inverse(k - 1, BasePoint.padic(2, 1), space, Z)
        calls = []
        counting = SeminormOracle(space, Z, lambda f: calls.append(f.values) or honest(f))
        assert g_split(counting) == SpectrumPoint(k - 1, BasePoint.padic(2, 1))
        e = [tuple(int(i == c) for i in range(k)) for c in range(k)]
        want = [(0,) * k, *e, *(tuple(1 - v for v in row) for row in e)]
        assert sorted(calls[: 2 * k + 1]) == sorted(want)
        assert all(len(set(values)) == 1 for values in calls[2 * k + 1 :])


def _counted_split(oracle) -> tuple:
    """g_split's verdict on the oracle, with the values it was called on."""
    calls = []
    counting = SeminormOracle(oracle.space, oracle.ring, lambda f: calls.append(f.values) or oracle(f))
    return _verdict(g_split, counting), calls


def _last_probes():
    """The probes kept for the last split."""
    (probes,) = spectrum._PROBES.values()
    return probes


def test_g_split_calls_the_oracle_alike_on_cold_and_warm_probes():
    spectrum._PROBES.clear()
    spectrum._POINT_VALUES.clear()
    for ring in (Z, fp_triv(5), zmod_triv(8), zmod_quot(9)):
        for space in (FiniteSpace.discrete(3), glued_pairs(), FiniteSpace.sierpinski()):
            for b in admissible_points(ring):
                for c in range(len(space.quasi_components)):
                    oracle = g_inverse(c, b, space, ring)
                    cold = _counted_split(oracle)
                    assert _last_probes().space is space and _last_probes().ring is ring
                    assert cold == _counted_split(oracle)
                    spectrum._PROBES.clear()
                    assert cold == _counted_split(oracle)
                    assert cold[0] == SpectrumPoint(c, canonical_point(ring, b))


def test_warm_probes_still_reject_adversarial_oracles():
    space = FiniteSpace.discrete(2)
    a = g_inverse(0, BasePoint.trivial(), space, Z)
    b = g_inverse(1, BasePoint.trivial(), space, Z)
    honest = g_inverse(0, BasePoint.arch(1), space, Z)
    adversaries = (
        (lambda f: NV_ZERO, NotUltrafilter),
        (lambda f: NV_ONE, NotUltrafilter),
        (lambda f: max(a(f), b(f)), NotUltrafilter),
        (lambda f: honest(f) * honest(f), UnrecognizedBasePoint),
    )
    cold = []
    for fn, _ in adversaries:
        spectrum._PROBES.clear()
        cold.append(_counted_split(SeminormOracle(space, Z, fn)))
    assert g_split(honest) == SpectrumPoint(0, BasePoint.arch(1))  # warms (space, Z)
    warm = [_counted_split(SeminormOracle(space, Z, fn)) for fn, _ in adversaries]
    assert warm == cold
    assert [verdict for verdict, _ in warm] == [want for _, want in adversaries]


def test_g_split_rejects_an_oracle_that_gives_none_where_the_memo_has_no_value():
    space, trivial = FiniteSpace.discrete(2), BasePoint.trivial()
    honest = g_inverse(0, trivial, space, Z)
    spectrum._POINT_VALUES.clear()
    for a in spectrum._Z_SAMPLE:
        if a != 4:
            base_eval(trivial, Z, a)
    assert 4 not in _memo(trivial, Z) and len(_memo(trivial, Z)) == len(spectrum._Z_SAMPLE) - 1
    liar = SeminormOracle(space, Z, lambda f: None if f.values[0] == 4 else honest(f))
    with pytest.raises(UnrecognizedBasePoint, match="constant 4"):
        g_split(liar)


def test_seminorm_multiplicative_exhaustive_small():
    space = FiniteSpace.discrete(2)
    sample = list(enumerate_functions(space, Z, range(-3, 4)))
    for b in (BasePoint.arch(1), BasePoint.padic(2, 1), BasePoint.residue(5), BasePoint.trivial()):
        for c in range(2):
            x = g_inverse(c, b, space, Z)
            for f in sample:
                for g in sample:
                    assert x(f.mul(g)) == x(f) * x(g)


def test_indicator_values_as_ultrafilter_law():
    from dbl.functions import indicator

    space = glued_pairs()
    for c in range(2):
        x = g_inverse(c, BasePoint.padic(2, 1), space, Z)
        for U in space.clopens:
            v = x(indicator(space, Z, U))
            assert v in (NV_ZERO, NV_ONE)
            block = space.quasi_components[c]
            assert (v == NV_ONE) == (block <= U)


def test_oracle_ring_guard():
    space = FiniteSpace.discrete(2)
    x = g_inverse(0, BasePoint.trivial(), space, Z)
    wrong = CfinFunction(space, int_triv(), (1, 0))
    with pytest.raises(RingMismatch):
        x(wrong)


def test_gelfand_roundtrip():
    report = gelfand_roundtrip(FiniteSpace.discrete(2), Z)
    assert report["space_components"] == 2
    report = gelfand_roundtrip(FiniteSpace.sierpinski(), Z)
    assert report["space_components"] == 1
    with pytest.raises(DisconnectedSpectrum) as err:
        gelfand_roundtrip(FiniteSpace.discrete(2), zmod_triv(6))
    assert err.value.idempotent in (3, 4)


def test_base_points_need_a_prime():
    for make in (
        lambda: BasePoint.residue(4),
        lambda: BasePoint.padic(0, 1),
        lambda: BasePoint.padic(1, 1),
        lambda: BasePoint.residue(2**61 - 1),
    ):
        with pytest.raises(UnrecognizedBasePoint):
            make()
    for p in ("3", 3.0, True, None):
        with pytest.raises(UnrecognizedBasePoint):
            BasePoint.residue(p)


def test_base_points_reject_malformed_fields():
    half = Fraction(1, 2)
    for kind, p, eps in (
        ("bogus", None, None),
        ("Trivial", None, None),
        ("trivial", 2, None),
        ("trivial", None, half),
        ("arch", None, None),
        ("arch", None, 1),
        ("arch", 2, half),
        ("padic", 2, None),
        ("padic", 2, "1/2"),
        ("residue", 3, Fraction(1)),
        ("residue", 3, 1),
    ):
        with pytest.raises(UnrecognizedBasePoint):
            BasePoint(kind, p=p, eps=eps)
    assert BasePoint("residue", p=3) == BasePoint.residue(3)
    assert BasePoint("arch", eps=half) == BasePoint.arch(half)
    assert BasePoint("padic", p=2, eps=half) == BasePoint.padic(2, half)
    assert BasePoint("trivial") == BasePoint.trivial()
    # no oracle is built on a point the constructor refuses
    with pytest.raises(UnrecognizedBasePoint):
        g_inverse(0, BasePoint("bogus"), FiniteSpace.discrete(2), Z)


def test_g_split_rejects_an_oracle_that_returns_no_norm_value():
    space = FiniteSpace.discrete(2)
    honest = g_inverse(1, BasePoint.arch(1), space, Z)

    def lying(at):
        return SeminormOracle(space, Z, lambda f: 1 if at(f.values) else honest(f))

    for at, error in (
        (lambda v: True, NotUltrafilter),  # the empty clopen
        (lambda v: v == (0, 1), NotUltrafilter),  # an e_i
        (lambda v: v == (1, 0), NotUltrafilter),  # a 1 - e_i
        (lambda v: v == (2, 2), UnrecognizedBasePoint),  # a probe prime
        (lambda v: v == (13, 13), UnrecognizedBasePoint),  # the last probe prime
        (lambda v: v == (4, 4), UnrecognizedBasePoint),  # a sample constant only
    ):
        with pytest.raises(error):
            g_split(lying(at))
    residue = g_inverse(0, BasePoint.residue(3), space, zmod_quot(6))
    liar = SeminormOracle(space, zmod_quot(6), lambda f: None if f.values == (3, 3) else residue(f))
    with pytest.raises(UnrecognizedBasePoint):
        g_split(liar)


def _powered(b: BasePoint, k: int) -> BasePoint:
    """The point whose values are those of b raised to the k-th power."""
    if b.kind == "arch":
        return BasePoint.arch(k * b.eps)
    if b.kind == "padic":
        return BasePoint.padic(b.p, k * b.eps)
    return b


def _split_or_none(oracle):
    try:
        return g_split(oracle)
    except UnrecognizedBasePoint:
        return None


def test_g_split_on_honest_squared_and_max_oracles():
    space = glued_pairs()
    for ring in (Z, int_triv(), fp_triv(3), zmod_triv(6), zmod_quot(6)):
        grid = admissible_points(ring)
        sample = ring.elements(40)
        for c in range(len(space.quasi_components)):
            honest = {b: g_inverse(c, b, space, ring) for b in grid}
            for b, x in honest.items():
                assert g_split(x) == SpectrumPoint(c, b)
                squared = SeminormOracle(space, ring, lambda f, x=x: x(f) * x(f))
                b2 = _powered(b, 2)
                want = SpectrumPoint(c, b2) if is_admissible(ring, b2) else None
                assert _split_or_none(squared) == want, (ring, c, b)
            for b1, b2 in combinations(grid, 2):
                x1, x2 = honest[b1], honest[b2]
                top = SeminormOracle(space, ring, lambda f, x1=x1, x2=x2: max(x1(f), x2(f)))
                # the max is in the family only when one of the two dominates
                dominant = [
                    b
                    for b in (b1, b2)
                    if all(
                        base_eval(b, ring, a)
                        == max(base_eval(b1, ring, a), base_eval(b2, ring, a))
                        for a in sample
                    )
                ]
                want = SpectrumPoint(c, dominant[0]) if dominant else None
                assert _split_or_none(top) == want, (ring, c, b1, b2)

    # an Archimedean oracle that is wrong only at the probe 13
    d2 = FiniteSpace.discrete(2)
    arch = g_inverse(1, BasePoint.arch(1), d2, Z)
    off_at_13 = SeminormOracle(
        d2, Z, lambda f: NormValue.from_fraction(14) if f.values[1] == 13 else arch(f)
    )
    with pytest.raises(UnrecognizedBasePoint, match="constant 13"):
        g_split(off_at_13)


def test_g_split_rejects_a_large_irrational_value_at_once():
    # the value at the constant 2 is r**(1/3) for an r of 32768 bits that is
    # no power of 2: it names no base point, which takes no perfect-power search
    space = FiniteSpace.discrete(2)
    honest = g_inverse(1, BasePoint.arch(1), space, Z)
    big = NormValue.from_pow((1 << 32767) + 3, Fraction(1, 3))
    liar = SeminormOracle(space, Z, lambda f: big if f.values == (2, 2) else honest(f))
    started = time.perf_counter()
    with pytest.raises(UnrecognizedBasePoint, match="at 2 is no admissible power"):
        g_split(liar)
    assert time.perf_counter() - started < 1.0


def test_g_split_names_a_large_value_by_its_size():
    # the value at the constant 2 is (3**20000 + 2)**(1/3), whose digits
    # alone run to 9,542 characters: the message gives its bit length
    space = FiniteSpace.discrete(1)
    honest = g_inverse(0, BasePoint.arch(1), space, Z)
    big = NormValue.from_pow(3**20000 + 2, Fraction(1, 3))
    liar = SeminormOracle(space, Z, lambda f: big if f.values == (2,) else honest(f))
    with pytest.raises(UnrecognizedBasePoint, match="at 2 is no admissible power") as err:
        g_split(liar)
    assert type(err.value) is UnrecognizedBasePoint
    assert len(str(err.value)) < 200
    assert f"{big.bit_length()} bits" in str(err.value)


def test_g_split_off_grid_exponents():
    from fractions import Fraction as Fr

    space = FiniteSpace.discrete(2)
    for b in (BasePoint.padic(3, Fr(5, 3)), BasePoint.arch(Fr(2, 3)), BasePoint.padic(7, 4)):
        pt = g_split(g_inverse(1, b, space, Z))
        assert pt == SpectrumPoint(1, b)


def test_g_split_on_directly_built_oracles():
    # an oracle given as a bare evaluation closure, not via g_inverse
    space = FiniteSpace.discrete(2)
    two_adic = SeminormOracle(
        space, Z, lambda f: base_eval(BasePoint.padic(2, 1), Z, f.values[1])
    )
    pt = g_split(two_adic)
    assert pt == SpectrumPoint(1, BasePoint.padic(2, 1))

    point_space = FiniteSpace.discrete(1)
    trivial = SeminormOracle(
        point_space, Z, lambda f: base_eval(BasePoint.trivial(), Z, f.values[0])
    )
    pt = g_split(trivial)
    assert pt == SpectrumPoint(0, BasePoint.trivial())


# -- the value memo behind base_eval ------------------------------------------


def _memo(point, ring) -> dict:
    return spectrum._point_values(point, ring)


def test_memo_never_lets_a_bool_hit():
    p = BasePoint.arch(1)
    point_space = FiniteSpace.discrete(1)
    one, true = (CfinFunction.constant(point_space, Z, a) for a in (1, True))
    oracle = g_inverse(0, p, point_space, Z)
    assert base_eval(p, Z, 1) == oracle(one) == NV_ONE
    assert 1 in _memo(p, Z)  # True hashes like 1
    for _ in range(2):
        with pytest.raises(ElementOutOfRange):
            base_eval(p, Z, True)
        with pytest.raises(ElementOutOfRange):
            oracle(true)


def test_memo_still_rejects_unreduced_residues_and_padic_points_on_zmod():
    ring = zmod_triv(6)
    p = BasePoint.residue(2)
    assert base_eval(p, ring, 2) == NV_ZERO
    assert 2 in _memo(p, ring)
    for a in (8, -4, 6):
        with pytest.raises(ElementOutOfRange):
            base_eval(p, ring, a)
    padic = BasePoint.padic(2, 1)
    for _ in range(2):  # a rejection is never stored
        with pytest.raises(UnrecognizedBasePoint):
            base_eval(padic, ring, 3)
    assert not _memo(padic, ring)


def test_memo_stays_within_its_bounds():
    p = BasePoint.arch(Fraction(1, 3))
    for a in range(MEMO_ELEMENTS + 100):
        assert base_eval(p, Z, a) == (NormValue.from_pow(a, Fraction(1, 3)) if a else NV_ZERO)
    memo = _memo(p, Z)
    assert len(memo) == MEMO_ELEMENTS
    assert MEMO_ELEMENTS + 99 in memo and 0 not in memo  # the oldest went first
    for k in range(1, MEMO_POINTS + 10):
        base_eval(BasePoint.padic(2, Fraction(1, k)), Z, 12)
    assert len(spectrum._POINT_VALUES) == MEMO_POINTS
    # large elements and large values are computed but not kept
    big = BasePoint.arch(Fraction(99, 100))
    for a in (2**MEMO_KEY_BITS, 2**20 - 1):
        want = NormValue.from_pow(a, Fraction(99, 100))
        assert base_eval(big, Z, a) == want
        assert want.bit_length() > MEMO_VALUE_BITS or a.bit_length() > MEMO_KEY_BITS
    assert not _memo(big, Z)


def test_memo_writes_from_threads_keep_the_bound():
    import sys
    import threading

    p = BasePoint.arch(Fraction(1, 5))
    errors = []

    def work(offset):
        try:
            for a in range(offset, offset + 4 * MEMO_ELEMENTS, 3):
                if base_eval(p, Z, a) != NormValue.from_pow(a, Fraction(1, 5)):
                    errors.append(a)
        except Exception as err:  # reported by the assertion below
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k + 1,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(_memo(p, Z)) == MEMO_ELEMENTS



def test_every_reader_reads_the_one_dict_of_its_pair():
    spectrum._POINT_VALUES.clear()
    space, p = FiniteSpace.discrete(2), BasePoint.arch(1)
    values = _memo(p, Z)
    assert _memo(p, Z) is values
    planted = NormValue.from_fraction(99)  # not |7|
    values[7] = planted
    assert base_eval(p, Z, 7) is planted
    assert g_inverse(0, p, space, Z)(CfinFunction(space, Z, (7, 0))) is planted
    # _identify_base checks an oracle that reads no memo against the want
    # table it builds off the dict once per sample, so the table holds the
    # planted value; a dict changed by hand needs its table dropped too
    direct = SeminormOracle(space, Z, lambda f: spectrum._evaluate(p, Z, f.values[0]))
    with pytest.raises(UnrecognizedBasePoint, match="constant 7 disagrees with ArchPow"):
        g_split(direct)
    sample, want = values.want
    assert want[sample.index(7)] is planted
    del values[7]
    values.want = None
    assert g_split(direct) == SpectrumPoint(0, p)
    assert base_eval(p, Z, 7) is values[7] == NormValue.from_fraction(7)


def test_every_reader_rejects_what_is_no_element_and_never_stores_it():
    spectrum._POINT_VALUES.clear()
    space, ring, p = FiniteSpace.discrete(1), zmod_triv(4), BasePoint.residue(2)
    values = _memo(p, ring)
    oracle = g_inverse(0, p, space, ring)
    probes = spectrum._Probes(space, ring)
    probes.constants = ()
    # the values of p, for any value a sample holds
    lenient = SeminormOracle(space, ring, lambda f: NV_ZERO if f.values[0] in (0, 2) else NV_ONE)

    def identify(a):
        probes.sample = (0, 2, 3, a)  # a in place of 1
        spectrum._identify_base(probes, lenient)

    for warm in (False, True):
        for a in (True, 1.0, 5):  # a bool, a float and an unreduced residue
            for _ in range(2):
                with pytest.raises(ElementOutOfRange):
                    base_eval(p, ring, a)
                with pytest.raises(ElementOutOfRange):
                    oracle(CfinFunction.constant(space, ring, a))
                with pytest.raises(ElementOutOfRange):
                    identify(a)
        assert 5 not in values and (1 in values) == warm
        assert [k for k in values if type(k) is not int] == []
        assert base_eval(p, ring, 1) is values[1] == NV_ONE  # True and 1.0 hash like 1


def test_point_values_drop_the_oldest_pair_first():
    spectrum._POINT_VALUES.clear()
    points = [BasePoint.padic(2, Fraction(1, k)) for k in range(1, MEMO_POINTS + 11)]
    memos = [_memo(b, Z) for b in points[:MEMO_POINTS]]
    assert _memo(points[0], Z) is memos[0]  # a hit moves nothing
    _memo(points[MEMO_POINTS], Z)  # drops points[0], the oldest
    assert _memo(points[1], Z) is memos[1]
    assert _memo(points[0], Z) is not memos[0]  # back in, dropping points[1]
    assert _memo(points[1], Z) is not memos[1]
    for b in points:
        _memo(b, Z)
    assert len(spectrum._POINT_VALUES) == MEMO_POINTS



# -- the probes behind g_split -------------------------------------------------


def test_probes_are_kept_for_the_last_pair_on_its_objects():
    spaces = [s for n in (3, 4) for s in topologies(n)][:10]
    for space in spaces:
        g_split(g_inverse(0, BasePoint.trivial(), space, Z))
        assert _last_probes().space is space and _last_probes().ring is Z
    kept = _last_probes()
    g_split(g_inverse(0, BasePoint.arch(1), spaces[-1], Z))
    assert _last_probes() is kept
    # an equal space of another object gets probes of its own
    twin = FiniteSpace(spaces[-1].n, spaces[-1].up)
    assert twin == spaces[-1] and twin is not spaces[-1]
    g_split(g_inverse(0, BasePoint.trivial(), twin, Z))
    probes = _last_probes()
    assert probes is not kept and probes.space is twin
    assert all(f.space is twin for f in (probes.empty, *probes.inside, *probes.outside, *probes.constants))


def test_probes_keep_at_most_memo_elements_constants_and_test_every_residue():
    space, ring = FiniteSpace.discrete(32), zmod_triv(4096)
    spectrum._PROBES.clear()
    oracle = g_inverse(31, BasePoint.residue(2), space, ring)
    for _ in range(2):  # cold, then warm
        verdict, calls = _counted_split(oracle)
        assert verdict == SpectrumPoint(31, BasePoint.residue(2))
        assert len(_last_probes().constants) == MEMO_ELEMENTS
        assert calls[2 * 32 + 1 :] == [(a,) * 32 for a in range(4096)]
    # an oracle wrong only past the kept constants is still rejected
    liar = SeminormOracle(space, ring, lambda f: NV_ONE if f.values == (4094,) * 32 else oracle(f))
    with pytest.raises(UnrecognizedBasePoint, match="constant 4094"):
        g_split(liar)


def test_the_trivial_point_is_one_shared_object():
    trivial = BasePoint.trivial()
    assert trivial is BasePoint.trivial() is BasePoint.arch(0) is BasePoint.padic(2, 0)
    assert trivial == BasePoint("trivial") and trivial is not BasePoint("trivial")
    assert canonical_point(fp_triv(5), BasePoint.residue(5)) is trivial


def test_a_kept_want_table_still_checks_every_constant():
    # a candidate's values on the sample are built once per (point, ring,
    # sample) and kept with its memo: an oracle that agrees with an
    # already-kept table on every constant but one is still rejected, and
    # the error names that constant
    space = FiniteSpace.discrete(2)
    for ring, point, wrong in ((zmod_triv(1024), BasePoint.residue(2), 1001), (Z, BasePoint.arch(1), 15)):
        honest = g_inverse(0, point, space, ring)
        assert g_split(honest) == SpectrumPoint(0, point)
        kept = _memo(point, ring).want
        assert g_split(honest) == SpectrumPoint(0, point)
        assert _memo(point, ring).want is kept  # read, not rebuilt
        liar = SeminormOracle(
            space, ring, lambda f: NV_ZERO if f.values == (wrong, wrong) else honest(f)
        )
        with pytest.raises(UnrecognizedBasePoint, match=re.escape(f"constant {wrong} disagrees with {point}")):
            g_split(liar)
        assert _memo(point, ring).want is kept


def _reference(point: BasePoint, ring, a: int) -> NormValue:
    """The value of an admissible point, built without the memo."""
    if a == 0:
        return NV_ZERO
    if point.kind == "arch":
        return NormValue.from_pow(abs(a), point.eps)
    if point.kind == "padic":
        v = 0
        while a % point.p == 0:
            a, v = a // point.p, v + 1
        return NormValue.from_pow(Fraction(1, point.p), point.eps * v)
    if point.kind == "residue":
        return NV_ZERO if a % point.p == 0 else NV_ONE
    return NV_ONE


@st.composite
def _ring_point_element(draw):
    ring = draw(
        st.sampled_from(
            [Z, int_triv()]
            + [fp_triv(p) for p in (2, 3, 5, 7, 31)]
            + [make(n) for make in (zmod_triv, zmod_quot) for n in range(2, 37)]
        )
    )
    point = draw(st.sampled_from(admissible_points(ring)))
    m = ring.modulus
    a = draw(st.integers(-(10**6), 10**6) if m is None else st.integers(0, m - 1))
    return ring, point, a


@given(_ring_point_element())
@settings(max_examples=300, deadline=None)
def test_memoized_base_eval_matches_a_direct_reference(case):
    ring, point, a = case
    want = _reference(point, ring, a)
    assert base_eval(point, ring, a) == want
    assert base_eval(point, ring, a) == want  # now a hit


def test_oracle_reads_values_off_the_memo(monkeypatch):
    calls = []
    from_pow = NormValue.from_pow

    def counted(base, exponent):
        calls.append((base, exponent))
        return from_pow(base, exponent)

    monkeypatch.setattr(NormValue, "from_pow", staticmethod(counted))
    space = glued_pairs()
    for b in (BasePoint.arch(Fraction(2, 7)), BasePoint.padic(3, Fraction(5, 7))):
        oracle = g_inverse(1, b, space, Z)
        f = CfinFunction(space, Z, (5, 18))
        first = oracle(f)
        calls.clear()
        assert oracle(f) == first
        assert g_inverse(1, b, space, Z)(f) == first
        assert calls == []


# -- the oracle of g_inverse ---------------------------------------------------


def test_g_inverse_oracle_keeps_its_guards():
    space = FiniteSpace.discrete(2)
    p = BasePoint.arch(1)
    oracle = g_inverse(0, p, space, Z)
    f = CfinFunction(space, Z, (-7, 2))
    # a memo hit is the object base_eval returns
    assert oracle(f) is base_eval(p, Z, -7) is oracle(f)
    for ring in (int_triv(), zmod_triv(4)):
        with pytest.raises(RingMismatch):
            oracle(CfinFunction(space, ring, (1, 0)))
    other = FiniteSpace(3, [{0}, {1, 2}])  # two components, other up sets
    with pytest.raises(RingMismatch):
        oracle(CfinFunction(other, Z, (-7, 2)))
    twin = FiniteSpace(2, [{0}, {1}])  # equal, another object
    assert twin is not space
    assert oracle(CfinFunction(twin, Z, (-7, 0))) == NormValue.from_fraction(7)


def test_g_inverse_rejects_a_component_outside_the_space():
    space = FiniteSpace.discrete(3)
    for c in range(3):
        assert g_split(g_inverse(c, BasePoint.trivial(), space, Z)).component == c
    for c in (-1, 3, 7, True, False, 1.0, "0", None):
        with pytest.raises(ValueError, match="quasi-component"):
            g_inverse(c, BasePoint.trivial(), space, Z)
    with pytest.raises(ValueError):
        g_inverse(0, BasePoint.trivial(), FiniteSpace(0), Z)


def test_g_inverse_oracle_never_stores_a_rejected_element():
    point_space = FiniteSpace.discrete(1)
    p = BasePoint.arch(1)
    oracle = g_inverse(0, p, point_space, Z)
    assert oracle(CfinFunction.constant(point_space, Z, 1)) == NV_ONE
    true = CfinFunction.constant(point_space, Z, True)
    z4 = zmod_triv(4)
    residue = g_inverse(0, BasePoint.residue(2), point_space, z4)
    unreduced = CfinFunction.constant(point_space, z4, 5)
    for _ in range(3):
        with pytest.raises(ElementOutOfRange):
            oracle(true)
        with pytest.raises(ElementOutOfRange):
            residue(unreduced)
    assert [k for k in _memo(p, Z) if k is True] == []
    assert 5 not in _memo(BasePoint.residue(2), z4)
    assert residue(CfinFunction.constant(point_space, z4, 1)) == NV_ONE
    assert 1 in _memo(BasePoint.residue(2), z4)


@pytest.mark.parametrize(
    "ring", [Z, int_triv(), fp_triv(5), zmod_triv(8), zmod_quot(9)], ids=str
)
def test_g_split_of_g_inverse_evaluates_each_element_once(ring, monkeypatch):
    calls = []
    evaluate = spectrum._evaluate

    def counted(point, ring, a):
        calls.append((point, a))
        return evaluate(point, ring, a)

    spectrum._POINT_VALUES.clear()
    monkeypatch.setattr(spectrum, "_evaluate", counted)
    for s, space in enumerate((FiniteSpace.discrete(3), glued_pairs())):
        k = len(space.quasi_components)
        for b in admissible_points(ring):
            for c in range(k):
                calls.clear()
                pt = g_split(g_inverse(c, b, space, ring))
                assert pt == SpectrumPoint(c, canonical_point(ring, b))
                # cold on the first space's first component, warm after it
                assert len(calls) == len(set(calls))
                assert bool(calls) == (s == c == 0)
                calls.clear()
                assert g_split(g_inverse(c, b, space, ring)) == pt
                assert calls == []

"""Acceptance suite: one test per criterion, one printed verdict line each.

Every tolerance here is exact equality of exact quantities; the constants
(the sum-split 2, the rank growth n+1, the worked certificate scale 16)
are pinned in the assertions.
"""

import time

from dbl import suite
from dbl.errors import NoSection


def _report(name, verdict, started):
    elapsed = time.monotonic() - started
    status = "PASS" if verdict.get("pass") else "FAIL"
    detail = {k: v for k, v in verdict.items() if k not in ("name", "pass")}
    print(f"[{status}] {name} ({elapsed:.1f}s) {detail}")


def test_criterion_1_tate_acyclicity_equivalence():
    started = time.monotonic()
    verdict = suite.tate_exhaustive(max_points=4, max_sets=3)
    _report("1 tate-acyclicity equivalence", verdict, started)
    assert verdict["pass"], verdict
    assert verdict["cases"] == 2415  # 805 families x 3 rings, zero disagreements
    # every family that covers has strict sections over Z, all of constant 1
    assert verdict["sections"] == 470
    assert verdict["section_constant"] == 1
    assert time.monotonic() - started < 60


def test_criterion_1_fails_on_a_cover_without_sections(monkeypatch):
    def no_section(space, family, ring):
        raise NoSection("no section")

    monkeypatch.setattr(suite, "strict_sections", no_section)
    verdict = suite.tate_exhaustive(max_points=1, max_sets=1)
    # on one point the family {∅} does not cover and {{0}} does
    assert verdict == {
        "name": "tate_equivalence",
        "pass": False,
        "witness": [1, [[0]], "NoSection: no section"],
    }


def test_criterion_2_spectrum_homeomorphism():
    started = time.monotonic()
    verdict = suite.spectrum_homeomorphism()
    _report("2 spectrum homeomorphism", verdict, started)
    assert verdict["pass"], verdict
    assert verdict["roundtrips"] > 0 and verdict["value_pairs"] > 0
    assert verdict["roundtrips"] == 286
    assert verdict["value_pairs"] == 5096
    assert verdict["function_pairs"] == 188552


def test_criterion_3_sum_split_constant():
    started = time.monotonic()
    verdict = suite.sum_split_cases(count=1000, seed=7)
    _report("3 ideal sum-split constant", verdict, started)
    assert verdict["pass"], verdict
    assert verdict["cases"] == 1000
    assert verdict["cases_above_norm"] >= 1  # the constant is not 1
    # closed sets are drawn in canonical order, so the count is fixed
    assert verdict["cases_above_norm"] == 280


def test_criterion_4_absorbing_dichotomy():
    started = time.monotonic()
    verdict = suite.absorbing_dichotomy(max_n=16)
    _report("4 absorbing-law dichotomy", verdict, started)
    assert verdict["pass"], verdict
    assert verdict["growth_cases"] == 16


def test_criterion_5_mahler_identity():
    started = time.monotonic()
    verdict = suite.mahler_identity(limit=12)
    _report("5 mahler pairing identity", verdict, started)
    assert verdict["pass"], verdict
    assert verdict["cases"] == 169


def test_criterion_6_basis_certificates():
    started = time.monotonic()
    verdict = suite.basis_certificates(seeds=20, expansions=100)
    _report("6 basis certificates", verdict, started)
    assert verdict["pass"], verdict
    assert verdict["generalised_seeds"] == 20
    assert verdict["expansions"] == 100


def test_criterion_7_stone_weierstrass():
    started = time.monotonic()
    verdict = suite.stone_weierstrass_sweep(max_points=4)
    _report("7 stone-weierstrass construction", verdict, started)
    assert verdict["pass"], verdict
    assert verdict["trace_scale"] == 16
    assert verdict["trace_evaluation"] == [0, 16, 0]


def test_criterion_8_gelfand_roundtrip():
    started = time.monotonic()
    verdict = suite.gelfand_sweep(count=30)
    _report("8 gelfand round trip", verdict, started)
    assert verdict["pass"], verdict
    assert verdict["spaces"] == 30
    assert verdict["idempotent_witness"] in (3, 4)


def test_criterion_9_strong_exactness():
    started = time.monotonic()
    verdict = suite.strong_exactness_cases(count=50, seed=11)
    _report("9 strong exactness", verdict, started)
    assert verdict["pass"], verdict
    assert verdict["cases"] == 50


def test_criterion_10_extension_isometry():
    started = time.monotonic()
    verdict = suite.extension_isometry()
    _report("10 extension isometry", verdict, started)
    assert verdict["pass"], verdict
    assert verdict["cases"] == 18960

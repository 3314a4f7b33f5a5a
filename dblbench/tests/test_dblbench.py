"""Self-tests of the benchmark: inputs, answer checks, names and tracing.

    python3 -m pytest dblbench/tests
"""

import json
import math
import os
import statistics

import pytest

import onepass
import run
import workloads
from dbl import spectrum, suite
from tracer import LAYERS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _fixed(workload, cases):
    if workload == "cover":
        return cases[:2415]
    if workload == "spectrum":
        return [(c.space, c.component, c.point) for c in cases if c.space < 38]
    return [c for c in cases if isinstance(c, workloads.ExtensionCase)]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    a = workloads.prepare(workload, 5)
    b = workloads.prepare(workload, 5)
    c = workloads.prepare(workload, 6)
    assert a.cases == b.cases
    assert a.profile == b.profile
    assert a.cases != c.cases
    assert _fixed(workload, a.cases) == _fixed(workload, c.cases)
    assert len(a.cases) >= 1000


def test_cover_fixed_part_is_criterion_1():
    want = [
        (n, tuple(tuple(sorted(K)) for K in fam), ring)
        for ring in ("IntInf", "IntTriv", "FpTriv(2)")
        for n, fam in suite._tate_cases(4, 3)
    ]
    got = [(c.n, c.family, c.ring) for c in workloads.cover_fixed_cases()]
    assert got == want
    assert len(got) == 2415


def test_cover_check_rejects_forged_verdicts():
    missing = workloads.CoverCase(2, None, ((0,),), "IntInf")
    covering = workloads.CoverCase(2, None, ((0,), (1,)), "IntInf")
    assert workloads.check_cover(missing, "not_exact")
    assert not workloads.check_cover(missing, "exact")
    assert workloads.check_cover(covering, "exact")
    assert not workloads.check_cover(covering, "not_exact")
    # Sierpinski space: the closed point alone meets its one component.
    sierpinski = workloads.CoverCase(2, ((1,),), ((0,),), "ZmodTriv(4)")
    assert workloads.check_cover(sierpinski, workloads.run_cover(sierpinski))
    assert not workloads.check_cover(sierpinski, "not_exact")
    # Two closed points under one open point: {0, 1} is discrete as a
    # subspace but lies in one component, so the family is rejected.
    vee = workloads.CoverCase(3, ((0, 2), (1, 2)), ((0, 1),), "IntInf")
    assert workloads.run_cover(vee) == workloads.REJECTED
    assert workloads.check_cover(vee, workloads.REJECTED)
    assert not workloads.check_cover(vee, "exact")


def test_cover_answers_match_the_library_on_seeded_cases():
    for seed in range(1, 6):
        for case in workloads.cover_seeded_cases(seed):
            assert workloads.check_cover(case, workloads.run_cover(case)), case


def test_cover_homology_matches_the_union_rule_on_discrete_cases():
    for case in workloads.cover_fixed_cases():
        U = workloads.minimal_opens(case.n, None)
        exact = workloads.is_exact(case.ring, *workloads.cover_complex(case.n, U, case.family))
        assert workloads.cover_answers(case) == {"exact" if exact else "not_exact"}


def test_cover_violation_of_the_stated_equivalence():
    # A connected space on 6 points and two disjoint closed sets, each
    # connected: both meet the one component, yet H^1 = Z/6.  The library
    # raises EquivalenceViolation; the right answer is "not exact".
    opens = (
        (0, 1, 2, 3, 4), (0, 1, 2, 4), (0, 1, 3, 4), (0, 1, 3, 4, 5), (0, 1, 4),
        (0, 3, 4), (0, 3, 4, 5), (0, 4), (1,), (1, 3), (3,),
    )
    case = workloads.CoverCase(6, opens, ((1, 2), (3, 5)), "ZmodQuot(6)")
    assert workloads.cover_answers(case) == {"not_exact", workloads.VIOLATION}
    assert workloads.run_cover(case) == workloads.VIOLATION
    assert not workloads.check_cover(case, "exact")


def test_spectrum_check_rejects_forged_verdicts():
    prepared = workloads.prepare("spectrum", 1)
    case = next(c for c in prepared.cases if c.component == 1)
    point, multiplicative = prepared.run(case)
    assert multiplicative and prepared.check(case, (point, True))
    wrong_component = spectrum.SpectrumPoint(0, point.base)
    wrong_base = spectrum.SpectrumPoint(1, spectrum.BasePoint.residue(7))
    assert not prepared.check(case, (wrong_component, True))
    assert not prepared.check(case, (wrong_base, True))
    assert not prepared.check(case, (point, False))


def test_isometry_checks_reject_forged_verdicts():
    prepared = workloads.prepare("isometry", 1)
    ext = next(c for c in prepared.cases if c.values == (2, -1))
    back, norm_f, norm_ext = prepared.run(ext)
    assert prepared.check(ext, (back, norm_f, norm_ext))
    assert not prepared.check(ext, ((2, 1), norm_f, norm_ext))
    assert not prepared.check(ext, (back, norm_f + 1, norm_ext))
    assert not prepared.check(ext, (back, norm_f, norm_ext - 1))

    split = next(
        c
        for c in prepared.cases
        if isinstance(c, workloads.SplitCase) and any(c.values) and c.k0 and c.k1
    )
    f0, f1, *flags = prepared.run(split)
    assert prepared.check(split, (f0, f1, *flags))
    doubled = tuple(2 * v for v in split.values)
    negated = tuple(-v for v in split.values)
    assert not prepared.check(split, (doubled, negated, True, True, True))
    assert not prepared.check(split, (f0, f1, True, True, False))
    shifted = (f0[0] + 1,) + tuple(f0[1:])
    assert not prepared.check(split, (shifted, f1, True, True, True))


def test_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.PREPARE)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == run.PER_LAYER


def test_untraced_times_are_scaled_by_the_calibration():
    result = onepass.run_pass("spectrum", 2, limit=100)
    assert result["calibration_slices"] >= 1 and result["failed"] == 0
    latencies = result["latencies_ms"]
    assert len(latencies) == 100 and all(x > 0 for x in latencies)
    assert math.isclose(result["verdict_s"], math.fsum(latencies) / 1000, rel_tol=1e-9)
    assert result["case_p50_ms"] == statistics.median(latencies)
    assert result["cases_per_s"] == 100 / result["verdict_s"]


def test_latency_percentiles_are_taken_over_per_case_medians():
    def fake(latencies):
        metrics = {name: 1.0 for name in run.END_TO_END}
        return {"attempted": len(latencies), "failed": 0, "latencies_ms": latencies, **metrics}

    # 200 cases; each pass slows a different case to 50 ms once.
    base = [1.0] * 190 + [2.0] * 10
    passes = []
    for slow in (0, 1, 2):
        latencies = list(base)
        latencies[slow] = 50.0
        passes.append(fake(latencies))
    metrics = run.report(passes, [])["metrics"]
    assert metrics["case_p50_ms"]["value"] == 1.0
    assert metrics["case_p99_ms"]["value"] == 2.0


@pytest.mark.parametrize(
    "workload, limit", [("cover", 300), ("spectrum", 60), ("isometry", 600)]
)
def test_traced_self_times_add_up_to_wall_time(workload, limit):
    original = workloads.cech.tate_equivalence_report
    tracer = Tracer()
    result = onepass.run_pass(workload, 2, tracer, limit=limit)
    assert workloads.cech.tate_equivalence_report is original  # uninstalled
    assert result["attempted"] == limit and result["failed"] == 0
    layers = result["layers"]
    total = layers["driver.self_s"] + sum(layers[f"{l}.self_s"] for l in LAYERS)
    assert math.isclose(total, result["verdict_s"], rel_tol=1e-9)
    assert all(layers[f"{l}.self_s"] >= 0 for l in LAYERS)
    if workload == "cover":
        assert layers["cech.calls"] > 0 and layers["intlinalg.snf.calls"] > 0
    else:
        assert layers["cech.calls"] == 0 and layers["intlinalg.calls"] == 0
    reported_by_run = {"trace.overhead_ratio", "failed_frac", "rejected_frac", "violation_frac"}
    assert set(layers) | reported_by_run == set(run.PER_LAYER)

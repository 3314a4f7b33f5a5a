"""One pass of a workload, in a fresh process; prints one JSON line.

    python3 dblbench/onepass.py --workload cover --seed 1 [--traced]

Run from the root of a checkout with ``src`` on PYTHONPATH (``run.py`` does
this).  A pass imports dbl, makes the workload's inputs, then runs and
checks every case once.  Caches inside dbl, such as the ``factor_int``
cache, start cold as they do for every CLI call.

Times are scaled to a reference CPU speed.  An untraced pass times a fixed
slice of stdlib-only work right before set-up, right after it, and then
every CALIBRATION_EVERY_S between two cases.  Set-up time is scaled by
REFERENCE_SLICE_S over the mean of the slices around it, and each case's
time by REFERENCE_SLICE_S over the last slice before it.  On a shared
host the speed of the CPU drifts by a quarter or more within seconds; the
scaled times follow the program, not the host.  The raw wall times are
reported too, under "raw", and every case's scaled time under
"latencies_ms", in case order.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

SPANS_DIR = ".dblbench"
CALIBRATION_EVERY_S = 0.02
# Median time of calibration_slice() on the reference host (2 vCPUs of an
# Intel Xeon, CPython 3.11.7, a quiet minute); it only sets the scale.
REFERENCE_SLICE_S = 0.0011


def calibration_slice() -> float:
    """Time a fixed piece of stdlib-only work that shares no code with dbl.

    The cyclic garbage collector is off meanwhile: its pauses depend on the
    workload's heap, not on the speed of the CPU.
    """
    gc.disable()
    try:
        started = time.perf_counter()
        total, table = Fraction(0), {}
        for i in range(1, 300):
            total += Fraction(i % 97, i % 13 + 1)
            table[frozenset((i % 7, i % 11))] = (i, str(i))
        return time.perf_counter() - started
    finally:
        gc.enable()


def nearest_rank(ordered, q: float) -> float:
    """The q-quantile of a sorted list by the nearest-rank rule."""
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)]


def run_pass(workload: str, seed: int, tracer=None, limit: int | None = None) -> dict:
    """Set up and run one pass.

    A ``tracer`` is installed for the cases only, after set-up, and removed
    again before this returns; ``limit`` runs only the first cases.
    """
    untraced = tracer is None
    if untraced:
        before_setup = calibration_slice()
    started = time.perf_counter()
    import workloads  # imports dbl: part of the set-up time

    prepared = workloads.prepare(workload, seed)
    cases = prepared.cases[:limit]
    setup_s = time.perf_counter() - started

    latencies = []  # scaled, in case order
    wall = []
    failed = rejected = violations = 0
    first_failure = None
    slices = []
    speed = 1.0  # traced passes run no slices; their times stay as measured
    clock = time.perf_counter
    if tracer is not None:
        tracer.install()
        tracer.start()
    begin = next_slice = clock()
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.case = i
        elif clock() >= next_slice:
            slices.append(calibration_slice())
            speed = REFERENCE_SLICE_S / slices[-1]
            next_slice = clock() + CALIBRATION_EVERY_S
        t = clock()
        try:
            verdict = prepared.run(case)
            ok = prepared.check(case, verdict)
        except Exception:  # a crashing case is a failed case, not a crash
            ok, verdict = False, None
            first_failure = first_failure or traceback.format_exc()
        elapsed = clock() - t
        wall.append(elapsed)
        latencies.append(elapsed * speed)
        if not ok:
            failed += 1
            first_failure = first_failure or f"wrong verdict {verdict!r} for {case!r}"
        elif verdict == workloads.REJECTED:
            rejected += 1
        elif verdict == workloads.VIOLATION:
            violations += 1
    verdict_s = clock() - begin - sum(slices)
    if tracer is not None:
        tracer.stop()
        tracer.uninstall()
        verdict_s = tracer.wall()

    wall.sort()
    raw = {
        "setup_s": setup_s,
        "verdict_s": verdict_s,
        "case_p50_ms": 1000 * statistics.median(wall),
        "case_p99_ms": 1000 * nearest_rank(wall, 0.99),
    }
    if untraced:
        ordered = sorted(latencies)
        # The loop's first slice runs right after set-up.
        setup_speed = 2 * REFERENCE_SLICE_S / (before_setup + slices[0])
        scaled = {
            "setup_s": setup_s * setup_speed,
            "verdict_s": math.fsum(latencies),
            "case_p50_ms": 1000 * statistics.median(ordered),
            "case_p99_ms": 1000 * nearest_rank(ordered, 0.99),
        }
    else:
        scaled = raw
    out = {
        "workload": workload,
        "seed": seed,
        "traced": tracer is not None,
        "profile": {"cases": len(cases), **prepared.profile},
        "attempted": len(cases),
        "failed": failed,
        "rejected": rejected,
        "violations": violations,
        "first_failure": first_failure,
        **scaled,
        "cases_per_s": len(cases) / scaled["verdict_s"],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "speed": REFERENCE_SLICE_S / statistics.median(slices) if slices else 1.0,
        "calibration_slices": len(slices),
        "raw": raw,
        "latencies_ms": [1000 * x for x in latencies],
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    tracer = None
    if args.traced:
        from tracer import Tracer

        tracer = Tracer()
    result = run_pass(args.workload, args.seed, tracer)
    used = os.path.abspath(sys.modules["dbl"].__file__)
    if not used.startswith(os.path.abspath("src") + os.sep):
        print(f"onepass: dbl was imported from {used}, not from ./src", file=sys.stderr)
        return 2
    if tracer is not None:
        tracer.write(SPANS_DIR, args.workload)
    if result["first_failure"]:
        print(result["first_failure"], file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The dbl benchmark: one workload, one seed, for a fixed time.

    python3 dblbench/run.py --workload cover --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  Each pass runs in a fresh child process
(``onepass.py``) with DBL_WORKERS=1, so the library's caches start cold and
set-up time and peak memory are the child's own.  Passes repeat until
``--seconds`` have gone by (at least one), and each metric is the median
over the passes.  Every pass runs the same cases in the same order, so the
latency percentiles are taken over cases, each case's latency being its
median over the passes: a case slowed once by the host does not move them.

With ``--trace 0`` the last line of output reports the end-to-end metrics.
With ``--trace 1`` untraced and traced passes alternate and the last line
reports the per-layer metrics of the traced passes, together with
``trace.overhead_ratio``: traced over untraced wall time of the cases.  The
traced passes also write their spans to ``.dblbench/``.  Untraced passes
never load the tracer.

The last line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  Before it, one JSON line per pass
records what the pass ran.  The exit code is 0 when every pass completed,
whether or not every case was right, and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from onepass import nearest_rank
from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cover", "spectrum", "isometry")
PASS_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "cases_per_s": "1/s",
    "case_p50_ms": "ms",
    "case_p99_ms": "ms",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    "normvalue.construct.calls": "count",
    "normvalue.mul.calls": "count",
    "normvalue.compare.calls": "count",
    "normvalue.factor_int.misses": "count",
    "normvalue.factor_int.hit_ratio": "ratio",
    "normvalue.factor_int.max_bits": "bits",
    "scalars.norm.calls": "count",
    "spaces.built": "count",
    "spaces.opens_total": "count",
    "spaces.inclusion_map.calls": "count",
    "spaces.is_continuous.calls": "count",
    "functions.restrict.calls": "count",
    "functions.sup_norm.calls": "count",
    "spectrum.base_eval.calls": "count",
    "spectrum.g_split.calls": "count",
    "cech.complexes_built": "count",
    "cech.max_term_rank": "count",
    "intlinalg.snf.calls": "count",
    "intlinalg.rank.calls": "count",
    "intlinalg.max_cells": "count",
    "intlinalg.max_entry_bits": "bits",
    "driver.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
    "failed_frac": "ratio",
    "rejected_frac": "ratio",
    "violation_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark could not run; nothing is reported."""


def run_child(root: str, workload: str, seed: int, traced: bool) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["DBL_WORKERS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "onepass.py"), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"a {workload} pass took more than {PASS_TIMEOUT_S} s") from err
    if proc.returncode != 0:
        raise BenchError(f"a {workload} pass exited {proc.returncode}:\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def summary(result: dict) -> dict:
    """A pass's result without its per-case and per-layer detail."""
    return {k: v for k, v in result.items() if k not in ("latencies_ms", "layers")}


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def report(passes: list, traced: list) -> dict:
    everything = passes + traced
    attempted = sum(p["attempted"] for p in everything)
    failed = sum(p["failed"] for p in everything)
    if traced:
        values = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in PER_LAYER
            if name in traced[0]["layers"]
        }
        # Traced passes are not scaled, so compare raw wall times.
        untraced = statistics.median(p["raw"]["verdict_s"] for p in passes)
        values["trace.overhead_ratio"] = median_of(traced, "verdict_s") / untraced
        values["failed_frac"] = failed / attempted
        values["rejected_frac"] = sum(p["rejected"] for p in everything) / attempted
        values["violation_frac"] = sum(p["violations"] for p in everything) / attempted
        units = PER_LAYER
    else:
        values = {name: median_of(passes, name) for name in END_TO_END}
        # Every pass ran the same cases in the same order.
        per_case = sorted(
            statistics.median(times) for times in zip(*(p["latencies_ms"] for p in passes))
        )
        values["case_p50_ms"] = statistics.median(per_case)
        values["case_p99_ms"] = nearest_rank(per_case, 0.99)
        units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dbl", "__init__.py")):
        print("dblbench: run from the root of a dbl checkout (no src/dbl here)", file=sys.stderr)
        return 2
    passes: list = []
    traced: list = []
    deadline = time.monotonic() + args.seconds
    try:
        while True:
            passes.append(run_child(root, args.workload, args.seed, traced=False))
            print(json.dumps(summary(passes[-1])))
            if args.trace:
                traced.append(run_child(root, args.workload, args.seed, traced=True))
                print(json.dumps(summary(traced[-1])))
            if time.monotonic() >= deadline:
                break
    except BenchError as err:
        print(f"dblbench: {err}", file=sys.stderr)
        return 2
    print(json.dumps(report(passes, traced)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

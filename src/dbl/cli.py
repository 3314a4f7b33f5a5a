"""Command-line driver: machine-readable reports for the demo suites.

Subcommands: space | spectrum | cech | tensor | basis | mahler | sw | suite.
JSON report on stdout, a one-line-per-verdict summary on stderr (unless
--quiet).  Exit status: 0 all verdicts pass, 1 any violation, 2 bad input
or a request outside a theorem's hypotheses (NotEmbedding,
DisconnectedSpectrum, NonSeparating).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import fixtures, suite
from .bases import family_determinant, mahler_coeffs, mahler_pairing, vdp_basis_level
from .cech import CoverFamily, tate_equivalence_report
from .errors import (
    DblError,
    DisconnectedSpectrum,
    NonSeparating,
    NotClopen,
    NotEmbedding,
    SizeExceeded,
    SpaceMismatch,
    UnsupportedRing,
)
from .functions import CfinFunction
from .scalars import RingDescriptor, int_inf
from .spaces import FiniteSpace, banaschewski
from .spectrum import gelfand_roundtrip
from .weierstrass import sw_construct_indicator

SCHEMA = "2"


def _read_json_input(args) -> dict | None:
    """The JSON request object from --space-file or stdin; None if stdin is empty."""
    if getattr(args, "space_file", None):
        with open(args.space_file, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    else:
        data = sys.stdin.read()
        obj = json.loads(data) if data.strip() else None
    if obj is not None and not isinstance(obj, dict):
        raise ValueError(f"the request must be a JSON object, not {type(obj).__name__}")
    return obj


def _request_ring(obj: dict, default: str) -> RingDescriptor:
    ring = obj.get("ring", default)
    if isinstance(ring, dict):
        return RingDescriptor.from_json(ring)
    if not isinstance(ring, str):
        raise ValueError('"ring" must be a ring name or a ring object')
    return RingDescriptor.parse(ring)


def _int_list(value, what: str) -> list:
    """value if it is a JSON list of ints; ValueError (exit 2) otherwise."""
    if not (
        isinstance(value, list)
        and all(isinstance(x, int) and not isinstance(x, bool) for x in value)
    ):
        raise ValueError(f"{what} must be a list of ints")
    return value


def _int_lists(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list of lists of ints")
    return [_int_list(v, f"each entry of {what}") for v in value]


def cmd_space(args) -> list[dict]:
    obj = _read_json_input(args)
    space = (
        FiniteSpace.from_json(obj["space"] if "space" in obj else obj)
        if obj
        else fixtures.glued_pairs()
    )
    zeta, _ = banaschewski(space)
    return [
        {
            "name": "space",
            "pass": True,
            "points": space.n,
            "basis": space.to_json()["opens"],
            "quasi_components": [sorted(b) for b in space.quasi_components],
            "banaschewski_points": zeta.n,
        }
    ]


def cmd_spectrum(args) -> list[dict]:
    obj = _read_json_input(args)
    space = FiniteSpace.from_json(obj["space"]) if obj else fixtures.glued_pairs()
    report = gelfand_roundtrip(space, _request_ring(obj or {}, args.ring))
    report.update({"name": "spectrum", "pass": True})
    return [report]


def cmd_cech(args) -> list[dict]:
    if args.exhaustive:
        ring_list = (
            [RingDescriptor.parse(args.ring)]
            if args.ring not in (None, "all")
            else None
        )
        verdict = suite.tate_exhaustive(
            max_points=args.max_points, max_sets=args.max_sets, rings=ring_list
        )
        return [verdict]
    obj = _read_json_input(args)
    if obj is None:
        raise ValueError("cech needs JSON input or --exhaustive")
    space = FiniteSpace.from_json(obj["space"])
    ring = _request_ring(obj, args.ring or "IntInf")
    family = CoverFamily.make(
        space, [frozenset(K) for K in _int_lists(obj["family"], '"family"')]
    )
    report = tate_equivalence_report(space, family, ring)
    report.update({"name": "cech", "pass": report["agreement"]})
    return [report]


def cmd_tensor(args) -> list[dict]:
    return [suite.absorbing_dichotomy(max_n=args.max_n)]


def cmd_basis(args) -> list[dict]:
    if (args.p is None) != (args.k is None):
        given, missing = ("--p", "--k") if args.k is None else ("--k", "--p")
        raise ValueError(f"{given} needs {missing}")
    if args.p is not None:
        fam = vdp_basis_level(args.p, args.k)
        return [
            {
                "name": "basis",
                "pass": True,
                "family": fam.to_json(),
                "det": family_determinant(fam),
            }
        ]
    return [suite.basis_certificates(seeds=args.seeds)]


def cmd_mahler(args) -> list[dict]:
    if args.pairing:
        verdict = suite.mahler_identity(limit=args.max)
        return [verdict]
    if args.coeffs:
        values = [int(x) for x in args.coeffs.split(",")]
        return [
            {
                "name": "mahler_coeffs",
                "pass": True,
                "values": values,
                "coefficients": list(mahler_coeffs(values)),
            }
        ]
    return [
        {
            "name": "mahler_pairing_example",
            "pass": mahler_pairing(2, 2) == 1,
            "value": mahler_pairing(2, 2),
        }
    ]


def cmd_sw(args) -> list[dict]:
    obj = _read_json_input(args)
    if obj is None:
        space = FiniteSpace.discrete(3)
        ring = int_inf()
        gens = [CfinFunction(space, ring, (0, 1, 2))]
        clopen = frozenset({1})
    else:
        space = FiniteSpace.from_json(obj["space"])
        ring = _request_ring(obj, "IntInf")
        gens = [
            CfinFunction.from_point_values(space, ring, tuple(g))
            for g in _int_lists(obj["gens"], '"gens"')
        ]
        clopen = frozenset(_int_list(obj["clopen"], '"clopen"'))
    cert = sw_construct_indicator(space, ring, gens, clopen)
    ok = cert.verify(space, ring, gens)
    return [{"name": "sw", "pass": ok, **cert.to_json()}]


def cmd_suite(args) -> list[dict]:
    return suite.run_all(seed=args.seed or None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dbl",
        description="exact computations with discretely normed rings",
    )
    parser.add_argument("--quiet", action="store_true", help="no stderr summary")
    parser.add_argument("--seed", type=int, default=0, help="seed echo for reports")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("space", help="describe a finite space")
    p.add_argument("--space-file")
    p.set_defaults(fn=cmd_space)

    p = sub.add_parser("spectrum", help="duality round trip on a space")
    p.add_argument("--ring", default="IntInf", help="the ring of a request without one")
    p.add_argument("--space-file")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("cech", help="cover/acyclicity equivalence")
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--max-points", type=int, default=4)
    p.add_argument("--max-sets", type=int, default=3)
    p.add_argument(
        "--ring",
        help="one ring for --exhaustive (default: three), or the ring of a "
        "request without one (default: IntInf)",
    )
    p.add_argument("--space-file")
    p.set_defaults(fn=cmd_cech)

    p = sub.add_parser("tensor", help="absorbing-law dichotomy")
    p.add_argument(
        "--max-n",
        type=int,
        default=16,
        help="largest counterexample size, 0 to 31 (it has max-n + 1 points)",
    )
    p.set_defaults(fn=cmd_tensor)

    p = sub.add_parser("basis", help="basis certificates")
    p.add_argument("--p", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--seeds", type=int, default=20)
    p.set_defaults(fn=cmd_basis)

    p = sub.add_parser("mahler", help="Mahler pairing and coefficients")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--pairing", action="store_true")
    which.add_argument("--coeffs", help="comma-separated values f(0..N)")
    p.add_argument("--max", type=int, default=12)
    p.set_defaults(fn=cmd_mahler)

    p = sub.add_parser("sw", help="indicator membership certificate")
    p.add_argument("--space-file")
    p.set_defaults(fn=cmd_sw)

    p = sub.add_parser("suite", help="run every verification suite")
    p.set_defaults(fn=cmd_suite)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    started = time.monotonic()
    try:
        verdicts = args.fn(args)
    except (
        UnsupportedRing,
        SizeExceeded,
        NotClopen,
        NotEmbedding,
        DisconnectedSpectrum,
        NonSeparating,
        SpaceMismatch,
        KeyError,
        ValueError,
        json.JSONDecodeError,
        OSError,
    ) as err:
        print(
            json.dumps(
                {
                    "schema": SCHEMA,
                    "command": args.command,
                    "error": f"{type(err).__name__}: {err}",
                }
            )
        )
        if not args.quiet:
            print(f"input error: {err}", file=sys.stderr)
        return 2
    except DblError as err:
        # a property violation, not an input problem: report and exit 1
        report = {
            "schema": SCHEMA,
            "command": args.command,
            "verdicts": [
                {
                    "name": args.command,
                    "pass": False,
                    "violation": f"{type(err).__name__}: {err}",
                }
            ],
            "status": "fail",
        }
        print(json.dumps(report, indent=2))
        if not args.quiet:
            print(f"[FAIL] {args.command}: {err}", file=sys.stderr)
        return 1
    elapsed = time.monotonic() - started
    ok = all(v.get("pass", False) for v in verdicts)
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "seed": args.seed,
        "verdicts": verdicts,
        "elapsed_s": round(elapsed, 3),
        "status": "pass" if ok else "fail",
    }
    print(json.dumps(report, indent=2, default=str))
    if not args.quiet:
        for v in verdicts:
            mark = "PASS" if v.get("pass", False) else "FAIL"
            print(f"[{mark}] {v.get('name', args.command)}", file=sys.stderr)
    return 0 if ok else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

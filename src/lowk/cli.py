"""Command-line interface.

Subcommands: `group`, `lambda`, `classify`, `b4 verify`, `b4 report`.
Exit codes: 0 success, 1 failed verification checks, 2 usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .b4 import SUITES, verify_all, verify_suite
from .census import BRUTE_FORCE_BOUND, GroupTooLargeError
from .classify import (
    maximal_finite_subgroups,
    vc_classes_b4,
    virtually_cyclic_classes_odd,
)
from .galois import FieldDescriptor
from .lowerk import lambda_value
from .report import (
    FAMILIES,
    SCHEMA,
    UnsupportedParameterError,
    b4_lower_k_report,
    group_report,
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `lowk` argument parser, built once per process.

    `parse_args` fills a fresh namespace on every call, so one parser serves
    every `main` call.
    """
    parser = argparse.ArgumentParser(
        prog="lowk",
        description="Lower algebraic K-theory of the finite subgroups of sphere "
                    "braid groups, and the verified amalgam model for four strands.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    group_p = sub.add_parser("group", help="invariant report for one finite group")
    group_p.add_argument("family", choices=tuple(FAMILIES))
    group_p.add_argument("--m", type=int, help="parameter m (cyclic Z_m, dicyclic Dic_4m)")
    group_p.add_argument("--k", type=int, help="parameter k for Q_{2^k}")
    group_p.add_argument("--invariants", default="wh,k0,kminus1",
                         help="comma list from wh,k0,kminus1,rf,wedderburn")
    group_p.add_argument("--field", help="field for rf: Q, Qp:<p> or Fp:<p>")
    group_p.add_argument("--max-brute-force", type=int, metavar="N",
                         default=BRUTE_FORCE_BOUND,
                         help="largest group order handled by census machinery")

    lambda_p = sub.add_parser("lambda", help="rank multiplier for Dic_{4m}, m an odd prime")
    lambda_p.add_argument("--m", type=int, required=True)

    classify_p = sub.add_parser("classify", help="subgroup classification lists")
    classify_p.add_argument("--n", type=int, required=True, help="number of strands")
    classify_p.add_argument("--vc", action="store_true",
                            help="list virtually cyclic classes instead of maximal finite")

    b4_p = sub.add_parser("b4", help="the four-strand amalgam model")
    b4_sub = b4_p.add_subparsers(dest="b4_command", required=True)
    verify_p = b4_sub.add_parser("verify", help="run the verification checks")
    verify_p.add_argument("--suite", choices=SUITES + ("all",), default="all")
    report_p = b4_sub.add_parser("report", help="assembled lower K-theory report")

    for command in (group_p, lambda_p, classify_p, verify_p, report_p):
        command.add_argument("--format", choices=("json", "text"), default="text",
                             help="output format (default: text)")

    return parser


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, ensure_ascii=False) + "\n")


def _cmd_group(args: argparse.Namespace) -> int:
    invariants = tuple(s.strip() for s in args.invariants.split(","))
    field_descriptor = None
    if args.field is not None:
        field_descriptor = FieldDescriptor.parse(args.field)
    report = group_report(
        args.family,
        m=args.m,
        k=args.k,
        invariants=invariants,
        field_descriptor=field_descriptor,
        max_size=args.max_brute_force,
    )
    if args.format == "json":
        _emit_json(report.to_json())
    else:
        print(report.render_text())
    return 0


def _cmd_lambda(args: argparse.Namespace) -> int:
    value = lambda_value(args.m)
    if args.format == "json":
        _emit_json({"schema": SCHEMA, "m": args.m, "lambda": value})
    else:
        print(f"lambda({args.m}) = {value}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    n = args.n
    if args.vc:
        if n == 4:
            descriptors = vc_classes_b4()
            label = "virtually_cyclic"
        elif n >= 3 and n % 2 == 1:
            descriptors = virtually_cyclic_classes_odd(n)
            label = "virtually_cyclic"
        else:
            raise UnsupportedParameterError(
                "virtually cyclic classification is available for odd n >= 3 and n = 4"
            )
    else:
        descriptors = maximal_finite_subgroups(n)
        label = "maximal_finite"
    if args.format == "json":
        _emit_json({"schema": SCHEMA, "n": n, label: [d.to_json() for d in descriptors]})
    else:
        print(f"n = {n}, {label}:")
        for d in descriptors:
            notes = f"  ({'; '.join(d.notes)})" if d.notes else ""
            print(f"  {d.name}{notes}")
    return 0


def _cmd_b4_verify(args: argparse.Namespace) -> int:
    if args.suite == "all":
        results = verify_all()
        checks = [c for suite in results.values() for c in suite]
    else:
        checks = verify_suite(args.suite)
    failed = [c for c in checks if not c.ok]
    if args.format == "json":
        _emit_json({
            "schema": SCHEMA,
            "suite": args.suite,
            "checks": [c.to_json() for c in checks],
            "passed": len(checks) - len(failed),
            "failed": len(failed),
        })
    else:
        for c in checks:
            print(f"{c.status.upper():4}  {c.check_id:34}  {c.statement}")
        print(f"{len(checks) - len(failed)} passed, {len(failed)} failed")
    return 1 if failed else 0


def _cmd_b4_report(args: argparse.Namespace) -> int:
    report = b4_lower_k_report()
    if args.format == "json":
        _emit_json(report.to_json())
    else:
        print(report.render_text())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "group" and args.max_brute_force < 0:
        parser.error(f"--max-brute-force must be non-negative, got {args.max_brute_force}")
    try:
        if args.command == "group":
            return _cmd_group(args)
        if args.command == "lambda":
            return _cmd_lambda(args)
        if args.command == "classify":
            return _cmd_classify(args)
        if args.command == "b4":
            if args.b4_command == "verify":
                return _cmd_b4_verify(args)
            return _cmd_b4_report(args)
    except (UnsupportedParameterError, GroupTooLargeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser.error("no command given")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())

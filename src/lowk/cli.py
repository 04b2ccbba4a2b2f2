"""Command-line interface.

Subcommands: `group`, `lambda`, `classify`, `b4 verify`, `b4 report`.
`group` and `lambda` load only the finite-group modules (groups, galois,
census, fconj, lowerk, report); `classify` also loads `lowk.classify`, and
`b4 verify` and `b4 report` load `lowk.b4` and `lowk.amalgam`, each inside
its command, so building the parser loads none of the three.
Each subcommand returns its answer and `main` writes it, in the one format
asked for, so a command writes stdout only once it has its whole answer; a
command that fails writes nothing there, and one `error:` line to stderr.
`write_json` writes JSON as `json.dumps(..., indent=2, ensure_ascii=False)`
does, but builds no closures, so an answer leaves no reference cycles for
the garbage collector.
`build_parser` declares every command, and records each command's own
parser by the words that name it; `main` hands an argv that starts with a
command's words to that parser, so a command line is parsed once, and any
other argv (empty, `-h`, an unknown command, an option before the command,
`b4` alone) to the top-level parser, which parses it as it always would.
`main` runs each command in a copy of the current context, so the census
bound `group --max-brute-force` sets (`census.BOUND`, at most
`groups.MAX_CLOSURE_SIZE`) ends with the command.
Exit codes: 0 success, 1 failed verification checks, 2 usage errors.
"""

from __future__ import annotations

import argparse
import contextvars
import functools
import json
import sys
from json.encoder import encode_basestring
from typing import NamedTuple, NoReturn

from .census import BOUND, BRUTE_FORCE_BOUND, GroupTooLargeError
from .galois import FieldDescriptor
from .groups import MAX_CLOSURE_SIZE
from .lowerk import lambda_value
from .report import (
    DEFAULT_INVARIANTS,
    FAMILIES,
    INVARIANT_ORDER,
    SCHEMA,
    KReport,
    UnsupportedParameterError,
    b4_lower_k_report,
    group_report,
    order_too_long_to_print,
)

# `b4.SUITES` and `b4.OPT_IN_SUITES`, spelled out so that building the parser
# does not load lowk.b4
B4_SUITES = ("braid", "actions", "gamma", "kernel", "rs")
B4_OPT_IN_SUITES = ("iso",)


def _bound(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    # a walked census (T*, O*, I* and family custom) lists every element of
    # its group; past the most elements lowk closes for one group, a bound
    # would let it list a group past memory
    if value > MAX_CLOSURE_SIZE:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_CLOSURE_SIZE}, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Writes a usage error as one `error:` line, as a failing command does."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"error: {message}\n")


# each command's own parser, by the words that name it, with the namespace
# fields (`command`, `b4_command`) that the subparser actions set on the way
# to it; filled by `build_parser`
_COMMANDS: dict[tuple[str, ...], tuple[argparse.ArgumentParser, dict[str, str]]] = {}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `lowk` argument parser, built once per process.

    `parse_args` fills a fresh namespace on every call, so one parser serves
    every `main` call.  Building it also records each command's parser in
    `_COMMANDS`, where `_parse` finds it.
    """
    parser = _Parser(
        prog="lowk",
        description="Lower algebraic K-theory of the finite subgroups of sphere "
                    "braid groups, and the verified amalgam model for four strands.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    group_p = sub.add_parser("group", help="invariant report for one finite group")
    group_p.add_argument("family", choices=tuple(FAMILIES))
    group_p.add_argument("--m", type=int, help="parameter m (cyclic Z_m, dicyclic Dic_4m)")
    group_p.add_argument("--k", type=int, help="parameter k for Q_{2^k}")
    group_p.add_argument("--invariants", default=",".join(DEFAULT_INVARIANTS),
                         help=f"comma list from {','.join(INVARIANT_ORDER)}")
    group_p.add_argument("--field", help="field for rf: Q, Qp:<p> or Fp:<p>")
    group_p.add_argument("--max-brute-force", type=_bound, metavar="N",
                         default=BRUTE_FORCE_BOUND,
                         help="largest group order handled by census machinery "
                              f"(at most {MAX_CLOSURE_SIZE})")

    lambda_p = sub.add_parser("lambda", help="rank multiplier for Dic_{4m}, m an odd prime")
    lambda_p.add_argument("--m", type=int, required=True)

    classify_p = sub.add_parser("classify", help="subgroup classification lists")
    classify_p.add_argument("--n", type=int, required=True, help="number of strands")
    classify_p.add_argument("--vc", action="store_true",
                            help="list virtually cyclic classes instead of maximal finite")

    b4_p = sub.add_parser("b4", help="the four-strand amalgam model")
    b4_sub = b4_p.add_subparsers(dest="b4_command", required=True)
    verify_p = b4_sub.add_parser("verify", help="run the verification checks")
    verify_p.add_argument(
        "--suite", choices=B4_SUITES + B4_OPT_IN_SUITES + ("all",), default="all",
        help="braid relations, actions, gamma (the Q16 *_Q8 Q16 amalgams), kernel "
             "(the quotient maps), rs (Reidemeister-Schreier), or all of these; "
             "iso (phi onto the amalgam) runs only when named",
    )
    report_p = b4_sub.add_parser("report", help="assembled lower K-theory report")

    for words, command, run in ((("group",), group_p, _cmd_group),
                                (("lambda",), lambda_p, _cmd_lambda),
                                (("classify",), classify_p, _cmd_classify),
                                (("b4", "verify"), verify_p, _cmd_b4_verify),
                                (("b4", "report"), report_p, _cmd_b4_report)):
        _COMMANDS[words] = command, dict(zip((sub.dest, b4_sub.dest), words))
        command.set_defaults(run=run)
        command.add_argument("--format", choices=("json", "text"), default="text",
                             help="output format (default: text)")

    return parser


class _Answer(NamedTuple):
    """An answer cheap enough to build in both formats."""

    payload: dict
    text: str

    def to_json(self) -> dict:
        return self.payload

    def render_text(self) -> str:
        return self.text


def _cmd_group(args: argparse.Namespace) -> tuple[KReport, int]:
    invariants = tuple(s.strip() for s in args.invariants.split(","))
    field_descriptor = None
    if args.field is not None:
        field_descriptor = FieldDescriptor.parse(args.field)
    BOUND.set(args.max_brute_force)
    report = group_report(
        args.family,
        m=args.m,
        k=args.k,
        invariants=invariants,
        field_descriptor=field_descriptor,
    )
    return report, 0


def _cmd_lambda(args: argparse.Namespace) -> tuple[_Answer, int]:
    value = lambda_value(args.m)
    return _Answer({"schema": SCHEMA, "m": args.m, "lambda": value},
                   f"lambda({args.m}) = {value}"), 0


def _cmd_classify(args: argparse.Namespace) -> tuple[_Answer, int]:
    from .classify import maximal_finite_subgroups, virtually_cyclic_classes

    n = args.n
    # Dic_4n is the largest class either list names
    if order_too_long_to_print("dicyclic", n):
        raise UnsupportedParameterError(
            f"--n is too large: the order 4n of Dic_4n would have more than "
            f"{sys.get_int_max_str_digits()} decimal digits"
        )
    if args.vc:
        descriptors = virtually_cyclic_classes(n)
        label = "virtually_cyclic"
    else:
        descriptors = maximal_finite_subgroups(n)
        label = "maximal_finite"
    lines = [f"n = {n}, {label}:"]
    for d in descriptors:
        notes = f"  ({'; '.join(d.notes)})" if d.notes else ""
        lines.append(f"  {d.name}{notes}")
    payload = {"schema": SCHEMA, "n": n, label: [d.to_json() for d in descriptors]}
    return _Answer(payload, "\n".join(lines)), 0


def _cmd_b4_verify(args: argparse.Namespace) -> tuple[_Answer, int]:
    from .b4 import verify_all, verify_suite

    if args.suite == "all":
        checks = [c for suite in verify_all().values() for c in suite]
    else:
        checks = verify_suite(args.suite)
    failed = sum(not c.ok for c in checks)
    payload = {
        "schema": SCHEMA,
        "suite": args.suite,
        "checks": [c.to_json() for c in checks],
        "passed": len(checks) - failed,
        "failed": failed,
    }
    lines = [f"{c.status.upper():4}  {c.check_id:34}  {c.statement}" for c in checks]
    lines.append(f"{len(checks) - failed} passed, {failed} failed")
    return _Answer(payload, "\n".join(lines)), 1 if failed else 0


def _cmd_b4_report(args: argparse.Namespace) -> tuple[KReport, int]:
    return b4_lower_k_report(), 0


def _scalar(value: object) -> str:
    """JSON text of a value that is not a string or a container."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return json.dumps(value)  # a float, or the TypeError json raises


def _write(value: object, indent: str, out: list[str]) -> None:
    """Append the JSON text of `value`, nested at `indent`, to `out`."""
    if isinstance(value, str):
        out.append(encode_basestring(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key, item in value.items():
            out.append(sep)
            out.append(encode_basestring(key if isinstance(key, str) else _scalar(key)))
            out.append(": ")
            _write(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    else:
        out.append(_scalar(value))


def write_json(value: object) -> str:
    """`json.dumps(value, indent=2, ensure_ascii=False)`, written by a plain
    recursive function: the stdlib's pure-Python indenting encoder leaves
    its nested closures as cyclic garbage on every call."""
    out: list[str] = []
    _write(value, "", out)
    return "".join(out)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`, with a command's arguments parsed
    by that command's parser alone.

    Through the top-level parser, argparse parses a command line once per
    level: the subparser action of `lowk`, then of `b4`, each runs the next
    parser on what is left.
    """
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    for n in (1, 2):
        found = _COMMANDS.get(tuple(argv[:n]))
        if found is not None:
            command, fields = found
            return command.parse_args(argv[n:], argparse.Namespace(**fields))
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    try:
        answer, code = contextvars.copy_context().run(args.run, args)
        if args.format == "json":
            out = write_json(answer.to_json())
        else:
            out = answer.render_text()
    except (UnsupportedParameterError, GroupTooLargeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(out + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())

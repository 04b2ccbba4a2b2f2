"""`lowk.cli.main` parses a command line with the named command's own parser.

The reference is the full parser, `build_parser().parse_args(argv)`, which
argparse runs level by level.  A seeded grammar of argvs (every command ×
option × value, in each spelling argparse accepts, plus help requests,
misplaced options, unknown commands and bad values) must give the same
namespace through `main`'s parse, or the same exit code with the same
stdout and stderr.
"""

import argparse
import contextlib
import io
import random

import pytest

from lowk import cli
from lowk.report import FAMILIES

_INTS = ("0", "1", "-1", "7", "12", "2305843009213693951", "1e3", "12.5", "x", "")
_FORMATS = ("json", "text", "xml", "JSON")
# the options of each command, with the values to give them; None marks a flag
_OPTIONS = {
    ("group",): {
        "--m": _INTS,
        "--k": _INTS,
        "--invariants": ("wh", "wh,k0,kminus1,rf,wedderburn", "nope", ""),
        "--field": ("Q", "Qp:2", "Fp:3", "Qp:", "R"),
        "--max-brute-force": ("-5", "0", "24", "5000", "100000", "100001", "ten"),
        "--format": _FORMATS,
    },
    ("lambda",): {"--m": _INTS, "--format": _FORMATS},
    ("classify",): {"--n": _INTS, "--vc": None, "--format": _FORMATS},
    ("b4", "verify"): {
        "--suite": (*cli.B4_SUITES, *cli.B4_OPT_IN_SUITES, "all", "bogus"),
        "--format": _FORMATS,
    },
    ("b4", "report"): {"--format": _FORMATS},
}
_FAMILY_WORDS = (*FAMILIES, "octonion", "")
_HELP = ("-h", "--help", "--he")

# argvs the grammar below does not build: no command, or no whole command
_FIXED = [
    [], ["-h"], ["--help"], ["--he"], ["-h", "group"], ["--help", "b4", "verify"],
    ["group"], ["lambda"], ["classify"], ["b4"], ["b4", "-h"], ["b4", "--help"],
    ["b4", "bogus"], ["b4", "--format", "json", "report"], ["b4", "verif"],
    ["octonion"], ["grup", "cyclic"], ["Group", "cyclic"], ["lambda=7"], ["-"],
    ["--format", "json", "lambda", "--m", "7"], ["--m", "7", "lambda"],
    ["--", "lambda", "--m", "7"], ["lambda", "--", "--m", "7"],
    ["group", "--", "cyclic"], ["lambda", "--m", "7", "--", "extra"],
    ["b4", "verify", "report"], ["b4", "report", "verify"],
    ["group", "cyclic", "group", "dicyclic"], ["lambda", "lambda"],
]


def _option_argvs(option, values, rng):
    """Each value of `option` as `--opt value`, `--opt=value` and an abbreviation."""
    if values is None:
        return [[option], [f"{option}=1"], [option[:3]]]
    out = []
    for value in values:
        out.append([option, value])
        out.append([f"{option}={value}"])
        out.append([option[:rng.randrange(3, len(option) + 1)], value])
    return out


def _random_option(options, rng):
    option = rng.choice(sorted(options))
    values = options[option]
    if values is None:
        return rng.choice(_option_argvs(option, None, rng))
    spelt = rng.choice(_option_argvs(option, (rng.choice(values),), rng))
    # an option with its value missing
    return spelt[:1] if rng.random() < 0.05 else spelt


def _argvs():
    rng = random.Random(38)
    argvs = [list(argv) for argv in _FIXED]
    for words, options in _OPTIONS.items():
        head = [*words, "cyclic"] if words == ("group",) else list(words)
        argvs.append(head)
        argvs.extend([*head, h] for h in _HELP)
        for option, values in options.items():
            argvs.extend([*head, *spelt] for spelt in _option_argvs(option, values, rng))
    for family in _FAMILY_WORDS:
        argvs.append(["group", family, "--m", "5"])
    for _ in range(400):
        words = rng.choice(sorted(_OPTIONS))
        options = _OPTIONS[words]
        argv = list(words)
        if words == ("group",) and rng.random() < 0.9:
            argv.append(rng.choice(_FAMILY_WORDS))
        for _ in range(rng.randrange(5)):
            argv += _random_option(options, rng)
        roll = rng.random()
        if roll < 0.1:
            argv.insert(rng.randrange(len(argv) + 1), rng.choice(_HELP))
        elif roll < 0.2:
            argv.append(rng.choice(("extra", "7", "-x", "--extra", "--format")))
        elif roll < 0.25:
            # an option of this command moved before the command
            spelt = _random_option(options, rng)
            argv = spelt + argv
        elif roll < 0.3:
            argv[len(words) - 1] += "s"  # a misspelt command word
        argvs.append(argv)
    return argvs


def _outcome(parse, argv):
    """The namespace `parse(argv)` returns, or its exit code; then stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def test_main_parses_every_argv_as_the_full_parser_does():
    reference = cli.build_parser().parse_args
    kinds = {"parsed": 0, "help": 0, "usage error": 0}
    for argv in _argvs():
        got = _outcome(cli._parse, argv)
        assert got == _outcome(reference, argv), argv
        result, out, err = got
        if isinstance(result, dict):
            kinds["parsed"] += 1
            assert (out, err) == ("", "")
            assert (result["command"], result.get("b4_command")) == (
                argv[0], argv[1] if argv[0] == "b4" else None)
        elif result == 0:
            kinds["help"] += 1
            assert out.startswith("usage: lowk") and err == ""
        else:
            kinds["usage error"] += 1
            assert result == 2 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
    # the sample reaches every outcome, each many times
    assert min(kinds.values()) >= 30, kinds


def test_each_command_line_is_parsed_once(monkeypatch, capsys):
    progs = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        progs.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    for argv in (["group", "dicyclic", "--m", "5"], ["lambda", "--m", "7"],
                 ["classify", "--n", "4"], ["b4", "verify", "--suite", "braid"],
                 ["b4", "report"]):
        progs.clear()
        assert cli.main(argv) == 0
        assert progs == ["lowk " + " ".join(argv[:2 if argv[0] == "b4" else 1])]
    capsys.readouterr()
    progs.clear()
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    assert progs == ["lowk"]
    assert capsys.readouterr() == ("", "error: the following arguments are required: command\n")

import json
import os
import resource
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import lowk
from lowk import census, lowerk, report as report_module
from lowk.cli import main
from lowk.lowerk import UNKNOWN, AbelianGroupExpr, Z2_INF, W_NAME
from lowk.galois import FieldDescriptor
from lowk.report import (
    AssemblyError,
    UnsupportedParameterError,
    b4_lower_k_report,
    group_report,
    nil_groups_q8,
)

from helpers import brute_force_bound

GOLDEN = Path(__file__).parent / "golden"
SRC = str(Path(lowk.__file__).resolve().parents[1])


def test_group_report_dic20():
    report = group_report("dicyclic", m=5)
    assert report.values["wh"] == AbelianGroupExpr.free(2)
    assert report.values["k0"] == AbelianGroupExpr.torsion_group(2)
    assert report.values["kminus1"] == AbelianGroupExpr(1, (2,))
    assert report.provenance


def test_group_report_tstar():
    report = group_report("tstar")
    assert report.values["wh"] == AbelianGroupExpr.zero()
    assert report.values["k0"] == AbelianGroupExpr.torsion_group(2)
    assert report.values["kminus1"] == AbelianGroupExpr.free(1)


def test_families_come_from_one_table(capsys):
    with pytest.raises(SystemExit):
        main(["group", "--help"])
    assert "{" + ",".join(report_module.FAMILIES) + "}" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exit_info:
        main(["group", "octonion"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'octonion'" in capsys.readouterr().err
    # library callers skip argparse, so group_report checks the name itself
    with pytest.raises(UnsupportedParameterError, match="unknown family 'octonion'"):
        group_report("octonion")


def test_group_report_unknown_k0():
    report = group_report("dicyclic", m=13, invariants=("k0",))
    assert report.values["k0"] is UNKNOWN
    assert report.to_json()["k0"] == "unknown"


def test_group_report_rf_and_wedderburn():
    report = group_report(
        "quaternion", k=4, invariants=("rf", "wedderburn"),
        field_descriptor=FieldDescriptor.p_adic(2),
    )
    assert report.values["rf"] == {"field": "Q_2", "value": 6}
    assert len(report.values["wedderburn"]) == 6


def test_group_report_every_field_has_provenance():
    report = group_report("dicyclic", m=5,
                          invariants=("wh", "k0", "kminus1", "wedderburn"))
    text = "\n".join(report.provenance)
    for key in ("wh", "k0", "kminus1", "wedderburn"):
        assert f"{key}" in text


def test_every_entry_is_one_table_row(monkeypatch):
    assert [f.name for f in fields(report_module.KReport)] == ["group", "values", "provenance"]
    probe = report_module._Entry(
        "probe_key", str, lambda v: f"probe: {v}", lambda group, _: group.order,
        "probe: order of the group, {value}",
    )
    monkeypatch.setitem(report_module._ENTRIES, "probe", probe)
    report = group_report("cyclic", m=6, invariants=("probe", "wh"))
    assert report.values == {"wh": AbelianGroupExpr.free(0), "probe": 6}
    doc = report.to_json()
    assert list(doc) == ["schema", "group", "wh", "probe_key", "provenance"]
    assert doc["probe_key"] == "6"
    assert doc["provenance"][-1] == "probe: order of the group, 6"
    assert report.render_text().splitlines()[1:3] == ["Wh: 0", "probe: 6"]


def test_group_report_errors():
    with pytest.raises(UnsupportedParameterError):
        group_report("dicyclic", m=1)
    with pytest.raises(UnsupportedParameterError):
        group_report("cyclic")
    with pytest.raises(UnsupportedParameterError):
        group_report("dicyclic", m=6, invariants=("kminus1",))
    with pytest.raises(UnsupportedParameterError):
        group_report("tstar", invariants=("rf",))
    with pytest.raises(UnsupportedParameterError):
        group_report("tstar", invariants=("bogus",))


def test_nil_groups_q8():
    assert nil_groups_q8(1) == AbelianGroupExpr.summand(Z2_INF)
    assert nil_groups_q8(3) == AbelianGroupExpr.summand(Z2_INF)
    assert nil_groups_q8(2) == AbelianGroupExpr.summand(W_NAME)
    with pytest.raises(ValueError):
        nil_groups_q8(4)


def test_b4_report_values():
    report = b4_lower_k_report()
    assert report.values["wh"] == AbelianGroupExpr(1, (), (("Nil_1", 1),))
    assert report.values["k0"] == AbelianGroupExpr(0, (2,), (("Nil_0", 1),))
    assert report.values["kminus1"] == AbelianGroupExpr(1, (2,))
    nil = report.to_json()["nil"]
    block = nil["Nil_0"]["summand"]
    assert block["infinite"] == [
        {"name": Z2_INF, "copies": 2},
        {"name": W_NAME, "copies": 2},
    ]
    assert nil["Nil_0"]["copies"] == "countable"
    assert nil["Nil_1"] == nil["Nil_0"]


@pytest.mark.parametrize("name, order, value", [
    ("k_minus_one", 8, AbelianGroupExpr.free(1)),
    ("k0_tilde_lookup", 16, UNKNOWN),
    ("whitehead_rank", 8, 1),
], ids=["kminus1_q8_nonzero", "k0_q16_unknown", "wh_q8_nonzero"])
def test_b4_report_rejects_a_wrong_assembly_input(monkeypatch, name, order, value):
    real = getattr(report_module, name)

    def wrong_at_order(group, **kwargs):
        return value if group.order == order else real(group, **kwargs)

    monkeypatch.setattr(report_module, name, wrong_at_order)
    with pytest.raises(AssemblyError):
        b4_lower_k_report()


def test_b4_report_byte_identical_and_matches_golden():
    a = json.dumps(b4_lower_k_report().to_json(), indent=2, ensure_ascii=False)
    b = json.dumps(b4_lower_k_report().to_json(), indent=2, ensure_ascii=False)
    assert a == b
    golden = (GOLDEN / "b4_report.json").read_text().rstrip("\n")
    assert a == golden


# -- CLI ------------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_b4_report_text_matches_golden_byte_for_byte(capsys):
    code, out, err = run_cli(capsys, "b4", "report", "--format", "text")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "b4_report.txt").read_text()


def test_cli_group_json(capsys):
    code, out, _ = run_cli(
        capsys, "group", "dicyclic", "--m", "5", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "lowk/1"
    assert doc["group"]["name"] == "Dic_20"
    assert doc["wh"] == {"rank": 2, "torsion": [], "infinite": []}
    assert doc["kminus1"] == {"rank": 1, "torsion": [2], "infinite": []}


def test_cli_group_text(capsys):
    code, out, _ = run_cli(capsys, "group", "tstar")
    assert code == 0
    assert "Wh: 0" in out
    assert "K_-1: Z" in out


def test_cli_group_rf_field(capsys):
    code, out, _ = run_cli(
        capsys, "group", "dicyclic", "--m", "5",
        "--invariants", "rf", "--field", "Qp:2", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["r_F"] == {"field": "Q_2", "value": 5}


def test_cli_lambda(capsys):
    code, out, _ = run_cli(capsys, "lambda", "--m", "8191", "--format", "json")
    assert code == 0
    assert json.loads(out)["lambda"] == 315


def test_cli_lambda_usage_error(capsys):
    code, _, err = run_cli(capsys, "lambda", "--m", "9")
    assert code == 2
    assert "odd primes" in err


def test_cli_classify(capsys):
    code, out, _ = run_cli(capsys, "classify", "--n", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [d["name"] for d in doc["maximal_finite"]] == ["Q16", "T*"]
    # the largest n whose class Dic_4n has an order str can print
    n = 10 ** DIGIT_LIMIT // 4 - 1
    code, out, _ = run_cli(capsys, "classify", "--n", str(n))
    assert code == 0
    assert f"  Dic_{4 * n}\n" in out


def test_cli_classify_vc(capsys):
    code, out, _ = run_cli(capsys, "classify", "--n", "5", "--vc", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["virtually_cyclic"]) == 15
    code, out, _ = run_cli(capsys, "classify", "--n", "4", "--vc", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["virtually_cyclic"]) == 12


def test_cli_classify_vc_even_rejected(capsys):
    code, _, err = run_cli(capsys, "classify", "--n", "6", "--vc")
    assert code == 2
    assert "odd" in err


def test_cli_b4_verify_all(capsys):
    code, out, _ = run_cli(capsys, "b4", "verify", "--suite", "all", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["failed"] == 0
    assert doc["passed"] == len(doc["checks"]) > 70
    sample = doc["checks"][0]
    assert set(sample) == {"check_id", "statement", "status", "witness_normal_form"}


def test_cli_b4_verify_single_suite_text(capsys):
    code, out, _ = run_cli(capsys, "b4", "verify", "--suite", "rs")
    assert code == 0
    assert "0 failed" in out


def test_cli_b4_report_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "b4", "report", "--format", "json")
    code2, out2, _ = run_cli(capsys, "b4", "report", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["kminus1"] == {"rank": 1, "torsion": [2], "infinite": []}


def test_cli_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["group", "nonsense"])
    assert exc.value.code == 2
    for invariants in ("wh", "kminus1"):
        with pytest.raises(SystemExit) as exc:
            main(["group", "cyclic", "--m", "12", "--max-brute-force", "-5",
                  "--invariants", invariants])
        assert exc.value.code == 2
        assert "non-negative" in capsys.readouterr().err
    # a bound past groups.MAX_CLOSURE_SIZE is refused, naming the option
    with pytest.raises(SystemExit) as exc:
        main(["group", "cyclic", "--m", "12", "--max-brute-force", "100001"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "error: argument --max-brute-force: must be at most 100000, got 100001\n"
    )


def test_a_bound_set_by_one_command_ends_with_it(capsys):
    code, out, err = run_cli(capsys, "group", "tstar", "--max-brute-force", "10")
    assert (code, out) == (2, "")
    assert err == "error: T*: order 24 > 10 and no closed form applies\n"
    # b4 report takes carter_rank(Q16), order 16, by the census
    code, out, err = run_cli(capsys, "b4", "report", "--format", "json")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "b4_report.json").read_text()
    code, _, err = run_cli(capsys, "group", "tstar")
    assert (code, err) == (0, "")
    assert census.BOUND.get() == census.BRUTE_FORCE_BOUND == 5000


@pytest.mark.parametrize("argv", [
    ("lambda", "--m", "7", "--max-brute-force", "3"),
    ("classify", "--n", "4", "--max-brute-force", "0"),
    ("b4", "verify", "--max-brute-force", "1"),
    ("b4", "report", "--max-brute-force", "5000"),
    # options follow their subcommand
    ("--format", "json", "lambda", "--m", "7"),
])
def test_option_a_command_does_not_read_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


GROUP_REPORTS = json.loads((GOLDEN / "group_reports.json").read_text())


@pytest.mark.parametrize("command", sorted(GROUP_REPORTS))
def test_group_report_matches_golden_byte_for_byte(capsys, command):
    code, out, err = run_cli(capsys, *command.split())
    assert (code, err) == (0, "")
    assert out == GROUP_REPORTS[command]


CLASSIFY = json.loads((GOLDEN / "classify.json").read_text())


@pytest.mark.parametrize("command", sorted(CLASSIFY))
def test_classify_matches_golden_byte_for_byte(capsys, command):
    code, out, err = run_cli(capsys, *command.split())
    assert (code, err) == (0, "")
    assert out == CLASSIFY[command]


CENSUS_WH = "wh: class census sum of r1(d) - r2(d)"
CROSS_CHECKED = CENSUS_WH + ", cross-checked against the family closed form"
CARTER = ("kminus1 rank: Carter formula 1 - r_Q + sum_p (r_Qp - r_Fp) "
          "from Witt-Berman counts")
LAMBDA = "kminus1 rank: dicyclic odd-prime closed form via |<2>| mod m"
SK1 = "wh torsion: SK_1 vanishes for the supported families"


@pytest.mark.parametrize("bound, wh_line, rank_line", [
    (20, CROSS_CHECKED, CARTER),   # |Dic_20| = 20: census
    (19, "wh: family closed form", LAMBDA),
])
def test_provenance_follows_the_path_taken(bound, wh_line, rank_line):
    with brute_force_bound(bound):
        report = group_report("dicyclic", m=5, invariants=("wh", "kminus1"))
    torsion = "kminus1 torsion: dicyclic odd-prime rule, m = 5 = 1 mod 4"
    assert report.provenance == (wh_line, SK1, rank_line, torsion)


def test_no_cross_check_claimed_without_a_closed_form(monkeypatch, capsys):
    monkeypatch.setattr(lowerk, "_whitehead_closed_form", lambda group: None)
    report = group_report("cyclic", m=12, invariants=("wh",))
    assert report.provenance == (CENSUS_WH, SK1)
    code, _, err = run_cli(capsys, "group", "cyclic", "--m", "12",
                           "--invariants", "wh", "--max-brute-force", "4")
    assert code == 2
    assert "no closed form" in err


def test_cli_unsupported_parameters(capsys):
    code, _, err = run_cli(capsys, "group", "dicyclic", "--m", "1")
    assert code == 2
    assert err
    # an empty invariant list, or an empty item in one, is not skipped
    for invariants in ("", "wh,,k0"):
        code, out, err = run_cli(capsys, "group", "dicyclic", "--m", "6",
                                 "--invariants", invariants)
        assert (code, out) == (2, "")
        assert err.startswith("error: unknown invariant ''")


def test_group_report_partitions_the_group_once(monkeypatch):
    calls = []
    partition = census._build_census

    def counting(group, *args):
        calls.append(group.name)
        return partition(group, *args)

    # patch every lowk module that binds the census builder, not only census
    for name, module in list(sys.modules.items()):
        if name.startswith("lowk"):
            for attr, value in list(vars(module).items()):
                if value is partition:
                    monkeypatch.setattr(module, attr, counting)
    report = group_report("cyclic", m=1830, invariants=("wh", "kminus1", "rf"),
                          field_descriptor=FieldDescriptor.p_adic(3))
    assert calls == ["Z_1830"]
    assert report.values["rf"]["field"] == "Q_3"


def test_istar_census_is_built_once_per_process(monkeypatch, capsys):
    from lowk.groups import build_binary_polyhedral

    census._CENSUS.pop(build_binary_polyhedral("I*"), None)
    calls = []
    partition = census._build_census

    def counting(group):
        calls.append(group.name)
        return partition(group)

    monkeypatch.setattr(census, "_build_census", counting)
    for field in ("Q", "Qp:2", "Fp:3"):
        code, _, err = run_cli(capsys, "group", "istar", "--invariants", "kminus1,rf",
                               "--field", field)
        assert (code, err) == (0, "")
    assert calls == ["I*"]


def test_shared_group_still_checks_the_brute_force_bound(capsys):
    assert run_cli(capsys, "group", "tstar")[0] == 0
    code, out, err = run_cli(capsys, "group", "tstar", "--max-brute-force", "10")
    assert (code, out) == (2, "")
    assert "no closed form" in err


# -- bounded cost for closed-form paths -------------------------------------------

def test_closed_form_reports_leave_elements_unbuilt(monkeypatch):
    built = []
    build = report_module._build_group

    def capture(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(report_module, "_build_group", capture)
    group_report("dicyclic", m=200891)
    group_report("quaternion", k=18, invariants=("wh", "k0"))
    assert [g.name for g in built] == ["Dic_803564", "Q_262144"]
    for group in built:
        assert "elements" not in vars(group)


CHILD_ADDRESS_SPACE = 1 << 30


def _cli_in_child(*argv):
    """Run `python -m lowk.cli argv` in a child capped at 1 GiB of address space."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))

    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, "-m", "lowk.cli", *argv], capture_output=True, text=True,
        timeout=10, preexec_fn=cap, env=env,
    )


# the largest k, and the least m, whose Q_{2^k} and Dic_{4m} have orders with
# more decimal digits than Python converts to a string (4300 by default)
DIGIT_LIMIT = sys.get_int_max_str_digits()
LAST_PRINTABLE_K = (10 ** DIGIT_LIMIT).bit_length() - 1
NINES = "9" * DIGIT_LIMIT


@pytest.mark.parametrize("argv", [
    ("group", "dicyclic", "--m", "1000003"),
    ("group", "quaternion", "--k", "40", "--invariants", "wh,k0"),
    ("group", "quaternion", "--k", str(LAST_PRINTABLE_K), "--invariants", "wh,k0"),
])
def test_huge_closed_form_answers_in_bounded_memory(argv):
    done = _cli_in_child(*argv, "--format", "json")
    assert done.returncode == 0, done.stderr
    assert "wh: family closed form" in json.loads(done.stdout)["provenance"]


@pytest.mark.parametrize("argv", [
    ("group", "cyclic", "--m", "1000000007"),
    ("group", "quaternion", "--k", "40"),
    # 2^61 - 1 and 10^17 + 3 are past the trial division bound
    ("lambda", "--m", "2305843009213693951"),
    ("group", "dicyclic", "--m", "2305843009213693951", "--invariants", "wh"),
    ("group", "dicyclic", "--m", str(2 * (2**61 - 1)), "--invariants", "wedderburn"),
    # Q[Dic_4m] would have over 10^5 components, each printing a 4200-digit index
    ("group", "dicyclic", "--m", str(105 * 2**14000), "--invariants", "wedderburn"),
    ("classify", "--n", "100000000000000003", "--vc"),
    # group orders too long to print, refused before the group is built
    ("group", "quaternion", "--k", str(LAST_PRINTABLE_K + 1)),
    ("group", "quaternion", "--k", "14290"),
    ("group", "quaternion", "--k", "10000000000"),
    ("group", "dicyclic", "--m", NINES, "--invariants", "k0"),
    # a bound past the closure cap would let the census list 5 * 10^7 elements
    ("group", "cyclic", "--m", "50000000", "--max-brute-force", "100000000000",
     "--invariants", "wh"),
])
def test_huge_census_only_query_exits_2_in_bounded_memory(argv):
    done = _cli_in_child(*argv)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr
    assert "set_int_max_str_digits" not in done.stderr


def test_wedderburn_factors_only_the_odd_part_of_m(capsys):
    code, out, _ = run_cli(capsys, "group", "dicyclic", "--m", str(3 * 2**60),
                           "--invariants", "wedderburn", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["wedderburn"]) == 126  # 4 + (2 * 61 - 2) + 2


# family -> its parameter, and the least value of it whose group order has
# DIGIT_LIMIT + 1 digits
LEAST_TOO_LONG = {
    "cyclic": ("m", 10 ** DIGIT_LIMIT),
    "dicyclic": ("m", 10 ** DIGIT_LIMIT // 4),
    "quaternion": ("k", LAST_PRINTABLE_K + 1),
}


@pytest.mark.parametrize("family", sorted(LEAST_TOO_LONG))
def test_order_too_long_to_print_is_refused_naming_the_parameter(family):
    option, least = LEAST_TOO_LONG[family]
    params = {"m": None, "k": None}
    with pytest.raises(UnsupportedParameterError, match=f"^--{option} is too large"):
        report_module._build_group(family, **{**params, option: least})
    group = report_module._build_group(family, **{**params, option: least - 1})
    assert len(str(group.order)) == DIGIT_LIMIT


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv, reason", [
    (("group", "dicyclic", "--m", "1"), "must be >= 2"),
    (("group", "tstar", "--max-brute-force", "10"), "no closed form"),
    (("lambda", "--m", "9"), "odd primes"),
    # |Dic_4n| = 4n, the largest class order classify prints, has too many digits
    (("classify", "--n", NINES), "--n is too large"),
    (("classify", "--n", "6", "--vc"), "odd n >= 3"),
])
def test_failing_command_writes_nothing_to_stdout(capsys, argv, reason, fmt):
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert reason in err
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("argv", [("group", "dicyclic", "--m", "5"), ("b4", "report")])
def test_json_answer_runs_no_text_renderer(monkeypatch, capsys, argv):
    def refuse(self):
        raise AssertionError("text renderer ran on the JSON path")

    monkeypatch.setattr(report_module.KReport, "render_text", refuse)
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["schema"] == "lowk/1"


def test_module_entry_point_prints_the_golden_report():
    command = "group dicyclic --m 5 --format text"
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONIOENCODING": "utf-8"}
    done = subprocess.run([sys.executable, "-m", "lowk.cli", *command.split()],
                          capture_output=True, timeout=60, env=env)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == GROUP_REPORTS[command].encode()
    bad = _cli_in_child("group", "dicyclic", "--m", "1")
    assert (bad.returncode, bad.stdout) == (2, "")


@pytest.mark.parametrize("field", ["Qp:", "Fp:2.5"])
def test_unparsable_field_exits_2_naming_the_field(field):
    done = _cli_in_child("group", "dicyclic", "--m", "6", "--invariants", "rf", "--field", field)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == (
        f"error: cannot parse field {field!r} (expected Q, Qp:<p> or Fp:<p>)\n"
    )


@pytest.mark.parametrize("argv,option", [
    (("group", "tstar", "--m", "7"), "--m"),
    (("group", "istar", "--k", "4", "--invariants", "wh"), "--k"),
    (("group", "cyclic", "--m", "12", "--k", "5"), "--k"),
    (("group", "quaternion", "--k", "4", "--m", "3"), "--m"),
    (("group", "cyclic", "--m", "12", "--field", "Qp:2", "--invariants", "wh"), "--field"),
    (("group", "dicyclic", "--m", "5", "--field", "Q"), "--field"),
])
def test_unused_option_exits_2_naming_it(argv, option):
    done = _cli_in_child(*argv)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert option in done.stderr


@pytest.mark.parametrize("argv", [
    ("lambda", "--m", "2147483647"),
    ("group", "quaternion", "--k", "200", "--invariants", "wh,k0,wedderburn"),
])
def test_inputs_under_the_trial_division_bound_still_answer(argv):
    done = _cli_in_child(*argv, "--format", "json")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["schema"] == "lowk/1"


def test_cli_main_twice_matches_a_fresh_process(capsys):
    first = ["group", "cyclic", "--m", "12", "--max-brute-force", "4",
             "--invariants", "wh", "--format", "json"]
    second = ["group", "dicyclic", "--m", "5"]
    assert main(first) == 0
    capsys.readouterr()
    assert main(second) == 0
    out = capsys.readouterr().out
    fresh = _cli_in_child(*second)
    assert fresh.returncode == 0
    assert out == fresh.stdout
    assert "census" in out


@pytest.mark.parametrize("command, golden", [
    ("verify", "b4_verify.json"),
    ("report", "b4_report.json"),
])
def test_b4_json_under_python_O_matches_golden(command, golden):
    # -O strips assert statements, so every check the output depends on must raise
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONIOENCODING": "utf-8"}
    done = subprocess.run(
        [sys.executable, "-O", "-m", "lowk.cli", "b4", command, "--format", "json"],
        capture_output=True, timeout=60, env=env,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / golden).read_bytes()

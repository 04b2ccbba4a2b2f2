"""Smoke test of the benchmark on its tiny decks."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, kind):
    proc = run_bench("--workload", "all", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in SPEC["workloads"]:
        name = workload["name"]
        for metric in SPEC[kind]:
            assert result["metrics"][f"{name}.{metric['name']}"]["unit"] == metric["unit"]
            line = rf"^{name}\s+{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}$"
            assert re.search(line, proc.stdout, re.M), (name, metric["name"])
        assert re.search(rf"^{name}\s+failed_ratio\s+0 \(0 failed / \d+ attempted\)$",
                         proc.stdout, re.M)


def test_same_seed_same_digest():
    def digest(seed: str) -> str:
        proc = run_bench("--workload", "carter_rf", "--seed", seed, "--seconds", "0", "--tiny")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        return re.search(r"digest ([0-9a-f]{64})", proc.stdout).group(1)

    assert digest("5") == digest("5") != digest("6")


def test_wrong_expected_answer_counts_as_failed():
    sys.path.insert(0, str(ROOT))
    from perfbench import run

    run._require_program()
    from perfbench import oracles, workloads

    right = oracles.wh_cyclic(12)
    deck = [workloads.group_query("cyclic", ["--m", "12"], "wh", {"wh.rank": right}),
            workloads.group_query("cyclic", ["--m", "12"], "wh", {"wh.rank": right + 1})]
    runner = run.Runner(deck)
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (2, 1)
    assert "wh.rank" in runner.failures[0]


def test_stops_without_a_result_when_lowk_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = run_bench("--workload", "census_wh", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

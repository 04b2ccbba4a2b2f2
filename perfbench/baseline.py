"""Repeat the benchmark over several seeds and summarise the spread.

    python3 perfbench/baseline.py --workloads all --seeds 1-10 --seconds 25 \\
        --out perfbench/results/BENCH_seed.json

For each workload, runs `run.py --trace 0` once per seed (each run in its own
process, one after another), then prints each end-to-end metric's median,
quartiles and spread (interquartile distance over the median) next to the
bound in BENCHMARK.json.  With `--out` it also makes one traced run per
workload and writes everything, with the machine description, to a JSON
result file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed (exit {proc.returncode}):\n{proc.stdout}")
    result = json.loads(lines[-1])
    result["digest"] = next(line.split()[-1] for line in lines if " digest " in line)
    result["host"] = next((line.split(": ", 1)[1] for line in lines
                           if ": host speed " in line), "")
    return result


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--out", type=Path, help="result file to write")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    names = ([w["name"] for w in spec["workloads"]] if args.workloads == "all"
             else args.workloads.split(","))
    seeds = seed_range(args.seeds)

    report: dict = {"machine": machine(), "seconds": seconds, "seeds": seeds,
                    "workloads": {}}
    worst = 0.0
    for name in names:
        runs = []
        for seed in seeds:
            result = run(name, seed, seconds, 0)
            runs.append({"seed": seed, "digest": result["digest"], "host": result["host"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         **{k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
            print(f"    {result['host']}", flush=True)
        summary = {}
        for metric, bound in bounds.items():
            summary[metric] = summarise([r[metric] for r in runs])
            spread = summary[metric]["spread"]
            if metric != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:16} {metric:14} median {summary[metric]['median']:.5g}  "
                  f"spread {spread:.3f}  bound {bound}  "
                  f"{'ok' if spread < bound / 3 else 'WIDE'}")
        entry = {"runs": runs, "summary": summary}
        if args.out:
            traced = run(name, seeds[0], seconds, 1)
            entry["traced"] = {"seed": seeds[0], **{
                k: v["value"] for k, v in traced["metrics"].items()}}
        report["workloads"][name] = entry
    print(f"widest spread / bound (setup_s excluded): {worst:.3f}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

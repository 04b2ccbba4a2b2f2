"""Run lowk workloads in a closed loop and print their metrics.

    python3 perfbench/run.py --workload census_wh --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

One caller, one thread: each query is issued after the previous one
returns.  A single workload runs in this process; `all` or a comma list runs
each workload in its own fresh process, one after another.  With `--trace 0`
the end-to-end metrics are printed, with `--trace 1` the per-layer metrics
of a traced run.  The last line of output is one JSON object; the exit code
is non-zero when any answer fails its check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 11
# Host-speed probe: its reference time, and how often the timed loop re-runs it.
PROBE_REF_S = 0.004
PROBE_EVERY_S = 0.2
WORKLOADS = ("census_wh", "carter_rf", "closed_form_big", "b4_amalgam")
END_TO_END = [
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_ms_p50", "ms"),
    ("query_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
]


def _require_program() -> None:
    """Put the checkout's lowk first on the path, or stop without a result."""
    for needed in ("src/lowk/__init__.py", "tests/golden/b4_report.json"):
        if not (ROOT / needed).is_file():
            sys.exit(f"perfbench: {needed} is missing; run from a full lowk checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def probe_loop() -> int:
    """A fixed pure-Python loop that shares no code with lowk: dict updates
    and small frozensets, the kind of work lowk's census does."""
    total, counts = 0, {}
    for i in range(4000):
        counts[i % 97] = counts.get(i % 97, 0) + i
        total += len(frozenset(range(i % 50)))
    return total


class HostSpeed:
    """Tracks the speed of a shared host, whose other tenants can slow it
    down by up to 2x for seconds to minutes at a time.

    `factor()` is PROBE_REF_S over the median of the last three probe times;
    a time multiplied by it reads as on a host where the probe takes
    PROBE_REF_S.  The probe runs between queries, never inside a timed one.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.last = -1.0

    def sample(self) -> float:
        t0 = time.perf_counter()
        probe_loop()
        self.last = time.perf_counter()
        self.times.append(self.last - t0)
        return self.times[-1]

    def refresh(self) -> None:
        if time.perf_counter() - self.last > PROBE_EVERY_S:
            self.sample()

    def factor(self) -> float:
        return PROBE_REF_S / statistics.median(self.times[-3:])


class Runner:
    """Executes deck queries, checks each answer and keeps per-query latencies,
    as measured (`wall`) and, given a HostSpeed, scaled to the reference host
    speed (`latency`).

    The first pass fixes each query's output hash; a later pass whose output
    differs counts as a failure, and the digest covers the first pass.
    """

    def __init__(self, deck, speed: HostSpeed | None = None) -> None:
        self.deck = deck
        self.speed = speed
        self.first: list[bytes | None] = [None] * len(deck)
        # arrays of doubles, so the harness's own memory barely grows with the
        # number of repetitions and peak_rss_mb stays the program's
        self.wall = [array("d") for _ in deck]
        self.latency = [array("d") for _ in deck]
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def execute(self, i: int, tracer=None) -> None:
        query = self.deck[i]
        self.attempted += 1
        if self.speed is not None:
            self.speed.refresh()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = query.call()
            else:
                tracer.query_id = self.attempted
                out = tracer.root(query.call)
        except (Exception, SystemExit) as exc:  # a query that raises has failed
            self.fail(query.label, f"raised {exc!r}")
            return
        elapsed = time.perf_counter() - t0
        reason = query.check(out)
        digest = hashlib.sha256(f"{query.label}\n{query.render(out)}".encode()).digest()
        if self.first[i] is None:
            self.first[i] = digest
        elif digest != self.first[i]:
            reason = reason or "output differs from the first pass"
        if reason:
            self.fail(query.label, reason)
        else:
            self.wall[i].append(elapsed)
            self.latency[i].append(elapsed * (self.speed.factor() if self.speed else 1.0))

    def fail(self, label: str, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {reason}")

    def run_pass(self, tracer=None) -> float:
        t0 = time.perf_counter()
        for i in range(len(self.deck)):
            self.execute(i, tracer)
        return time.perf_counter() - t0

    def digest(self) -> str:
        h = hashlib.sha256()
        for d in self.first:
            h.update(d or b"failed")
        return h.hexdigest()


def per_query_ms(samples: list[array]) -> list[float]:
    """Each query's median over its repetitions, ascending, so every query
    of the deck weighs the same however often it ran."""
    return sorted(statistics.median(x) * 1e3 for x in samples if x)


def queries_per_s(samples: list[array]) -> float:
    """Checked queries per second of query time."""
    return sum(map(len, samples)) / sum(map(sum, samples))


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile of ascending `values` with at least ten
    samples beyond it (the maximum when there are fewer), and that percentile."""
    n = len(values)
    if n > 10:
        return values[n - 11], 100 * (n - 10) / n
    return values[-1], 100.0


def measure_setup(workload: str, seed: int, tiny: bool) -> tuple[float, float]:
    """Median time from starting a fresh interpreter until the workload is
    ready to time: import lowk, build the deck and its fixed inputs.  Each
    time is scaled by the host-speed probes run just before and after it;
    returns the scaled and the measured median."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"] + (["--tiny"] if tiny else [])
    speed = HostSpeed()
    scaled, measured = [], []
    for _ in range(1 if tiny else SETUP_PROBES):
        before = speed.sample()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            sys.exit(f"perfbench: setup of {workload} failed (exit {proc.returncode})")
        measured.append(elapsed)
        scaled.append(elapsed * PROBE_REF_S / ((before + speed.sample()) / 2))
    return statistics.median(scaled), statistics.median(measured)


def timed_run(runner: Runner, seconds: float) -> float:
    """Cycle the deck until `seconds` have passed and one pass is complete."""
    n = len(runner.deck)
    start = time.perf_counter()
    i = 0
    while i < n or time.perf_counter() - start < seconds:
        runner.execute(i % n)
        i += 1
    return time.perf_counter() - start


def traced_run(runner: Runner, seconds: float, tracer) -> tuple[int, float]:
    """Alternate an untraced and a traced pass until `seconds` have passed.
    Returns the traced pass count and traced / untraced wall time."""
    untraced = traced = 0.0
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        untraced += runner.run_pass()
        tracer.install()
        try:
            traced += runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        passes += 1
    return passes, traced / untraced


def _print_metrics(workload: str, metrics: dict[str, dict]) -> None:
    for name, m in metrics.items():
        print(f"{workload:16} {name:32} {m['value']:>16.6g} {m['unit']}")


def run_one(args) -> int:
    _require_program()
    from perfbench import tracing, workloads

    if args.setup_probe:
        workloads.build_deck(args.workload, args.seed, args.tiny)
        print("ready", flush=True)
        return 0

    setup_s, setup_measured = measure_setup(args.workload, args.seed, args.tiny)
    deck = workloads.build_deck(args.workload, args.seed, args.tiny)
    runner = Runner(deck, None if args.trace else HostSpeed())
    print(f"{args.workload}: {len(deck)} queries per pass, seed {args.seed}")
    if args.trace:
        tracer = tracing.Tracer()
        passes, overhead = traced_run(runner, args.seconds, tracer)
        layers, gap = tracing.layer_metrics(tracer, passes)
        layers["trace.overhead_ratio"] = overhead
        spans = ROOT / "perfbench" / "out" / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(spans)
        print(f"{args.workload}: {passes} traced passes, {len(tracer.name)} spans "
              f"written to {spans.relative_to(ROOT)}; span self times account for "
              f"query wall time to within {gap:.3g} s")
        if gap > 1e-6:
            runner.fail("trace", f"span self times miss query wall time by {gap} s")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER}
    else:
        wall = timed_run(runner, args.seconds)
        latencies = per_query_ms(runner.latency)
        if not latencies:
            sys.exit(f"perfbench: every query of {args.workload} failed")
        tail_ms, pct = tail(latencies)
        values = {
            "setup_s": setup_s,
            "queries_per_s": queries_per_s(runner.latency),
            "query_ms_p50": statistics.median(latencies),
            "query_ms_tail": tail_ms,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(f"{args.workload}: {runner.attempted} queries in {wall:.3f} s; "
              f"query_ms_tail is p{pct:.4g} of {len(latencies)} per-query latencies")
        measured = per_query_ms(runner.wall)
        speed = statistics.median(PROBE_REF_S / t for t in runner.speed.times)
        print(f"{args.workload}: host speed {speed:.3g} of the reference; as measured, "
              f"setup_s {setup_measured:.4g}, "
              f"queries_per_s {queries_per_s(runner.wall):.4g}, "
              f"query_ms_p50 {statistics.median(measured):.4g}, "
              f"query_ms_tail {tail(measured)[0]:.4g}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    _print_metrics(args.workload, metrics)
    ratio = runner.failed / runner.attempted
    print(f"{args.workload:16} {'failed_ratio':32} {ratio:>16.6g} "
          f"({runner.failed} failed / {runner.attempted} attempted)")
    print(f"{args.workload}: digest {runner.digest()}")
    for failure in runner.failures:
        print(f"{args.workload}: FAILED {failure}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0 if runner.failed == 0 else 1


def run_many(args, names: list[str]) -> int:
    """Each workload in its own fresh process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        worst = max(worst, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit {proc.returncode})")
            total["correct"] = False
            continue
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(WORKLOADS)}, a comma list of them, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small decks and one set-up probe, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = set(names) - set(WORKLOADS)
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(sorted(unknown))}")
    if len(names) > 1:
        return run_many(args, names)
    args.workload = names[0]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

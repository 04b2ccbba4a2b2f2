"""Spans around lowk's layer functions, installed from the benchmark's side.

`install` replaces each target function under every name that refers to it
in any `lowk` module, because modules bind each other's functions with
`from ... import` (lowerk calls its own `conjugacy_classes`, fconj its own
`phi_image`), so patching only the defining module would miss those calls.
Each call records one span: name, start, end, parent span and query id.
Spans stay in flat arrays until the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

ROOT_SPAN = "query"

# self time and call counts the per-layer metrics are made of
_TIMED = {
    "groups.build": ("groups.build_s", "groups.build_calls"),
    "census.conjugacy_classes": ("census.conjugacy_classes_s",
                                 "census.conjugacy_classes_calls"),
    "fconj.f_partition": ("fconj.f_partition_s", "fconj.f_partition_calls"),
    "galois.phi_image": ("galois.phi_image_s", "galois.phi_image_calls"),
    "galois.generated_subgroup": ("galois.generated_subgroup_s", None),
    "lowerk.whitehead_rank": ("lowerk.whitehead_rank_s", None),
    "lowerk.carter_rank": ("lowerk.carter_rank_s", None),
    "lowerk.k_minus_one": ("lowerk.k_minus_one_s", None),
    "lowerk.lambda_value": ("lowerk.lambda_value_s", None),
    "amalgam.multiply": ("amalgam.multiply_s", "amalgam.multiply_calls"),
    "amalgam.invert": ("amalgam.invert_s", "amalgam.invert_calls"),
    "amalgam.power": ("amalgam.power_s", None),
    "amalgam.has_finite_order": ("amalgam.has_finite_order_s", None),
    "amalgam.conjugate_subgroup": ("amalgam.conjugate_subgroup_s", None),
    "b4.build_b4": ("b4.build_b4_s", None),
    "b4.quotient_maps": ("b4.quotient_maps_s", None),
    "report.group_report": ("report.group_report_s", None),
    "report.b4_lower_k_report": ("report.b4_lower_k_report_s", None),
    "classify": ("classify.s", None),
    "cli.main": ("cli.main_s", None),
    ROOT_SPAN: ("trace.unattributed_s", None),
}
SUITES = ("braid", "actions", "gamma", "kernel", "rs")

# (name, unit) of every per-layer metric, in print order
PER_LAYER = [
    ("groups.build_s", "s"), ("groups.build_calls", "count"),
    ("census.conjugacy_classes_s", "s"), ("census.conjugacy_classes_calls", "count"),
    ("census.elements_partitioned", "count"), ("census.classes_found", "count"),
    ("census.r2_per_element", "ratio"),
    ("fconj.f_partition_s", "s"), ("fconj.f_partition_calls", "count"),
    ("fconj.blocks_found", "count"), ("fconj.partitions_per_group", "ratio"),
    ("galois.phi_image_s", "s"), ("galois.phi_image_calls", "count"),
    ("galois.generated_subgroup_s", "s"), ("galois.image_residues", "count"),
    ("lowerk.whitehead_rank_s", "s"), ("lowerk.carter_rank_s", "s"),
    ("lowerk.k_minus_one_s", "s"), ("lowerk.lambda_value_s", "s"),
    ("amalgam.multiply_s", "s"), ("amalgam.multiply_calls", "count"),
    ("amalgam.ns_per_multiply", "ns"), ("amalgam.invert_s", "s"),
    ("amalgam.invert_calls", "count"), ("amalgam.power_s", "s"),
    ("amalgam.has_finite_order_s", "s"), ("amalgam.conjugate_subgroup_s", "s"),
    ("amalgam.syllables_out", "count"),
    ("b4.build_b4_s", "s"),
    *((f"b4.verify_s.{suite}", "s") for suite in SUITES),
    ("b4.quotient_maps_s", "s"), ("b4.checks_run", "count"), ("b4.checks_failed", "count"),
    ("report.group_report_s", "s"), ("report.b4_lower_k_report_s", "s"),
    ("classify.s", "s"), ("cli.main_s", "s"),
    ("trace.unattributed_s", "s"), ("trace.spans", "count"), ("trace.overhead_ratio", "ratio"),
]


def _census(args, kwargs, result):
    return (sum(len(c) for c in result.classes), len(result.classes),
            sum(result.r2_by_order.values()))


def _partition(args, kwargs, result):
    return (result.block_count, id(args[0]))


def _size(args, kwargs, result):
    return len(result)


def _syllables(args, kwargs, result):
    return len(result.letters)


def _checks(args, kwargs, result):
    return (len(result), sum(not c.ok for c in result))


def _suite_name(args, kwargs):
    return "b4.verify." + (args[0] if args else kwargs["name"])


# (module, function, span name or a function of the arguments, counter)
TARGETS = [
    *(("lowk.groups", fn, "groups.build", None) for fn in (
        "build_cyclic", "build_dicyclic", "generalized_quaternion",
        "build_binary_polyhedral")),
    ("lowk.census", "conjugacy_classes", "census.conjugacy_classes", _census),
    ("lowk.fconj", "f_partition", "fconj.f_partition", _partition),
    ("lowk.galois", "phi_image", "galois.phi_image", _size),
    ("lowk.galois", "generated_subgroup", "galois.generated_subgroup", _size),
    *(("lowk.lowerk", fn, f"lowerk.{fn}", None) for fn in (
        "whitehead_rank", "carter_rank", "k_minus_one", "lambda_value")),
    ("lowk.amalgam", "multiply", "amalgam.multiply", _syllables),
    ("lowk.amalgam", "invert", "amalgam.invert", _syllables),
    *(("lowk.amalgam", fn, f"amalgam.{fn}", None) for fn in (
        "power", "has_finite_order", "conjugate_subgroup")),
    ("lowk.b4", "build_b4", "b4.build_b4", None),
    ("lowk.b4", "verify_suite", _suite_name, _checks),
    *(("lowk.b4", fn, "b4.quotient_maps", None) for fn in ("rho", "psi", "pi")),
    *(("lowk.report", fn, f"report.{fn}", None) for fn in (
        "group_report", "b4_lower_k_report")),
    *(("lowk.classify", fn, "classify", None) for fn in (
        "maximal_finite_subgroups", "virtually_cyclic_classes_odd",
        "vc_classes_b4", "maximal_vc_classes_b4")),
    ("lowk.cli", "main", "cli.main", None),
]


def _invoke(fn):
    return fn()


class Tracer:
    """Span recorder; one per traced run, used from a single thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.start = array("q")
        self.end = array("q")
        self.count = array("q")
        self.extra: dict[int, tuple] = {}
        self.stack = [-1]
        self.query_id = -1
        self._patched: list[tuple[object, str, object]] = []
        self.root = self.wrap(ROOT_SPAN, _invoke)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str | Callable, fn: Callable, counter: Callable | None = None):
        fixed = None if callable(name) else self._name_id(name)
        stack = self.stack

        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(fixed if fixed is not None else self._name_id(name(args, kwargs)))
            self.parent.append(stack[-1])
            self.query.append(self.query_id)
            self.start.append(0)
            self.end.append(0)
            self.count.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter_ns()
                self.start[idx] = t0
                stack.pop()
            if counter is not None:
                value = counter(args, kwargs, result)
                if isinstance(value, tuple):
                    self.extra[idx] = value
                else:
                    self.count[idx] = value
            return result

        return traced

    def install(self) -> None:
        """Wrap every target under each name that refers to it in lowk."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "lowk" or name.startswith("lowk."))]
        for module_name, attr, span, counter in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            traced = self.wrap(span, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def spans(self) -> list[tuple[int, int, int, str, int, int, int, tuple]]:
        """(span, parent, query, name, start_ns, end_ns, count, extra) by span id."""
        return [
            (i, self.parent[i], self.query[i], self.names[self.name[i]],
             self.start[i], self.end[i], self.count[i], self.extra.get(i, ()))
            for i in range(len(self.name))
        ]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\tquery\tname\tstart_ns\tend_ns\tcount\textra\n")
            for span in self.spans():
                out.write("\t".join(map(str, span[:7])) + "\t"
                          + ",".join(map(str, span[7])) + "\n")


def layer_metrics(tracer: Tracer, passes: int) -> tuple[dict[str, float], float]:
    """Per-layer metrics per traced pass over the deck, and the largest gap
    between a query's traced wall time and the self times of its spans."""
    spans = tracer.spans()
    dur = [s[5] - s[4] for s in spans]
    self_ns = list(dur)
    for i, s in enumerate(spans):
        if s[1] >= 0:
            self_ns[s[1]] -= dur[i]

    totals: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, s in enumerate(spans):
        totals[s[3]] += self_ns[i]
        calls[s[3]] += 1

    out: dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    for span, (time_name, calls_name) in _TIMED.items():
        out[time_name] = totals[span] / 1e9 / passes
        if calls_name:
            out[calls_name] = calls[span] / passes
    for suite in SUITES:
        out[f"b4.verify_s.{suite}"] = totals[f"b4.verify.{suite}"] / 1e9 / passes
    if calls["amalgam.multiply"]:
        out["amalgam.ns_per_multiply"] = totals["amalgam.multiply"] / calls["amalgam.multiply"]

    elements = classes = r2 = blocks = residues = syllables = checks = failed = 0
    groups = set()
    for s in spans:
        name, extra = s[3], s[7]
        if name == "census.conjugacy_classes":
            elements += extra[0]
            classes += extra[1]
            r2 += extra[2]
        elif name == "fconj.f_partition":
            blocks += extra[0]
            groups.add((s[2], extra[1]))
        elif name.startswith("galois.") and (
                s[1] < 0 or not spans[s[1]][3].startswith("galois.")):
            residues += s[6]  # residue tuples handed to callers outside galois
        elif name in ("amalgam.multiply", "amalgam.invert"):
            syllables += s[6]
        elif name.startswith("b4.verify."):
            checks += extra[0]
            failed += extra[1]
    out["census.elements_partitioned"] = elements / passes
    out["census.classes_found"] = classes / passes
    out["census.r2_per_element"] = r2 / elements if elements else 0.0
    out["fconj.blocks_found"] = blocks / passes
    out["fconj.partitions_per_group"] = calls["fconj.f_partition"] / len(groups) if groups else 0.0
    out["galois.image_residues"] = residues / passes
    out["amalgam.syllables_out"] = syllables / passes
    out["b4.checks_run"] = checks / passes
    out["b4.checks_failed"] = failed / passes
    out["trace.spans"] = len(spans) / passes

    # the self times of a query's spans add up to its traced wall time
    accounted: dict[int, int] = defaultdict(int)
    for i, s in enumerate(spans):
        accounted[s[2]] += self_ns[i]
    gap = max((abs(accounted[s[2]] - dur[i]) for i, s in enumerate(spans)
               if s[3] == ROOT_SPAN), default=0)
    return out, gap / 1e9

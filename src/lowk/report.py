"""Per-group invariant reports and the assembled n = 4 lower-K report.

Every entry is one row of `_ENTRIES`, in output order, and reports, their
JSON and their text each loop over it.  A group report's provenance is
what the `lowerk` rules recorded while they ran, plus the rows' fixed
lines that involve no choice of path (SK_1, r_F); the path follows the
census bound `census.BOUND` in force.  Reports
serialise to canonical JSON (fixed key order, sorted torsion and
summands), so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterator, NamedTuple

from .b4 import build_b4
from .galois import FieldDescriptor
from .fconj import r_f
from .groups import (
    FiniteGroup,
    build_binary_polyhedral,
    build_cyclic,
    build_dicyclic,
    generalized_quaternion,
)
from .lowerk import (
    AbelianGroupExpr,
    UnsupportedFamilyError,
    W_NAME,
    Z2_INF,
    k0_tilde_lookup,
    k_minus_one,
    provenance,
    wedderburn_shape,
    whitehead_rank,
)

SCHEMA = "lowk/1"

_DEFINITIONS = {
    Z2_INF: "countable direct sum of copies of Z_2",
    W_NAME: "infinitely generated abelian group of exponent 2 or 4",
    "Nil_0": "countable direct sum of copies of [2 (Z2)^oo (+) 2 W]",
    "Nil_1": "countable direct sum of copies of [2 (Z2)^oo (+) 2 W]",
}


class UnsupportedParameterError(ValueError):
    pass


class AssemblyError(Exception):
    """An input the B4(S^2) assembly relies on has the wrong value (signals a bug)."""


class _Entry(NamedTuple):
    """JSON key and value, text line, compute step (None: the B4 report fills
    it) and fixed provenance line, formatted with the value, of one entry."""

    key: str
    encode: Callable[[Any], Any]
    line: Callable[[Any], str] | None
    compute: Callable[[FiniteGroup, FieldDescriptor | None], Any] | None = None
    note: str | None = None


def _rf(group: FiniteGroup, field_descriptor: FieldDescriptor | None) -> dict:
    if field_descriptor is None:
        raise UnsupportedParameterError("the rf invariant needs --field")
    return {"field": field_descriptor.label, "value": r_f(group, field_descriptor)}


# entry name -> _Entry, in output order; the invariants are the rows that compute
_ENTRIES = {
    "wh": _Entry("wh", lambda v: v.to_json(), lambda v: f"Wh: {v.render()}",
                 lambda g, _: AbelianGroupExpr.free(whitehead_rank(g)),
                 "wh torsion: SK_1 vanishes for the supported families"),
    "k0": _Entry("k0", lambda v: v.to_json(), lambda v: f"K0~: {v.render()}",
                 lambda g, _: k0_tilde_lookup(g)),
    "kminus1": _Entry("kminus1", lambda v: v.to_json(), lambda v: f"K_-1: {v.render()}",
                      lambda g, _: k_minus_one(g)),
    "rf": _Entry("r_F", dict, lambda v: f"r_{v['field']}: {v['value']}", _rf,
                 "r_F: Witt-Berman count of {value[field]}-conjugacy classes"),
    "wedderburn": _Entry("wedderburn", lambda v: [c.to_json() for c in v],
                         lambda v: "Q[G] components: " + ", ".join(c.symbol() for c in v),
                         lambda g, _: wedderburn_shape(g)),
    "nil": _Entry(
        "nil",
        lambda v: {n: {"copies": "countable", "summand": e.to_json()} for n, e in v.items()},
        lambda v: "\n".join(f"{n} = (+)_oo [{e.render()}]" for n, e in v.items()),
    ),
    "definitions": _Entry("definitions", dict, None),
}

INVARIANT_ORDER = tuple(name for name, entry in _ENTRIES.items() if entry.compute)
DEFAULT_INVARIANTS = ("wh", "k0", "kminus1")


@dataclass(frozen=True)
class KReport:
    """Entry values for one group, keyed by entry name, each summand backed by a rule citation."""

    group: dict
    values: dict[str, Any]
    provenance: tuple[str, ...]

    def _present(self) -> Iterator[tuple[_Entry, Any]]:
        return ((e, self.values[n]) for n, e in _ENTRIES.items() if n in self.values)

    def to_json(self) -> dict:
        out: dict = {"schema": SCHEMA, "group": self.group}
        out.update((entry.key, entry.encode(value)) for entry, value in self._present())
        out["provenance"] = list(self.provenance)
        return out

    def render_text(self) -> str:
        lines = [f"group: {self.group.get('name', self.group)}"]
        lines += (entry.line(value) for entry, value in self._present() if entry.line)
        lines += (f"  [{p}]" for p in self.provenance)
        return "\n".join(lines)


# family -> (the parameter it takes, if any; its builder); the CLI's choices
FAMILIES = {
    "cyclic": ("m", build_cyclic),
    "dicyclic": ("m", build_dicyclic),
    "quaternion": ("k", generalized_quaternion),
    "tstar": (None, lambda: build_binary_polyhedral("T*")),
    "ostar": (None, lambda: build_binary_polyhedral("O*")),
    "istar": (None, lambda: build_binary_polyhedral("I*")),
}


@functools.cache
def _power_of_ten(n: int) -> int:
    return 10 ** n


def order_too_long_to_print(family: str, value: int) -> bool:
    """The group order has more digits than `str` converts (a limit of 0 is
    none).  Q_{2^k}'s order is not formed: 2^k >= 10^L exactly when k
    reaches the bit length of 10^L, which is no power of 2."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    bound = _power_of_ten(limit)
    if family == "quaternion":
        return bool(limit) and value >= bound.bit_length()
    return bool(limit) and value * (4 if family == "dicyclic" else 1) >= bound


def _build_group(family: str, m: int | None, k: int | None) -> FiniteGroup:
    if family not in FAMILIES:
        raise UnsupportedParameterError(f"unknown family {family!r}")
    wanted, build = FAMILIES[family]
    given = {"m": m, "k": k}
    for name, value in given.items():
        if value is not None and name != wanted:
            raise UnsupportedParameterError(f"{family} groups take no --{name}")
    if wanted is None:
        return build()
    if given[wanted] is None:
        raise UnsupportedParameterError(f"{family} groups need --{wanted}")
    if order_too_long_to_print(family, given[wanted]):
        raise UnsupportedParameterError(
            f"--{wanted} is too large: the order of the {family} group would have more "
            f"than {sys.get_int_max_str_digits()} decimal digits"
        )
    try:
        return build(given[wanted])
    except ValueError as exc:
        raise UnsupportedParameterError(str(exc)) from exc


def _group_info(group: FiniteGroup) -> dict:
    info = {"name": group.name, "family": group.family.kind, "order": group.order}
    if group.family.param is not None:
        info["param"] = group.family.param
    return info


def group_report(
    family: str,
    *,
    m: int | None = None,
    k: int | None = None,
    invariants: tuple[str, ...] = DEFAULT_INVARIANTS,
    field_descriptor: FieldDescriptor | None = None,
) -> KReport:
    """Invariant report for one supported group; unknown values stay unknown."""
    for inv in invariants:
        if inv not in _ENTRIES or _ENTRIES[inv].compute is None:
            raise UnsupportedParameterError(
                f"unknown invariant {inv!r}; choose from {INVARIANT_ORDER}"
            )
    if field_descriptor is not None and "rf" not in invariants:
        raise UnsupportedParameterError("--field is used only by the rf invariant")
    group = _build_group(family, m, k)
    values: dict[str, Any] = {}
    try:
        with provenance() as lines:
            for name, entry in _ENTRIES.items():
                if name in invariants:
                    values[name] = value = entry.compute(group, field_descriptor)
                    if entry.note is not None:
                        lines.append(entry.note.format(value=value))
    except UnsupportedFamilyError as exc:
        raise UnsupportedParameterError(str(exc)) from exc
    return KReport(_group_info(group), values, tuple(lines))


def nil_groups_q8(twist_order: int) -> AbelianGroupExpr:
    """Nil groups of the order-8 quaternion group ring, twisted or not, in degrees 0 and 1.

    Trivial twist and the order-3 twist give a countable sum of Z_2; the
    order-2 twist gives the exponent-2-or-4 group W.
    """
    if twist_order not in (1, 2, 3):
        raise ValueError(f"twist order must be 1, 2 or 3, got {twist_order}")
    if twist_order == 2:
        return AbelianGroupExpr.summand(W_NAME)
    return AbelianGroupExpr.summand(Z2_INF)


def b4_lower_k_report() -> KReport:
    """Assembled Whitehead and lower K-groups of the four-strand sphere braid group.

    Finite-group inputs are computed live on the core Q8 and the factors Q16
    and T* of the shared `build_b4` model; the two induction facts (the map
    of reduced K_0 from Q8 into Q16 is zero, into T* an isomorphism)
    collapse the Mayer-Vietoris pieces.
    """
    spec = build_b4().spec
    q8, (q16, tstar) = spec.core, spec.factors

    wh_cokernel = AbelianGroupExpr.free(whitehead_rank(q16) + whitehead_rank(tstar))
    # K0~(Q8) -> K0~(T*) is an isomorphism, so the K0~ kernel term vanishes
    # and the cokernel keeps only the Q16 copy of Z_2.
    k0_assembled = k0_tilde_lookup(q16)
    if not isinstance(k0_assembled, AbelianGroupExpr):
        raise AssemblyError(f"reduced K_0 of {q16.name} is not tabulated")
    kminus1 = k_minus_one(q16) + k_minus_one(tstar)
    if whitehead_rank(q8) != 0:
        raise AssemblyError(f"Wh of {q8.name} is not zero")
    if not k_minus_one(q8).is_zero:
        raise AssemblyError(f"K_-1 of {q8.name} is not zero")

    nil_block = nil_groups_q8(1).times(2) + nil_groups_q8(2).times(2)
    wh = wh_cokernel + AbelianGroupExpr.summand("Nil_1")
    k0 = k0_assembled + AbelianGroupExpr.summand("Nil_0")

    provenance = (
        "wh: cokernel of the Q8 induction into Q16 and T* (Wh(Q8) = 0), plus Nil_1",
        "k0: cokernel of the reduced K_0 induction (zero into Q16, isomorphism "
        "into T*), plus Nil_0",
        "kminus1: cokernel of K_-1 induction; K_-1(Z[Q8]) = 0",
        "nil: one block 2 (Z2)^oo (+) 2 W per maximal infinite virtually cyclic "
        "class, summed over countably many conjugacy classes",
        "nil values: Bass Nil of Q8 and its order-2/order-3 twists",
    )
    return KReport(
        group={"name": "B4(S2)", "family": "amalgam", "order": "infinite"},
        values={"wh": wh, "k0": k0, "kminus1": kminus1,
                "nil": {name: nil_block for name in ("Nil_0", "Nil_1")},
                "definitions": dict(_DEFINITIONS)},
        provenance=provenance,
    )

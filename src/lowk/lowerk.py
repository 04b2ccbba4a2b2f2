"""Lower K-theory of the supported finite groups.

Whitehead rank (pair classes minus cyclic-subgroup classes, with per-family
closed forms), the Carter rank of K_-1 from Witt-Berman counts, rule-based
K_-1 torsion, the Swan lookup table for reduced K_0, and symbolic
Wedderburn shapes of Q[G] for every dicyclic and binary polyhedral group.

Each rule states the path it took (census, closed form, family rule or
lookup table) where it takes it; inside a `provenance()` block those lines
are collected, outside one they are dropped.  The Whitehead and Carter
ranks share `_census_or_closed_form`, which compares the group order with
`census.BOUND` before any census call, takes the closed form past it, and
below it checks the census against any closed form that applies.
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

from .census import BOUND, ClassCensus, GroupTooLargeError, conjugacy_classes
from .fconj import singular_blocks
from .galois import (
    divisors,
    factorization,
    is_prime,
    mult_order,
    prime_divisors,
)
from .groups import (
    BINARY_ICOSAHEDRAL,
    BINARY_OCTAHEDRAL,
    BINARY_TETRAHEDRAL,
    CYCLIC,
    FiniteGroup,
    dicyclic_parameter,
)

Z2_INF = "(Z2)^oo"
W_NAME = "W"


class UnsupportedFamilyError(Exception):
    """The requested invariant has no rule for this group family."""


class ConsistencyError(Exception):
    """A closed form disagreed with the brute-force census (signals a bug)."""


class Unknown:
    """First-class 'no known value' result, e.g. K0 beyond the lookup tables."""

    def __repr__(self) -> str:
        return "Unknown"

    def to_json(self) -> str:
        return "unknown"

    render = to_json


UNKNOWN = Unknown()  # the only instance: results are compared to it with `is`

_LINES: ContextVar[list[str] | None] = ContextVar("provenance", default=None)


@contextmanager
def provenance() -> Iterator[list[str]]:
    """Collect, in call order, the path line of every rule run inside the block."""
    lines: list[str] = []
    token = _LINES.set(lines)
    try:
        yield lines
    finally:
        _LINES.reset(token)


def _record(line: str) -> None:
    lines = _LINES.get()
    if lines is not None:
        lines.append(line)


def _merge_infinite(items: tuple[tuple[str, int], ...]) -> tuple[tuple[str, int], ...]:
    acc: Counter[str] = Counter()
    for name, copies in items:
        acc[name] += copies
    return tuple(sorted(acc.items()))


@dataclass(frozen=True)
class AbelianGroupExpr:
    """Symbolic abelian group: free rank, torsion coefficients, named summands.

    Canonical form: torsion sorted ascending, named summands merged and
    sorted by name.
    """

    free_rank: int = 0
    torsion: tuple[int, ...] = ()
    infinite: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError(f"negative free rank {self.free_rank}")
        if any(t < 2 for t in self.torsion):
            raise ValueError(f"torsion coefficients must be >= 2: {self.torsion}")
        object.__setattr__(self, "torsion", tuple(sorted(self.torsion)))
        object.__setattr__(self, "infinite", _merge_infinite(self.infinite))

    @classmethod
    def zero(cls) -> "AbelianGroupExpr":
        return cls()

    @classmethod
    def free(cls, rank: int) -> "AbelianGroupExpr":
        return cls(free_rank=rank)

    @classmethod
    def torsion_group(cls, *coeffs: int) -> "AbelianGroupExpr":
        return cls(torsion=tuple(coeffs))

    @classmethod
    def summand(cls, name: str) -> "AbelianGroupExpr":
        return cls(infinite=((name, 1),))

    def __add__(self, other: "AbelianGroupExpr") -> "AbelianGroupExpr":
        return AbelianGroupExpr(
            free_rank=self.free_rank + other.free_rank,
            torsion=self.torsion + other.torsion,
            infinite=self.infinite + other.infinite,
        )

    def times(self, k: int) -> "AbelianGroupExpr":
        if k < 0:
            raise ValueError("multiplicity must be nonnegative")
        if k == 0:
            return AbelianGroupExpr.zero()
        scaled = tuple((name, copies * k) for name, copies in self.infinite)
        return AbelianGroupExpr(self.free_rank * k, self.torsion * k, scaled)

    @property
    def is_zero(self) -> bool:
        return not (self.free_rank or self.torsion or self.infinite)

    def to_json(self) -> dict:
        return {
            "rank": self.free_rank,
            "torsion": list(self.torsion),
            "infinite": [
                {"name": name, "copies": copies} for name, copies in self.infinite
            ],
        }

    def render(self) -> str:
        parts: list[str] = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        for coeff, count in sorted(Counter(self.torsion).items()):
            parts.append(f"Z_{coeff}" if count == 1 else f"Z_{coeff}^{count}")
        for name, copies in self.infinite:
            if copies == 1:
                parts.append(name)
            else:
                parts.append(f"{copies}*{name}")
        return " (+) ".join(parts) if parts else "0"


@dataclass(frozen=True)
class WedderburnComponent:
    """One simple component of the rational group algebra, symbolically."""

    kind: str  # "field" | "matrix" | "skew_field" | "algebra"
    field: str = "Q"
    size: int = 1
    d: int | None = None

    def symbol(self) -> str:
        if self.kind == "field" or self.kind == "algebra":
            return self.field
        if self.kind == "matrix":
            return f"M_{self.size}({self.field})"
        return f"H_{self.d}"

    def to_json(self) -> dict:
        return {"kind": self.kind, "symbol": self.symbol()}


def _field(symbol: str) -> WedderburnComponent:
    return WedderburnComponent("field", symbol)


def _matrix(size: int, symbol: str) -> WedderburnComponent:
    return WedderburnComponent("matrix", symbol, size=size)


def _skew(d: int) -> WedderburnComponent:
    return WedderburnComponent("skew_field", _real_cyclotomic(d), d=d)


def _algebra(symbol: str) -> WedderburnComponent:
    return WedderburnComponent("algebra", symbol)


def _real_cyclotomic(d: int) -> str:
    return f"Q(zeta_{d}+zeta_{d}^-1)"


def delta(q: int) -> int:
    """Number of divisors of q: the product of e + 1 over the prime powers p^e of q."""
    if q < 1:
        raise ValueError(f"divisors of {q} undefined")
    return math.prod(e + 1 for _, e in factorization(q))


class _Polyhedral(NamedTuple):
    wh_rank: int
    kminus1_torsion: int  # Z_2 summands
    k0: AbelianGroupExpr
    wedderburn: tuple[WedderburnComponent, ...]


_POLYHEDRAL = {
    BINARY_TETRAHEDRAL: _Polyhedral(0, 0, AbelianGroupExpr.torsion_group(2), (
        _field("Q"), _field("Q(zeta_3)"), _matrix(3, "Q"), _skew(4),
        _algebra("H(Q(zeta_3))"),
    )),
    BINARY_OCTAHEDRAL: _Polyhedral(1, 1, AbelianGroupExpr.torsion_group(2, 2), (
        _field("Q"), _field("Q"), _matrix(2, "Q"), _matrix(3, "Q"), _matrix(3, "Q"),
        _skew(8), _matrix(2, "H_hat"),
    )),
    BINARY_ICOSAHEDRAL: _Polyhedral(2, 1, AbelianGroupExpr.torsion_group(2, 2, 2), (
        _field("Q"), _matrix(4, "Q"), _skew(5), _matrix(2, "H_hat"), _matrix(5, "Q"),
        _matrix(3, "H(Q)"), _matrix(3, "Q(sqrt5)"),
    )),
}


def _whitehead_closed_form(group: FiniteGroup) -> int | None:
    kind = group.family.kind
    if kind == CYCLIC:
        m = group.family.param
        assert m is not None
        return m // 2 + 1 - delta(m)
    m = dicyclic_parameter(group)
    if m is not None:
        return m + 1 - delta(2 * m)
    row = _POLYHEDRAL.get(kind)
    return None if row is None else row.wh_rank


def _census_or_closed_form(group: FiniteGroup, name: str, closed: int | None,
                           lines: tuple[str, str], count: Callable[[ClassCensus], int]) -> int:
    """Within the census bound, `count` of the group's census, which must equal
    the closed form if one applies; past the bound the closed form, or a
    refusal.  `lines` are the provenance of the census and closed-form paths."""
    if group.order > (bound := BOUND.get()):
        if closed is None:
            raise GroupTooLargeError(
                f"{group.name}: order {group.order} > {bound} and no closed form applies"
            )
        _record(lines[1])
        return closed
    value = count(conjugacy_classes(group))
    if closed is not None and closed != value:
        raise ConsistencyError(
            f"{name} mismatch for {group.name}: closed form {closed} != census {value}"
        )
    _record(lines[0])
    return value


def whitehead_rank(group: FiniteGroup) -> int:
    """Rank of the Whitehead group: sum over orders of r1(d) - r2(d).

    When a family closed form exists and the group is small enough for the
    census, both are computed and must agree.
    """
    closed = _whitehead_closed_form(group)
    line = "wh: class census sum of r1(d) - r2(d)"
    if closed is not None:
        line += ", cross-checked against the family closed form"
    return _census_or_closed_form(
        group, "whitehead rank", closed, (line, "wh: family closed form"),
        lambda census: sum(census.r1_by_order[d] - census.r2_by_order[d]
                           for d in census.r1_by_order),
    )


def lambda_value(m: int) -> int:
    """(m-1)/|<2>| if -1 lies in <2> mod m, else (m-1)/(2|<2>|); m an odd prime.

    |<2>| = k = ord_m(2), and for m prime -1 lies in <2> exactly when k is
    even (the cyclic group (Z/m)^* has one element of order 2).
    """
    if m == 2 or not is_prime(m):
        raise ValueError(f"lambda is defined for odd primes, got {m}")
    k = mult_order(2, m)
    return (m - 1) // k if k % 2 == 0 else (m - 1) // (2 * k)


def carter_rank(group: FiniteGroup) -> int:
    """Rank of K_-1(Z[G]): 1 - r_Q + sum over primes p | |G| of (r_Qp - r_Fp).

    Both counts come from one census: r_Q is the number of its records
    (classes of cyclic subgroups), and r_Qp - r_Fp the number of Q_p-blocks
    among the p-singular records (`fconj.singular_blocks`), since the Q_p
    and F_p Galois images agree modulo every p-regular order.  For Dic_4m,
    m an odd prime, the closed form is lambda(m).
    """

    def count(census: ClassCensus) -> int:
        records = census.subgroups
        rank = 1 - len(records)
        rank += sum(singular_blocks(records, p) for p in prime_divisors(group.order))
        if rank < 0:
            raise ConsistencyError(f"negative Carter rank {rank} for {group.name}")
        return rank

    m = dicyclic_parameter(group)
    closed = lambda_value(m) if m is not None and m % 2 == 1 and is_prime(m) else None
    return _census_or_closed_form(group, "Carter rank", closed, (
        "kminus1 rank: Carter formula 1 - r_Q + sum_p (r_Qp - r_Fp) from Witt-Berman counts",
        "kminus1 rank: dicyclic odd-prime closed form via |<2>| mod m",
    ), count)


def k_minus_one_torsion(group: FiniteGroup) -> int:
    """Number of Z_2 summands (0 or 1) in the torsion of K_-1(Z[G]), by family rule."""
    kind = group.family.kind
    if kind == CYCLIC:
        _record("kminus1 torsion: trivial for abelian groups")
        return 0
    row = _POLYHEDRAL.get(kind)
    if row is not None:
        _record("kminus1 torsion: binary polyhedral induction/restriction rule")
        return row.kminus1_torsion
    m = dicyclic_parameter(group)
    if m is not None:
        if m & (m - 1) == 0:  # power of two: generalized quaternion Q_{4m}
            _record("kminus1 torsion: quaternion 2-group rule")
            return 0 if m == 2 else 1
        if m % 2 == 1 and is_prime(m):
            _record(f"kminus1 torsion: dicyclic odd-prime rule, m = {m} = {m % 4} mod 4")
            return 1 if m % 4 == 1 else 0
        raise UnsupportedFamilyError(
            f"no torsion rule for Dic_{4 * m} with m={m}; "
            "covered: m an odd prime or a power of two"
        )
    raise UnsupportedFamilyError(f"no torsion rule for family {group.family}")


def k_minus_one(group: FiniteGroup) -> AbelianGroupExpr:
    """K_-1(Z[G]) = Z^r (+) Z_2^s with r the Carter rank and s the torsion bit."""
    rank = carter_rank(group)
    s = k_minus_one_torsion(group)
    return AbelianGroupExpr(free_rank=rank, torsion=(2,) * s)


_SWAN_DICYCLIC = {2: 1, 3: 1, 4: 1, 5: 1, 7: 1, 8: 1, 11: 1, 9: 2, 6: 3, 10: 3}
_CYCLIC_TRIVIAL_K0 = frozenset(range(1, 12)) | {13, 14, 17, 19}


def k0_tilde_lookup(group: FiniteGroup) -> AbelianGroupExpr | Unknown:
    """Reduced K_0 from the Swan tables; Unknown outside them."""
    kind = group.family.kind
    row = _POLYHEDRAL.get(kind)
    if row is not None:
        value: AbelianGroupExpr | Unknown = row.k0
    elif kind == CYCLIC:
        value = AbelianGroupExpr.zero() if group.family.param in _CYCLIC_TRIVIAL_K0 else UNKNOWN
    else:
        copies = _SWAN_DICYCLIC.get(dicyclic_parameter(group))
        value = UNKNOWN if copies is None else AbelianGroupExpr.torsion_group(*(2,) * copies)
    _record("k0: outside the Swan lookup tables -> unknown" if value is UNKNOWN
            else "k0: Swan lookup table")
    return value


# Q[Dic_4m] with m = 2^e * odd has (e + 2) * d(odd) simple components, plus
# 1 or 2; for Q_{2^k} that product is k.  The bound is the largest k whose
# order prints (14 284 at Python's default 4300-digit limit), so every such
# Q_{2^k} and every odd m up to 10^14 (d(m) <= 5760) answers, while
# m = 105 * 2^14000 would print over 10^5 indices of up to 4200 digits.
_MAX_COMPONENTS = 14_284


def wedderburn_shape(group: FiniteGroup) -> tuple[WedderburnComponent, ...]:
    """Symbolic simple components of Q[G], from `_POLYHEDRAL` or the Dic_4m rule.

    Q[Dic_4m] is Q[D_2m] (y^2 = x^m = 1), then its x^m = -1 part.  Only the
    odd part of m is factored, so every power of two answers.  Raises
    ValueError, before any component is built, past `_MAX_COMPONENTS`.
    """
    row = _POLYHEDRAL.get(group.family.kind)
    m = dicyclic_parameter(group)
    if row is not None:
        comps = list(row.wedderburn)
    elif m is None:
        raise UnsupportedFamilyError(f"no Wedderburn shape for family {group.family}")
    else:
        e = (m & -m).bit_length() - 1  # m = 2^e * odd
        odd = divisors(m >> e)
        if (e + 2) * len(odd) > _MAX_COMPONENTS:
            raise ValueError(
                f"Q[Dic_4m] has over {_MAX_COMPONENTS} simple components for this m; "
                "no longer shape is listed"
            )
        comps = [_field("Q")] * (2 if e == 0 else 4)
        # Q[D_2m]: one M_2 for each d | m with d > 2
        comps += [_matrix(2, _real_cyclotomic(d))
                  for d in sorted(o << i for o in odd for i in range(e + 1)) if d > 2]
        # x^m = -1: one quaternion component for each d | 2m with v_2(d) = e + 1
        comps += [_field("Q(i)") if d == 2 else _skew(d) for d in (o << (e + 1) for o in odd)]
    _record("wedderburn: rational group algebra decomposition table")
    return tuple(comps)

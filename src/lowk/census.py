"""Conjugacy machinery: classes of cyclic subgroups and element classes.

The census of a group is one record per conjugacy class of cyclic subgroups
<g>: its order d and its automizer H = {u in (Z/d)^* : g^u ~ g}, the image
of the normaliser of <g> in Aut<g>.  The conjugacy classes of generators of
<g> are the cosets of H in (Z/d)^*, so every Witt-Berman count is read off
the records (`count_blocks`): merging class(c) with class(c^t) for t in a
set of exponents leaves phi(d) / |<H, exponents>| blocks per record.  r1
takes the exponent -1, r2 is the number of records of each order, and
`lowk.fconj` picks the records and the Galois image of each F-conjugacy
count.

Every census has the same shape: its records, and a function that derives
the element classes on first read.  Three paths make them.  A cyclic group
G = <g>, told by no generator moving another and one of them having order
|G|, has its records read off the divisors of |G| and its singleton classes
listed as the powers of g.  Dic_4m and Q_2^k, told by
`groups.dicyclic_parameter`, have their records read off the divisors of
2m and their classes off the ids 2a + b, with no element listed, no
product taken and no order asked.  Any other group (T*, O*, I*, or one of
family `custom`) is walked (`_walk`), and its classes come from the walk's
positions.
`conjugacy_classes` is the one way in: it checks the brute-force bound,
builds the census of the whole group once and keeps it while the group
lives.  The bound is the context variable `BOUND`, a resource limit set per
query, which the `lowk.lowerk` rules read too: it decides which path runs
and whether lowk refuses, never a value.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Collection, Iterable, NamedTuple, Sequence
from weakref import WeakKeyDictionary

from .galois import divisors, totient
from .groups import ElementId, FiniteGroup, dicyclic_parameter


# the largest group order the census machinery brute-forces by default
BRUTE_FORCE_BOUND = 5000
BOUND: ContextVar[int] = ContextVar("brute_force_bound", default=BRUTE_FORCE_BOUND)


class GroupTooLargeError(Exception):
    """The group exceeds the configured brute-force bound."""


class SubgroupClass(NamedTuple):
    """One conjugacy class of cyclic subgroups <g> of order d.

    `automizer` is H = {u in (Z/d)^* : g^u ~ g}, sorted, and `count` the
    number of conjugacy classes among the generators of <g>, phi(d) / |H|.
    """

    order: int
    automizer: tuple[int, ...]
    count: int


def _extend(subgroup: Collection[int], u: int, d: int) -> set[int]:
    """<subgroup, u> in (Z/d)^*: the union of the cosets subgroup * u^i."""
    out = set(subgroup)
    x = u
    while x not in subgroup:
        out.update(h * x % d for h in subgroup)
        x = x * u % d
    return out


def _index(u: int, subgroup: Collection[int], d: int) -> int:
    """The least k >= 1 with u^k in `subgroup`, its index in <subgroup, u>."""
    x, k = u, 1
    while x not in subgroup:
        x = x * u % d
        k += 1
    return k


def count_blocks(
    subgroups: Iterable[SubgroupClass], exponents: Sequence[int] | None
) -> dict[int, int]:
    """Blocks of the merge class(c) ~ class(c^t), t in <exponents>, per element order.

    The exponents must be prime to the orders of the counted classes (None
    stands for all units).  A record's classes are the cosets of H in
    (Z/d)^*, and the exponents act on them by translation, so every block
    is a coset of <H, exponents> and the record holds
    count * |H| / |<H, exponents>| blocks.  All exponents but one are closed
    into a set with H, and the last adds its index over that set; the last
    is the one of largest index over H, so the set stays small.  Every
    given record is counted; the caller picks which ones.
    """
    blocks: Counter[int] = Counter()
    for d, automizer, count in subgroups:
        if exponents is None or count == 1:
            blocks[d] += 1
            continue
        # (index over H, exponent), largest index last; an index 1 adds nothing
        steps = sorted((_index(t % d, automizer, d), t % d) for t in exponents) or [(1, 1)]
        closed: Collection[int] = automizer
        for k, t in steps[:-1]:
            if k > 1:
                closed = _extend(closed, t, d)
        k, t = steps[-1]
        if closed is not automizer:
            k = _index(t, closed, d)
        blocks[d] += count * len(automizer) // (len(closed) * k)
    return dict(sorted(blocks.items()))


@dataclass(frozen=True, eq=False)
class ClassCensus:
    """The records of a group, one per class of cyclic subgroups, the
    per-order subgroup class counts r2, and the element classes.

    `_derive_classes` is a zero-argument function that derives the classes
    on first read.  It holds no reference to the group, so a census kept
    for its group does not keep the group alive.
    """

    subgroups: tuple[SubgroupClass, ...]
    _derive_classes: Callable[[], tuple[tuple[ElementId, ...], ...]] = field(repr=False)

    @cached_property
    def classes(self) -> tuple[tuple[ElementId, ...], ...]:
        """Conjugacy classes sorted by (element order, least element), each sorted."""
        return self._derive_classes()

    @cached_property
    def r2_by_order(self) -> dict[int, int]:
        return count_blocks(self.subgroups, None)


def _cyclic_classes(g: ElementId, mul: Callable, n: int) -> tuple[tuple[ElementId], ...]:
    """The singleton classes of G = <g> of order n, listed as the powers of g."""
    # g^k has order n / gcd(k, n)
    x, keyed = g, [(n, g)]
    for k in range(2, n + 1):
        x = mul(x, g)
        keyed.append((n // math.gcd(k, n), x))
    return tuple((x,) for _, x in sorted(keyed))


def _dicyclic_records(m: int) -> tuple[SubgroupClass, ...]:
    """The census of Dic_4m, x^a y^b the id 2a + b, in the order a walk finds it.

    y inverts x, so each subgroup <x^(2m/d)> of <x> is its own class with
    H = {1, -1}.  Conjugation by x and y maps <x^a y> to <x^(a+2) y> and
    <x^-a y>, a taken modulo m: one class for m odd, two (a even, a odd)
    for m even.  The conjugates of x^a y are the x^(a+2k) y, so its inverse
    x^(a+m) y is one of them, and H = {1, 3}, only when m is even.  A walk
    finds each class at the least generator id of its first subgroup: 0
    for d = 1, 1 and (m even) 3 for the <x^a y>, and 4m/d for d | 2m
    otherwise.
    """
    four_m = 4 * m
    first = {0: SubgroupClass(1, (0,), 1)}
    for d in divisors(2 * m)[1:]:
        automizer = tuple(sorted({1, d - 1}))
        first[four_m // d] = SubgroupClass(d, automizer, totient(d) // len(automizer))
    if m % 2:
        first[1] = SubgroupClass(4, (1,), 2)
    else:
        first[1] = first[3] = SubgroupClass(4, (1, 3), 1)
    return tuple(record for _, record in sorted(first.items()))


def _dicyclic_classes(m: int) -> tuple[tuple[int, ...], ...]:
    """The classes of Dic_4m from the ids 2a + b: {1}, {x^m}, the pairs
    {x^a, x^-a} and the x^a y split by the parity of a."""
    four_m = 4 * m
    keyed = [(1, (0,)), (2, (2 * m,)), (4, tuple(range(1, four_m, 4))),
             (4, tuple(range(3, four_m, 4)))]
    keyed += [(four_m // math.gcd(g, four_m), (g, four_m - g)) for g in range(2, 2 * m, 2)]
    return tuple(c for _, c in sorted(keyed))


def _walked_classes(records: tuple[SubgroupClass, ...], position: dict, transport: list[int],
                    transport_power: list[int]) -> tuple[tuple[ElementId, ...], ...]:
    """The classes of a walked group, from the bookkeeping `_walk` returns.

    `position[x]` is (S, t) for x = g_S^t, t a unit modulo x's order: S
    indexes the cyclic subgroups, <x> among them, and g_S is the generator
    that started S's walk.  S's transport (i, e) = (`transport[S]`,
    `transport_power[S]`) says g_S^e is conjugate to g, the generator of
    the i-th record's subgroup.  So x ~ g^(t/e), and x's class is the coset
    of t/e modulo that record's automizer.
    """
    inverse = [(i, pow(e, -1, records[i].order)) for i, e in zip(transport, transport_power)]
    blocks = defaultdict(list)
    for x, (s, t) in position.items():
        i, e_inv = inverse[s]
        d, automizer, _ = records[i]
        u = t * e_inv % d
        blocks[i, min(u * h % d for h in automizer)].append(x)
    ordered = sorted((records[i].order, sorted(b)) for (i, _), b in blocks.items())
    return tuple(tuple(b) for _, b in ordered)


def _walk(group: FiniteGroup, movers: Sequence[tuple[ElementId, ElementId]]
          ) -> tuple[tuple[SubgroupClass, ...], dict, list[int], list[int]]:
    """The records of `group`, and the positions and transports that
    `_walked_classes` reads, from a walk of its cyclic subgroups whose
    generators are conjugated by each mover (a, a^-1)."""
    mul, inv, order_of = group.mul, group.inv, group.order_of
    # Walk each cyclic subgroup once, from the first of its generators in
    # sorted order.  An unnamed g starts a walk g, g^2, ..., g^(d-1) that
    # names g^t as (S, t) exactly when gcd(t, d) = 1, so S names its own
    # phi(d) generators and nothing else; every other power generates a
    # smaller subgroup, walked when met.  For phi(d) = 2 the walk is g^-1
    # alone.  The walks take sum_C (|C| - 2) products over the cyclic
    # subgroups C of order at least 2 other than 3, 4 and 6.
    position: dict[ElementId, tuple[int, int]] = {}
    generators: list[ElementId] = []
    sub_order: list[int] = []
    for g in group.elements:
        if g in position:
            continue
        d = order_of(g)
        s = len(generators)
        position[g] = (s, 1 % d)
        generators.append(g)
        sub_order.append(d)
        if d in (3, 4, 6):
            position[inv(g)] = (s, d - 1)
            continue
        x = g
        for t in range(2, d):
            x = mul(x, g)
            if math.gcd(t, d) == 1:
                position[x] = (s, t)

    # Search the subgroups under conjugation by the movers.  A transport
    # (i, e) of S says g_S^e ~ g_R, R the first subgroup of S's class met;
    # an edge that meets a subgroup already reached gives a u in H, g_R^u ~ g_R.
    record = [-1] * len(generators)
    power = [0] * len(generators)
    subgroups = []
    for r, d in enumerate(sub_order):
        if record[r] >= 0:
            continue
        i = len(subgroups)
        record[r], power[r] = i, 1 % d
        automizer = {1 % d}
        frontier = [r]
        for s in frontier:
            g, e = generators[s], power[s]
            for a, a_inv in movers:
                s2, t = position[mul(mul(a, g), a_inv)]
                v = t * e % d
                if record[s2] < 0:
                    record[s2], power[s2] = i, v
                    frontier.append(s2)
                elif v != power[s2]:
                    u = v * pow(power[s2], -1, d) % d
                    if u not in automizer:
                        automizer = _extend(automizer, u, d)
        subgroups.append(
            SubgroupClass(d, tuple(sorted(automizer)), totient(d) // len(automizer))
        )
    return tuple(subgroups), position, record, power


def _build_census(group: FiniteGroup) -> ClassCensus:
    m = dicyclic_parameter(group)
    if m is not None:
        return ClassCensus(_dicyclic_records(m), partial(_dicyclic_classes, m))
    mul, inv, order_of = group.mul, group.inv, group.order_of
    gens = group.generators
    movers = [
        (a, inv(a)) for a in gens if any(mul(a, b) != mul(b, a) for b in gens if b != a)
    ]
    if not movers:
        n = group.order
        g = next((g for g in gens if order_of(g) == n), None)
        if g is not None:
            # G = <g> has one subgroup of each order d | n, its own class
            subgroups = tuple(SubgroupClass(d, (1 % d,), totient(d)) for d in divisors(n))
            return ClassCensus(subgroups, partial(_cyclic_classes, g, mul, n))
    records, *bookkeeping = _walk(group, movers)
    return ClassCensus(records, partial(_walked_classes, records, *bookkeeping))


_CENSUS: WeakKeyDictionary[FiniteGroup, ClassCensus] = WeakKeyDictionary()


def conjugacy_classes(group: FiniteGroup) -> ClassCensus:
    """The census of the whole group, made once per group and kept while the group lives."""
    if group.order > (bound := BOUND.get()):
        raise GroupTooLargeError(
            f"{group.name} has order {group.order} > brute-force bound {bound}"
        )
    census = _CENSUS.get(group)
    if census is None:
        census = _CENSUS[group] = _build_census(group)
    return census

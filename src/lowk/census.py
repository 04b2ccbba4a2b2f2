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

A cyclic group G = <g>, told by no generator moving another and one of
them having order |G|, has one subgroup of each order d | |G|, its own
class with H = {1}.  Its records are read off the divisors of |G|, with
no element listed and no product taken past the commutation check, and
its singleton classes come from the powers of g on first read.  Any other
group walks each cyclic subgroup once, from the first of its generators
in the sorted element order; an element's order is taken only when it
starts a walk.  The walk
g, g^2, ..., g^(d-1) of <g> names exactly its phi(d) generators g^t,
gcd(t, d) = 1, so every element is named once, as a unit power of its own
subgroup's generator; when phi(d) = 2 (d = 3, 4, 6) the second generator
is g^-1, named with no product.  The walks take sum_C (|C| - 2) products
over the cyclic subgroups C of order at least 2 other than 3, 4 and 6, a
group invariant whatever the element order.  Only the subgroups'
generators are conjugated, by each non-central group generator, and a
search over the subgroups finds the classes; each edge that closes a loop
gives one generator of H.  When every generator is central, nothing is
conjugated: a cyclic subgroup is its own class and H = {1}.  The element
classes are derived on first read.
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
from functools import cached_property
from typing import Callable, Collection, Iterable, NamedTuple, Sequence
from weakref import WeakKeyDictionary

from .galois import divisors, totient
from .groups import ElementId, FiniteGroup


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
    """The classes of cyclic subgroups, the per-order pair/subgroup class
    counts r1, r2, and the conjugacy classes derived from them.

    `_position[x]` is (S, t) for x = g_S^t, t a unit modulo x's order: S
    indexes the cyclic subgroups, <x> among them, and g_S is the generator
    that started S's walk.  S's transport (i, e) = (`_transport[S]`,
    `_transport_power[S]`) says g_S^e is conjugate to g, the generator of
    the i-th record's subgroup.  So x ~ g^(t/e), and x's class is the coset
    of t/e modulo that record's automizer.  With no walk (`_position` None)
    the group is cyclic, every class a singleton, and `_generator` holds a
    generator g and the product, whose powers list the elements; the census
    holds no reference to the group itself.
    """

    subgroups: tuple[SubgroupClass, ...]
    _generator: tuple[ElementId, Callable] | None = field(repr=False)
    _position: dict[ElementId, tuple[int, int]] | None = field(repr=False)
    _transport: list[int] = field(repr=False)
    _transport_power: list[int] = field(repr=False)

    @cached_property
    def classes(self) -> tuple[tuple[ElementId, ...], ...]:
        """Conjugacy classes sorted by (element order, least element), each sorted."""
        if self._position is None:
            assert self._generator is not None
            # the records are the subgroups of G = <g>, the last one G itself,
            # and g^k has order n / gcd(k, n)
            g, mul = self._generator
            n = self.subgroups[-1].order
            x, keyed = g, [(n, g)]
            for k in range(2, n + 1):
                x = mul(x, g)
                keyed.append((n // math.gcd(k, n), x))
            return tuple((x,) for _, x in sorted(keyed))
        records = self.subgroups
        inverse = [
            (i, pow(e, -1, records[i].order))
            for i, e in zip(self._transport, self._transport_power)
        ]
        blocks = defaultdict(list)
        for x, (s, t) in self._position.items():
            i, e_inv = inverse[s]
            d, automizer, _ = records[i]
            u = t * e_inv % d
            blocks[i, min(u * h % d for h in automizer)].append(x)
        ordered = sorted((records[i].order, sorted(b)) for (i, _), b in blocks.items())
        return tuple(tuple(b) for _, b in ordered)

    @cached_property
    def r1_by_order(self) -> dict[int, int]:
        return count_blocks(self.subgroups, (-1,))

    @cached_property
    def r2_by_order(self) -> dict[int, int]:
        return count_blocks(self.subgroups, None)


def _build_census(group: FiniteGroup) -> ClassCensus:
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
            return ClassCensus(subgroups, (g, mul), None, [], [])

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
    return ClassCensus(tuple(subgroups), None, position, record, power)


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

"""Conjugacy machinery: classes, {g, g^-1} pair classes, cyclic-subgroup classes.

Conjugacy classes are computed by orbit expansion under conjugation by the
group's non-central generators.  Every coarser count is a count of the
blocks of a power-map merge of those classes (`count_blocks`): pair classes
{g, g^-1} merge g with g^-1, and the F-conjugacy blocks of `lowk.fconj`
merge g with g^t for t in a Galois image.  The power maps come from
`power_tables`: one walk g, g^2, ..., g^d = e per class of cyclic
subgroups, whose classes are the cosets of (Z/d)^* by H = {u : g^u ~ g}.
The exponents act on those cosets by translation, so all orbits in a table
have one size and a table's blocks are counted from the orbit of its first
class alone, without listing them; classes of cyclic subgroups are the
tables themselves.  All counts share one census of the whole group, kept on
it.  A census restricted to a few element orders scans the element list
once and partitions, and tabulates, only the elements of those orders.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .galois import prime_divisors
from .groups import ElementId, FiniteGroup


class GroupTooLargeError(Exception):
    """The group exceeds the configured brute-force bound."""


def _check_size(group: FiniteGroup, max_size: int) -> None:
    if group.order > max_size:
        raise GroupTooLargeError(
            f"{group.name} has order {group.order} > brute-force bound {max_size}"
        )


def _orbit_partition(
    group: FiniteGroup, elems: Iterable[ElementId]
) -> tuple[tuple[tuple[ElementId, ...], ...], dict[ElementId, int]]:
    """Partition `elems` (closed under conjugation) into conjugacy classes.

    Returns the classes sorted by (element order, least element) and each
    element's class index.  A generator that commutes with every generator
    is central and conjugates trivially, so it is left out; when none is
    left, as for Z_m, every class is a singleton.
    """
    mul = group.mul
    gens = group.generators
    gen_pairs = [
        (a, group.inv(a)) for a in gens if any(mul(a, b) != mul(b, a) for b in gens)
    ]
    if not gen_pairs:
        classes = [(e,) for e in elems]
    else:
        seen: set[ElementId] = set()
        classes = []
        for e in sorted(elems):
            if e in seen:
                continue
            orbit = {e}
            frontier = [e]
            while frontier:
                g = frontier.pop()
                for a, ai in gen_pairs:
                    h = mul(mul(a, g), ai)
                    if h not in orbit:
                        orbit.add(h)
                        frontier.append(h)
            seen |= orbit
            classes.append(tuple(sorted(orbit)))
    classes.sort(key=lambda c: (group.order_of(c[0]), c[0]))
    return tuple(classes), {g: i for i, cls in enumerate(classes) for g in cls}


class PowerTable(NamedTuple):
    """The power map of one class of cyclic subgroups <g>, |g| = d = len(table).

    table[t] is the index of class(g^t) for t prime to d (other entries are
    -1); `first` is the index of class(g) and `count` the number of classes
    the table reaches.
    """

    table: list[int]
    first: int
    count: int


def power_tables(
    group: FiniteGroup,
    classes: Sequence[tuple[ElementId, ...]],
    index: dict[ElementId, int],
) -> list[PowerTable]:
    """One power table per class of cyclic subgroups met in `classes`.

    `classes` must be closed under g -> g^t for t prime to |g|.  The first
    class not yet reached gives g, its least element, of order d; walking g,
    g^2, ..., g^d = e (d products) fills in the table and marks every class
    it reaches.
    """
    mul = group.mul
    reached = bytearray(len(classes))
    tables = []
    for i, cls in enumerate(classes):
        if reached[i]:
            continue
        g = cls[0]
        d = group.order_of(g)
        table = [-1] * d
        count = 0
        x = group.identity
        for t in range(d):
            if math.gcd(t, d) == 1:
                j = table[t] = index[x]
                if not reached[j]:
                    reached[j] = 1
                    count += 1
            x = mul(x, g)
        tables.append(PowerTable(table, i, count))
    return tables


def count_blocks(
    tables: Iterable[PowerTable],
    exponents: Sequence[int] | None = None,
    characteristic: int = 0,
) -> dict[int, int]:
    """Blocks of the merge class(c) ~ class(c^t), t in <exponents>, per element order.

    The exponents must be prime to the orders of the counted classes (None
    stands for all units).  A table's classes are the cosets of
    A = (Z/d)^*/H, H = {u : g^u ~ g}, and the exponents act on them by
    translation, so every orbit in a table has the size of the subgroup K
    of A that they generate: the table holds count / |K| blocks.  Adding an
    exponent t to K multiplies |K| by the least k with t^k in K.  Tables
    whose order the characteristic divides are skipped (only p-regular
    classes count).
    """
    blocks: Counter[int] = Counter()
    for table, first, count in tables:
        d = len(table)
        if characteristic and d % characteristic == 0:
            continue
        if exponents is None or count == 1:
            blocks[d] += 1
            continue
        # K as {class(g^s): s}; class(g^s)^t = class(g^(st)), so s names the coset
        orbit = {first: 1}
        size = 1
        for i, t in enumerate(exponents):
            x, k = t % d, 1
            while table[x] not in orbit:
                x = x * t % d
                k += 1
            size *= k
            if k > 1 and i < len(exponents) - 1:
                for s in list(orbit.values()):
                    for _ in range(k - 1):
                        s = s * t % d
                        orbit[table[s]] = s
        blocks[d] += count // size
    return dict(sorted(blocks.items()))


@dataclass(frozen=True, eq=False)
class ClassCensus:
    """Conjugacy classes, their power tables and the per-order pair/subgroup
    class counts r1, r2.

    r1 merges each class with the class of its inverses (the exponent -1).
    Each power table is one class of cyclic subgroups, so r2 counts the
    tables of each order.
    """

    classes: tuple[tuple[ElementId, ...], ...]
    tables: list[PowerTable] = field(repr=False)
    _index: dict[ElementId, int] = field(repr=False)

    def class_of(self, g: ElementId) -> tuple[ElementId, ...]:
        return self.classes[self._index[g]]

    @cached_property
    def r1_by_order(self) -> dict[int, int]:
        return count_blocks(self.tables, (-1,))

    @cached_property
    def r2_by_order(self) -> dict[int, int]:
        return count_blocks(self.tables)


def _group_census(group: FiniteGroup) -> ClassCensus:
    """The census of the whole group, made once and kept on the group."""
    if group._census is None:
        classes, index = _orbit_partition(group, group.elements)
        group._census = ClassCensus(classes, power_tables(group, classes, index), index)
    return group._census


def conjugacy_classes(
    group: FiniteGroup,
    *,
    orders: Iterable[int] | None = None,
    max_size: int = 5000,
) -> ClassCensus:
    """Full census, or a census restricted to elements of the given orders."""
    _check_size(group, max_size)
    if orders is None:
        return _group_census(group)
    classes, index = _orbit_partition(group, group.elements_of_orders(frozenset(orders)))
    return ClassCensus(classes, power_tables(group, classes, index), index)


def check_p2_condition(group: FiniteGroup, *, max_size: int = 5000) -> bool:
    """No subgroup Z_p x Z_p for any prime p dividing the order."""
    _check_size(group, max_size)
    mul = group.mul
    for p in prime_divisors(group.order):
        stratum = group.elements_of_orders(frozenset((p,)))
        for x in stratum:
            gen = {group.power(x, i) for i in range(p)}
            for z in stratum:
                if z not in gen and mul(x, z) == mul(z, x):
                    return False
    return True


def check_2p_condition(group: FiniteGroup, *, max_size: int = 5000) -> bool:
    """Every subgroup of order 2p (p a prime divisor of |G|) is cyclic.

    A non-cyclic group of order 2p is generated by an order-p element that is
    inverted by an order-2 element outside its span, so scanning those pairs
    is exhaustive.
    """
    _check_size(group, max_size)
    involutions = group.elements_of_orders(frozenset((2,)))
    for p in prime_divisors(group.order):
        for a in group.elements_of_orders(frozenset((p,))):
            span = {group.power(a, i) for i in range(p)}
            a_inv = group.inv(a)
            for b in involutions:
                if b not in span and group.conj(b, a) == a_inv:
                    return False
    return True


def check_milnor(group: FiniteGroup) -> bool:
    """At most one element of order 2."""
    count = 0
    for g in group.elements:
        if group.order_of(g) == 2:
            count += 1
            if count > 1:
                return False
    return True


"""Conjugacy machinery: classes, {g, g^-1} pair classes, cyclic-subgroup classes.

Conjugacy classes are computed by orbit expansion under conjugation by the
group's generating set.  Every coarser count is a power-map merge of those
classes (`merge_classes`): pair classes {g, g^-1} merge g with g^(e-1), and
classes of cyclic subgroups merge g with g^t for t running over generators of
the units modulo the exponent e.  The power maps come from `power_tables`:
one walk g, g^2, ..., g^d = e per class of cyclic subgroups, after which
class(c^t) is a list lookup, so a merge multiplies no group elements.  The
F-conjugacy blocks of `lowk.fconj` are the same merge over a Galois image,
and all of them share one partition of the group and one set of power
tables, both kept on it.  A census restricted to a few element orders scans
the element list once and partitions, and tabulates, only the elements of
those orders.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .galois import full_unit_group, minimal_generators, prime_divisors
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
    element's class index.
    """
    mul = group.mul
    gen_pairs = [(g, group.inv(g)) for g in group.generators]
    seen: set[ElementId] = set()
    classes: list[tuple[ElementId, ...]] = []
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


def class_partition(
    group: FiniteGroup,
) -> tuple[tuple[tuple[ElementId, ...], ...], dict[ElementId, int]]:
    """`_orbit_partition` of the whole group, made once and kept on the group."""
    if group._class_partition is None:
        group._class_partition = _orbit_partition(group, group.elements)
    return group._class_partition


# A class's slot (table, s): the class is class(g^s) for the element g whose
# powers the table lists, so class(c^t) = table[s * t % len(table)].
Slot = tuple[list[int], int]


def power_tables(
    group: FiniteGroup,
    classes: Sequence[tuple[ElementId, ...]],
    index: dict[ElementId, int],
) -> list[Slot]:
    """Each class's slot in the power table of its class of cyclic subgroups.

    `classes` must be closed under g -> g^t for t prime to |g|.  The first
    class without a slot gives g, its least element, of order d; walking g,
    g^2, ..., g^d = e (d products) records table[t] = index of class(g^t)
    for every t prime to d (other entries are -1), and each class so reached
    without a slot gets (table, t).  If c is conjugate to g^s, c^t is
    conjugate to g^(st), so class(c^t) = table[s * t % d].
    """
    mul = group.mul
    slots: list[Slot | None] = [None] * len(classes)
    for i, cls in enumerate(classes):
        if slots[i] is not None:
            continue
        g = cls[0]
        d = group.order_of(g)
        table = [-1] * d
        x = group.identity
        for t in range(d):
            if math.gcd(t, d) == 1:
                j = table[t] = index[x]
                if slots[j] is None:
                    slots[j] = (table, t)
            x = mul(x, g)
    return slots  # type: ignore[return-value]


def class_power_tables(group: FiniteGroup) -> list[Slot]:
    """`power_tables` of the whole-group partition, made once and kept on the group."""
    if group._power_tables is None:
        group._power_tables = power_tables(group, *class_partition(group))
    return group._power_tables


@dataclass(frozen=True, eq=False)
class ClassCensus:
    """Conjugacy classes plus the per-order pair/subgroup class counts r1, r2.

    r1 and r2 are merged on first access.  |g| divides the exponent e, so
    g^(e-1) = g^-1; and the units modulo e map onto the units modulo |g|, so
    the g^t for those units t are the generators of <g>.
    """

    group: FiniteGroup
    classes: tuple[tuple[ElementId, ...], ...]
    _index: dict[ElementId, int] = field(default_factory=dict, repr=False)
    _slots: list[Slot] = field(default_factory=list, repr=False)

    def class_of(self, g: ElementId) -> tuple[ElementId, ...]:
        return self.classes[self._index[g]]

    def _blocks_by_order(self, exponents: Iterable[int]) -> dict[int, int]:
        slots = self._slots
        roots = set(merge_classes(slots, exponents))
        return dict(sorted(Counter(len(slots[r][0]) for r in roots).items()))

    @cached_property
    def r1_by_order(self) -> dict[int, int]:
        return self._blocks_by_order((self.group.exponent - 1,))

    @cached_property
    def r2_by_order(self) -> dict[int, int]:
        return self._blocks_by_order(minimal_generators(full_unit_group(self.group.exponent)))


def merge_classes(
    slots: Sequence[Slot],
    exponents: Iterable[int],
    members: Sequence[int] | None = None,
) -> list[int]:
    """Merge class(c) with class(c^t) for each exponent t; return each member's root.

    The exponents must be prime to the orders of the merged classes, so every
    power map permutes them; the blocks are then the orbits of the group of
    power maps the exponents generate.  Each orbit is walked from its least
    class index, its root, with class(c^t) read from the class's power-table
    slot (`power_tables`).  `members` (default: every class) lists the
    classes to merge and must be a union of orbits, e.g. the classes of
    p-regular elements.
    """
    exponents = tuple(exponents)
    root = [-1] * len(slots)
    if members is None:
        members = range(len(slots))
    for i in members:
        if root[i] >= 0:
            continue
        root[i] = i
        frontier = [i]
        while frontier:
            table, s = slots[frontier.pop()]
            d = len(table)
            for t in exponents:
                j = table[s * t % d]
                if root[j] < 0:
                    root[j] = i
                    frontier.append(j)
    return [root[i] for i in members]


def conjugacy_classes(
    group: FiniteGroup,
    *,
    orders: Iterable[int] | None = None,
    max_size: int = 5000,
) -> ClassCensus:
    """Full census, or a census restricted to elements of the given orders."""
    _check_size(group, max_size)
    if orders is None:
        classes, index = class_partition(group)
        slots = class_power_tables(group)
    else:
        classes, index = _orbit_partition(group, group.elements_of_orders(frozenset(orders)))
        slots = power_tables(group, classes, index)
    return ClassCensus(group=group, classes=classes, _index=index, _slots=slots)


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


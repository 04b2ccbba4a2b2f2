"""F-conjugacy classes and the representation counts r_F.

Two elements are F-conjugate when some Galois power of one is ordinarily
conjugate to the other; by Witt-Berman the number of (p-regular, in positive
characteristic) F-conjugacy classes equals the number of irreducible
F-representations.  The power exponent runs over the Galois image modulo the
regular part of the group exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .census import _check_size, class_partition, class_power_tables, merge_classes
from .galois import FieldDescriptor, minimal_generators, phi_image
from .groups import ElementId, FiniteGroup


@dataclass(frozen=True, eq=False)
class FPartition:
    """Partition of the (p-regular) elements into F-conjugacy classes.

    Holds the merge root of each (p-regular) conjugacy class; the blocks, as
    sorted element tuples, are built on first access.
    """

    field: FieldDescriptor
    group: FiniteGroup
    _members: Sequence[int]
    _roots: list[int]

    @cached_property
    def block_count(self) -> int:
        return len(set(self._roots))

    @cached_property
    def blocks(self) -> tuple[tuple[ElementId, ...], ...]:
        classes, _ = class_partition(self.group)
        merged: dict[int, list[ElementId]] = {}
        for root, i in zip(self._roots, self._members):
            merged.setdefault(root, []).extend(classes[i])
        return tuple(
            sorted(
                (tuple(sorted(b)) for b in merged.values()),
                key=lambda b: (self.group.order_of(b[0]), b[0]),
            )
        )


def regular_modulus(group: FiniteGroup, field: FieldDescriptor) -> int:
    """Group exponent with the characteristic's p-part stripped."""
    m = group.exponent
    p = field.characteristic
    if p:
        while m % p == 0:
            m //= p
    return m


def _regular_classes(group: FiniteGroup, field: FieldDescriptor) -> Sequence[int]:
    """Indices of the classes of elements of order prime to the characteristic."""
    slots = class_power_tables(group)
    p = field.characteristic
    if not p:
        return range(len(slots))
    # a power table is as long as the order of its classes' elements
    return [i for i, (table, _) in enumerate(slots) if len(table) % p]


def f_partition(
    group: FiniteGroup, field: FieldDescriptor, *, max_size: int = 5000
) -> FPartition:
    _check_size(group, max_size)
    members = _regular_classes(group, field)
    exponents = minimal_generators(phi_image(field, regular_modulus(group, field)))
    roots = merge_classes(class_power_tables(group), exponents, members)
    return FPartition(field=field, group=group, _members=members, _roots=roots)


def r_f(group: FiniteGroup, field: FieldDescriptor, *, max_size: int = 5000) -> int:
    """Number of irreducible F-representations (Witt-Berman count)."""
    return f_partition(group, field, max_size=max_size).block_count

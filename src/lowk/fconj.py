"""F-conjugacy classes and the representation counts r_F.

Two elements are F-conjugate when some Galois power of one is ordinarily
conjugate to the other; by Witt-Berman the number of (p-regular, in positive
characteristic) F-conjugacy classes equals the number of irreducible
F-representations.  The power exponent runs over the Galois image modulo the
regular part of the group exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .census import _check_size, class_partition, merge_classes
from .galois import FieldDescriptor, minimal_generators, phi_image
from .groups import ElementId, FiniteGroup


@dataclass(frozen=True)
class FPartition:
    """Partition of the (p-regular) elements into F-conjugacy classes."""

    field: FieldDescriptor
    blocks: tuple[tuple[ElementId, ...], ...]

    @property
    def block_count(self) -> int:
        return len(self.blocks)


def regular_modulus(group: FiniteGroup, field: FieldDescriptor) -> int:
    """Group exponent with the characteristic's p-part stripped."""
    m = group.exponent
    p = field.characteristic
    if p:
        while m % p == 0:
            m //= p
    return m


def _regular_classes(
    group: FiniteGroup, field: FieldDescriptor
) -> tuple[Sequence[tuple[ElementId, ...]], dict[ElementId, int]]:
    """Conjugacy classes of the elements of order prime to the characteristic."""
    classes, index = class_partition(group)
    p = field.characteristic
    if not p:
        return classes, index
    regular = [c for c in classes if group.order_of(c[0]) % p]
    return regular, {g: i for i, cls in enumerate(regular) for g in cls}


def f_partition(
    group: FiniteGroup, field: FieldDescriptor, *, max_size: int = 5000
) -> FPartition:
    _check_size(group, max_size)
    classes, index = _regular_classes(group, field)
    modulus = regular_modulus(group, field)
    roots = merge_classes(
        group, classes, index, minimal_generators(phi_image(field, modulus))
    )
    merged: dict[int, list[ElementId]] = {}
    for root, cls in zip(roots, classes):
        merged.setdefault(root, []).extend(cls)
    blocks = tuple(
        sorted(
            (tuple(sorted(b)) for b in merged.values()),
            key=lambda b: (group.order_of(b[0]), b[0]),
        )
    )
    return FPartition(field=field, blocks=blocks)


def r_f(group: FiniteGroup, field: FieldDescriptor, *, max_size: int = 5000) -> int:
    """Number of irreducible F-representations (Witt-Berman count)."""
    return f_partition(group, field, max_size=max_size).block_count

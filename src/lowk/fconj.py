"""F-conjugacy classes and the representation counts r_F.

Two elements are F-conjugate when some Galois power of one is ordinarily
conjugate to the other; by Witt-Berman the number of (p-regular, in positive
characteristic) F-conjugacy classes equals the number of irreducible
F-representations.  Every count here is one decision, made by `_blocks`:
it takes a list of census records (classes of cyclic subgroups) and a
field, takes the closed-form generators of the Galois image
(`galois.phi_generators`) modulo the lcm of those records' orders, and
counts the blocks per record with `census.count_blocks`, without listing
them.  `f_partition` passes it the p-regular records; the lcm of their
orders is the p'-part of the group exponent.  Over Q the image is all of
(Z/n)^* (`phi_generators` gives None), so each record is one block and r_Q
is the number of them, sum r2.

Carter's rank needs only r_Qp - r_Fp for each prime p, and modulo a
p-regular order both Galois images are <p>: the p-regular records hold as
many Q_p-blocks as F_p-blocks, so the difference is the number of Q_p-blocks
among the p-singular records (`singular_blocks`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .census import SubgroupClass, conjugacy_classes, count_blocks
from .galois import FieldDescriptor, phi_generators
from .groups import FiniteGroup


@dataclass(frozen=True, eq=False)
class FPartition:
    """The number of (p-regular) F-conjugacy classes of a group."""

    block_count: int


def _blocks(records: Sequence[SubgroupClass], field: FieldDescriptor) -> int:
    """The F-blocks among `records`, under the Galois image modulo the lcm of their orders."""
    # any common multiple of the counted orders gives the same image modulo each
    modulus = math.lcm(*(record.order for record in records))
    return sum(count_blocks(records, phi_generators(field, modulus)).values())


def f_partition(group: FiniteGroup, field: FieldDescriptor) -> FPartition:
    p = field.characteristic
    records = conjugacy_classes(group).subgroups
    return FPartition(_blocks([r for r in records if not p or r.order % p], field))


def r_f(group: FiniteGroup, field: FieldDescriptor) -> int:
    """Number of irreducible F-representations (Witt-Berman count)."""
    return f_partition(group, field).block_count


def singular_blocks(subgroups: Iterable[SubgroupClass], p: int) -> int:
    """r_Qp - r_Fp: the Q_p-blocks among the census records whose order p divides."""
    return _blocks([r for r in subgroups if r.order % p == 0], FieldDescriptor.p_adic(p))

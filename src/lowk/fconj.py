"""F-conjugacy classes and the representation counts r_F.

Two elements are F-conjugate when some Galois power of one is ordinarily
conjugate to the other; by Witt-Berman the number of (p-regular, in positive
characteristic) F-conjugacy classes equals the number of irreducible
F-representations.  The power exponents are the closed-form generators of
the Galois image modulo the regular part of the group exponent
(`galois.phi_generators`), and the blocks are counted per class of cyclic
subgroups by `census.count_blocks`, without listing them.  Over Q the image
is all of (Z/n)^* (`phi_generators` gives None), so each class of cyclic
subgroups is one block and r_Q is the number of them, sum r2.

Carter's rank needs only r_Qp - r_Fp for each prime p, and modulo a
p-regular order both Galois images are <p>: the p-regular classes hold as
many Q_p-blocks as F_p-blocks, so the difference is the number of Q_p-blocks
among the p-singular classes (`singular_blocks`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .census import BRUTE_FORCE_BOUND, SubgroupClass, conjugacy_classes, count_blocks
from .galois import FieldDescriptor, phi_generators
from .groups import FiniteGroup


@dataclass(frozen=True, eq=False)
class FPartition:
    """The number of (p-regular) F-conjugacy classes of a group."""

    block_count: int


def regular_modulus(group: FiniteGroup, field: FieldDescriptor) -> int:
    """Group exponent with the characteristic's p-part stripped."""
    m = group.exponent
    p = field.characteristic
    if p:
        while m % p == 0:
            m //= p
    return m


def f_partition(
    group: FiniteGroup, field: FieldDescriptor, *, max_size: int = BRUTE_FORCE_BOUND
) -> FPartition:
    census = conjugacy_classes(group, max_size=max_size)
    exponents = phi_generators(field, regular_modulus(group, field))
    blocks = count_blocks(census.subgroups, exponents, field.characteristic)
    return FPartition(sum(blocks.values()))


def r_f(group: FiniteGroup, field: FieldDescriptor, *, max_size: int = BRUTE_FORCE_BOUND) -> int:
    """Number of irreducible F-representations (Witt-Berman count)."""
    return f_partition(group, field, max_size=max_size).block_count


def singular_blocks(subgroups: Iterable[SubgroupClass], p: int) -> int:
    """r_Qp - r_Fp: the Q_p-blocks among the census records whose order p divides."""
    singular = [record for record in subgroups if record.order % p == 0]
    # any common multiple of the counted orders gives the same image modulo each
    modulus = math.lcm(*(record.order for record in singular))
    exponents = phi_generators(FieldDescriptor.p_adic(p), modulus)
    return sum(count_blocks(singular, exponents).values())

"""Test oracles: small brute-force helpers that no lowk command needs.

Each one recomputes a fact directly from the group law, so tests can check
lowk's faster paths against it.
"""

import math

from lowk.census import class_partition
from lowk.fconj import _regular_classes
from lowk.galois import minimal_generators, phi_image
from lowk.groups import CUSTOM, FamilyTag, FiniteGroup


def build_abelian(factors):
    """Direct product of cyclic groups (family `custom`), e.g. Z_2 x Z_2."""
    factors = tuple(int(f) for f in factors)
    if not factors or any(f < 1 for f in factors):
        raise ValueError(f"factors must be positive integers, got {factors}")
    n = len(factors)

    def mul(a, b):
        return tuple((a[i] + b[i]) % factors[i] for i in range(n))

    def inv(a):
        return tuple(-a[i] % factors[i] for i in range(n))

    def order_of(a):
        return math.lcm(*(factors[i] // math.gcd(a[i], factors[i]) for i in range(n)))

    elements = [()]
    for f in factors:
        elements = [e + (v,) for e in elements for v in range(f)]
    gens = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    return FiniteGroup(
        name=" x ".join(f"Z_{f}" for f in factors),
        family=FamilyTag(CUSTOM),
        elements=elements,
        identity=(0,) * n,
        generators=gens,
        mul=mul,
        inv=inv,
        order_of=order_of,
        exponent=math.lcm(*factors),
    )


def center(group):
    """Elements commuting with everything (checked against the generators)."""
    mul = group.mul
    return tuple(
        g for g in group.elements
        if all(mul(g, h) == mul(h, g) for h in group.generators)
    )


def order_census(group):
    """Map element order -> number of elements of that order."""
    census = {}
    for g in group.elements:
        d = group.order_of(g)
        census[d] = census.get(d, 0) + 1
    return dict(sorted(census.items()))


def centralizer(group, g):
    mul = group.mul
    return tuple(x for x in group.elements if mul(x, g) == mul(g, x))


def blocks_of_order(group, partition, d):
    """The blocks of an `FPartition` whose elements have order d."""
    return [b for b in partition.blocks if group.order_of(b[0]) == d]


def power_merge(group, classes, index, exponents):
    """Union-find of class(g) with class(g^t), each power taken with `group.power`.

    Returns each class's root, the least class index in its block, like
    `lowk.census.merge_classes` over power tables.
    """
    parent = list(range(len(classes)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for t in exponents:
        for i, cls in enumerate(classes):
            ri, rj = find(i), find(index[group.power(cls[0], t)])
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    return [find(i) for i in range(len(classes))]


def per_order_blocks(group, field):
    """r_F with the Galois image taken modulo each element order, not the exponent."""
    classes, _ = class_partition(group)
    strata = {}
    for i in _regular_classes(group, field):
        strata.setdefault(group.order_of(classes[i][0]), []).append(classes[i])
    count = 0
    for d, stratum in strata.items():
        index = {g: i for i, cls in enumerate(stratum) for g in cls}
        roots = power_merge(
            group, stratum, index, minimal_generators(phi_image(field, d))
        )
        count += len(set(roots))
    return count


def is_unit_subgroup(s):
    """Closure / identity check of a `UnitSubgroup`'s residues."""
    n = s.modulus
    if n == 1:
        return s.residues == (0,)
    rs = set(s.residues)
    if 1 not in rs:
        return False
    return all(a * b % n in rs for a in rs for b in rs)

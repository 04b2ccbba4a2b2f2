"""Test oracles: small brute-force helpers that no lowk command needs.

Each one recomputes a fact directly from the group law, so tests can check
lowk's faster paths against it.
"""

import math

from lowk.census import conjugacy_classes
from lowk.fconj import regular_modulus
from lowk.galois import UnitSubgroup, full_unit_group, generated_subgroup
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


def minimal_generators(s):
    """A small generating set of a `UnitSubgroup`, found greedily.  Empty for the trivial group."""
    n = s.modulus
    if n <= 2 or len(s.residues) <= 1:
        return ()
    have = {1}
    gens = []
    for r in s.residues:
        if r in have:
            continue
        gens.append(r)
        # abelian, so <have, r> = union of cosets have * r^i
        new = set(have)
        x = r
        while x not in have:
            new.update(h * x % n for h in have)
            x = x * r % n
        have = new
    return tuple(gens)


def enumerated_phi_image(field, n):
    """Image of Gal(F(zeta_n)/F) -> (Z/n)^*, by enumerating the residues mod n.

    Rational: everything.  F_p (p not dividing n): the Frobenius orbit <p>.
    Q_p: <p> when p does not divide n; the full unit group on the p-power
    part, paired with <p> on the rest, when it does.  Moduli n = 2 mod 4
    are reduced to n/2 and lifted back through the canonical unit-group
    isomorphism.
    """
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    if n == 1:
        return UnitSubgroup(1, (0,))
    if field.kind == "Q":
        return full_unit_group(n)
    p = field.p
    if field.kind == "Fp":
        if n % p == 0:
            raise ValueError(f"phi_image over F_{p} needs a modulus prime to {p}")
        return generated_subgroup(n, [p])
    if n % 4 == 2:
        half = enumerated_phi_image(field, n // 2)
        if half.modulus == 1:
            return UnitSubgroup(2, (1,))
        m = half.modulus
        return UnitSubgroup(n, tuple(sorted(r if r % 2 == 1 else r + m for r in half.residues)))
    a, n1 = 0, n
    while n1 % p == 0:
        n1 //= p
        a += 1
    if a == 0:
        return generated_subgroup(n, [p])
    if n1 == 1:
        return full_unit_group(n)
    tame = set(generated_subgroup(n1, [p]).residues)
    return UnitSubgroup(
        n, tuple(t for t in range(1, n) if math.gcd(t, n) == 1 and t % n1 in tame)
    )


def power_merge(group, classes, index, exponents):
    """Union-find of class(g) with class(g^t), each power taken with `group.power`.

    Returns each class's root, the least class index in its block.
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


def regular_classes(group, classes, p):
    """The classes whose elements have order prime to p (all of them for p = 0)."""
    return [c for c in classes if not p or group.order_of(c[0]) % p]


def merged_blocks(group, classes, exponents):
    """The blocks of `power_merge` as sorted element tuples, by (order, least element)."""
    index = {g: k for k, cls in enumerate(classes) for g in cls}
    merged = {}
    for root, cls in zip(power_merge(group, classes, index, exponents), classes):
        merged.setdefault(root, []).extend(cls)
    return sorted(
        (tuple(sorted(b)) for b in merged.values()),
        key=lambda b: (group.order_of(b[0]), b[0]),
    )


def counts_by_order(group, blocks):
    """Map element order -> number of blocks of elements of that order."""
    counts = {}
    for b in blocks:
        d = group.order_of(b[0])
        counts[d] = counts.get(d, 0) + 1
    return dict(sorted(counts.items()))


def f_blocks(group, field):
    """F-conjugacy blocks: the p-regular classes merged by `power_merge` over
    generators of the enumerated Galois image modulo the regular part of the
    exponent."""
    regular = regular_classes(group, conjugacy_classes(group).classes, field.characteristic)
    exponents = minimal_generators(enumerated_phi_image(field, regular_modulus(group, field)))
    return merged_blocks(group, regular, exponents)


def blocks_of_order(group, field, d):
    """The F-conjugacy blocks (`f_blocks`) whose elements have order d."""
    return [b for b in f_blocks(group, field) if group.order_of(b[0]) == d]


def per_order_blocks(group, field):
    """r_F with the Galois image taken modulo each element order, not the exponent."""
    strata = {}
    for cls in regular_classes(group, conjugacy_classes(group).classes, field.characteristic):
        strata.setdefault(group.order_of(cls[0]), []).append(cls)
    count = 0
    for d, stratum in strata.items():
        index = {g: i for i, cls in enumerate(stratum) for g in cls}
        roots = power_merge(
            group, stratum, index, minimal_generators(enumerated_phi_image(field, d))
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

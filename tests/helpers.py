"""Test oracles: small brute-force helpers that no lowk command needs.

Each one recomputes a fact directly from the group law, so tests can check
lowk's faster paths against it.
"""

import math
import random
from contextlib import contextmanager
from functools import cache
from typing import NamedTuple

from lowk.amalgam import invert, multiply
from lowk.census import BOUND
from lowk.fconj import r_f
from lowk.galois import FieldDescriptor, generated_subgroup, prime_divisors
from lowk.groups import CUSTOM, FamilyTag, FiniteGroup


@contextmanager
def brute_force_bound(bound):
    """Run the block with the census brute-force bound `BOUND` set to `bound`."""
    token = BOUND.set(bound)
    try:
        yield
    finally:
        BOUND.reset(token)


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
        order=len(elements),
        identity=(0,) * n,
        generators=gens,
        mul=mul,
        inv=inv,
        order_of=order_of,
    )


def build_dicyclic_pairs(m):
    """Dic_4m with x^a y^b as the pair (a, b) (family `custom`), by the
    relations x^m = y^2 and y x y^-1 = x^-1; lowk's dicyclic id is 2a + b."""
    two_m = 2 * m

    def mul(g, h):
        a, b = g
        c, d = h
        if b == 0:
            return ((a + c) % two_m, d)
        if d == 0:
            return ((a - c) % two_m, 1)
        return ((a - c + m) % two_m, 0)

    def inv(g):
        a, b = g
        if b == 0:
            return (-a % two_m, 0)
        return ((a + m) % two_m, 1)

    def order_of(g):
        a, b = g
        if b:
            return 4
        return two_m // math.gcd(a, two_m)

    return FiniteGroup(
        name=f"Dic_{4 * m} (pairs)",
        family=FamilyTag(CUSTOM),
        elements=((a, b) for a in range(two_m) for b in (0, 1)),
        order=2 * two_m,
        identity=(0, 0),
        generators=((1, 0), (0, 1)),
        mul=mul,
        inv=inv,
        order_of=order_of,
    )


def build_affine(p, k):
    """The affine maps x -> a x + b of Z_p with a in the order-k subgroup of
    (Z/p)^*, p prime, k | p - 1: the group Z_p x| Z_k of order p k (family
    `custom`).  Its cyclic subgroups of order k are p conjugates, each its
    own normaliser, so conjugation relates their generators by powers."""
    def order_mod_p(a):
        x, n = a, 1
        while x != 1:
            x, n = x * a % p, n + 1
        return n

    r = next(a for a in range(1, p) if order_mod_p(a) == k)
    return FiniteGroup.from_closure(
        name=f"Z_{p} x| Z_{k}",
        generators=[(r, 0), (1, 1)],
        mul=lambda f, g: (f[0] * g[0] % p, (f[0] * g[1] + f[1]) % p),
        identity=(1, 0),
        expect_order=p * k,
    )


def relabel(group, seed):
    """A copy of `group` whose element ids are 0..|G|-1 in a seeded random
    order, so a sorted walk meets its elements in another order."""
    elements = list(group.elements)
    codes = random.Random(seed).sample(range(len(elements)), len(elements))
    code = dict(zip(elements, codes))
    element = dict(zip(codes, elements))
    return FiniteGroup.from_closure(
        name=f"{group.name} (relabelled {seed})",
        generators=[code[g] for g in group.generators],
        mul=lambda x, y: code[group.mul(element[x], element[y])],
        identity=code[group.identity],
        expect_order=group.order,
    )


def center(group):
    """Elements commuting with everything (checked against the generators)."""
    mul = group.mul
    return tuple(
        g for g in group.elements
        if all(mul(g, h) == mul(h, g) for h in group.generators)
    )


@cache
def _class_index(census):
    return {g: i for i, cls in enumerate(census.classes) for g in cls}


def class_of(census, g):
    """The conjugacy class of `g` among a `ClassCensus`'s classes."""
    return census.classes[_class_index(census)[g]]


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


def unit_group(n):
    """All units modulo n as a sorted residue tuple; (0,) for n = 1."""
    return tuple(r for r in range(n) if math.gcd(r, n) == 1)


def minimal_generators(n, residues):
    """A small generating set of the unit subgroup `residues` modulo n, found
    greedily.  Empty for the trivial group."""
    if n <= 2 or len(residues) <= 1:
        return ()
    have = {1}
    gens = []
    for r in residues:
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
        return (0,)
    if field.kind == "Q":
        return unit_group(n)
    p = field.p
    if field.kind == "Fp":
        if n % p == 0:
            raise ValueError(f"phi_image over F_{p} needs a modulus prime to {p}")
        return generated_subgroup(n, [p])
    if n % 4 == 2:
        if n == 2:
            return (1,)
        m = n // 2
        return tuple(sorted(r if r % 2 == 1 else r + m for r in enumerated_phi_image(field, m)))
    a, n1 = 0, n
    while n1 % p == 0:
        n1 //= p
        a += 1
    if a == 0:
        return generated_subgroup(n, [p])
    if n1 == 1:
        return unit_group(n)
    tame = set(generated_subgroup(n1, [p]))
    return tuple(t for t in range(1, n) if math.gcd(t, n) == 1 and t % n1 in tame)


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


@cache
def exponent(group):
    """The lcm of the orders of all the elements."""
    return math.lcm(*{group.order_of(g) for g in group.elements})


def regular_modulus(group, field):
    """The exponent with the characteristic's p-part stripped."""
    m, p = exponent(group), field.characteristic
    while p and m % p == 0:
        m //= p
    return m


def f_blocks(group, field):
    """F-conjugacy blocks: the p-regular classes merged by `power_merge` over
    generators of the enumerated Galois image modulo the regular part of the
    exponent."""
    regular = regular_classes(group, oracle_classes(group), field.characteristic)
    n = regular_modulus(group, field)
    exponents = minimal_generators(n, enumerated_phi_image(field, n))
    return merged_blocks(group, regular, exponents)


def carter_by_r_f(group):
    """Carter's rank 1 - r_Q + sum over p | |G| of (r_Qp - r_Fp), each term a full r_f count."""
    rank = 1 - r_f(group, FieldDescriptor.rational())
    for p in prime_divisors(group.order):
        rank += r_f(group, FieldDescriptor.p_adic(p))
        rank -= r_f(group, FieldDescriptor.finite_prime(p))
    return rank


def blocks_of_order(group, field, d):
    """The F-conjugacy blocks (`f_blocks`) whose elements have order d."""
    return [b for b in f_blocks(group, field) if group.order_of(b[0]) == d]


def per_order_blocks(group, field):
    """r_F with the Galois image taken modulo each element order, not the exponent."""
    strata = {}
    for cls in regular_classes(group, oracle_classes(group), field.characteristic):
        strata.setdefault(group.order_of(cls[0]), []).append(cls)
    count = 0
    for d, stratum in strata.items():
        index = {g: i for i, cls in enumerate(stratum) for g in cls}
        roots = power_merge(
            group, stratum, index, minimal_generators(d, enumerated_phi_image(field, d))
        )
        count += len(set(roots))
    return count


def is_unit_subgroup(n, residues):
    """Closure / identity check of a unit subgroup's residues modulo n."""
    if n == 1:
        return residues == (0,)
    rs = set(residues)
    if 1 not in rs:
        return False
    return all(a * b % n in rs for a in rs for b in rs)


def orbit_partition(group, elems):
    """Partition `elems` (closed under conjugation) into conjugacy classes.

    Orbit expansion under conjugation by the non-central generators.
    Returns the classes sorted by (element order, least element) and each
    element's class index.
    """
    mul = group.mul
    gens = group.generators
    gen_pairs = [
        (a, group.inv(a)) for a in gens if any(mul(a, b) != mul(b, a) for b in gens)
    ]
    if not gen_pairs:
        classes = [(e,) for e in elems]
    else:
        seen = set()
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


def oracle_classes(group):
    """The conjugacy classes of the whole group, by `orbit_partition`."""
    return orbit_partition(group, group.elements)[0]


class PowerTable(NamedTuple):
    """The power map of one class of cyclic subgroups <g>, |g| = d = len(table).

    table[t] is the index of class(g^t) for t prime to d (other entries are
    -1); `first` is the index of class(g) and `count` the number of classes
    the table reaches.
    """

    table: list
    first: int
    count: int


def power_tables(group, classes, index):
    """One power table per class of cyclic subgroups met in `classes`.

    `classes` must be closed under g -> g^t for t prime to |g|.  The first
    class not yet reached gives g, its least element, of order d; walking g,
    g^2, ..., g^d = e fills in the table and marks every class it reaches.
    """
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
            x = group.mul(x, g)
        tables.append(PowerTable(table, i, count))
    return tables


def table_blocks(tables, exponents, p=0):
    """Per element order, the blocks of class(g^s) ~ class(g^(st)), t in
    `exponents`, read off the power tables; None stands for all units, which
    leaves one block per table.  Tables whose order p divides are skipped."""
    counts = {}
    for table, _, _ in tables:
        d = len(table)
        if p and d % p == 0:
            continue
        seen = set()
        for s, c in enumerate(table):
            if c < 0 or c in seen:
                continue
            counts[d] = counts.get(d, 0) + 1
            if exponents is None:
                break
            orbit, frontier = {s}, [s]
            while frontier:
                x = frontier.pop()
                seen.add(table[x])
                for t in exponents:
                    y = x * t % d
                    if y not in orbit:
                        orbit.add(y)
                        frontier.append(y)
    return dict(sorted(counts.items()))


def table_automizers(group, classes, index, tables):
    """(d, H, classes reached) per power table, H = {u : g^u ~ g} for g the
    table's first class's least element, each power taken with `group.power`."""
    out = []
    for table, first, count in tables:
        d = len(table)
        g = classes[first][0]
        units = [u for u in range(d) if math.gcd(u, d) == 1]
        automizer = tuple(u for u in units if index[group.power(g, u)] == first)
        out.append((d, automizer, count))
    return sorted(out)


def psi_by_whole_subgroups(model, g):
    """psi of the B4 model by conjugating all four elements of each H subgroup
    with `multiply` and `invert`, not through the spec's conjugation table.

    The index (from 1) of each g Hi g^-1 among H1, H2, H3; ValueError when a
    conjugate leaves the core or is none of them.
    """
    g_inv = invert(g)

    def conjugate(h):
        conjugates = [multiply(multiply(g, model.spec.from_core(q)), g_inv) for q in h]
        if any(c.letters for c in conjugates):
            raise ValueError(f"a conjugate of {sorted(h)} by {g!r} leaves the core")
        return frozenset(c.core for c in conjugates)

    return tuple(model.h_subgroups.index(conjugate(h)) + 1 for h in model.h_subgroups)

"""The census records against the power tables and `group.power`.

Each property draws a group from a roster (Z_m, Dic_4m, Q_2^k, T*, O*, I*,
non-cyclic abelian groups, and affine groups Z_p x| Z_k, some with their
element ids shuffled so the census walks them in another order; the walk's
positions are checked on the pair models of Dic_4m and Q_2^k).  It checks
the records of `lowk.census` (one per class of cyclic subgroups, with its
automizer H), the element classes derived from them and their block counts
against the oracles in `helpers`: the orbit partition with one power table
per class of cyclic subgroups, and `power_merge`, the union-find that takes
every power with `group.power`.
"""

import math
import sys
from functools import cache

from hypothesis import given, strategies as st

from lowk import census, fconj, galois, groups
from lowk.census import _walk, conjugacy_classes, count_blocks
from lowk.fconj import f_partition, r_f, singular_blocks
from lowk.galois import FieldDescriptor, phi_generators, prime_divisors
from lowk.groups import (
    build_binary_polyhedral,
    build_cyclic,
    build_dicyclic,
    generalized_quaternion,
)
from lowk.lowerk import carter_rank, whitehead_rank

from helpers import (
    build_abelian,
    build_affine,
    build_dicyclic_pairs,
    class_of,
    counts_by_order,
    exponent,
    f_blocks,
    merged_blocks,
    minimal_generators,
    orbit_partition,
    power_tables,
    regular_classes,
    regular_modulus,
    relabel,
    table_automizers,
    table_blocks,
    unit_group,
)

def _affine(key):
    """Z_p x| Z_k; a nonzero seed shuffles its element ids (`helpers.relabel`)."""
    p, k, seed = key
    group = build_affine(p, k)
    return relabel(group, seed) if seed else group


BUILDERS = {
    "cyclic": build_cyclic,
    "dicyclic": build_dicyclic,
    "quaternion": generalized_quaternion,
    "dicyclic_pairs": build_dicyclic_pairs,
    "quaternion_pairs": lambda k: build_dicyclic_pairs(2 ** (k - 2)),
    "polyhedral": build_binary_polyhedral,
    "abelian": build_abelian,
    "affine": _affine,
}


@cache
def _group(family, param):
    return BUILDERS[family](param)


@cache
def oracle(group):
    """The orbit partition of the whole group and its power tables."""
    classes, index = orbit_partition(group, group.elements)
    return classes, index, power_tables(group, classes, index)


polyhedral = st.tuples(st.just("polyhedral"), st.sampled_from(("T*", "O*", "I*")))
abelian = st.tuples(st.just("abelian"), st.sampled_from(((2, 2), (2, 4), (3, 3))))
affine = st.tuples(st.just("affine"), st.builds(
    lambda pk, seed: (*pk, seed),
    st.sampled_from(((7, 6), (11, 5), (19, 9), (29, 7))),
    st.integers(0, 3),
))


def _roster(dicyclic, quaternion):
    return st.one_of(
        st.tuples(st.just("cyclic"), st.integers(1, 200)),
        st.tuples(st.just(dicyclic), st.integers(2, 60)),
        st.tuples(st.just(quaternion), st.integers(3, 7)),
        polyhedral,
        abelian,
        affine,
    ).map(lambda key: _group(*key))


roster = _roster("dicyclic", "quaternion")
# Dic_4m and Q_2^k are read off the divisors of 2m, with no walk; their
# pair models, of family custom, take the walk
walked_roster = _roster("dicyclic_pairs", "quaternion_pairs")
wide_roster = st.one_of(
    st.tuples(st.just("cyclic"), st.integers(1, 400)),
    st.tuples(st.just("dicyclic"), st.integers(2, 400)),
    polyhedral,
    abelian,
    affine,
).map(lambda key: _group(*key))


def units(modulus):
    """Lists of up to three integers prime to `modulus`, possibly negative or past it."""
    return st.lists(
        st.integers(-3 * modulus, 3 * modulus).filter(lambda t: math.gcd(t, modulus) == 1),
        max_size=3,
    )


def regular_records(group, p):
    """The census records whose order p does not divide (all of them for p = 0)."""
    return [r for r in conjugacy_classes(group).subgroups if not p or r.order % p]


def merged_counts(group, classes, exponents, p=0):
    """Per element order, the `power_merge` blocks of the p-regular `classes`.

    `exponents` None stands for all units modulo the exponent.
    """
    if exponents is None:
        n = exponent(group)
        exponents = minimal_generators(n, unit_group(n))
    blocks = merged_blocks(group, regular_classes(group, classes, p), exponents)
    return counts_by_order(group, blocks)


@given(walked_roster, st.data())
def test_positions_are_the_power_map(group, data):
    census = conjugacy_classes(group)
    # every group is walked here, Z_m too, with each generator conjugating:
    # a central one maps each subgroup to itself and adds nothing
    records, position, transport, _ = _walk(group, [(a, group.inv(a)) for a in group.generators])
    assert sorted(records) == sorted(census.subgroups)
    classes, index, _ = oracle(group)
    rep = data.draw(st.sampled_from(classes[data.draw(st.integers(0, len(classes) - 1))]))
    d = group.order_of(rep)
    t = data.draw(st.integers(-3 * d, 3 * d).filter(lambda t: math.gcd(t, d) == 1))
    x = group.power(rep, t)
    assert class_of(census, x) == classes[index[x]]
    reached = {index[group.power(rep, u)] for u in range(d) if math.gcd(u, d) == 1}
    s, q = position[rep]
    assert position[x] == (s, q * t % d)
    record = records[transport[s]]
    assert record[0] == d
    assert (class_of(census, x) == class_of(census, rep)) == (t % d in record[1])
    assert record[2] == len(reached)


@given(roster)
def test_records_match_table_automizers(group):
    # H of each class of cyclic subgroups <g>, once with the oracle's classes
    # and once with the census's own, every power taken with group.power
    census = conjugacy_classes(group)
    classes, index, tables = oracle(group)

    def fixing(g, d):
        cls = class_of(census, g)
        return tuple(
            u for u in range(d)
            if math.gcd(u, d) == 1 and class_of(census, group.power(g, u)) == cls
        )

    own = sorted(
        (len(table), fixing(classes[first][0], len(table)), count)
        for table, first, count in tables
    )
    assert sorted(census.subgroups) == table_automizers(group, classes, index, tables) == own


@given(roster, st.data())
def test_record_counts_match_table_oracle(group, data):
    census = conjugacy_classes(group)
    _, _, tables = oracle(group)
    assert census.r2_by_order == table_blocks(tables, None)
    assert count_blocks(census.subgroups, (-1,)) == table_blocks(tables, (-1,))
    fields = [FieldDescriptor.rational()]
    for p in prime_divisors(group.order):
        fields += [FieldDescriptor.p_adic(p), FieldDescriptor.finite_prime(p)]
    for field in fields:
        exponents = phi_generators(field, regular_modulus(group, field))
        p = field.characteristic
        assert count_blocks(regular_records(group, p), exponents) == table_blocks(
            tables, exponents, p
        ), field.label
    exponents = data.draw(units(exponent(group)))
    assert count_blocks(census.subgroups, exponents) == table_blocks(tables, exponents)


@given(roster)
def test_rational_count_is_r2(group):
    assert r_f(group, FieldDescriptor.rational()) == sum(
        conjugacy_classes(group).r2_by_order.values()
    )


@given(wide_roster, st.data())
def test_block_counts_match_power_oracle(group, data):
    classes = oracle(group)[0]
    p = data.draw(st.sampled_from([0, *prime_divisors(group.order)]))
    exponents = data.draw(st.none() | units(exponent(group)))
    assert count_blocks(regular_records(group, p), exponents) == merged_counts(
        group, classes, exponents, p
    )


@given(roster, st.sampled_from(("Q", "Qp", "Fp")), st.data())
def test_field_partition_matches_power_oracle(group, kind, data):
    p = data.draw(st.sampled_from(prime_divisors(group.order) or [2]))
    field = FieldDescriptor.parse("Q" if kind == "Q" else f"{kind}:{p}")
    blocks = f_blocks(group, field)
    assert f_partition(group, field).block_count == len(blocks)
    exponents = phi_generators(field, regular_modulus(group, field))
    assert count_blocks(
        regular_records(group, field.characteristic), exponents
    ) == counts_by_order(group, blocks)


@given(roster)
def test_singular_blocks_are_the_local_difference(group):
    # r_Qp - r_Fp is the Q_p count over the records whose order p divides
    records = conjugacy_classes(group).subgroups
    for p in prime_divisors(group.order):
        assert singular_blocks(records, p) == r_f(group, FieldDescriptor.p_adic(p)) - r_f(
            group, FieldDescriptor.finite_prime(p)
        ), p


def patch_everywhere(monkeypatch, original, replacement):
    """Replace `original` in every lowk module that binds it, not only its home."""
    for name, module in list(sys.modules.items()):
        if name.startswith("lowk"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def test_carter_rank_takes_no_powers_after_the_partition(monkeypatch):
    group = build_cyclic(1830)
    powers, builds = [], []
    binary_power, builder = groups.binary_power, census._build_census

    def counting_power(g, k, *args):
        powers.append((g, k))
        return binary_power(g, k, *args)

    def counting_builder(group, *args):
        builds.append(group.order)
        return builder(group, *args)

    patch_everywhere(monkeypatch, binary_power, counting_power)
    patch_everywhere(monkeypatch, builder, counting_builder)
    rank = carter_rank(group)
    assert powers == []
    assert builds == [1830]
    monkeypatch.undo()
    expected = 1 - len(f_blocks(group, FieldDescriptor.rational()))
    for p in prime_divisors(group.order):
        expected += len(f_blocks(group, FieldDescriptor.p_adic(p)))
        expected -= len(f_blocks(group, FieldDescriptor.finite_prime(p)))
    assert rank == expected


def test_counts_list_no_unit_group(monkeypatch):
    def refuse(*args):
        raise AssertionError("a unit group was enumerated")

    for name in ("phi_image", "generated_subgroup"):
        patch_everywhere(monkeypatch, getattr(galois, name), refuse)
    assert not hasattr(galois, "minimal_generators")
    for group in (build_cyclic(1830), build_dicyclic(105), generalized_quaternion(5),
                  *(build_binary_polyhedral(k) for k in ("T*", "O*", "I*"))):
        for p in prime_divisors(group.order):
            r_f(group, FieldDescriptor.p_adic(p))
            r_f(group, FieldDescriptor.finite_prime(p))
        r_f(group, FieldDescriptor.rational())
        carter_rank(group)
        whitehead_rank(group)


def test_carter_rank_counts_no_field_partition(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("carter_rank called f_partition")

    patch_everywhere(monkeypatch, fconj.f_partition, refuse)
    for group in (build_cyclic(1830), build_dicyclic(105), generalized_quaternion(5),
                  *(build_binary_polyhedral(k) for k in ("T*", "O*", "I*"))):
        carter_rank(group)

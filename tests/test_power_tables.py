"""Power tables against `group.power`, and the block counts built on them.

Each property draws a group from a roster (Z_m, Dic_4m, Q_2^k, T*, O*, I*)
and checks the table lookups and the block counts of `lowk.census` against
`helpers.power_merge`, the union-find that takes every power with
`group.power`.
"""

import math
import sys
from functools import cache

from hypothesis import given, strategies as st

from lowk import census, galois, groups
from lowk.census import _orbit_partition, conjugacy_classes, count_blocks, power_tables
from lowk.fconj import f_partition, r_f, regular_modulus
from lowk.galois import FieldDescriptor, full_unit_group, phi_generators, prime_divisors
from lowk.groups import (
    build_binary_polyhedral,
    build_cyclic,
    build_dicyclic,
    generalized_quaternion,
)
from lowk.lowerk import carter_rank, whitehead_rank

from helpers import (
    counts_by_order,
    f_blocks,
    merged_blocks,
    minimal_generators,
    regular_classes,
)

BUILDERS = {
    "cyclic": build_cyclic,
    "dicyclic": build_dicyclic,
    "quaternion": generalized_quaternion,
    "polyhedral": build_binary_polyhedral,
}


@cache
def _group(family, param):
    return BUILDERS[family](param)


polyhedral = st.tuples(st.just("polyhedral"), st.sampled_from(("T*", "O*", "I*")))
roster = st.one_of(
    st.tuples(st.just("cyclic"), st.integers(1, 200)),
    st.tuples(st.just("dicyclic"), st.integers(2, 60)),
    st.tuples(st.just("quaternion"), st.integers(3, 7)),
    polyhedral,
).map(lambda key: _group(*key))
wide_roster = st.one_of(
    st.tuples(st.just("cyclic"), st.integers(1, 400)),
    st.tuples(st.just("dicyclic"), st.integers(2, 400)),
    polyhedral,
).map(lambda key: _group(*key))


def units(modulus):
    """Lists of up to three integers prime to `modulus`, possibly negative or past it."""
    return st.lists(
        st.integers(-3 * modulus, 3 * modulus).filter(lambda t: math.gcd(t, modulus) == 1),
        max_size=3,
    )


def merged_counts(group, classes, exponents, p=0):
    """Per element order, the `power_merge` blocks of the p-regular `classes`.

    `exponents` None stands for all units modulo the exponent.
    """
    if exponents is None:
        exponents = minimal_generators(full_unit_group(group.exponent))
    blocks = merged_blocks(group, regular_classes(group, classes, p), exponents)
    return counts_by_order(group, blocks)


@given(roster, st.data())
def test_table_lookup_is_the_power_map(group, data):
    census = conjugacy_classes(group)
    classes = census.classes
    i = data.draw(st.integers(0, len(classes) - 1))
    rep = data.draw(st.sampled_from(classes[i]))
    d = group.order_of(rep)
    t = data.draw(st.integers(-3 * d, 3 * d).filter(lambda t: math.gcd(t, d) == 1))
    table, first, count = next(r for r in census.tables if i in r.table)
    s = table.index(i)
    assert len(table) == d
    assert classes[table[s * t % d]] == census.class_of(group.power(rep, t))
    assert table[1 % d] == first
    assert count == len(set(table) - {-1})


@given(wide_roster, st.data())
def test_block_counts_match_power_oracle(group, data):
    census = conjugacy_classes(group)
    p = data.draw(st.sampled_from([0, *prime_divisors(group.order)]))
    exponents = data.draw(st.none() | units(group.exponent))
    assert count_blocks(census.tables, exponents, p) == merged_counts(
        group, census.classes, exponents, p
    )


@given(roster, st.data())
def test_restricted_tables_match_power_oracle(group, data):
    present = sorted({group.order_of(cls[0]) for cls in conjugacy_classes(group).classes})
    orders = frozenset(data.draw(st.lists(st.sampled_from(present), min_size=1)))
    classes, index = _orbit_partition(group, group.elements_of_orders(orders))
    tables = power_tables(group, classes, index)
    for exponents in ((group.exponent - 1,), None):
        assert count_blocks(tables, exponents) == merged_counts(group, classes, exponents)


@given(roster, st.sampled_from(("Q", "Qp", "Fp")), st.data())
def test_field_partition_matches_power_oracle(group, kind, data):
    p = data.draw(st.sampled_from(prime_divisors(group.order) or [2]))
    field = FieldDescriptor.parse("Q" if kind == "Q" else f"{kind}:{p}")
    blocks = f_blocks(group, field)
    assert f_partition(group, field).block_count == len(blocks)
    exponents = phi_generators(field, regular_modulus(group, field))
    assert count_blocks(
        conjugacy_classes(group).tables, exponents, field.characteristic
    ) == counts_by_order(group, blocks)


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
    binary_power, builder = groups.binary_power, census.power_tables

    def counting_power(g, k, *args):
        powers.append((g, k))
        return binary_power(g, k, *args)

    def counting_builder(group, classes, index):
        builds.append(len(classes))
        return builder(group, classes, index)

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

    for name in ("full_unit_group", "generated_subgroup"):
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

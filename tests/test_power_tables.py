"""Power tables against `group.power`, and the merges built on them.

Each property draws a group from the roster (Z_m with m <= 200, Dic_4m with
m <= 60, Q_2^k with k <= 7, T*, O*, I*) and checks the table lookups and
the orbit merges of `lowk.census` against `helpers.power_merge`, the
union-find that takes every power with `group.power`.
"""

import math
import sys
from functools import cache

from hypothesis import given, strategies as st

from lowk import census, groups
from lowk.census import (
    _orbit_partition,
    class_partition,
    class_power_tables,
    merge_classes,
    power_tables,
)
from lowk.fconj import _regular_classes, f_partition, regular_modulus
from lowk.galois import (
    FieldDescriptor,
    full_unit_group,
    minimal_generators,
    phi_image,
    prime_divisors,
)
from lowk.groups import (
    build_binary_polyhedral,
    build_cyclic,
    build_dicyclic,
    generalized_quaternion,
)
from lowk.lowerk import carter_rank

from helpers import power_merge

BUILDERS = {
    "cyclic": build_cyclic,
    "dicyclic": build_dicyclic,
    "quaternion": generalized_quaternion,
    "polyhedral": build_binary_polyhedral,
}


@cache
def _group(family, param):
    return BUILDERS[family](param)


roster = st.one_of(
    st.tuples(st.just("cyclic"), st.integers(1, 200)),
    st.tuples(st.just("dicyclic"), st.integers(2, 60)),
    st.tuples(st.just("quaternion"), st.integers(3, 7)),
    st.tuples(st.just("polyhedral"), st.sampled_from(("T*", "O*", "I*"))),
).map(lambda key: _group(*key))


def units(modulus):
    """Lists of up to three integers prime to `modulus`, possibly negative or past it."""
    return st.lists(
        st.integers(-3 * modulus, 3 * modulus).filter(lambda t: math.gcd(t, modulus) == 1),
        max_size=3,
    )


@given(roster, st.data())
def test_table_lookup_is_the_power_map(group, data):
    classes, index = class_partition(group)
    i = data.draw(st.integers(0, len(classes) - 1))
    rep = data.draw(st.sampled_from(classes[i]))
    d = group.order_of(rep)
    t = data.draw(st.integers(-3 * d, 3 * d).filter(lambda t: math.gcd(t, d) == 1))
    table, s = class_power_tables(group)[i]
    assert len(table) == d
    assert table[s * t % d] == index[group.power(rep, t)]


@given(roster, st.data())
def test_whole_group_merge_matches_power_oracle(group, data):
    classes, index = class_partition(group)
    exponents = data.draw(units(group.exponent))
    assert merge_classes(class_power_tables(group), exponents) == power_merge(
        group, classes, index, exponents
    )


@given(roster, st.data())
def test_regular_merge_matches_power_oracle(group, data):
    p = data.draw(st.sampled_from(prime_divisors(group.order) or [2]))
    field = FieldDescriptor.finite_prime(p)
    classes, _ = class_partition(group)
    members = _regular_classes(group, field)
    regular = [classes[i] for i in members]
    regular_index = {g: k for k, cls in enumerate(regular) for g in cls}
    exponents = data.draw(units(regular_modulus(group, field)))
    oracle = power_merge(group, regular, regular_index, exponents)
    assert merge_classes(class_power_tables(group), exponents, members) == [
        members[r] for r in oracle
    ]


@given(roster, st.data())
def test_restricted_tables_match_power_oracle(group, data):
    present = sorted({group.order_of(cls[0]) for cls in class_partition(group)[0]})
    orders = frozenset(data.draw(st.lists(st.sampled_from(present), min_size=1)))
    classes, index = _orbit_partition(group, group.elements_of_orders(orders))
    slots = power_tables(group, classes, index)
    for exponents in ((group.exponent - 1,), minimal_generators(full_unit_group(group.exponent))):
        assert merge_classes(slots, exponents) == power_merge(group, classes, index, exponents)


def oracle_blocks(group, field):
    """F-conjugacy blocks as element sets, merged by `helpers.power_merge`."""
    p = field.characteristic
    regular = [c for c in class_partition(group)[0] if not p or group.order_of(c[0]) % p]
    regular_index = {g: k for k, cls in enumerate(regular) for g in cls}
    exponents = minimal_generators(phi_image(field, regular_modulus(group, field)))
    merged = {}
    for root, cls in zip(power_merge(group, regular, regular_index, exponents), regular):
        merged.setdefault(root, set()).update(cls)
    return list(merged.values())


@given(roster, st.sampled_from(("Q", "Qp", "Fp")), st.data())
def test_field_partition_matches_power_oracle(group, kind, data):
    p = data.draw(st.sampled_from(prime_divisors(group.order) or [2]))
    field = FieldDescriptor.parse("Q" if kind == "Q" else f"{kind}:{p}")
    partition = f_partition(group, field)
    blocks = oracle_blocks(group, field)
    assert partition.block_count == len(blocks)
    assert "blocks" not in vars(partition)
    assert sorted(map(sorted, blocks)) == sorted(map(list, partition.blocks))


def test_carter_rank_takes_no_powers_after_the_partition(monkeypatch):
    group = build_cyclic(1830)
    class_partition(group)
    powers, builds = [], []
    binary_power, builder = groups.binary_power, census.power_tables

    def counting_power(g, k, *args):
        powers.append((g, k))
        return binary_power(g, k, *args)

    def counting_builder(group, classes, index):
        builds.append(len(classes))
        return builder(group, classes, index)

    # patch every lowk module that binds either function, not only its home
    for name, module in list(sys.modules.items()):
        if name.startswith("lowk"):
            for attr, value in list(vars(module).items()):
                if value is binary_power:
                    monkeypatch.setattr(module, attr, counting_power)
                elif value is builder:
                    monkeypatch.setattr(module, attr, counting_builder)
    rank = carter_rank(group)
    assert powers == []
    assert builds == [1830]
    monkeypatch.undo()
    expected = 1 - len(oracle_blocks(group, FieldDescriptor.rational()))
    for p in prime_divisors(group.order):
        expected += len(oracle_blocks(group, FieldDescriptor.p_adic(p)))
        expected -= len(oracle_blocks(group, FieldDescriptor.finite_prime(p)))
    assert rank == expected

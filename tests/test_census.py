import gc
import weakref

import pytest

from lowk import census as census_module
from lowk.census import (
    GroupTooLargeError,
    conjugacy_classes,
)
from lowk.fconj import r_f
from lowk.galois import FieldDescriptor
from lowk.groups import (
    build_binary_polyhedral,
    build_cyclic,
    build_dicyclic,
    generalized_quaternion,
)

from helpers import (
    brute_force_bound,
    build_affine,
    build_dicyclic_pairs,
    centralizer,
    class_of,
    relabel,
)


def test_dicyclic_rotation_classes_are_inverse_pairs():
    g = build_dicyclic(5)
    census = conjugacy_classes(g)
    x = 2  # x^a y^b has id 2a + b
    assert class_of(census, x) == (2, 18)  # {x, x^-1}
    assert class_of(census, 4) == (4, 16)


def assert_census_matches_the_pairs(group, m):
    # ids 2a + b sort as the pairs (a, b), so the census walks the same
    # elements in the same order and finds the same records in the same order
    census, oracle = conjugacy_classes(group), conjugacy_classes(build_dicyclic_pairs(m))
    assert census.subgroups == oracle.subgroups, group.name
    assert census.r1_by_order == oracle.r1_by_order, group.name
    assert census.r2_by_order == oracle.r2_by_order, group.name
    assert census.classes == tuple(tuple(2 * a + b for a, b in cls) for cls in oracle.classes)


def test_dicyclic_census_matches_the_pair_oracle():
    for m in range(2, 300):
        assert_census_matches_the_pairs(build_dicyclic(m), m)


@pytest.mark.parametrize("k", range(3, 11))
def test_quaternion_census_matches_the_pair_oracle(k):
    assert_census_matches_the_pairs(generalized_quaternion(k), 2 ** (k - 2))


def test_ostar_pair_and_subgroup_counts():
    census = conjugacy_classes(build_binary_polyhedral("O*"))
    assert census.r1_by_order[8] == 2
    assert census.r2_by_order[8] == 1
    assert census.r1_by_order[4] == census.r2_by_order[4] == 2


def test_istar_pair_and_subgroup_counts():
    census = conjugacy_classes(build_binary_polyhedral("I*"))
    assert (census.r1_by_order[5], census.r2_by_order[5]) == (2, 1)
    assert (census.r1_by_order[10], census.r2_by_order[10]) == (2, 1)


def test_class_sizes_partition_group():
    for group in (build_dicyclic(6), build_binary_polyhedral("T*"), build_cyclic(24)):
        census = conjugacy_classes(group)
        sizes = [len(c) for c in census.classes]
        assert sum(sizes) == group.order
        assert all(group.order % s == 0 for s in sizes)
        covered = {g for c in census.classes for g in c}
        assert covered == set(group.elements)


def test_centralizer_identity_is_whole_group():
    g = build_dicyclic(4)
    assert len(centralizer(g, g.identity)) == g.order


def test_centralizer_of_order8_in_ostar_is_its_span():
    g = build_binary_polyhedral("O*")
    v = next(e for e in g.elements if g.order_of(e) == 8)
    cen = centralizer(g, v)
    assert len(cen) == 8
    span = {g.power(v, i) for i in range(8)}
    assert set(cen) == span


@pytest.mark.parametrize(
    "group",
    [build_dicyclic(5), build_dicyclic(8), build_binary_polyhedral("T*"),
     build_binary_polyhedral("O*"), build_binary_polyhedral("I*")],
    ids=lambda g: g.name,
)
def test_centralizers_cyclic_above_order_two(group):
    for g in group.elements:
        if group.order_of(g) >= 3:
            cen = centralizer(group, g)
            # cyclic iff some member has order equal to the centralizer size
            assert any(group.order_of(c) == len(cen) for c in cen)


def test_pair_equals_subgroup_count_small_orders():
    groups = [build_cyclic(m) for m in (1, 2, 6, 12, 30)]
    groups += [build_dicyclic(m) for m in range(2, 16)]
    groups += [generalized_quaternion(k) for k in (3, 4, 5, 6)]
    groups += [build_binary_polyhedral(k) for k in ("T*", "O*", "I*")]
    for group in groups:
        census = conjugacy_classes(group)
        for d in (1, 2, 3, 4, 6):
            assert census.r1_by_order.get(d, 0) == census.r2_by_order.get(d, 0), group.name


ORACLE_ROSTER = (
    [build_cyclic(m) for m in range(1, 61)]
    + [build_dicyclic(m) for m in range(2, 21)]
    + [generalized_quaternion(k) for k in (4, 5)]
    + [build_binary_polyhedral(k) for k in ("T*", "O*", "I*")]
)


def cyclic_subgroup_classes_by_order(group):
    """Oracle: conjugacy classes of cyclic subgroups, each subgroup an element set."""
    subgroups = {
        frozenset(group.power(g, i) for i in range(group.order_of(g)))
        for g in group.elements
    }
    counts = {}
    seen = set()
    for sub in sorted(subgroups, key=sorted):
        if sub in seen:
            continue
        seen |= {frozenset(group.conj(a, x) for x in sub) for a in group.elements}
        counts[len(sub)] = counts.get(len(sub), 0) + 1
    return dict(sorted(counts.items()))


def test_subgroup_counts_match_set_oracle():
    for group in ORACLE_ROSTER:
        census = conjugacy_classes(group)
        assert census.r2_by_order == cyclic_subgroup_classes_by_order(group), group.name


def test_size_guard():
    with brute_force_bound(5000), pytest.raises(GroupTooLargeError):
        conjugacy_classes(build_dicyclic(2000))


@pytest.mark.parametrize("query", [conjugacy_classes,
                                   lambda group: r_f(group, FieldDescriptor.rational())],
                         ids=["conjugacy_classes", "r_f"])
def test_a_refused_group_never_lists_its_elements(query):
    # the bound is checked on the order alone, so no order drives the memory
    group = build_cyclic(10**8)
    with pytest.raises(GroupTooLargeError, match="Z_100000000 has order 100000000"):
        query(group)
    assert "elements" not in vars(group)


def test_field_count_is_guarded_by_the_census():
    # r_f reaches the census only through conjugacy_classes, which checks the bound
    with brute_force_bound(5000), pytest.raises(GroupTooLargeError):
        r_f(build_dicyclic(2000), FieldDescriptor.rational())


def test_census_is_kept_while_the_group_lives():
    group = build_dicyclic(6)
    census = conjugacy_classes(group)
    assert conjugacy_classes(group) is census
    alive = weakref.ref(census)
    del group, census
    gc.collect()
    assert alive() is None
    kept = len(census_module._CENSUS)
    for m in range(3000):
        conjugacy_classes(build_cyclic(m % 40 + 1))
    gc.collect()
    assert len(census_module._CENSUS) <= kept


def count_products(group, monkeypatch):
    """A census of `group` built here (elements built beforehand), and the
    products it took with r1 and r2."""
    group.elements
    census_module._CENSUS.pop(group, None)
    calls = []
    mul = group.mul

    def counting(a, b):
        calls.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(group, "mul", counting)
    census = conjugacy_classes(group)
    census.r1_by_order, census.r2_by_order
    return census, len(calls)


def test_abelian_partition_makes_constant_products(monkeypatch):
    # the one generator of Z_m is central, so the census conjugates nothing,
    # walks no subgroup, and the only products are the commutation check's
    for m in (30, 1024, 3000):
        group = build_cyclic(m)
        census, products = count_products(group, monkeypatch)
        assert products <= 2
        by_order = sorted(group.elements, key=lambda g: (group.order_of(g), g))
        assert census.classes == tuple((g,) for g in by_order)
        assert all(class_of(census, g) == (g,) for g in group.elements)


@pytest.mark.parametrize(
    "group,per_element",
    [(build_dicyclic(899), 3), (build_dicyclic(1000), 3), (build_dicyclic(7), 3),
     (generalized_quaternion(10), 3), (generalized_quaternion(5), 3),
     (build_binary_polyhedral("T*"), 4), (build_binary_polyhedral("O*"), 4),
     (build_binary_polyhedral("I*"), 4)],
    ids=lambda x: getattr(x, "name", str(x)),
)
def test_census_products_are_linear(group, per_element, monkeypatch):
    # each cyclic subgroup is walked once and only its generator conjugated
    _, products = count_products(group, monkeypatch)
    assert products <= per_element * group.order


@pytest.mark.parametrize(
    "group",
    [build_dicyclic(899), generalized_quaternion(10), build_binary_polyhedral("I*")],
    ids=lambda g: g.name,
)
def test_census_takes_one_order_per_walk(group, monkeypatch):
    # only an element that starts a walk has its order taken
    group.elements
    census_module._CENSUS.pop(group, None)
    calls = []
    order_of = group.order_of

    def counting(g):
        calls.append(g)
        return order_of(g)

    monkeypatch.setattr(group, "order_of", counting)
    census = conjugacy_classes(group)
    assert 0 < len(calls) <= len(census._transport)


def census_shape(group, monkeypatch):
    """What a census says whatever the element ids: its records sorted, r1,
    r2, the class sizes and the products the walk and search took."""
    census, products = count_products(group, monkeypatch)
    sizes = sorted(len(c) for c in census.classes)
    return sorted(census.subgroups), census.r1_by_order, census.r2_by_order, sizes, products


@pytest.mark.parametrize(
    "group",
    [build_binary_polyhedral("T*"), build_binary_polyhedral("O*"),
     build_binary_polyhedral("I*"), build_dicyclic(15), generalized_quaternion(5),
     build_affine(7, 3)],
    ids=lambda g: g.name,
)
def test_census_does_not_depend_on_the_element_order(group, monkeypatch):
    # every cyclic subgroup C is walked once, in |C| - 2 products, whichever
    # of its generators comes first
    own = census_shape(group, monkeypatch)
    for seed in (1, 2, 3):
        assert census_shape(relabel(group, seed), monkeypatch) == own, seed

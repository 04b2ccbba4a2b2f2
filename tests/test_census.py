import gc
import weakref

import pytest

from lowk import census as census_module
from lowk.census import (
    GroupTooLargeError,
    conjugacy_classes,
    count_blocks,
)
from lowk.fconj import r_f
from lowk.galois import FieldDescriptor, prime_divisors, totient
from lowk.groups import (
    build_binary_polyhedral,
    build_cyclic,
    build_dicyclic,
    generalized_quaternion,
)

from helpers import (
    brute_force_bound,
    build_abelian,
    build_affine,
    build_dicyclic_pairs,
    centralizer,
    class_of,
    order_census,
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
    r1 = count_blocks(census.subgroups, (-1,))
    assert r1 == count_blocks(oracle.subgroups, (-1,)), group.name
    assert census.r2_by_order == oracle.r2_by_order, group.name
    assert census.classes == tuple(tuple(2 * a + b for a, b in cls) for cls in oracle.classes)


def test_dicyclic_census_matches_the_pair_oracle():
    # Dic_4m is read off the divisors of 2m; the pairs, of family custom, walk
    for m in range(2, 1001):
        assert_census_matches_the_pairs(build_dicyclic(m), m)


@pytest.mark.parametrize("k", range(3, 13))
def test_quaternion_census_matches_the_pair_oracle(k):
    assert_census_matches_the_pairs(generalized_quaternion(k), 2 ** (k - 2))


def test_ostar_pair_and_subgroup_counts():
    census = conjugacy_classes(build_binary_polyhedral("O*"))
    r1 = count_blocks(census.subgroups, (-1,))
    assert r1[8] == 2
    assert census.r2_by_order[8] == 1
    assert r1[4] == census.r2_by_order[4] == 2


def test_istar_pair_and_subgroup_counts():
    census = conjugacy_classes(build_binary_polyhedral("I*"))
    r1 = count_blocks(census.subgroups, (-1,))
    assert (r1[5], census.r2_by_order[5]) == (2, 1)
    assert (r1[10], census.r2_by_order[10]) == (2, 1)


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
        r1 = count_blocks(census.subgroups, (-1,))
        for d in (1, 2, 3, 4, 6):
            assert r1.get(d, 0) == census.r2_by_order.get(d, 0), group.name


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


# one group per census path, built in the test so that nothing else holds
# it: a class deriver that captured its group would keep it alive as a key
@pytest.mark.parametrize("build", [
    lambda: build_cyclic(30),
    lambda: build_dicyclic(6),
    lambda: generalized_quaternion(5),
    lambda: build_dicyclic_pairs(6),
    lambda: relabel(build_cyclic(24), 1),
    lambda: build_abelian([2, 4]),
], ids=["cyclic", "dicyclic", "quaternion", "walked pairs", "relabelled cyclic", "abelian"])
def test_census_is_kept_while_the_group_lives(build):
    group = build()
    census = conjugacy_classes(group)
    census.classes
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
    count_blocks(census.subgroups, (-1,)), census.r2_by_order
    return census, len(calls)


def abelian_oracle(group):
    """The census of a group with every element central, from its element
    orders: n_d / phi(d) records (d, (1 % d,), phi(d)) for each order d, and
    the singleton classes sorted by (order, element)."""
    records = [(d, (1 % d,), totient(d))
               for d, n in order_census(group).items() for _ in range(n // totient(d))]
    by_order = sorted(group.elements, key=lambda g: (group.order_of(g), g))
    return records, tuple((g,) for g in by_order)


def test_cyclic_census_matches_the_order_oracle():
    # Z_m's records are read off the divisors of m, with no element listed
    for m in range(1, 2001):
        group = build_cyclic(m)
        census = conjugacy_classes(group)
        records, classes = abelian_oracle(group)
        assert list(census.subgroups) == records, m
        assert census.classes == classes, m


@pytest.mark.parametrize("factors", [[2, 2], [2, 4], [3, 3], [2, 3]], ids=str)
def test_abelian_census_matches_the_order_oracle(factors):
    # no generator has order |G| (Z_2 x Z_3 is cyclic, but neither generator
    # shows it), so these take the walk, with nothing to conjugate by
    group = build_abelian(factors)
    census = conjugacy_classes(group)
    records, classes = abelian_oracle(group)
    assert sorted(census.subgroups) == records
    assert census.classes == classes


def test_abelian_partition_makes_constant_products(monkeypatch):
    # the one generator of Z_m has order m, so the census takes no product,
    # takes the generator's order alone and lists no element: its records
    # are read off the divisors of m, its classes derived when first read
    for m in (1, 30, 1024, 3000):
        group = build_cyclic(m)
        products, orders = [], []
        mul, order_of = group.mul, group.order_of
        monkeypatch.setattr(group, "mul", lambda a, b: products.append((a, b)) or mul(a, b))
        monkeypatch.setattr(group, "order_of", lambda g: orders.append(g) or order_of(g))
        census = conjugacy_classes(group)
        count_blocks(census.subgroups, (-1,)), census.r2_by_order
        assert products == []
        assert orders == list(group.generators)
        assert "elements" not in vars(group)
        classes = census.classes
        by_order = sorted(group.elements, key=lambda g: (order_of(g), g))
        assert classes == tuple((g,) for g in by_order)
        assert all(class_of(census, g) == (g,) for g in group.elements)


@pytest.mark.parametrize(
    "group",
    [build_dicyclic(2), build_dicyclic(3), build_dicyclic(899), build_dicyclic(1000),
     generalized_quaternion(3), generalized_quaternion(12)],
    ids=lambda g: g.name,
)
def test_dicyclic_census_makes_no_products(group, monkeypatch):
    # Dic_4m and Q_2^k are read off the divisors of 2m and their classes
    # off the ids 2a + b: no product, inverse or order, and no element list
    calls = []
    for name in ("mul", "inv", "order_of"):
        op = getattr(group, name)
        monkeypatch.setattr(group, name,
                            lambda *args, name=name, op=op: calls.append(name) or op(*args))
    census = conjugacy_classes(group)
    count_blocks(census.subgroups, (-1,)), census.r2_by_order, census.classes
    assert calls == []
    assert "elements" not in vars(group)


def test_dicyclic_field_counts_match_the_pairs():
    for m in range(2, 201):
        group, pairs = build_dicyclic(m), build_dicyclic_pairs(m)
        fields = [FieldDescriptor.rational()]
        for p in prime_divisors(4 * m):
            fields += [FieldDescriptor.p_adic(p), FieldDescriptor.finite_prime(p)]
        for field in fields:
            assert r_f(group, field) == r_f(pairs, field), (m, field.label)


# Dic_4m and Q_2^k are read off their divisors with no product, so the walk
# is measured on their pair models, of family custom
@pytest.mark.parametrize(
    "group,per_element",
    [(build_dicyclic_pairs(899), 2.5), (build_dicyclic_pairs(1000), 2.5),
     (build_dicyclic_pairs(7), 2.5), (build_dicyclic_pairs(256), 2.5),
     (build_dicyclic_pairs(8), 2.5),
     (build_binary_polyhedral("T*"), 3), (build_binary_polyhedral("O*"), 3),
     (build_binary_polyhedral("I*"), 3)],
    ids=lambda x: getattr(x, "name", str(x)),
)
def test_census_products_are_linear(group, per_element, monkeypatch):
    # each cyclic subgroup is walked once and only its generator conjugated;
    # one of order 3, 4 or 6 is walked with no product
    _, products = count_products(group, monkeypatch)
    assert products <= per_element * group.order


@pytest.mark.parametrize(
    "group",
    [build_dicyclic_pairs(899), build_dicyclic_pairs(256), build_binary_polyhedral("I*")],
    ids=lambda g: g.name,
)
def test_census_takes_one_order_per_walk(group, monkeypatch):
    # only an element that starts a walk has its order taken, and a walk
    # starts once per cyclic subgroup, which has phi(d) generators
    walks = sum(n // totient(d) for d, n in order_census(group).items())
    census_module._CENSUS.pop(group, None)
    calls = []
    order_of = group.order_of

    def counting(g):
        calls.append(g)
        return order_of(g)

    monkeypatch.setattr(group, "order_of", counting)
    conjugacy_classes(group)
    assert len(calls) == walks


def census_shape(group, monkeypatch):
    """What a census says whatever the element ids: its records sorted, r1,
    r2, the class sizes and the products the walk and search took."""
    census, products = count_products(group, monkeypatch)
    sizes = sorted(len(c) for c in census.classes)
    r1 = count_blocks(census.subgroups, (-1,))
    return sorted(census.subgroups), r1, census.r2_by_order, sizes, products


@pytest.mark.parametrize(
    "group",
    [build_binary_polyhedral("T*"), build_binary_polyhedral("O*"),
     build_binary_polyhedral("I*"), build_dicyclic_pairs(15), build_dicyclic_pairs(8),
     build_affine(7, 3), build_cyclic(24), build_abelian([2, 4])],
    ids=lambda g: g.name,
)
def test_census_does_not_depend_on_the_element_order(group, monkeypatch):
    # every cyclic subgroup C is walked once, in |C| - 2 products or none,
    # whichever of its generators comes first; a relabelled Z_24 is of the
    # custom family, and is still read off the divisors of 24 with no product
    own = census_shape(group, monkeypatch)
    for seed in (1, 2, 3):
        assert census_shape(relabel(group, seed), monkeypatch) == own, seed

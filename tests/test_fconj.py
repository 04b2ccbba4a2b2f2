import pytest

from lowk import fconj
from lowk.census import conjugacy_classes
from lowk.fconj import f_partition, r_f
from lowk.galois import FieldDescriptor, phi_generators
from lowk.groups import (
    build_binary_polyhedral,
    build_cyclic,
    build_dicyclic,
    generalized_quaternion,
)
from lowk.lowerk import lambda_value

from helpers import blocks_of_order, class_of, f_blocks, per_order_blocks

Q = FieldDescriptor.rational()
Q2 = FieldDescriptor.p_adic(2)
F2 = FieldDescriptor.finite_prime(2)


def test_galois_modulus_is_the_regular_part_of_the_exponent(monkeypatch):
    # T* has exponent 12; over F_p the image is taken modulo its p'-part
    moduli = []

    def recording(field, n):
        moduli.append(n)
        return phi_generators(field, n)

    monkeypatch.setattr(fconj, "phi_generators", recording)
    t = build_binary_polyhedral("T*")
    for field in (Q, Q2, F2, FieldDescriptor.finite_prime(3)):
        r_f(t, field)
    assert moduli == [12, 12, 3, 4]


def test_blocks_are_unions_of_ordinary_classes():
    for group in (build_dicyclic(7), generalized_quaternion(4), build_binary_polyhedral("T*")):
        census = conjugacy_classes(group)
        for field in (Q, Q2, F2, FieldDescriptor.p_adic(3)):
            blocks = f_blocks(group, field)
            assert f_partition(group, field).block_count == len(blocks)
            for block in blocks:
                block_set = set(block)
                for g in block:
                    assert set(class_of(census, g)) <= block_set
            if field.characteristic:
                p = field.characteristic
                assert all(
                    group.order_of(g) % p != 0 for b in blocks for g in b
                )


def test_q8_order_four_blocks_match_classes():
    # every element of Q8 is conjugate to its inverse, so the 2-adic classes
    # of order-4 elements coincide with the ordinary ones
    g = generalized_quaternion(3)
    census = conjugacy_classes(g)
    order4_blocks = blocks_of_order(g, Q2, 4)
    order4_classes = [c for c in census.classes if g.order_of(c[0]) == 4]
    assert sorted(order4_blocks) == sorted(order4_classes)


def test_dic20_single_two_adic_class_of_order_four():
    g = build_dicyclic(5)
    assert len(blocks_of_order(g, Q2, 4)) == 1


def test_rational_partition_counts_cyclic_subgroup_classes():
    groups = [build_cyclic(m) for m in (1, 6, 12, 20)]
    groups += [build_dicyclic(m) for m in (2, 3, 5, 6, 9, 12)]
    groups += [generalized_quaternion(k) for k in (3, 4, 5)]
    groups += [build_binary_polyhedral(k) for k in ("T*", "O*", "I*")]
    for group in groups:
        census = conjugacy_classes(group)
        assert r_f(group, Q) == sum(census.r2_by_order.values()), group.name


def test_rational_partition_is_coarsest():
    from lowk.galois import prime_divisors

    groups = [build_cyclic(m) for m in (6, 30)]
    groups += [build_dicyclic(m) for m in (2, 5, 7, 10)]
    groups += [generalized_quaternion(k) for k in (4, 5)]
    groups += [build_binary_polyhedral(k) for k in ("T*", "O*", "I*")]
    for group in groups:
        rational_blocks = f_blocks(group, Q)
        assert r_f(group, Q) == len(rational_blocks), group.name
        lookup = {g: i for i, b in enumerate(rational_blocks) for g in b}
        for p in prime_divisors(group.order):
            padic = FieldDescriptor.p_adic(p)
            assert r_f(group, padic) == len(f_blocks(group, padic)), (group.name, p)
            for block in f_blocks(group, padic):
                assert len({lookup[g] for g in block}) == 1, (group.name, p)


@pytest.mark.parametrize("k,r_q,r_q2,r_f2", [(3, 5, 5, 1), (4, 6, 6, 1), (5, 7, 7, 1)])
def test_quaternion_counts(k, r_q, r_q2, r_f2):
    g = generalized_quaternion(k)
    assert r_f(g, Q) == r_q == k + 2
    assert r_f(g, Q2) == r_q2
    assert r_f(g, F2) == r_f2


@pytest.mark.parametrize("m", [3, 5, 7, 11, 13, 17, 19, 23])
def test_dicyclic_odd_prime_relations(m):
    g = build_dicyclic(m)
    lam = lambda_value(m)
    assert r_f(g, Q) == 5
    assert r_f(g, Q2) == 2 * lam + 3
    assert r_f(g, F2) == lam + 1
    qm = FieldDescriptor.p_adic(m)
    fm = FieldDescriptor.finite_prime(m)
    if m % 4 == 1:
        assert (r_f(g, qm), r_f(g, fm)) == (6, 4)
    else:
        assert (r_f(g, qm), r_f(g, fm)) == (5, 3)


def test_binary_polyhedral_counts():
    t = build_binary_polyhedral("T*")
    o = build_binary_polyhedral("O*")
    i = build_binary_polyhedral("I*")
    assert [r_f(t, f) for f in (F2, FieldDescriptor.finite_prime(3), Q2,
                                FieldDescriptor.p_adic(3))] == [2, 3, 5, 5]
    assert [r_f(o, f) for f in (Q2, FieldDescriptor.p_adic(3), F2,
                                FieldDescriptor.finite_prime(3))] == [7, 7, 2, 5]
    assert [r_f(i, FieldDescriptor.p_adic(p)) for p in (2, 3, 5)] == [7, 7, 7]
    assert r_f(i, F2) == 3
    assert [r_f(i, FieldDescriptor.finite_prime(p)) for p in (3, 5)] == [5, 5]


def test_per_order_diagnostic_agrees_on_small_roster():
    groups = [build_cyclic(m) for m in (6, 12)]
    groups += [build_dicyclic(m) for m in (2, 3, 5)]
    groups += [build_binary_polyhedral("T*")]
    fields = [Q, Q2, F2, FieldDescriptor.p_adic(3), FieldDescriptor.p_adic(5)]
    for group in groups:
        for field in fields:
            assert per_order_blocks(group, field) == r_f(group, field), (
                group.name, field.label,
            )

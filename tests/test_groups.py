
import pytest

from lowk.groups import (
    FiniteGroup,
    GroupConstructionError,
    build_binary_polyhedral,
    build_cyclic,
    build_dicyclic,
    embedding,
    generalized_quaternion,
)

from helpers import build_abelian, build_dicyclic_pairs, center, order_census


def brute_order(group, g):
    """Independent order oracle: repeated multiplication until the identity."""
    x = g
    n = 1
    while x != group.identity:
        x = group.mul(x, g)
        n += 1
    return n


def test_cyclic_trivial():
    g = build_cyclic(1)
    assert g.order == 1
    assert order_census(g) == {1: 1}


def test_cyclic_six_census():
    # oracle: orders of the powers of the generator, computed by brute force
    g = build_cyclic(6)
    expected = {}
    for a in g.elements:
        expected[brute_order(g, a)] = expected.get(brute_order(g, a), 0) + 1
    assert expected == {1: 1, 2: 1, 3: 2, 6: 2}
    assert order_census(g) == expected


def test_dicyclic_q8_census_brute_force():
    g = build_dicyclic(2)
    assert g.order == 8
    census = {}
    for e in g.elements:
        census[brute_order(g, e)] = census.get(brute_order(g, e), 0) + 1
    assert census == {1: 1, 2: 1, 4: 6}
    assert order_census(g) == census


def test_dicyclic_twelve():
    g = build_dicyclic(3)
    assert g.order == 12


@pytest.mark.parametrize("m", [2, 3, 4, 5, 7, 10])
def test_dicyclic_defining_relation(m):
    g = build_dicyclic(m)
    x, y = g.generators
    assert g.power(x, m) == g.power(y, 2)
    assert g.mul(g.mul(y, x), g.inv(y)) == g.inv(x)


def test_dicyclic_rejects_small_m():
    with pytest.raises(ValueError):
        build_dicyclic(1)


def test_binary_tetrahedral():
    g = build_binary_polyhedral("T*")
    assert g.order == 24
    assert order_census(g) == {1: 1, 2: 1, 3: 8, 4: 6, 6: 8}


def test_binary_octahedral():
    g = build_binary_polyhedral("O*")
    assert g.order == 48
    assert order_census(g) == {1: 1, 2: 1, 3: 8, 4: 18, 6: 8, 8: 12}


def test_binary_icosahedral():
    g = build_binary_polyhedral("I*")
    assert g.order == 120
    assert order_census(g) == {1: 1, 2: 1, 3: 20, 4: 30, 5: 24, 6: 20, 10: 24}


def test_binary_polyhedral_bad_kind():
    with pytest.raises(ValueError):
        build_binary_polyhedral("X*")


def test_center_q8():
    g = build_dicyclic(2)
    z = center(g)
    assert len(z) == 2
    assert g.identity in z
    assert {g.order_of(e) for e in z} == {1, 2}


def test_center_abelian():
    g = build_cyclic(6)
    assert len(center(g)) == 6


def test_center_binary_icosahedral():
    assert len(center(build_binary_polyhedral("I*"))) == 2


@pytest.mark.parametrize(
    "group",
    [
        build_cyclic(7),
        build_dicyclic(5),
        build_binary_polyhedral("T*"),
        build_abelian([2, 2]),
    ],
    ids=lambda g: g.name,
)
def test_group_axioms_exhaustive(group):
    els = group.elements
    for a in els:
        assert group.mul(group.inv(a), a) == group.identity
        assert group.order_of(a) == brute_order(group, a)
    for a in els:
        for b in els:
            ab = group.mul(a, b)
            assert ab in group
            for c in els:
                assert group.mul(ab, c) == group.mul(a, group.mul(b, c))


def test_group_axioms_sampled_large():
    import random

    rng = random.Random(11)
    group = build_dicyclic(101)
    els = group.elements
    for _ in range(300):
        a, b, c = rng.choice(els), rng.choice(els), rng.choice(els)
        assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))
        assert group.mul(group.inv(a), a) == group.identity
    for _ in range(50):
        a = rng.choice(els)
        assert group.order_of(a) == brute_order(group, a)


@pytest.mark.parametrize("k", range(3, 11))
def test_quaternion_matches_dicyclic_census(k):
    q = generalized_quaternion(k)
    d = build_dicyclic(2 ** (k - 2))
    assert q.order == 2 ** k == d.order
    assert order_census(q) == order_census(d)


@pytest.mark.parametrize("m", range(2, 25))
def test_dicyclic_ids_re_encode_the_pairs(m):
    # x^a y^b is the pair (a, b) in the oracle and 2a + b in lowk
    group, pairs = build_dicyclic(m), build_dicyclic_pairs(m)
    code = {g: 2 * g[0] + g[1] for g in pairs.elements}
    assert [code[g] for g in pairs.elements] == list(group.elements)
    assert code[pairs.identity] == group.identity
    assert [code[g] for g in pairs.generators] == list(group.generators)
    for g in pairs.elements:
        assert code[pairs.inv(g)] == group.inv(code[g])
        assert pairs.order_of(g) == group.order_of(code[g])
        for h in pairs.elements:
            assert code[pairs.mul(g, h)] == group.mul(code[g], code[h])


def test_closure_size_guard(monkeypatch):
    from lowk import groups

    monkeypatch.setattr(groups, "MAX_CLOSURE_SIZE", 100)
    with pytest.raises(GroupConstructionError, match="closure exceeded 100 elements"):
        groups.FiniteGroup.from_closure("big", [1], lambda a, b: (a + b) % 101, 0, 101)
    largest = groups.FiniteGroup.from_closure("Z_100", [1], lambda a, b: (a + b) % 100, 0, 100)
    assert largest.order == 100


def test_closure_is_checked_against_the_stated_order():
    with pytest.raises(GroupConstructionError, match="closure has 6 elements, expected 5"):
        FiniteGroup.from_closure("Z_6", [1], lambda a, b: (a + b) % 6, 0, 5)


@pytest.mark.parametrize("kind, p", [("T*", 3), ("O*", 7), ("I*", 5)])
def test_binary_polyhedral_inverse_is_the_matrix_inverse(kind, p):
    group = build_binary_polyhedral(kind)
    for a, b, c, d in group:
        assert group.inv((a, b, c, d)) == (d, -b % p, -c % p, a)


LAZY_ROSTER = (
    [build_cyclic(m) for m in range(1, 61)]
    + [build_dicyclic(m) for m in range(2, 21)]
    + [generalized_quaternion(k) for k in range(3, 8)]
    + [build_binary_polyhedral(kind) for kind in ("T*", "O*", "I*")]
)


@pytest.mark.parametrize("group", LAZY_ROSTER, ids=lambda g: g.name)
def test_lazy_elements_match_the_stored_order(group):
    els = group.elements
    assert group.order == len(group) == len(els)
    assert list(els) == sorted(set(els))
    assert all(g in group for g in els)


def test_family_groups_build_no_element_list():
    for group, order in ((build_cyclic(10**12), 10**12), (build_dicyclic(10**12), 4 * 10**12),
                         (generalized_quaternion(200), 2**200)):
        assert "elements" not in vars(group)
        assert group.order == order
        assert group.power(group.generators[0], group.order) == group.identity
        assert "elements" not in vars(group)


def test_lazy_element_count_is_checked_against_the_order():
    from lowk.groups import CUSTOM, FamilyTag

    group = FiniteGroup(
        name="bad", family=FamilyTag(CUSTOM), elements=iter([0, 1]), order=3,
        identity=0, generators=(1,), mul=lambda a, b: (a + b) % 3,
        inv=lambda a: -a % 3, order_of=lambda a: 1 if a == 0 else 3,
    )
    assert group.order == 3
    with pytest.raises(GroupConstructionError):
        group.elements


@pytest.mark.parametrize("group", [build_dicyclic(7), build_binary_polyhedral("T*")],
                         ids=lambda g: g.name)
def test_power_uses_the_fewest_square_and_multiply_steps(group, monkeypatch):
    calls = []
    mul = group.mul

    def counting(a, b):
        calls.append(None)
        return mul(a, b)

    monkeypatch.setattr(group, "mul", counting)
    for g in group.generators:
        for k in [*range(0, 9), *range(-4, 0)]:
            calls.clear()
            got = group.power(g, k)
            n = abs(k)
            assert len(calls) == (n.bit_length() + bin(n).count("1") - 2 if n else 0)
            base = g if k >= 0 else group.inv(g)
            expected = group.identity
            for _ in range(n):
                expected = mul(expected, base)
            assert got == expected


# -- embeddings closed from generator images -----------------------------------

def assert_embeds_by(sub, group, images, formula):
    """`embedding` closes the images to g -> formula(g), an injective homomorphism."""
    emb = embedding(sub, group, images)
    assert emb == {g: formula(g) for g in sub.elements}
    assert len(set(emb.values())) == sub.order
    for g in sub.elements:
        for h in sub.elements:
            assert emb[sub.mul(g, h)] == group.mul(emb[g], emb[h])


@pytest.mark.parametrize("k", range(2, 20))
def test_dicyclic_family_inclusions_are_embeddings(k):
    def xy(a, b):  # the id of x^a y^b
        return 2 * a + b

    dic = build_dicyclic(k)
    for a in range(2, k + 1):
        if k % a == 0:
            # Dic_4a -> Dic_4k: x -> x^(k/a), y -> y
            assert_embeds_by(build_dicyclic(a), dic, {xy(1, 0): xy(k // a, 0), xy(0, 1): xy(0, 1)},
                             lambda g: xy(g // 2 * (k // a), g % 2))
    # Z_2k -> Dic_4k: 1 -> x
    assert_embeds_by(build_cyclic(2 * k), dic, {1: xy(1, 0)}, lambda n: xy(n, 0))
    # Z_4 -> Dic_4k: 1 -> y, with y^2 = x^k
    assert_embeds_by(build_cyclic(4), dic, {1: xy(0, 1)},
                     lambda n: xy((n // 2) * k, n % 2))


@pytest.mark.parametrize("b", range(1, 25))
def test_cyclic_inclusions_exist_exactly_when_the_order_divides(b):
    zb = build_cyclic(b)
    for a in range(1, 25):
        za = build_cyclic(a)
        # 1 -> b/a generates the order-a subgroup of Z_b when a | b
        image = (b // a) % b
        if b % a == 0:
            assert_embeds_by(za, zb, {1 % a: image}, lambda n: n * image)
        else:
            with pytest.raises(ValueError):
                embedding(za, zb, {1 % a: image})
        # 1 -> 1 is a homomorphism exactly when b | a, injective only when a = b
        if a == b:
            assert embedding(za, zb, {1 % a: 1 % b}) == {n: n for n in range(a)}
        else:
            message = "not injective" if a % b == 0 else "no homomorphism"
            with pytest.raises(ValueError, match=message):
                embedding(za, zb, {1 % a: 1 % b})


@pytest.mark.parametrize("images, message", [
    # ids are 2a + b for x^a y^b: i = 2 and j = 1 in Q8, x^2 = 4 and x^4 = 8 in Q16
    # j i j^-1 = i^-1 fails on the images: x^2 is not x^-2 in Q16
    ({2: 4, 1: 4}, "the images define no homomorphism Q_8 -> Q_16"),
    ({2: 4}, "the generator images do not generate Q_8"),
    # i, j -> x^4 = -1 sends Q8 onto the centre of Q16
    ({2: 8, 1: 8}, "the homomorphism Q_8 -> Q_16 is not injective"),
], ids=["not_a_homomorphism", "not_generating", "not_injective"])
def test_embedding_rejects_bad_generator_maps(images, message):
    q8, q16 = generalized_quaternion(3), generalized_quaternion(4)
    with pytest.raises(ValueError, match=message):
        embedding(q8, q16, images)


def test_embedding_stops_the_closure_past_the_order_of_sub(monkeypatch):
    # 1 -> 1 from Z_2 generates all of Z_(10^9) in the second coordinate; a
    # graph of a map from Z_2 holds at most 2 pairs, so 3 products decide
    big = build_cyclic(10**9)
    calls = []
    mul = big.mul

    def counting(a, b):
        calls.append(None)
        return mul(a, b)

    monkeypatch.setattr(big, "mul", counting)
    with pytest.raises(ValueError, match="no homomorphism"):
        embedding(build_cyclic(2), big, {1: 1})
    assert len(calls) <= 3

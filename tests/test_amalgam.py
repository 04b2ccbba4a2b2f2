import random

import pytest

import lowk.amalgam
from lowk.amalgam import (
    AmalgamError,
    conjugate_subgroup,
    has_finite_order,
    invert,
    multiply,
    power,
    reduce_word,
)
from lowk.b4 import I_UNIT, J_UNIT, R2_REP, R_REP, build_b4_spec, build_gamma_specs


@pytest.fixture(scope="module")
def spec():
    return build_b4_spec()


def random_word(spec, rng, length):
    word = []
    for _ in range(length):
        side = rng.choice((1, 2))
        word.append((side, rng.choice(spec.factors[side - 1].elements)))
    return word


def test_identity_and_trivial_words(spec):
    assert spec.identity().is_identity
    for side in (1, 2):
        for g in spec.factors[side - 1].elements:
            w = reduce_word(spec, [(side, g), (side, spec.factors[side - 1].inv(g))])
            assert w.is_identity


def test_defining_relations(spec):
    # v u v^-1 u = 1 and r^3 = 1 in the glued group
    q16 = spec.factors[0]
    u, v = (1, 0), (0, 1)
    w = reduce_word(spec, [(1, v), (1, u), (1, q16.inv(v)), (1, u)])
    assert w.is_identity
    assert reduce_word(spec, [(2, R_REP)] * 3).is_identity


def test_glueing_relations(spec):
    # u^2 = p and v = q become core elements
    u_sq = reduce_word(spec, [(1, (1, 0)), (1, (1, 0))])
    assert u_sq.letters == () and u_sq.core == I_UNIT
    v = reduce_word(spec, [(1, (0, 1))])
    assert v.letters == () and v.core == J_UNIT


def test_multiply_unit_laws(spec):
    rng = random.Random(1)
    e = spec.identity()
    for _ in range(100):
        a = reduce_word(spec, random_word(spec, rng, rng.randint(0, 6)))
        assert multiply(a, e) == a
        assert multiply(e, a) == a
        assert multiply(invert(a), a).is_identity
        assert multiply(a, invert(a)).is_identity


def test_reduce_concat_equals_multiply(spec):
    rng = random.Random(2)
    for _ in range(2000):
        w1 = random_word(spec, rng, rng.randint(0, 5))
        w2 = random_word(spec, rng, rng.randint(0, 5))
        assert reduce_word(spec, w1 + w2) == multiply(
            reduce_word(spec, w1), reduce_word(spec, w2)
        )


def test_associativity_random_triples(spec):
    rng = random.Random(3)
    for _ in range(1000):
        a, b, c = (
            reduce_word(spec, random_word(spec, rng, rng.randint(0, 8)))
            for _ in range(3)
        )
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_normal_form_stable_under_padding(spec):
    rng = random.Random(4)
    for _ in range(200):
        word = random_word(spec, rng, rng.randint(0, 6))
        padded = []
        for letter in word:
            padded.append(letter)
            side = rng.choice((1, 2))
            g = rng.choice(spec.factors[side - 1].elements)
            padded.append((side, g))
            padded.append((side, spec.factors[side - 1].inv(g)))
        assert reduce_word(spec, word) == reduce_word(spec, padded)


def test_syllable_length_properties(spec):
    rng = random.Random(5)
    for _ in range(300):
        a = reduce_word(spec, random_word(spec, rng, rng.randint(0, 8)))
        b = reduce_word(spec, random_word(spec, rng, rng.randint(0, 8)))
        ab = multiply(a, b)
        assert ab.syllable_length <= a.syllable_length + b.syllable_length
        assert invert(a).syllable_length == a.syllable_length


def all_elements_up_to_syllables(spec, max_syllables):
    """Every normal form with at most `max_syllables` letters."""
    nontrivial = (
        [t for t in spec.transversals[0][1:]],
        [t for t in spec.transversals[1][1:]],
    )
    words = [()]
    for _ in range(max_syllables):
        new = []
        for w in words:
            if len(w) < max_syllables:
                for side in (1, 2):
                    if w and w[-1][0] == side:
                        continue
                    for t in nontrivial[side - 1]:
                        new.append(w + ((side, t),))
        words.extend(n for n in new if n not in words)
        words = list(dict.fromkeys(words))
    out = []
    for w in words:
        for f in spec.core.elements:
            from lowk.amalgam import AmalgamElement

            out.append(AmalgamElement(spec, tuple(w), f))
    return out


def test_torsion_detection_exhaustive_short_elements(spec):
    # oracle: a finite-order element's order divides lcm of the factor
    # exponents (= 24 here), so g^24 = 1 decides finiteness
    for el in all_elements_up_to_syllables(spec, 4):
        oracle = power(el, 24).is_identity
        assert has_finite_order(el) == oracle, spec.format_element(el)


def test_conjugate_subgroup_core_stability(spec):
    core_ids = list(spec.core.elements)
    assert conjugate_subgroup(spec.identity(), core_ids) == frozenset(core_ids)
    rng = random.Random(6)
    for _ in range(50):
        a = reduce_word(spec, random_word(spec, rng, rng.randint(0, 6)))
        assert conjugate_subgroup(a, core_ids) == frozenset(core_ids)


def test_core_normal_in_all_specs(spec):
    g1, g2 = build_gamma_specs()
    for s in (spec, g1, g2):
        assert s.core_is_normal


def test_letter_validation(spec):
    with pytest.raises(AmalgamError):
        reduce_word(spec, [(1, (0, 0, 0, 7))])
    with pytest.raises(AmalgamError):
        reduce_word(spec, [(3, (0, 0))])


def test_cross_spec_multiplication_rejected(spec):
    g1, _ = build_gamma_specs()
    with pytest.raises(AmalgamError):
        multiply(spec.identity(), g1.identity())


def test_transversal_validation_catches_bad_cosets():
    from lowk.amalgam import AmalgamSpec
    from lowk.b4 import TSTAR_I, TSTAR_J, _hom_from_generators
    from lowk.groups import build_binary_polyhedral, generalized_quaternion

    core = generalized_quaternion(3)
    q16 = generalized_quaternion(4)
    tstar = build_binary_polyhedral("T*")
    embed1 = _hom_from_generators(core, q16, {I_UNIT: (2, 0), J_UNIT: (0, 1)})
    embed2 = _hom_from_generators(core, tstar, {I_UNIT: TSTAR_I, J_UNIT: TSTAR_J})
    with pytest.raises(AmalgamError):
        AmalgamSpec(
            name="bad",
            g1=q16,
            g2=tstar,
            core=core,
            embed1=embed1,
            embed2=embed2,
            transversal1=((0, 0), (2, 0)),  # (2,0) lies in the core image
            transversal2=(tstar.identity, R_REP, R2_REP),
        )


def test_power_uses_the_fewest_multiplies(spec, monkeypatch):
    calls = []

    def counting(a, b):
        calls.append(None)
        return multiply(a, b)

    monkeypatch.setattr(lowk.amalgam, "multiply", counting)
    el = reduce_word(spec, [(1, spec.factors[0].generators[0]), (2, R_REP)])
    for k in [*range(0, 9), *range(-4, 0)]:
        calls.clear()
        got = power(el, k)
        n = abs(k)
        assert len(calls) == (n.bit_length() + bin(n).count("1") - 2 if n else 0)
        base = el if k >= 0 else invert(el)
        expected = spec.identity()
        for _ in range(n):
            expected = multiply(expected, base)
        assert got == expected

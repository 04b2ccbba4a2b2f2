import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

import lowk.amalgam
from lowk.amalgam import (
    AmalgamElement,
    AmalgamError,
    AmalgamSpec,
    conjugate_subgroup,
    conjugates,
    has_finite_order,
    invert,
    multiply,
    power,
    reduce_word,
)
from lowk.b4 import (
    I_UNIT,
    J_UNIT,
    Q8_IN_Q16,
    R2_REP,
    R_REP,
    TSTAR_I,
    TSTAR_J,
    _sym3,
    build_b4,
    build_b4_spec,
    build_gamma_specs,
)
from lowk.groups import build_binary_polyhedral, build_cyclic, generalized_quaternion

MODEL = build_b4()
SPECS = (MODEL.spec, *build_gamma_specs())
SPEC_IDS = [s.name for s in SPECS]
# the order-4 subgroups of Q8 and Q8 itself; all three specs share the core ids
CORE_SUBSETS = (*MODEL.h_subgroups, frozenset(MODEL.spec.core.elements))


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
    u, v = 2, 1  # x and y
    w = reduce_word(spec, [(1, v), (1, u), (1, q16.inv(v)), (1, u)])
    assert w.is_identity
    assert reduce_word(spec, [(2, R_REP)] * 3).is_identity


def test_glueing_relations(spec):
    # u^2 = p and v = q become core elements
    u_sq = reduce_word(spec, [(1, 2), (1, 2)])
    assert u_sq.letters == () and u_sq.core == I_UNIT
    v = reduce_word(spec, [(1, 1)])
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


@pytest.mark.parametrize("s", SPECS, ids=SPEC_IDS)
def test_conjugation_table_matches_the_normal_form_arithmetic(s):
    # every nontrivial rep t and core f: t f t^-1 through `multiply` is the table's entry
    assert s._conj is not None
    for side in (1, 2):
        g, table = s.factors[side - 1], s._conj[side - 1]
        reps = {t for t in s.transversals[side - 1] if t != g.identity}
        assert set(table) == reps
        for t in reps:
            rep = s.from_factor(side, t)
            rep_inv = invert(rep)
            assert set(table[t]) == set(s.core.elements)
            for f in s.core.elements:
                conj = multiply(multiply(rep, s.from_core(f)), rep_inv)
                assert conj.letters == ()
                assert conj.core == table[t][f]


@pytest.mark.parametrize("s", SPECS, ids=SPEC_IDS)
def test_conjugates_are_the_word_conjugates_in_input_order(s):
    rng = random.Random(35)
    core = list(s.core.elements)
    for _ in range(200):
        a = reduce_word(s, random_word(s, rng, rng.randint(0, 12)))
        a_inv = invert(a)
        qs = rng.sample(core, len(core))
        expected = [multiply(multiply(a, s.from_core(q)), a_inv).core for q in qs]
        assert conjugates(a, qs) == expected
        assert conjugate_subgroup(a, qs) == frozenset(expected)


def _built_by_every_path(s):
    """One element from each way lowk builds one, and from the class itself."""
    t1, t2 = (trans[-1] for trans in s.transversals)  # a nontrivial coset rep per side
    a = reduce_word(s, [(1, t1), (2, t2), (1, t1)])
    return {
        "identity": s.identity(),
        "from_core": s.from_core(I_UNIT),
        "from_factor": s.from_factor(2, t2),
        "reduce_word": a,
        "multiply": multiply(a, a),
        "invert": invert(a),
        "power": power(a, -3),
        "class": AmalgamElement(s, a.letters, a.core),
    }


@pytest.mark.parametrize("s", SPECS, ids=SPEC_IDS)
def test_every_built_element_is_frozen_and_has_no_dict(s):
    for path, el in _built_by_every_path(s).items():
        for field in ("spec", "letters", "core"):
            with pytest.raises(FrozenInstanceError):
                setattr(el, field, getattr(el, field))
        assert not hasattr(el, "__dict__"), path


@pytest.mark.parametrize("s", SPECS, ids=SPEC_IDS)
def test_built_elements_equal_and_hash_as_the_class_builds_them(s):
    for path, el in _built_by_every_path(s).items():
        same = AmalgamElement(el.spec, el.letters, el.core)
        assert el == same and hash(el) == hash(same), path


def test_letter_validation(spec):
    with pytest.raises(AmalgamError):
        reduce_word(spec, [(1, (0, 0, 0, 7))])
    with pytest.raises(AmalgamError):
        reduce_word(spec, [(3, 0)])
    # an unhashable value is no element either, not a TypeError
    with pytest.raises(AmalgamError, match=r"\[1\] is not an element of factor 1"):
        reduce_word(spec, [(1, [1])])
    with pytest.raises(AmalgamError, match=r"\[1\] is not a core element"):
        spec.from_core([1])


def test_cross_spec_multiplication_rejected(spec):
    g1, _ = build_gamma_specs()
    with pytest.raises(AmalgamError):
        multiply(spec.identity(), g1.identity())


def test_equality_tells_specs_apart():
    # Gamma1 and Gamma2 share their factors, letter ids and core ids, so the
    # same factor element has the same letters and core in both
    gamma1, gamma2 = build_gamma_specs()
    a1, a2 = gamma1.from_factor(1, 2), gamma2.from_factor(1, 2)
    assert (a1.letters, a1.core) == (a2.letters, a2.core)
    assert a1 != a2
    assert len({a1, a2}) == 2


def test_equal_normal_forms_of_one_spec_are_equal_and_hash_equal(spec):
    x = spec.from_factor(1, 2)
    same = multiply(multiply(x, x), invert(x))
    assert same is not x
    assert same == x and hash(same) == hash(x)
    assert len({x, same}) == 1


def test_an_element_never_equals_a_non_element(spec):
    x = spec.from_factor(1, 2)
    for other in (None, x.letters, x.core, (x.spec, x.letters, x.core), spec):
        assert x != other


# a well-formed B4 spec, for the refusal table to break one argument at a time
def _b4_arguments():
    core = generalized_quaternion(3)
    tstar = build_binary_polyhedral("T*")
    return dict(
        name="bogus", g1=generalized_quaternion(4), g2=tstar, core=core,
        embed1=Q8_IN_Q16, embed2={I_UNIT: TSTAR_I, J_UNIT: TSTAR_J},
        transversal1=(0, 2), transversal2=(tstar.identity, R_REP, R2_REP),
        letter_names={}, core_names={},
    )


def test_transversal_validation_catches_bad_cosets():
    arguments = _b4_arguments()
    arguments["transversal1"] = (0, 4)  # 4 = x^2 lies in the core image
    with pytest.raises(AmalgamError, match="bogus: transversal 1 misses"):
        AmalgamSpec(**arguments)


@pytest.mark.parametrize("argument, value, message", [
    # j i j^-1 = i^-1 fails on the images: x^2 is not x^-2 in Q16
    ("embed1", {I_UNIT: 4, J_UNIT: 4}, "embedding 1: the images define no homomorphism"),
    ("embed2", {I_UNIT: TSTAR_I}, "embedding 2: the generator images do not generate Q_8"),
    ("embed1", {I_UNIT: 8, J_UNIT: 8}, "embedding 1: the homomorphism .* not injective"),
    ("transversal2", ((0, 0), R_REP), "transversal 2 must hold 3 coset reps"),
    ("transversal1", (2, 6), "transversal 1 must hold 2 coset reps"),
    # 16 is no element of Q16, whose ids are 0..15
    ("transversal1", (0, 16), "transversal 1 must hold 2 coset reps from factor 1"),
], ids=["not_a_homomorphism", "not_generating", "not_injective", "wrong_size",
        "no_identity", "outside_the_factor"])
def test_malformed_specs_are_refused_by_name(argument, value, message):
    arguments = _b4_arguments()
    arguments[argument] = value
    with pytest.raises(AmalgamError, match=f"^bogus: {message}"):
        AmalgamSpec(**arguments)


def test_generator_images_and_the_whole_map_build_the_same_spec(spec):
    whole = AmalgamSpec(**{
        **_b4_arguments(), "embed1": spec.embeddings[0], "embed2": spec.embeddings[1],
    })
    assert whole.embeddings == spec.embeddings
    assert whole._step == spec._step


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


# -- the step table ---------------------------------------------------------------

@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_step_table_is_the_split_of_the_factor_product(spec):
    # each entry is ((side, t) or None, f') with t emb(f') = last emb(f) x,
    # checked with the factor's own law, and is the split table's own tuple
    letters = spec_letters(spec)
    for side in (0, 1):
        g, emb, split = spec.factors[side], spec.embeddings[side], spec._split[side]
        reps = [t for t in spec.transversals[side] if t != g.identity]
        assert set(spec._step[side]) == {
            (None if rep == g.identity else rep, f)
            for rep in spec.transversals[side]
            for f in spec.core.elements
        }
        for (last, f), row in spec._step[side].items():
            assert set(row) == set(g.elements)
            prefix = emb[f] if last is None else g.mul(last, emb[f])
            for x, entry in row.items():
                product = g.mul(prefix, x)
                assert entry is split[product]
                letter, core = entry
                if letter is None:
                    assert emb[core] == product
                else:
                    assert letter[0] == side + 1 and letter[1] in reps
                    assert letter is letters[letter]
                    assert g.mul(letter[1], emb[core]) == product


def spec_letters(spec):
    """The spec's one letter tuple per (side, rep), read off its step table."""
    found = {}
    for table in spec._step:
        for row in table.values():
            for letter, _ in row.values():
                if letter is not None:
                    assert found.setdefault(letter, letter) is letter
    return found


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_normal_forms_share_the_specs_letter_tuples(spec):
    letters = spec_letters(spec)
    assert set(letters) == {
        (side + 1, t)
        for side in (0, 1)
        for t in spec.transversals[side]
        if t != spec.factors[side].identity
    }
    rng = random.Random(17)
    for _ in range(60):
        a = reduce_word(spec, random_word(spec, rng, rng.randint(0, 12)))
        b = reduce_word(spec, random_word(spec, rng, rng.randint(0, 12)))
        for el in (a, multiply(a, b), invert(a), power(a, rng.randint(-5, 5))):
            assert all(letter is letters[letter] for letter in el.letters)


# -- the core and inverse tables and the kernels that read them ----------------------

@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_core_and_inverse_tables_are_the_group_operations(spec):
    core = spec.core
    assert set(spec._core_mul) == set(spec._core_inv) == set(core.elements)
    for f in core.elements:
        assert spec._core_mul[f] == {g: core.mul(f, g) for g in core.elements}
        assert spec._core_inv[f] == core.inv(f)
    assert len(spec._inv) == 2
    for side, g in enumerate(spec.factors):
        assert spec._inv[side] == {x: g.inv(x) for x in g.elements}


def element_word(el):
    """The normal form as a word: its letters, then its core element in factor 1."""
    return [*el.letters, (1, el.spec.embeddings[0][el.core])]


def inverse_word(spec, word):
    """The word of the inverses in reverse order, by the factors' own `inv`."""
    return [(side, spec.factors[side - 1].inv(x)) for side, x in reversed(word)]


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_kernels_agree_with_reducing_the_whole_word(spec):
    rng = random.Random(36)
    emb = spec.embeddings[0]
    for i in range(200):
        a = reduce_word(spec, random_word(spec, rng, rng.randint(0, 12)))
        a_word = element_word(a)
        cancels = i % 4 == 0
        if cancels:  # b = a^-1 f for a core element f: every letter of a cancels
            b_word = inverse_word(spec, a_word) + [(1, emb[rng.choice(spec.core.elements)])]
        else:
            b_word = random_word(spec, rng, rng.randint(0, 12))
        b = reduce_word(spec, b_word)
        product = multiply(a, b)
        assert product == reduce_word(spec, a_word + element_word(b))
        assert invert(a) == reduce_word(spec, inverse_word(spec, a_word))
        assert not (cancels and product.letters)


def test_append_calls_no_factor_multiplication(spec, monkeypatch):
    calls = []
    for g in spec.factors:
        real = g.mul

        def counted(x, y, real=real):
            calls.append(None)
            return real(x, y)

        monkeypatch.setattr(g, "mul", counted)
    rng = random.Random(8)
    for _ in range(50):
        a = reduce_word(spec, random_word(spec, rng, rng.randint(0, 12)))
        multiply(a, invert(a))
    assert calls == []


def test_conjugate_subgroup_rejects_a_subset_outside_the_core(spec):
    with pytest.raises(AmalgamError, match="is not a core element"):
        conjugate_subgroup(spec.from_factor(1, 2), [I_UNIT, 10])  # Q8's ids are 0..7


def test_non_normal_core_builds_but_cannot_conjugate():
    # S3 glued to Z2 along the order-2 subgroup {1, (0 2)}, which is not normal in S3
    s3, z2 = _sym3(), build_cyclic(2)
    embed1 = {0: s3.identity, 1: (2, 1, 0)}
    image = set(embed1.values())
    reps = []
    for x in s3.elements:
        if all(s3.mul(s3.inv(t), x) not in image for t in reps):
            reps.append(x)
    spec = AmalgamSpec(
        name="S3 *_Z2 Z2", g1=s3, g2=z2, core=z2, embed1=embed1, embed2={0: 0, 1: 1},
        transversal1=reps, transversal2=(0,), letter_names={}, core_names={},
    )
    assert not spec.core_is_normal
    assert spec._conj is None
    a = reduce_word(spec, [(1, (2, 0, 1)), (2, 1)])
    assert multiply(a, invert(a)).is_identity
    with pytest.raises(AmalgamError, match="core is not normal"):
        conjugate_subgroup(a, [0, 1])


def test_has_finite_order_raises_when_cyclic_reduction_does_not_shorten(spec, monkeypatch):
    # a product that returns its longer argument unchanged never shortens
    monkeypatch.setattr(lowk.amalgam, "multiply",
                        lambda x, y: max(x, y, key=lambda e: e.syllable_length))
    b = reduce_word(spec, [(1, 2), (2, R_REP), (1, 2)])
    with pytest.raises(AmalgamError, match="did not shorten"):
        has_finite_order(b)


# -- properties on words of up to 12 syllables ----------------------------------

@st.composite
def spec_words(draw, count):
    """A spec and `count` words of up to 12 syllables, alternating sides."""
    spec = draw(st.sampled_from(SPECS))
    words = []
    for _ in range(count):
        side = draw(st.sampled_from((1, 2)))
        word = []
        for _ in range(draw(st.integers(0, 12))):
            word.append((side, draw(st.sampled_from(spec.factors[side - 1].elements))))
            side = 3 - side
        words.append(word)
    return spec, words


@given(spec_words(1))
def test_conjugate_subgroup_matches_word_conjugation(case):
    spec, (word,) = case
    a = reduce_word(spec, word)
    a_inv = invert(a)
    # the singletons pin each element's image; the subgroups are normal in the core
    singletons = [frozenset([f]) for f in spec.core.elements]
    for subset in (*CORE_SUBSETS, *singletons):
        conjugates = [multiply(multiply(a, spec.from_core(s)), a_inv) for s in subset]
        assert all(not c.letters for c in conjugates)
        assert conjugate_subgroup(a, subset) == frozenset(c.core for c in conjugates)


@given(spec_words(3))
def test_multiplication_is_associative(case):
    spec, words = case
    a, b, c = (reduce_word(spec, w) for w in words)
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


@given(spec_words(1))
def test_inverse_cancels_on_both_sides(case):
    spec, (word,) = case
    a = reduce_word(spec, word)
    assert multiply(a, invert(a)).is_identity
    assert multiply(invert(a), a).is_identity


@given(spec_words(1), st.integers(0, 12))
def test_two_reductions_of_a_word_agree(case, cut):
    spec, (word,) = case
    cut = min(cut, len(word))
    left_to_right = reduce_word(spec, word)
    split = multiply(reduce_word(spec, word[:cut]), reduce_word(spec, word[cut:]))
    right_to_left = spec.identity()
    for side, x in reversed(word):
        right_to_left = multiply(spec.from_factor(side, x), right_to_left)
    assert left_to_right == split == right_to_left

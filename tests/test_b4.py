import ast
import itertools
import json
import random
import re
from dataclasses import asdict
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import lowk.amalgam
import lowk.b4
from helpers import psi_by_whole_subgroups
from lowk.amalgam import (
    AmalgamError,
    AmalgamSpec,
    conjugates,
    has_finite_order,
    invert,
    multiply,
    power,
    reduce_word,
)
from lowk.b4 import (
    ACTION_ROWS,
    H_GENERATORS,
    ISO_ROWS,
    KERNEL_ROWS,
    OPT_IN_SUITES,
    QUATERNION_NAMES,
    R2_REP,
    R_REP,
    SUITES,
    TSTAR_I,
    TSTAR_J,
    B4Model,
    FreeProductWord,
    build_b4,
    build_gamma_specs,
    check_row,
    evaluate_word,
    perm_cycles,
    pi,
    pi_tilde,
    psi,
    reidemeister_schreier,
    rho,
    verify_all,
    verify_suite,
    _gamma_model,
    _generates,
    _sym3,
)
from lowk.cli import main
from lowk.groups import (
    FiniteGroup,
    build_binary_polyhedral,
    build_cyclic,
    closure,
    embedding,
)


@pytest.fixture(scope="module")
def model():
    return build_b4()


def test_named_element_orders(model):
    # <a> has ord(a) elements; sigma1 has infinite order, so its closure
    # passes any limit
    identity = model.spec.identity()
    for name, n in (("alpha0", 8), ("alpha1", 6), ("delta4", 4), ("ft", 2)):
        assert len(closure(identity, [model[name]], multiply)) == n, name
    assert len(closure(identity, [model["sigma1"]], multiply, limit=64)) == 65


def test_half_twist_inverts_alpha0(model):
    a0, d4 = model["alpha0"], model["delta4"]
    assert multiply(multiply(d4, a0), invert(d4)) == invert(a0)
    assert power(a0, 4) == model["ft"]


def test_sigma1_sigma3_core_identity(model):
    lhs = multiply(invert(power(model["alpha0"], 2)), model["delta4"])
    rhs = multiply(model["sigma1"], invert(model["sigma3"]))
    assert lhs == rhs
    assert lhs.letters == ()  # a core element


def test_all_suites_pass():
    results = verify_all()
    assert set(results) == {"braid", "actions", "gamma", "kernel", "rs"}
    for suite, checks in results.items():
        bad = [c for c in checks if not c.ok]
        assert not bad, f"{suite}: {[c.check_id for c in bad]}"


def test_expected_checks_present():
    results = verify_all()
    ids = {c.check_id for checks in results.values() for c in checks}
    required = {
        "braid.commute_13", "braid.braid_12", "braid.braid_23", "braid.surface",
        "actions.alpha0_on_sigma1", "actions.halftwist_on_sigma1",
        "actions.halftwist_inverts_alpha0", "actions.s1s3inv",
        "actions.sigma1_on_alpha0sq", "actions.sigma2_on_alpha0sq",
        "kernel.psi_sigma1", "kernel.psi_sigma2", "kernel.pi_sigma1",
        "kernel.rho_sigma1_sq", "kernel.rho_sigma2_sq",
        "gamma.g1_actxa_b", "gamma.g1_actxax_b", "gamma.g2_orbit_size_3",
        "kernel.z_psi_three_cycle", "kernel.z_infinite_order", "kernel.z_pi",
        "kernel.core_normal", "rs.sym3_basis", "rs.abelianized_basis",
    }
    for name in ("sigma1", "sigma2", "s121", "s12", "s21"):
        required.add(f"actions.tau_{name}_on_x")
        required.add(f"actions.tau_{name}_on_y")
    assert required <= ids


def test_rho_values(model):
    assert rho(model, model["sigma1"]) == FreeProductWord(("b", "a"))
    assert rho(model, power(model["sigma1"], 2)) == FreeProductWord(("b", "a", "b", "a"))
    assert rho(model, power(model["sigma2"], 2)) == FreeProductWord(("a", "b", "a", "b"))
    assert rho(model, model["alpha0"]) == FreeProductWord(("b",))
    assert rho(model, model["alpha1"]) == FreeProductWord(("a",))
    for q in model.spec.core.elements:
        assert rho(model, model.spec.from_core(q)).is_identity


def test_rho_is_a_homomorphism_sample(model):
    rng = random.Random(17)
    pool = [model[n] for n in ("sigma1", "sigma2", "sigma3", "alpha0", "delta4")]
    pool += [invert(g) for g in pool]
    for _ in range(300):
        g, h = rng.choice(pool), rng.choice(pool)
        assert rho(model, multiply(g, h)) == rho(model, g) * rho(model, h)


def test_rho_builds_a_reduced_word(model):
    rng = random.Random(31)
    pool = [model[f"sigma{i}"] for i in (1, 2, 3)]
    pool += [invert(g) for g in pool]
    identity = model.spec.identity()
    for _ in range(300):
        g = reduce(multiply, (rng.choice(pool) for _ in range(rng.randint(0, 12))), identity)
        word = rho(model, g)
        assert FreeProductWord.from_tokens(word.letters) == word


def test_perm_cycles_matches_the_cycles_of_every_permutation_of_three_points():
    for perm in itertools.permutations((1, 2, 3)):
        cycles, seen = [], set()
        for start in (1, 2, 3):
            cycle, point = [], start
            while point not in seen:
                seen.add(point)
                cycle.append(point)
                point = perm[point - 1]
            if len(cycle) > 1:
                cycles.append("(" + ",".join(map(str, cycle)) + ")")
        assert perm_cycles(perm) == ("".join(cycles) or "id")


def test_perm_cycles_refuses_a_non_permutation():
    with pytest.raises(KeyError):
        perm_cycles((2, 2, 3))


def test_sigma_images_infinite(model):
    assert len(rho(model, model["sigma1"]).letters) == 2
    assert not has_finite_order(model["sigma1"])


def test_psi_values(model):
    assert psi(model, model["sigma1"]) == (2, 1, 3)
    assert perm_cycles(psi(model, model["sigma1"])) == "(1,2)"
    assert psi(model, model["sigma2"]) == (1, 3, 2)
    assert perm_cycles(psi(model, model["sigma2"])) == "(2,3)"
    assert psi(model, model["alpha0"]) == (3, 2, 1)
    for q in model.spec.core.elements:
        assert psi(model, model.spec.from_core(q)) == (1, 2, 3)


def test_psi_matches_the_whole_subgroup_oracle(model):
    gens = [model[n] for n in ("sigma1", "sigma2", "sigma3", "alpha0", "alpha1", "delta4")]
    pool = gens + [invert(g) for g in gens]
    identity = model.spec.identity()
    words = [w for n in (1, 2, 3) for w in itertools.product(pool, repeat=n)]
    assert len(words) == 1884
    for word in words:
        g = reduce(multiply, word, identity)
        assert psi(model, g) == psi_by_whole_subgroups(model, g)
    for g in (identity, *model.named.values()):
        assert psi(model, g) == psi_by_whole_subgroups(model, g)


@pytest.mark.parametrize("make, held", [
    (lambda m: _gamma_model(1), 0),
    (lambda m: B4Model(m.spec, m.named, m.h_subgroups[:1]), 0),
    (lambda m: B4Model(m.spec, m.named, (frozenset(m.spec.core.elements),) * 3), 3),
], ids=["gamma_model", "h1_only", "whole_core"])
def test_psi_refuses_a_conjugate_outside_exactly_one_h_subgroup(model, make, held):
    other = make(model)
    g = next(iter(other.named.values()))
    message = rf"^psi\({re.escape(repr(g))}\): .* lies in {held} of the H subgroups, not one$"
    with pytest.raises(AmalgamError, match=message):
        psi(other, g)


@pytest.fixture
def conjugation_calls(monkeypatch):
    """Counts of `multiply` and `invert` calls, by name, seen by amalgam and b4."""
    calls = {"multiply": 0, "invert": 0}
    for name, real in (("multiply", multiply), ("invert", invert)):
        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        for module in (lowk.amalgam, lowk.b4):
            monkeypatch.setattr(module, name, counted)
    return calls


def test_psi_conjugates_one_generator_per_subgroup(model, conjugation_calls, monkeypatch):
    # one `conjugates` walk per psi, over H_GENERATORS in order
    calls = []

    def recorded(g, elements):
        calls.append(tuple(elements))
        return conjugates(g, calls[-1])

    monkeypatch.setattr(lowk.b4, "conjugates", recorded)
    for name in ("sigma1", "alpha1", "z"):
        conjugation_calls.update(multiply=0, invert=0)
        calls.clear()
        psi(model, model[name])
        assert conjugation_calls == {"multiply": 0, "invert": 0}
        assert calls == [H_GENERATORS]


def test_psi_homomorphism_sample_cost(model, conjugation_calls):
    row = next(row for row in KERNEL_ROWS if row[0] == "kernel.psi_homomorphism_sample")
    assert check_row(row, model).ok
    # the 1500 psi calls make none; the 1000 words of 1-8 letters, the 500
    # products g h and the 6 pool inverses are all there is
    assert conjugation_calls["invert"] == 6
    assert conjugation_calls["multiply"] <= 8000 + 500


def test_pi_values(model):
    assert pi(model, model["alpha0"]) == 3
    assert pi(model, model["alpha1"]) == 4
    assert pi(model, model["delta4"]) == 0
    assert pi(model, model["sigma1"]) == 1
    assert pi(model, multiply(model["x"], power(model["y"], 3))) not in (0, 3)


def test_pi_matches_braid_exponent_sum(model):
    rng = random.Random(23)
    sigmas = [model["sigma1"], model["sigma2"], model["sigma3"]]
    for _ in range(300):
        e = model.spec.identity()
        total = 0
        for _ in range(rng.randint(1, 12)):
            i = rng.randrange(3)
            if rng.random() < 0.5:
                e = multiply(e, sigmas[i])
                total += 1
            else:
                e = multiply(e, invert(sigmas[i]))
                total -= 1
        assert pi(model, e) == total % 6


def test_x_y_commute_with_core(model):
    for w in (model["x"], model["y"]):
        for q in model.spec.core.elements:
            c = model.spec.from_core(q)
            assert multiply(w, c) == multiply(c, w)


def test_q_prime_is_a_quaternion_copy(model):
    # <alpha0^2, alpha0 delta4>, the other Q8 conjugacy class inside the Q16 factor
    gens = [evaluate_word(w, model.spec, model.named) for w in ("alpha0^2", "alpha0 delta4")]
    q_prime = closure(model.spec.identity(), gens, multiply)
    assert len(q_prime) == 8
    assert all(e.letters in ((), ((1, 2),)) for e in q_prime)
    orders = sorted(
        next(n for n in range(1, 10) if power(e, n).is_identity) for e in q_prime
    )
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_z_action_and_order(model):
    z = model["z"]
    assert sorted(psi(model, z)) == [1, 2, 3]
    assert psi(model, z) != (1, 2, 3)
    assert not has_finite_order(z)
    assert not power(z, 3).is_identity
    assert pi(model, z) == 2


def test_gamma_specs_validate():
    g1, g2 = build_gamma_specs()
    for spec in (g1, g2):
        assert spec.core.order == 8
        assert all(len(t) == 2 for t in spec.transversals)


def test_free_product_word_reduction():
    w = FreeProductWord.from_tokens(["a", "a", "a"])
    assert w.is_identity
    w = FreeProductWord.from_tokens(["b", "a", "a2", "b"])
    assert w.is_identity
    w = FreeProductWord.from_tokens(["a", "b", "b", "a"])
    assert w == FreeProductWord(("a2",))
    assert str(FreeProductWord(("b", "a", "b", "a"))) == "baba"
    assert FreeProductWord(("a", "b")).inverse() == FreeProductWord(("b", "a2"))


def test_free_product_word_mul_associative_sample():
    rng = random.Random(29)
    words = [
        FreeProductWord.from_tokens(rng.choices(["a", "a2", "b"], k=rng.randint(0, 6)))
        for _ in range(60)
    ]
    for _ in range(300):
        a, b, c = rng.choice(words), rng.choice(words), rng.choice(words)
        assert (a * b) * c == a * (b * c)


def test_pi_tilde():
    assert pi_tilde(FreeProductWord(("a",))) == 4
    assert pi_tilde(FreeProductWord(("b",))) == 3
    assert pi_tilde(FreeProductWord(("b", "a"))) == 1
    assert pi_tilde(FreeProductWord(())) == 0


def test_reidemeister_schreier_sym3():
    rs = reidemeister_schreier(_sym3(), (2, 0, 1), (2, 1, 0))
    assert rs.index == 6
    assert rs.rank == 2
    gens = set(rs.generators)
    assert FreeProductWord(("a", "b", "a", "b")) in gens
    assert FreeProductWord(("b", "a", "b", "a")) in gens


def test_reidemeister_schreier_abelianized():
    rs = reidemeister_schreier(build_cyclic(6), 4, 3)
    assert rs.index == 6
    assert rs.rank == 2
    gens = set(rs.generators)

    def present(w):
        return w in gens or w.inverse() in gens

    assert present(FreeProductWord(("b", "a", "b", "a2")))   # [b, a]
    assert present(FreeProductWord(("b", "a2", "b", "a")))   # [b, a^2]


def _compose(p, q):
    return tuple(p[i] for i in q)


def _mobius_psl27(f):
    # a Moebius map on the projective line over F_7, with 7 standing for infinity
    return tuple(f(z) for z in range(8))


def _psl27_a(z):  # z -> -1/(z + 1), of order 3
    return 0 if z == 7 else 7 if z == 6 else -pow(z + 1, 5, 7) % 7


def _psl27_b(z):  # z -> -1/z, of order 2
    return 0 if z == 7 else 7 if z == 0 else -pow(z, 5, 7) % 7


# (quotient generators, quotient order, image of a, image of b, index): the
# images are permutations, a of order 3 and b of order 2; in A4_in_S4 they
# generate A4 inside S4, so the index is the image's order, not the quotient's
_RS_PERMUTATION_QUOTIENTS = {
    "A4": (None, 12, (1, 2, 0, 3), (1, 0, 3, 2), 12),
    "S4": (None, 24, (1, 2, 0, 3), (0, 1, 3, 2), 24),
    "A4_in_S4": (((1, 2, 0, 3), (0, 1, 3, 2)), 24, (1, 2, 0, 3), (1, 0, 3, 2), 12),
    "A5": (None, 60, (1, 2, 0, 3, 4), (3, 4, 2, 0, 1), 60),
    "PSL2_7": (None, 168, _mobius_psl27(_psl27_a), _mobius_psl27(_psl27_b), 168),
}


@pytest.mark.parametrize("name", sorted(_RS_PERMUTATION_QUOTIENTS))
def test_reidemeister_schreier_finds_its_transversal_past_index_6(name):
    generators, order, a, b, index = _RS_PERMUTATION_QUOTIENTS[name]
    identity = tuple(range(len(a)))
    quotient = FiniteGroup.from_closure(name=name, generators=generators or (a, b),
                                        mul=_compose, identity=identity, expect_order=order)
    images = {"a": a, "a2": _compose(a, a), "b": b}
    rs = reidemeister_schreier(quotient, a, b)
    assert rs.index == len(closure(identity, (a, b), _compose)) == index
    assert rs.rank == 1 + index // 6
    assert all(reduce(_compose, (images[t] for t in g.letters), identity) == identity
               for g in rs.generators)
    assert len(set(rs.generators)) == len(rs.generators)


def _disjoint_cycles(rng, degree, length):
    """A product of 1 to degree // length disjoint cycles of `length` points."""
    points = rng.sample(range(degree), degree)
    image = list(range(degree))
    for i in range(rng.randint(1, degree // length)):
        cycle = points[length * i:length * (i + 1)]
        for x, y in zip(cycle, cycle[1:] + cycle[:1]):
            image[x] = y
    return tuple(image)


def test_reidemeister_schreier_generators_are_distinct_on_random_quotients():
    # a is a product of disjoint 3-cycles and b of disjoint transpositions,
    # on 3 to 7 points; the generators are never filtered for repeats
    rng = random.Random(37)
    for _ in range(60):
        degree = rng.randint(3, 7)
        a, b = _disjoint_cycles(rng, degree, 3), _disjoint_cycles(rng, degree, 2)
        identity = tuple(range(degree))
        index = len(closure(identity, (a, b), _compose))
        quotient = FiniteGroup.from_closure(name="P", generators=(a, b), mul=_compose,
                                            identity=identity, expect_order=index)
        images = {"a": a, "a2": _compose(a, a), "b": b}
        rs = reidemeister_schreier(quotient, a, b)
        assert rs.index == index and index % 6 == 0
        assert rs.rank == 1 + index // 6
        assert all(reduce(_compose, (images[t] for t in g.letters), identity) == identity
                   for g in rs.generators)
        assert len(set(rs.generators)) == len(rs.generators)


def test_reidemeister_schreier_rejects_torsion_kernel():
    # sending a to an order-3 image but b to the identity collapses a factor
    with pytest.raises(ValueError):
        reidemeister_schreier(build_cyclic(6), 2, 0)


@pytest.mark.parametrize("a_image, b_image", [(0, 3), (1, 3), (3, 3), (2, 2), (2, 1)],
                         ids=["a_order_1", "a_order_6", "a_order_2", "b_order_3", "b_order_6"])
def test_reidemeister_schreier_refuses_images_of_the_wrong_order(a_image, b_image):
    # in Z_6, 2 has order 3 and 3 has order 2; any other image of a or b
    # leaves torsion in the kernel
    with pytest.raises(ValueError, match="images of a and b must have orders 3 and 2"):
        reidemeister_schreier(build_cyclic(6), a_image, b_image)


def test_check_ids_are_unique_and_carry_their_suite():
    results = verify_all()
    ids = [c.check_id for checks in results.values() for c in checks]
    assert len(ids) == len(set(ids))
    assert all(c.check_id.startswith(suite + ".")
               for suite, checks in results.items() for c in checks)


def test_only_check_row_constructs_a_check_result():
    makers = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and "CheckResult" in (
                getattr(child.func, "id", None), getattr(child.func, "attr", None)
            ):
                makers.append(owner)
            visit(child, owner)

    visit(ast.parse(Path(lowk.b4.__file__).read_text()), None)
    assert makers == ["check_row"]


def test_core_normal_conjugates_through_the_amalgam_arithmetic(model, monkeypatch):
    row = next(row for row in KERNEL_ROWS if row[0] == "kernel.core_normal")
    assert check_row(row, model).ok
    # a product that gains a letter: the conjugates leave the core
    r = model.spec.from_factor(2, R_REP)
    monkeypatch.setattr(lowk.b4, "multiply", lambda a, b: multiply(multiply(a, b), r))
    assert not check_row(row, model).ok


def test_a_failing_self_check_names_its_equation(monkeypatch):
    false_row = ("actions.s1s3inv", "alpha0^-2 delta4 = sigma1 sigma3")
    rows = tuple(false_row if row[0] == false_row[0] else row for row in ACTION_ROWS)
    monkeypatch.setattr(lowk.b4, "ACTION_ROWS", rows)
    message = r"^self-check failed: alpha0\^-2 delta4 = sigma1 sigma3$"
    with pytest.raises(AmalgamError, match=message):
        build_b4.__wrapped__()


def test_verify_suite_dispatch():
    assert all(c.ok for c in verify_suite("braid"))
    with pytest.raises(ValueError, match="choose from .*'rs', 'iso'.* or 'all'"):
        verify_suite("nope")


# -- phi is onto ------------------------------------------------------------------

def test_iso_rows_pass_and_stay_out_of_all():
    checks = verify_suite("iso")
    assert [c.check_id for c in checks] == [row[0] for row in ISO_ROWS]
    assert all(c.ok for c in checks)
    assert [c.witness_normal_form for c in checks[3:]] == ["16 elements", "24 elements"]
    assert OPT_IN_SUITES == ("iso",) and "iso" not in SUITES
    assert "iso" not in verify_all()


@pytest.mark.parametrize("check_id, changed, witness", [
    ("iso.alpha0", "alpha0 = sigma1 sigma2 sigma3^2", None),
    ("iso.alpha1", "alpha1 = sigma1 sigma2 sigma3", None),
    ("iso.delta4", "delta4 = sigma1 sigma2 sigma3 sigma1 sigma2", None),
    # alpha0^2 and delta4 generate the core Q8
    ("iso.q16_generated", _generates(1, "alpha0^2", "delta4"), "8 elements"),
    # alpha0 lies outside T*, and with alpha1 generates an infinite group
    ("iso.tstar_generated", _generates(2, "alpha1", "alpha0"), "more than 24 elements"),
], ids=["alpha0", "alpha1", "delta4", "q16", "tstar"])
def test_each_iso_row_fails_when_its_word_is_changed(model, check_id, changed, witness):
    row = next(row for row in ISO_ROWS if row[0] == check_id)
    assert check_row(row, model).ok
    # an equation row's statement is its check; a generation row's check is last
    result = check_row((*row[:-1], changed), model)
    assert result.status == "fail"
    assert witness is None or result.witness_normal_form == witness


# -- one model per process -----------------------------------------------------

def test_model_and_gamma_specs_are_built_once():
    assert build_b4() is build_b4()
    assert build_gamma_specs() is build_gamma_specs()


@pytest.mark.parametrize("kind", ["T*", "O*", "I*"])
def test_binary_polyhedral_groups_are_built_once(kind):
    assert build_binary_polyhedral(kind) is build_binary_polyhedral(kind)


def test_b4_model_shares_the_binary_tetrahedral_group():
    assert build_b4().spec.factors[1] is build_binary_polyhedral("T*")


def test_gamma_specs_share_the_b4_groups():
    b4 = build_b4().spec
    q16, embed = b4.factors[0], b4.embeddings[0]
    gamma1, gamma2 = build_gamma_specs()
    for spec in (gamma1, gamma2):
        assert spec.core is b4.core
        assert spec.factors[0] is q16 and spec.factors[1] is q16
        assert spec.embeddings[0] == embed
    assert gamma1.embeddings[1] == embed


def test_shared_model_names_are_read_only(model):
    with pytest.raises(TypeError):
        model.named["sigma1"] = model["sigma2"]


def test_second_verify_all_builds_no_spec(monkeypatch):
    verify_all()
    built = []
    init = AmalgamSpec.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("name"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(AmalgamSpec, "__init__", counting)
    results = verify_all()
    assert built == []
    assert all(c.ok for checks in results.values() for c in checks)


def test_verify_twice_in_one_process_prints_the_same_bytes(capsys):
    outputs = []
    for _ in range(2):
        assert main(["b4", "verify", "--format", "json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == GOLDEN_VERIFY.read_text()


# -- golden output of `lowk b4 verify` -----------------------------------------

GOLDEN_VERIFY = Path(__file__).parent / "golden" / "b4_verify.json"


def _golden_for_suite(suite):
    """The expected `--suite` output, cut from the `all` golden."""
    if suite == "all":
        return GOLDEN_VERIFY.read_text()
    doc = json.loads(GOLDEN_VERIFY.read_text())
    checks = [c for c in doc["checks"] if c["check_id"].startswith(suite + ".")]
    passed = sum(c["status"] == "pass" for c in checks)
    payload = {"schema": doc["schema"], "suite": suite, "checks": checks,
               "passed": passed, "failed": len(checks) - passed}
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("suite", ("all",) + SUITES)
def test_verify_json_matches_golden_byte_for_byte(capsys, suite):
    code = main(["b4", "verify", "--suite", suite, "--format", "json"])
    assert code == 0
    assert capsys.readouterr().out == _golden_for_suite(suite)


# -- the row evaluator ---------------------------------------------------------

def test_row_that_holds_passes_with_its_normal_form(model):
    result = check_row(("t.braid", "sigma1 sigma2 sigma1 = sigma2 sigma1 sigma2"), model)
    assert result.status == "pass"
    assert result.witness_normal_form == model.spec.format_element(
        multiply(multiply(model["sigma1"], model["sigma2"]), model["sigma1"]))


def test_false_row_fails_with_both_sides(model):
    result = check_row(("t.false", "sigma1 = sigma2"), model)
    fmt = model.spec.format_element
    assert result.to_json() == {
        "check_id": "t.false",
        "statement": "sigma1 = sigma2",
        "status": "fail",
        "witness_normal_form": f"lhs={fmt(model['sigma1'])} rhs={fmt(model['sigma2'])}",
    }


def test_to_json_is_asdict_in_field_order():
    rows = [row for suite in verify_all().values() for row in suite]
    assert len(rows) == 77
    for row in rows:
        assert list(row.to_json().items()) == list(asdict(row).items())


def test_prose_row_evaluates_its_equation(model):
    row = ("t.prose", "full twist is trivial", "ft = 1")
    result = check_row(row, model)
    assert result.statement == "full twist is trivial"
    assert result.status == "fail"
    assert result.witness_normal_form == "lhs=-1 rhs=1"


def test_function_row_reports_what_its_check_returns(model):
    ok = check_row(("t.fn", "z is named", lambda m: ("z" in m.named, "named z")), model)
    bad = check_row(("t.fn", "tau is named", lambda m: ("tau" in m.named, "no tau")), model)
    assert (ok.statement, ok.status, ok.witness_normal_form) == ("z is named", "pass", "named z")
    assert (bad.statement, bad.status, bad.witness_normal_form) == ("tau is named", "fail", "no tau")


def test_free_product_word_reduction_matches_the_amalgam_kernel():
    # Z3 * Z2 as an amalgam over the trivial group: its normal forms are the
    # reduced words, computed by the step tables and not by `_MERGE`
    spec = AmalgamSpec(
        name="Z3 * Z2", g1=build_cyclic(3), g2=build_cyclic(2), core=build_cyclic(1),
        embed1={0: 0}, embed2={0: 0}, transversal1=(0, 1, 2), transversal2=(0, 1),
        letter_names={}, core_names={},
    )
    letter = {"a": (1, 1), "a2": (1, 2), "b": (2, 1)}
    token = {v: k for k, v in letter.items()}
    words = 0
    for k in range(9):
        for tokens in itertools.product(letter, repeat=k):
            word = FreeProductWord.from_tokens(tokens)
            normal = reduce_word(spec, [letter[t] for t in tokens])
            assert word.letters == tuple(token[x] for x in normal.letters), tokens
            assert word.inverse().letters == tuple(token[x] for x in invert(normal).letters)
            words += 1
    assert words == 9841


def test_quotient_row_compares_printed_values(model):
    ok = check_row(("t.psi", "psi(sigma1) = (1,2)"), model)
    bad = check_row(("t.psi", "psi(sigma1) = (2,3)"), model)
    assert (ok.status, ok.witness_normal_form) == ("pass", "(1,2)")
    assert (bad.status, bad.witness_normal_form) == ("fail", "(1,2)")


def test_word_powers_and_parentheses(model):
    spec, named = model.spec, model.named
    s1, s2 = model["sigma1"], model["sigma2"]
    assert evaluate_word("1", spec, named).is_identity
    assert evaluate_word("(sigma1 sigma2)^3", spec, named) == power(multiply(s1, s2), 3)
    assert evaluate_word("sigma1^-2 sigma2^0", spec, named) == power(invert(s1), 2)
    assert evaluate_word("((sigma1))^-1", spec, named) == invert(s1)
    # every exponent goes through `power`, 0, 1 and -1 included
    for word in ("sigma1", "alpha0", "delta4", "ft", "sigma1 sigma2^-1", "z"):
        base = evaluate_word(word, spec, named)
        for k in range(-8, 9):
            assert evaluate_word(f"({word})^{k}", spec, named) == power(base, k), (word, k)


# a word tree is a list of factors (atom, exponent or None); an atom is a
# name, "1" or a word tree in parentheses
_ATOMS = st.sampled_from(("1", "alpha0", "alpha1", "delta4", "ft",
                          "sigma1", "sigma2", "sigma3", "x", "y", "z"))
_EXPONENTS = st.none() | st.integers(-5, 5)
_WORD_TREES = st.recursive(
    st.lists(st.tuples(_ATOMS, _EXPONENTS), min_size=1, max_size=4),
    lambda inner: st.lists(st.tuples(_ATOMS | inner, _EXPONENTS), min_size=1, max_size=4),
    max_leaves=12,
)


def _render(tree):
    return " ".join(
        (atom if isinstance(atom, str) else f"({_render(atom)})")
        + ("" if k is None else f"^{k}")
        for atom, k in tree
    )


def _tree_value(tree, model):
    factors = []
    for atom, k in tree:
        if isinstance(atom, str):
            value = model.spec.identity() if atom == "1" else model[atom]
        else:
            value = _tree_value(atom, model)
        factors.append(value if k is None else power(value, k))
    return reduce(multiply, factors)


@given(_WORD_TREES)
def test_word_value_is_the_product_of_its_tree(tree):
    model = build_b4()
    text = _render(tree)
    assert evaluate_word(text, model.spec, model.named) == _tree_value(tree, model), text


# the exact messages: an empty product is reported before an unbalanced
# parenthesis, and every error at the first token that shows it
@pytest.mark.parametrize("word, message", [
    ("sigma4", "unknown name 'sigma4' in 'sigma4'"),
    ("sigma1 q", "unknown name 'q' in 'sigma1 q'"),
    ("2", "unknown name '2' in '2'"),
    ("^2 x", "unknown name '^' in '^2 x'"),
    ("x^2^3", "unknown name '^' in 'x^2^3'"),
    ("x tau )", "unknown name 'tau' in 'x tau )'"),
    ("", "empty word in ''"),
    ("()", "empty word in '()'"),
    (")", "empty word in ')'"),
    (") x", "empty word in ') x'"),
    ("x (", "empty word in 'x ('"),
    ("x () y", "empty word in 'x () y'"),
    ("(x ()", "empty word in '(x ()'"),
    ("x )", "unbalanced ')' in 'x )'"),
    ("sigma1 sigma2)", "unbalanced ')' in 'sigma1 sigma2)'"),
    ("x ) (", "unbalanced ')' in 'x ) ('"),
    ("(x", "unbalanced '(' in '(x'"),
    ("(sigma1 sigma2", "unbalanced '(' in '(sigma1 sigma2'"),
    ("((x) y", "unbalanced '(' in '((x) y'"),
    ("x ^", "'^' needs an integer exponent in 'x ^'"),
    ("sigma1^", "'^' needs an integer exponent in 'sigma1^'"),
    ("sigma1^x", "'^' needs an integer exponent in 'sigma1^x'"),
    ("(x)^y", "'^' needs an integer exponent in '(x)^y'"),
    ("x^\u00b2", "'^' needs an integer exponent in 'x^\u00b2'"),
    ("x^\u0663", "'^' needs an integer exponent in 'x^\u0663'"),
])
def test_malformed_words_raise(model, word, message):
    with pytest.raises(ValueError) as raised:
        evaluate_word(word, model.spec, model.named)
    assert str(raised.value) == message


def test_malformed_rows_raise(model):
    for row in (("t.none", "sigma1 sigma2"), ("t.two", "sigma1 = sigma2 = sigma3"),
                ("t.name", "sigma1 = tau")):
        with pytest.raises(ValueError):
            check_row(row, model)


# -- the factors are the groups of lowk.groups ---------------------------------

def _quaternion_mul(x, y):
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def test_core_names_follow_quaternion_multiplication(model):
    unit = {"1": (1, 0, 0, 0), "i": (0, 1, 0, 0), "j": (0, 0, 1, 0), "k": (0, 0, 0, 1)}
    for name, q in list(unit.items()):
        unit["-" + name] = tuple(-c for c in q)
    core = model.spec.core
    for a in core:
        for b in core:
            product = QUATERNION_NAMES[core.mul(a, b)]
            assert unit[product] == _quaternion_mul(unit[QUATERNION_NAMES[a]],
                                                    unit[QUATERNION_NAMES[b]])


def test_tstar_is_the_hurwitz_unit_group(model):
    # the 24 Hurwitz units with doubled coordinates; i, j and
    # r = -(1+i+j+k)/2 must go to TSTAR_I, TSTAR_J and R_REP isomorphically
    def hmul(x, y):
        return tuple(c // 2 for c in _quaternion_mul(x, y))

    i2, j2, r2 = (0, 2, 0, 0), (0, 0, 2, 0), (-1, -1, -1, -1)
    hurwitz = FiniteGroup.from_closure("Hurwitz", (i2, j2, r2), hmul, (2, 0, 0, 0),
                                       expect_order=24)
    tstar = model.spec.factors[1]
    iso = embedding(hurwitz, tstar, {i2: TSTAR_I, j2: TSTAR_J, r2: R_REP})
    assert len(set(iso.values())) == 24
    assert iso[hmul(r2, r2)] == R2_REP


# the order-48 model of O* inside SL(2) over F9 = F3[t]/(t^2 + 1), entries
# x + y*t encoded as x + 3*y

def _f9_mul(u, v):
    x1, y1, x2, y2 = u % 3, u // 3, v % 3, v // 3
    return (x1 * x2 - y1 * y2) % 3 + 3 * ((x1 * y2 + y1 * x2) % 3)


def _f9_add(u, v):
    return (u + v) % 3 + 3 * ((u // 3 + v // 3) % 3)


def _f9_matmul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (
        _f9_add(_f9_mul(a, e), _f9_mul(b, g)),
        _f9_add(_f9_mul(a, f), _f9_mul(b, h)),
        _f9_add(_f9_mul(c, e), _f9_mul(d, g)),
        _f9_add(_f9_mul(c, f), _f9_mul(d, h)),
    )


def test_ostar_is_the_binary_octahedral_group_over_f9():
    # images of (1+i)/sqrt(2), j and the order-3 rotation of i, j, k; found
    # once by search over elements of the same orders
    f9_gens = ((7, 0, 0, 8), (0, 1, 2, 0), (7, 8, 7, 4))
    images = ((0, 1, 6, 3), (1, 5, 1, 6), (4, 0, 5, 2))
    over_f9 = FiniteGroup.from_closure("O* over F9", f9_gens, _f9_matmul, (1, 0, 0, 1),
                                       expect_order=48)
    ostar = build_binary_polyhedral("O*")
    iso = embedding(over_f9, ostar, dict(zip(f9_gens, images)))
    assert sorted(iso.values()) == list(ostar.elements)

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  All value checks are exact;
the stated time budgets are asserted as upper bounds.
"""

import json
import random
import time
from pathlib import Path

import pytest

from lowk.amalgam import AmalgamElement, has_finite_order, multiply, power, reduce_word
from lowk.b4 import build_b4, build_b4_spec, verify_all
from lowk.census import conjugacy_classes, count_blocks
from lowk.cli import main
from lowk.fconj import r_f
from lowk.galois import FieldDescriptor, is_prime, phi_generators
from lowk.groups import (
    build_binary_polyhedral,
    build_cyclic,
    build_dicyclic,
    generalized_quaternion,
)
from lowk.lowerk import (
    UNKNOWN,
    AbelianGroupExpr,
    carter_rank,
    k0_tilde_lookup,
    k_minus_one,
    lambda_value,
    provenance,
    whitehead_rank,
)
from lowk.classify import (
    maximal_finite_subgroups,
    vc_classes_b4,
    virtually_cyclic_classes_odd,
)
from lowk.report import b4_lower_k_report

from helpers import blocks_of_order, brute_force_bound

GOLDEN = Path(__file__).parent / "golden"

Q = FieldDescriptor.rational()
Q2 = FieldDescriptor.p_adic(2)
F2 = FieldDescriptor.finite_prime(2)


class Stopwatch:
    def __init__(self, criterion, budget):
        self.criterion = criterion
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.criterion}: {status} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.criterion} exceeded its {self.budget}s budget"
            )
        return False


def census_whitehead_rank(group):
    census = conjugacy_classes(group)
    r1 = count_blocks(census.subgroups, (-1,))
    return sum(r1[d] - census.r2_by_order[d] for d in r1)


def test_criterion_1_whitehead_ranks():
    with Stopwatch(1, budget=5.0):
        for m in range(1, 401):
            g = build_cyclic(m)
            assert census_whitehead_rank(g) == whitehead_rank(g), f"Z_{m}"
        for m in range(2, 151):
            g = build_dicyclic(m)
            assert census_whitehead_rank(g) == whitehead_rank(g), f"Dic_{4*m}"
        for kind in ("T*", "O*", "I*"):
            g = build_binary_polyhedral(kind)
            assert census_whitehead_rank(g) == whitehead_rank(g), kind
        assert whitehead_rank(generalized_quaternion(3)) == 0
        assert whitehead_rank(generalized_quaternion(4)) == 1
        assert whitehead_rank(build_binary_polyhedral("T*")) == 0
        assert whitehead_rank(build_binary_polyhedral("O*")) == 1
        assert whitehead_rank(build_binary_polyhedral("I*")) == 2


def test_criterion_1_closed_forms_agree_with_the_census_sweep():
    # whitehead_rank computes both routes below the census bound and raises
    # ConsistencyError when they differ; the provenance shows that both ran
    cross_checked = (
        "wh: class census sum of r1(d) - r2(d), cross-checked against the family closed form"
    )
    with Stopwatch("1 (sweep)", budget=20.0):
        with provenance() as lines:
            for m in range(1, 2001):
                whitehead_rank(build_cyclic(m))
            for m in range(2, 1001):
                whitehead_rank(build_dicyclic(m))
        assert lines == [cross_checked] * 2999
        for p in range(3, 1250, 2):
            if is_prime(p):
                with provenance() as lines:
                    assert carter_rank(build_dicyclic(p)) == lambda_value(p), p
                assert "Witt-Berman" in lines[0], p


def test_criterion_2_pair_vs_subgroup_classes_small_orders():
    with Stopwatch(2, budget=10.0):
        roster = [build_cyclic(m) for m in range(1, 2001)]
        roster += [build_dicyclic(m) for m in range(2, 501)]
        roster += [generalized_quaternion(k) for k in range(3, 11)]
        roster += [build_binary_polyhedral(kind) for kind in ("T*", "O*", "I*")]
        small_orders = (1, 2, 3, 4, 6)
        for group in roster:
            with brute_force_bound(2000):
                census = conjugacy_classes(group)
            r1 = count_blocks(census.subgroups, (-1,))
            for d in small_orders:
                assert r1.get(d, 0) == census.r2_by_order.get(d, 0), (
                    group.name, d,
                )


def test_criterion_3_witt_berman_counts():
    with Stopwatch(3, budget=30.0):
        for mu in (3, 5, 7, 11, 13):
            g = build_dicyclic(mu)
            lam = lambda_value(mu)
            assert r_f(g, Q) == 5
            assert r_f(g, Q2) == 2 * lam + 3
            assert r_f(g, F2) == lam + 1
            q_mu = FieldDescriptor.p_adic(mu)
            f_mu = FieldDescriptor.finite_prime(mu)
            expected = (6, 4) if mu % 4 == 1 else (5, 3)
            assert (r_f(g, q_mu), r_f(g, f_mu)) == expected
        for k in range(3, 8):
            g = generalized_quaternion(k)
            assert r_f(g, Q) == r_f(g, Q2) == k + 2
            assert r_f(g, F2) == 1
        tstar = build_binary_polyhedral("T*")
        assert (r_f(tstar, Q2), r_f(tstar, FieldDescriptor.p_adic(3)),
                r_f(tstar, F2), r_f(tstar, FieldDescriptor.finite_prime(3))) == (5, 5, 2, 3)
        ostar = build_binary_polyhedral("O*")
        assert (r_f(ostar, Q2), r_f(ostar, FieldDescriptor.p_adic(3)),
                r_f(ostar, F2), r_f(ostar, FieldDescriptor.finite_prime(3))) == (7, 7, 2, 5)
        istar = build_binary_polyhedral("I*")
        assert (r_f(istar, Q2), r_f(istar, FieldDescriptor.p_adic(3)),
                r_f(istar, FieldDescriptor.p_adic(5)), r_f(istar, F2),
                r_f(istar, FieldDescriptor.finite_prime(3)),
                r_f(istar, FieldDescriptor.finite_prime(5))) == (7, 7, 7, 3, 5, 5)


def test_criterion_4_carter_ranks_and_k_minus_one():
    with Stopwatch(4, budget=60.0):
        assert k_minus_one(build_dicyclic(127)) == AbelianGroupExpr.free(9)
        assert k_minus_one(build_dicyclic(257)) == AbelianGroupExpr(16, (2,))
        t0 = time.perf_counter()
        assert k_minus_one(build_dicyclic(8191)) == AbelianGroupExpr.free(315)
        assert time.perf_counter() - t0 < 1.0, "closed-form path must be fast"
        assert k_minus_one(generalized_quaternion(3)).is_zero
        assert k_minus_one(generalized_quaternion(4)) == AbelianGroupExpr(0, (2,))
        assert k_minus_one(build_binary_polyhedral("T*")) == AbelianGroupExpr.free(1)
        assert k_minus_one(build_binary_polyhedral("O*")) == AbelianGroupExpr(1, (2,))
        assert k_minus_one(build_binary_polyhedral("I*")) == AbelianGroupExpr(2, (2,))


def test_criterion_5_lambda_oracle_equivalence():
    with Stopwatch(5, budget=60.0):
        for m in range(3, 61, 2):
            if not is_prime(m):
                continue
            group = build_dicyclic(m)
            assert lambda_value(m) == len(blocks_of_order(group, Q2, m)), m
            blocks = count_blocks(conjugacy_classes(group).subgroups, phi_generators(Q2, 4 * m))
            assert blocks[m] == lambda_value(m), m


def test_criterion_6_k0_lookup():
    with Stopwatch(6, budget=60.0):
        swan = {2: 1, 3: 1, 4: 1, 5: 1, 6: 3, 7: 1, 8: 1, 9: 2, 10: 3, 11: 1}
        for m, copies in swan.items():
            expected = AbelianGroupExpr.torsion_group(*(2,) * copies)
            assert k0_tilde_lookup(build_dicyclic(m)) == expected, m
        for m in range(12, 30):
            assert k0_tilde_lookup(build_dicyclic(m)) is UNKNOWN, m
        assert k0_tilde_lookup(build_binary_polyhedral("T*")) == AbelianGroupExpr.torsion_group(2)
        assert k0_tilde_lookup(build_binary_polyhedral("O*")) == AbelianGroupExpr.torsion_group(2, 2)
        assert k0_tilde_lookup(build_binary_polyhedral("I*")) == AbelianGroupExpr.torsion_group(2, 2, 2)
        trivial = set(range(1, 12)) | {13, 14, 17, 19}
        for m in range(1, 30):
            result = k0_tilde_lookup(build_cyclic(m))
            if m in trivial:
                assert result == AbelianGroupExpr.zero(), m
            else:
                assert result is UNKNOWN, m


def test_criterion_7_b4_verification(capsys):
    with Stopwatch(7, budget=10.0):
        results = verify_all()
        checks = [c for suite in results.values() for c in suite]
        failures = [c.check_id for c in checks if not c.ok]
        assert not failures, failures
        ids = {c.check_id for c in checks}
        required = {
            # the four relations of the presentation
            "braid.commute_13", "braid.braid_12", "braid.braid_23", "braid.surface",
            # conjugation identities
            "actions.alpha0_on_sigma1", "actions.alpha0_on_sigma2",
            "actions.alpha0sq_on_sigma3",
            "actions.halftwist_on_sigma1", "actions.halftwist_on_sigma2",
            "actions.halftwist_on_sigma3",
            "actions.halftwist_inverts_alpha0", "actions.alpha0_fourth_fulltwist",
            "actions.s1s3inv",
            "actions.sigma1_on_alpha0sq", "actions.sigma1_on_halftwist_inv",
            "actions.sigma1_fixes_a0sq_d4",
            "actions.sigma2_on_alpha0sq", "actions.sigma2_fixes_halftwist",
            "actions.sigma2_on_a0sq_d4",
            # kernel machinery
            "kernel.psi_sigma1", "kernel.psi_sigma2", "kernel.pi_sigma1",
            "kernel.rho_sigma1_sq", "kernel.rho_sigma2_sq",
            "kernel.core_normal",
            # the two Q16 *_{Q8} Q16 groups
            "gamma.g1_actxa_a2", "gamma.g1_actxa_b", "gamma.g1_actxa_a2b",
            "gamma.g1_actxax_a2", "gamma.g1_actxax_b", "gamma.g1_actxax_a2b",
            "gamma.g2_cycle_a2", "gamma.g2_cycle_binv", "gamma.g2_cycle_a2inv_binv",
            "gamma.g2_orbit_size_3",
            # z = sigma2^7 sigma1
            "kernel.z_psi_three_cycle", "kernel.z_infinite_order", "kernel.z_pi",
            # Schreier bases with their rank certificates
            "rs.sym3_rank", "rs.sym3_basis",
            "rs.abelianized_rank", "rs.abelianized_basis",
        }
        for name in ("sigma1", "sigma2", "s121", "s12", "s21"):
            required.add(f"actions.tau_{name}_on_x")
            required.add(f"actions.tau_{name}_on_y")
        missing = required - ids
        assert not missing, missing
        # the CLI entry point agrees and exits 0
        code = main(["b4", "verify", "--suite", "all", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["failed"] == 0


def test_criterion_8_b4_report(capsys):
    with Stopwatch(8, budget=60.0):
        report = b4_lower_k_report()
        assert report.values["wh"] == AbelianGroupExpr(1, (), (("Nil_1", 1),))
        assert report.values["k0"] == AbelianGroupExpr(0, (2,), (("Nil_0", 1),))
        assert report.values["kminus1"] == AbelianGroupExpr(1, (2,))
        block = {
            "rank": 0,
            "torsion": [],
            "infinite": [
                {"name": "(Z2)^oo", "copies": 2},
                {"name": "W", "copies": 2},
            ],
        }
        nil = report.to_json()["nil"]
        for name in ("Nil_0", "Nil_1"):
            assert nil[name] == {"copies": "countable", "summand": block}
        code1 = main(["b4", "report", "--format", "json"])
        out1 = capsys.readouterr().out
        code2 = main(["b4", "report", "--format", "json"])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2, "report must be byte-identical across runs"
        assert json.loads(out1) == json.loads((GOLDEN / "b4_report.json").read_text())


def test_criterion_9_classification_lists():
    with Stopwatch(9, budget=60.0):
        assert [d.name for d in maximal_finite_subgroups(4)] == ["Q16", "T*"]

        def flatten(descriptors):
            out = set()
            for d in descriptors:
                if d.kind in ("cyclic", "dicyclic"):
                    out.add(("finite", d.name))
                elif d.kind == "type_I":
                    out.add(("type_I", d.finite_part, d.action_order))
                else:
                    out.add(("type_II", d.factors, d.core))
            return out

        for n in (5, 7):
            golden = json.loads((GOLDEN / f"vcodd_n{n}.json").read_text())
            expected = {("finite", d["name"]) for d in golden["finite"]}
            expected |= {
                ("type_I", d["finite_part"], d["action_order"])
                for d in golden["type_I"]
            }
            expected |= {
                ("type_II", tuple(d["factors"]), d["core"]) for d in golden["type_II"]
            }
            assert flatten(virtually_cyclic_classes_odd(n)) == expected, n

        b4_list = vc_classes_b4()
        assert flatten(b4_list) == {
            ("type_I", "Z_1", 1), ("type_I", "Z_2", 1), ("type_I", "Z_4", 1),
            ("type_I", "Z_4", 2),
            ("type_I", "Q8", 1), ("type_I", "Q8", 2), ("type_I", "Q8", 3),
            ("type_II", ("Z_4", "Z_4"), "Z_2"),
            ("type_II", ("Z_8", "Z_8"), "Z_4"),
            ("type_II", ("Z_8", "Q8"), "Z_4"),
            ("type_II", ("Q8", "Q8"), "Z_4"),
            ("type_II", ("Q16", "Q16"), "Q8"),
        }


def test_criterion_10_amalgam_property_suite():
    with Stopwatch(10, budget=60.0):
        spec = build_b4_spec()
        rng = random.Random(0xA11A)
        factors = (spec.factors[0].elements, spec.factors[1].elements)

        def random_word(length):
            return [
                (side, rng.choice(factors[side - 1]))
                for side in (rng.choice((1, 2)) for _ in range(length))
            ]

        for _ in range(10_000):
            w1 = random_word(rng.randint(0, 4))
            w2 = random_word(rng.randint(0, 4))
            assert reduce_word(spec, w1 + w2) == multiply(
                reduce_word(spec, w1), reduce_word(spec, w2)
            )

        for _ in range(1000):
            a, b, c = (
                reduce_word(spec, random_word(rng.randint(0, 8))) for _ in range(3)
            )
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

        # torsion detection, exhaustive over normal forms of <= 6 syllables;
        # oracle: finite order iff g^24 = 1 (24 = lcm of the factor exponents)
        nontrivial = (spec.transversals[0][1:], spec.transversals[1][1:])
        patterns = [()]
        frontier = [()]
        while frontier:
            w = frontier.pop()
            if len(w) == 6:
                continue
            for side in (1, 2):
                if w and w[-1][0] == side:
                    continue
                for t in nontrivial[side - 1]:
                    nw = w + ((side, t),)
                    patterns.append(nw)
                    frontier.append(nw)
        checked = 0
        for letters in patterns:
            for core in spec.core.elements:
                el = AmalgamElement(spec, tuple(letters), core)
                assert has_finite_order(el) == power(el, 24).is_identity
                checked += 1
        assert checked == len(patterns) * 8

import itertools
import re
import time

import pytest

from lowk import lowerk
from lowk.census import GroupTooLargeError, conjugacy_classes
from lowk.groups import (
    build_binary_polyhedral,
    build_cyclic,
    build_dicyclic,
    generalized_quaternion,
)
from lowk.lowerk import (
    UNKNOWN,
    AbelianGroupExpr,
    ConsistencyError,
    UnsupportedFamilyError,
    Z2_INF,
    carter_rank,
    delta,
    k0_tilde_lookup,
    k_minus_one,
    k_minus_one_torsion,
    lambda_value,
    wedderburn_shape,
    whitehead_rank,
)
from lowk.fconj import r_f
from lowk.galois import FieldDescriptor, divisors, is_prime, totient

from helpers import brute_force_bound, build_abelian, carter_by_r_f


# -- abelian group expressions -------------------------------------------------

def test_expr_canonical_form():
    e = AbelianGroupExpr(free_rank=1, torsion=(4, 2), infinite=(("B", 1), ("A", 2)))
    assert e.torsion == (2, 4)
    assert e.infinite == (("A", 2), ("B", 1))
    assert e == AbelianGroupExpr(1, (2, 4), (("A", 2), ("B", 1)))


def test_expr_sum_and_times():
    b = AbelianGroupExpr.summand(Z2_INF).times(3)
    assert b.infinite == ((Z2_INF, 3),)
    assert (b + b).infinite == ((Z2_INF, 6),)
    two = AbelianGroupExpr.free(1) + AbelianGroupExpr.torsion_group(2)
    assert two.times(2) == AbelianGroupExpr(2, (2, 2))


def test_expr_render():
    assert AbelianGroupExpr.zero().render() == "0"
    assert AbelianGroupExpr(1, (2,)).render() == "Z (+) Z_2"
    assert AbelianGroupExpr(16, (2,)).render() == "Z^16 (+) Z_2"
    assert AbelianGroupExpr.torsion_group(2, 2).render() == "Z_2^2"


def test_expr_validation():
    with pytest.raises(ValueError):
        AbelianGroupExpr(free_rank=-1)
    with pytest.raises(ValueError):
        AbelianGroupExpr(torsion=(1,))


# -- lambda ---------------------------------------------------------------------

def test_lambda_known_values():
    assert lambda_value(257) == 16
    assert lambda_value(127) == 9
    assert lambda_value(8191) == 315
    assert lambda_value(5) == 1  # <2> = all units mod 5


def test_lambda_matches_the_residue_subgroup():
    # the definition itself: <2> mod m as a residue set, and whether -1 is in it
    for m in range(3, 3000, 2):
        if not is_prime(m):
            continue
        powers, x = {1}, 2
        while x != 1:
            powers.add(x)
            x = x * 2 % m
        expected = (m - 1) // len(powers) if m - 1 in powers else (m - 1) // (2 * len(powers))
        assert lambda_value(m) == expected, m


def test_lambda_of_primes_past_a_billion_is_fast():
    start = time.perf_counter()
    assert lambda_value(2**31 - 1) == (2**31 - 2) // (2 * 31)  # ord(2) = 31, odd
    assert lambda_value(1_000_000_007) == 1  # ord(2) = (m - 1)/2 = 500000003, odd
    assert time.perf_counter() - start < 1.0


def test_delta_counts_every_divisor():
    for n in range(1, 5000):
        assert delta(n) == len(divisors(n)), n
    with pytest.raises(ValueError):
        delta(0)


def test_quaternion_closed_forms_at_k_200_are_fast(capsys):
    import json

    from lowk.cli import main

    start = time.perf_counter()
    code = main(["group", "quaternion", "--k", "200",
                 "--invariants", "wh,k0,wedderburn", "--format", "json"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    m = 2**198
    assert doc["wh"]["rank"] == m + 1 - 200  # delta(2m) = delta(2^199) = 200
    assert doc["k0"] == "unknown"
    assert len(doc["wedderburn"]) == 4 + (200 - 3) + 1



@pytest.mark.parametrize("m", [2, 9, 15, 1])
def test_lambda_rejects_non_odd_primes(m):
    with pytest.raises(ValueError):
        lambda_value(m)


# -- Whitehead ranks -------------------------------------------------------------

def test_whitehead_known_values():
    assert whitehead_rank(generalized_quaternion(4)) == 1
    assert whitehead_rank(generalized_quaternion(3)) == 0
    assert whitehead_rank(build_binary_polyhedral("T*")) == 0
    assert whitehead_rank(build_binary_polyhedral("O*")) == 1
    assert whitehead_rank(build_binary_polyhedral("I*")) == 2
    # floor(12/2) + 1 - delta(12) = 7 - 6
    assert whitehead_rank(build_cyclic(12)) == 1
    assert whitehead_rank(build_dicyclic(5)) == 2


def test_whitehead_closed_form_only_for_large_groups():
    big = build_dicyclic(3000)
    assert whitehead_rank(big) == 3001 - delta(6000)


def test_whitehead_custom_family_uses_census():
    assert whitehead_rank(build_abelian([2, 2])) == 0


def test_rules_record_their_path_only_inside_a_provenance_block():
    q16 = generalized_quaternion(4)

    def run_rules():
        whitehead_rank(build_abelian([2, 2]))
        with brute_force_bound(8):
            whitehead_rank(q16)
        k_minus_one(q16)
        k0_tilde_lookup(build_cyclic(23))
        wedderburn_shape(q16)

    with lowerk.provenance() as lines:
        run_rules()
    assert lines == [
        "wh: class census sum of r1(d) - r2(d)",  # no closed form to cross-check
        "wh: family closed form",
        "kminus1 rank: Carter formula 1 - r_Q + sum_p (r_Qp - r_Fp) "
        "from Witt-Berman counts",  # one line, however many r_F it took
        "kminus1 torsion: quaternion 2-group rule",
        "k0: outside the Swan lookup tables -> unknown",
        "wedderburn: rational group algebra decomposition table",
    ]
    run_rules()  # after the block closes, the same calls record nothing
    assert len(lines) == 6
    with lowerk.provenance() as inner:
        k0_tilde_lookup(q16)
    assert inner == ["k0: Swan lookup table"] and len(lines) == 6


# -- Carter rank and torsion -----------------------------------------------------

def test_carter_rank_values():
    for k in range(3, 9):
        assert carter_rank(generalized_quaternion(k)) == 0
    assert carter_rank(build_binary_polyhedral("T*")) == 1
    assert carter_rank(build_binary_polyhedral("O*")) == 1
    assert carter_rank(build_binary_polyhedral("I*")) == 2
    assert carter_rank(build_dicyclic(127)) == 9


def test_carter_rank_z2_from_counts():
    # oracle: the three Witt-Berman counts of the order-2 group
    g = build_cyclic(2)
    rq = r_f(g, FieldDescriptor.rational())
    rq2 = r_f(g, FieldDescriptor.p_adic(2))
    rf2 = r_f(g, FieldDescriptor.finite_prime(2))
    assert (rq, rq2, rf2) == (2, 2, 1)
    assert carter_rank(g) == 1 - rq + rq2 - rf2 == 0


def test_carter_census_agrees_with_closed_form_for_odd_primes():
    # both routes: Witt-Berman census (default) vs the number-theoretic
    # closed form (forced by an artificially tiny census bound)
    from lowk.galois import is_prime

    for m in range(3, 61, 2):
        if not is_prime(m):
            continue
        g = build_dicyclic(m)
        with brute_force_bound(1):
            closed = carter_rank(g)
        assert carter_rank(g) == closed == lambda_value(m), m


def test_one_bound_reaches_every_rule():
    # |Dic_20| = 20: past a bound of 19 the census refuses and both rules
    # take their closed forms
    g = build_dicyclic(5)
    with brute_force_bound(19):
        with pytest.raises(GroupTooLargeError, match="order 20 > brute-force bound 19"):
            r_f(g, FieldDescriptor.rational())
        with lowerk.provenance() as lines:
            assert whitehead_rank(g) == 5 + 1 - delta(10)
            assert carter_rank(g) == lambda_value(5)
    assert lines == [
        "wh: family closed form",
        "kminus1 rank: dicyclic odd-prime closed form via |<2>| mod m",
    ]


@pytest.mark.parametrize("rule, closed_form, wrong, message", [
    (carter_rank, "lambda_value", lambda m: lambda_value(m) + 1,
     "Carter rank mismatch for Dic_20: closed form 2 != census 1"),
    (whitehead_rank, "_whitehead_closed_form", lambda group: 3,
     "whitehead rank mismatch for Dic_20: closed form 3 != census 2"),
])
def test_a_wrong_closed_form_fails_the_census_cross_check(
    monkeypatch, rule, closed_form, wrong, message
):
    # |Dic_20| = 20 is within the bound, so the census answers and each
    # rule's closed form, lambda(5) for K_-1, must agree with it
    monkeypatch.setattr(lowerk, closed_form, wrong)
    with pytest.raises(ConsistencyError, match=message):
        rule(build_dicyclic(5))


def test_both_rules_refuse_alike_without_a_closed_form():
    group = build_abelian([2, 2])
    messages = set()
    for rule in (whitehead_rank, carter_rank):
        with brute_force_bound(2), pytest.raises(GroupTooLargeError) as info:
            rule(group)
        messages.add(str(info.value))
    assert messages == {f"{group.name}: order 4 > 2 and no closed form applies"}


def test_carter_rank_matches_the_r_f_formula():
    # one pass over the p-singular records against 1 + 2w full r_F counts;
    # each group is built in turn, so its census is dropped with it
    roster = itertools.chain(
        (build_cyclic(m) for m in range(1, 401)),
        (build_dicyclic(m) for m in range(2, 300)),
        (generalized_quaternion(k) for k in range(3, 10)),
        (build_binary_polyhedral(k) for k in ("T*", "O*", "I*")),
    )
    for group in roster:
        assert carter_rank(group) == carter_by_r_f(group), group.name


def test_carter_closed_form_beyond_census_bound():
    big = build_dicyclic(8191)
    assert carter_rank(big) == 315
    with pytest.raises(GroupTooLargeError):
        carter_rank(build_dicyclic(2000))  # no closed form: 2000 is not prime


def test_torsion_rules():
    assert k_minus_one_torsion(build_dicyclic(5)) == 1   # 5 = 1 mod 4
    assert k_minus_one_torsion(build_dicyclic(3)) == 0   # 3 = 3 mod 4
    assert k_minus_one_torsion(generalized_quaternion(4)) == 1
    assert k_minus_one_torsion(generalized_quaternion(3)) == 0
    assert k_minus_one_torsion(build_dicyclic(2)) == 0   # Q8 again
    assert k_minus_one_torsion(build_binary_polyhedral("T*")) == 0
    assert k_minus_one_torsion(build_binary_polyhedral("O*")) == 1
    assert k_minus_one_torsion(build_binary_polyhedral("I*")) == 1
    assert k_minus_one_torsion(build_cyclic(9)) == 0


@pytest.mark.parametrize("m", [9, 15, 6, 12])
def test_torsion_not_covered_for_other_dicyclic(m):
    with pytest.raises(UnsupportedFamilyError):
        k_minus_one_torsion(build_dicyclic(m))


def test_k_minus_one_assembly():
    assert k_minus_one(build_dicyclic(257)) == AbelianGroupExpr(16, (2,))
    assert k_minus_one(generalized_quaternion(5)) == AbelianGroupExpr(0, (2,))
    assert k_minus_one(generalized_quaternion(3)).is_zero
    assert k_minus_one(build_binary_polyhedral("I*")) == AbelianGroupExpr(2, (2,))


# -- K0 lookup -------------------------------------------------------------------

def test_k0_lookup_dicyclic():
    assert k0_tilde_lookup(build_dicyclic(6)) == AbelianGroupExpr.torsion_group(2, 2, 2)
    assert k0_tilde_lookup(build_dicyclic(9)) == AbelianGroupExpr.torsion_group(2, 2)
    for m in (2, 3, 4, 5, 7, 8, 11):
        assert k0_tilde_lookup(build_dicyclic(m)) == AbelianGroupExpr.torsion_group(2)
    assert k0_tilde_lookup(build_dicyclic(13)) is UNKNOWN
    assert k0_tilde_lookup(generalized_quaternion(5)) == AbelianGroupExpr.torsion_group(2)
    assert k0_tilde_lookup(generalized_quaternion(6)) is UNKNOWN


def test_k0_lookup_cyclic_and_binary():
    for m in list(range(1, 12)) + [13, 14, 17, 19]:
        assert k0_tilde_lookup(build_cyclic(m)) == AbelianGroupExpr.zero()
    for m in (12, 15, 16, 18, 20, 23):
        assert k0_tilde_lookup(build_cyclic(m)) is UNKNOWN
    assert k0_tilde_lookup(build_binary_polyhedral("T*")) == AbelianGroupExpr.torsion_group(2)
    assert k0_tilde_lookup(build_binary_polyhedral("O*")) == AbelianGroupExpr.torsion_group(2, 2)
    assert k0_tilde_lookup(build_binary_polyhedral("I*")) == AbelianGroupExpr.torsion_group(2, 2, 2)
    assert k0_tilde_lookup(build_abelian([2, 2])) is UNKNOWN


# -- Wedderburn shapes -----------------------------------------------------------

@pytest.mark.parametrize("m, symbols", [
    (5, ["Q", "Q", "M_2(Q(zeta_5+zeta_5^-1))", "Q(i)", "H_10"]),
    (6, ["Q", "Q", "Q", "Q", "M_2(Q(zeta_3+zeta_3^-1))", "M_2(Q(zeta_6+zeta_6^-1))",
         "H_4", "H_12"]),
])
def test_wedderburn_dicyclic(m, symbols):
    assert [c.symbol() for c in wedderburn_shape(build_dicyclic(m))] == symbols


def test_wedderburn_component_bound():
    """The odd m <= 10^14 with the most divisors (5760) answers; twice it is refused."""
    m = 3**4 * 5**2 * 7**2 * 11 * 13 * 17 * 19 * 23 * 29 * 31
    assert len(wedderburn_shape(build_dicyclic(m))) == 2 * 5760 + 1
    with pytest.raises(ValueError, match="simple components"):
        wedderburn_shape(build_dicyclic(2 * m))


def test_wedderburn_tstar():
    symbols = [c.symbol() for c in wedderburn_shape(build_binary_polyhedral("T*"))]
    assert symbols == ["Q", "Q(zeta_3)", "M_3(Q)", "H_4", "H(Q(zeta_3))"]


# (Q-dimension, degree of the centre over Q) of the symbols that no shape rule covers
_IRREGULAR = {
    "Q": (1, 1), "Q(i)": (2, 2), "Q(zeta_3)": (2, 2), "H(Q(zeta_3))": (8, 2),
    "H_hat": (4, 1), "H(Q)": (4, 1), "Q(sqrt5)": (2, 2),
}


def _dim_and_centre(symbol):
    if match := re.fullmatch(r"M_(\d+)\((.+)\)", symbol):
        dim, centre = _dim_and_centre(match[2])
        return int(match[1]) ** 2 * dim, centre
    if match := re.fullmatch(r"Q\(zeta_(\d+)\+zeta_\1\^-1\)", symbol):
        return totient(int(match[1])) // 2, totient(int(match[1])) // 2
    if match := re.fullmatch(r"H_(\d+)", symbol):
        return 2 * totient(int(match[1])), totient(int(match[1])) // 2
    return _IRREGULAR[symbol]


def test_wedderburn_component_count_matches_rational_count():
    """Components = r_Q, dimensions sum to |G|, centre degrees to the class count."""
    groups = [build_dicyclic(m) for m in range(2, 251)]
    groups += [generalized_quaternion(k) for k in range(3, 11)]
    groups += [build_binary_polyhedral(k) for k in ("T*", "O*", "I*")]
    for group in groups:
        census = conjugacy_classes(group)
        sizes = [_dim_and_centre(c.symbol()) for c in wedderburn_shape(group)]
        assert len(sizes) == len(census.subgroups), group.name
        assert sum(dim for dim, _ in sizes) == group.order, group.name
        assert sum(centre for _, centre in sizes) == len(census.classes), group.name


def test_wedderburn_unsupported():
    with pytest.raises(UnsupportedFamilyError):
        wedderburn_shape(build_cyclic(5))
    with pytest.raises(UnsupportedFamilyError):
        wedderburn_shape(build_abelian([2, 2]))

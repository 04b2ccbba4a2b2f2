import math

import pytest

from lowk import galois
from lowk.galois import (
    FieldDescriptor,
    divisors,
    factorization,
    generated_subgroup,
    is_prime,
    mult_order,
    phi_generators,
    phi_image,
    prime_divisors,
)

from helpers import enumerated_phi_image, is_unit_subgroup, minimal_generators, unit_group

Q = FieldDescriptor.rational()


def test_mult_order_basics():
    assert mult_order(2, 7) == 3  # 2, 4, 1
    assert mult_order(1, 17) == 1
    assert mult_order(1, 1) == 1
    assert mult_order(2, 257) == 16


def test_mult_order_matches_repeated_multiplication():
    for n in range(1, 300):
        for a in range(n + 2):
            if math.gcd(a, n) != 1:
                continue
            k, x = 1, a % n
            while x != 1 % n:
                x = x * a % n
                k += 1
            assert mult_order(a, n) == k, (a, n)


def test_mult_order_rejects_non_units():
    with pytest.raises(ValueError):
        mult_order(2, 8)


def test_generated_subgroup():
    assert generated_subgroup(5, [2]) == (1, 2, 3, 4)
    assert generated_subgroup(7, [2]) == (1, 2, 4)
    assert generated_subgroup(35, [1]) == (1,)
    with pytest.raises(ValueError):
        generated_subgroup(6, [3])


def test_phi_image_padic_two_at_four():
    assert phi_image(FieldDescriptor.p_adic(2), 4) == (1, 3)


def test_phi_image_rational_is_everything():
    assert phi_image(Q, 5) == (1, 2, 3, 4)
    assert phi_image(Q, 12) == unit_group(12) == (1, 5, 7, 11)


def test_phi_image_finite_prime():
    assert phi_image(FieldDescriptor.finite_prime(2), 7) == (1, 2, 4)
    with pytest.raises(ValueError):
        phi_image(FieldDescriptor.finite_prime(3), 12)


def test_phi_image_mixed_padic_against_crt_oracle():
    # oracle: enumerate the product set {t : t unit mod 20, t mod 4 in <5 mod 4>}
    expected = tuple(
        t for t in range(1, 20)
        if math.gcd(t, 20) == 1 and t % 4 in {pow(5, j, 4) for j in range(4)}
    )
    assert expected == (1, 9, 13, 17)
    assert phi_image(FieldDescriptor.p_adic(5), 20) == expected


def test_phi_image_two_mod_four_reduction():
    # modulus 2 mod 4: the image is the odd half's image, read on odd residues
    img = phi_image(FieldDescriptor.p_adic(3), 14)
    half = phi_image(FieldDescriptor.p_adic(3), 7)
    assert {r % 7 for r in img} == set(half)
    assert all(r % 2 == 1 for r in img)


def test_phi_image_is_subgroup_sweep():
    fields = [Q] + [FieldDescriptor.p_adic(p) for p in (2, 3, 5, 7, 11, 13, 17, 19)]
    fields += [FieldDescriptor.finite_prime(p) for p in (2, 3, 5, 7, 11, 13, 17, 19)]
    for n in range(1, 201):
        rational = set(phi_image(Q, n))
        for f in fields:
            if f.kind == "Fp" and n % f.p == 0:
                continue
            img = phi_image(f, n)
            assert is_unit_subgroup(n, img), (f.label, n)
            assert set(img) <= rational, (f.label, n)


def test_padic_equals_finite_prime_away_from_p():
    for p in (2, 3, 5, 7, 11, 13, 17, 19):
        for n in range(1, 101):
            if n % p == 0:
                continue
            assert (
                phi_image(FieldDescriptor.p_adic(p), n)
                == phi_image(FieldDescriptor.finite_prime(p), n)
            ), (p, n)


def test_closed_form_image_equals_enumerated_image():
    """Every n <= 2000, so n = 2 mod 4 and 2-powers 8 ... 1024 are all met;
    p runs over the prime divisors of n and 2, 3, 5, 7."""
    for n in range(1, 2001):
        assert phi_image(Q, n) == enumerated_phi_image(Q, n), n
        for p in set(prime_divisors(n)) | {2, 3, 5, 7}:
            fields = [FieldDescriptor.p_adic(p)]
            if n % p:
                fields.append(FieldDescriptor.finite_prime(p))
            for f in fields:
                assert phi_image(f, n) == enumerated_phi_image(f, n), (f.label, n)


def test_phi_generators_are_reduced_nontrivial_units():
    """Each generator r is a unit with 1 < r < n, so the trivial image has
    none, and the image they generate is the enumerated one."""
    assert phi_generators(FieldDescriptor.p_adic(2), 12) == (7, 5)
    assert phi_generators(FieldDescriptor.finite_prime(13), 12) == ()
    for n in range(1, 400):
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            fields = [FieldDescriptor.p_adic(p)]
            if n % p:
                fields.append(FieldDescriptor.finite_prime(p))
            for f in fields:
                gens = phi_generators(f, n)
                assert all(1 < r < n and math.gcd(r, n) == 1 for r in gens or ()), (f.label, n)
                assert phi_image(f, n) == enumerated_phi_image(f, n), (f.label, n)


def test_minimal_generators_regenerate():
    for n in (5, 7, 16, 24, 60, 257):
        full = unit_group(n)
        gens = minimal_generators(n, full)
        assert generated_subgroup(n, list(gens)) == full


def test_field_descriptor_validation_and_parse():
    with pytest.raises(ValueError):
        FieldDescriptor.p_adic(4)
    with pytest.raises(ValueError):
        FieldDescriptor("Q", 3)
    assert FieldDescriptor.parse("Q") == Q
    assert FieldDescriptor.parse("Qp:5") == FieldDescriptor.p_adic(5)
    assert FieldDescriptor.parse("Fp:3") == FieldDescriptor.finite_prime(3)
    assert FieldDescriptor.parse("Qp:5").label == "Q_5"
    # only ASCII digits follow the prefix: int() alone would take " 3", "3_0", "+3"
    # and the Arabic-Indic digit three
    for text in ("R", "Qp:", "Fp:2.5", "Fp:", "Qp:x",
                 "Qp: 3", "Qp:3_0", "Qp:+3", "Qp:\u0663"):
        expected = f"cannot parse field {text!r} (expected Q, Qp:<p> or Fp:<p>)"
        with pytest.raises(ValueError) as exc:
            FieldDescriptor.parse(text)
        assert str(exc.value) == expected
    with pytest.raises(ValueError, match="requires a prime"):
        FieldDescriptor.parse("Qp:4")


def test_is_prime_and_divisors():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


def test_divisors_match_a_brute_force_list(monkeypatch):
    # every divisor d of n <= N is listed by marking the multiples of each d
    bound = 20_000
    listed = [[] for _ in range(bound + 1)]
    for d in range(1, bound + 1):
        for n in range(d, bound + 1, d):
            listed[n].append(d)
    for n in range(1, bound + 1):
        assert divisors(n) == listed[n], n
    # sqrt(2^40 3^5 7) is about 4.3e7, past the default bound, so that list is refused
    big = 2**40 * 3**5 * 7
    with pytest.raises(ValueError, match="cannot list the divisors"):
        divisors(big)
    # past a raised bound it is listed: 2^a times each divisor of 3^5 7 = 1701
    monkeypatch.setattr(galois, "TRIAL_BOUND", 5 * 10**7)
    odd = [d for d in range(1, 1702) if 1701 % d == 0]
    assert divisors(big) == sorted(2**a * d for a in range(41) for d in odd)
    assert len(divisors(big)) == 41 * 6 * 2


def test_trial_division_stops_at_the_bound(monkeypatch):
    m61 = 2**61 - 1  # prime, so no trial divisor up to the bound finds a factor
    with pytest.raises(ValueError, match="trial division stops"):
        factorization(m61)
    with pytest.raises(ValueError, match="trial division stops"):
        divisors(10**17 + 3)
    # small factors still answer however large the number
    assert not is_prime(3 * m61)
    assert factorization(2**100 * 3) == [(2, 100), (3, 1)]
    # at a bound of 100, numbers below 101^2 are settled (97^2 composite,
    # 10193 prime); 10211 and 101 * 103 are not, having no factor up to 100
    monkeypatch.setattr(galois, "TRIAL_BOUND", 100)
    assert not is_prime(97 * 97)
    assert is_prime(10193) and factorization(2**5 * 10193) == [(2, 5), (10193, 1)]
    for n in (101 * 103, 10211):
        with pytest.raises(ValueError, match="trial division stops"):
            is_prime(n)
        with pytest.raises(ValueError, match="trial division stops"):
            factorization(2 * n)
    assert divisors(10000)[-1] == 10000
    with pytest.raises(ValueError, match="trial division stops"):
        divisors(101 * 101)


def _least_prime_factors(bound):
    """lpf[n] for 2 <= n < bound, by a sieve; lpf[0] = lpf[1] = 0."""
    lpf = [0] * bound
    for p in range(2, bound):
        if lpf[p] == 0:
            for n in range(p, bound, p):
                if lpf[n] == 0:
                    lpf[n] = p
    return lpf


def _sieve_factorization(n, lpf):
    out = []
    while n > 1:
        p, e = lpf[n], 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


def test_trial_division_matches_a_sieve():
    bound = 200_000
    lpf = _least_prime_factors(bound)
    for n in range(bound):
        assert is_prime(n) == (n >= 2 and lpf[n] == n), n
    for n in range(1, bound):
        assert factorization(n) == _sieve_factorization(n, lpf), n


def test_trial_division_refuses_exactly_past_the_bound(monkeypatch):
    """At a bound of 100, is_prime refuses exactly when sqrt(n) > 100 and
    no prime up to 100 divides n, factorization exactly when the cofactor
    left by the primes up to 100 has its square root past 100; every other
    answer is the sieve's."""
    bound = 20_000
    lpf = _least_prime_factors(bound)
    monkeypatch.setattr(galois, "TRIAL_BOUND", 100)
    for n in range(bound):
        root = math.isqrt(n)
        if n >= 2 and lpf[n] > min(root, 100) and root > 100:
            with pytest.raises(ValueError, match="trial division stops"):
                is_prime(n)
        else:
            assert is_prime(n) == (n >= 2 and lpf[n] == n), n
        if n < 1:
            continue
        cofactor = n
        for p in range(2, 101):
            while cofactor % p == 0:
                cofactor //= p
        if math.isqrt(cofactor) > 100:
            with pytest.raises(ValueError, match="trial division stops"):
                factorization(n)
        else:
            assert factorization(n) == _sieve_factorization(n, lpf), n


def test_trivial_modulus_unit_group():
    assert phi_image(Q, 1) == (0,)
    assert phi_image(FieldDescriptor.p_adic(3), 1) == generated_subgroup(1, ()) == (0,)

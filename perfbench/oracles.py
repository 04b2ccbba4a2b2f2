"""Expected answers computed without lowk.

Closed forms from the paper and elementary number theory, plus an
independent model of the quotient Z3 * Z2 of B4(S2), so the benchmark can
check every answer it times against arithmetic that shares no code with
the program under test.
"""

from __future__ import annotations


def factor(n: int) -> dict[int, int]:
    """Prime factorisation by trial division: {p: exponent}."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factor(n) == {n: 1}


def divisors(n: int) -> list[int]:
    out = [1]
    for p, a in factor(n).items():
        out = [x * p ** i for x in out for i in range(a + 1)]
    return sorted(out)


def delta(n: int) -> int:
    """Number of divisors of n."""
    count = 1
    for a in factor(n).values():
        count *= a + 1
    return count


def totient(n: int) -> int:
    out = n
    for p in factor(n):
        out = out // p * (p - 1)
    return out


def mult_order(a: int, n: int) -> int:
    """Order of a in (Z/n)^*, found by dividing down from the totient."""
    if n == 1:
        return 1
    k = totient(n)
    for p in factor(k):
        while k % p == 0 and pow(a, k // p, n) == 1:
            k //= p
    return k


# -- Whitehead ranks (Bass: r_R - r_Q, in closed form per family) -------------

def wh_cyclic(m: int) -> int:
    return m // 2 + 1 - delta(m)


def wh_dicyclic(m: int) -> int:
    """Dic_{4m}; the generalised quaternion Q_{2^k} is m = 2^(k-2)."""
    return m + 1 - delta(2 * m)


# -- Witt-Berman counts and the Carter rank for cyclic groups ----------------

def _p_regular(m: int, p: int) -> tuple[int, int]:
    """(v_p(m), p-regular part of m)."""
    a = 0
    while m % p == 0:
        m //= p
        a += 1
    return a, m


def r_fp_cyclic(m: int, p: int) -> int:
    """F_p-classes of Z_m: Frobenius orbits on the p-regular elements."""
    _, regular = _p_regular(m, p)
    return sum(totient(d) // mult_order(p, d) for d in divisors(regular))


def r_qp_cyclic(m: int, p: int) -> int:
    """Q_p-classes of Z_m: each p-power layer repeats the F_p count."""
    a, _ = _p_regular(m, p)
    return (a + 1) * r_fp_cyclic(m, p)


def k_minus_one_rank_cyclic(m: int) -> int:
    """Carter: 1 - r_Q + sum_p (r_Qp - r_Fp), with r_Q(Z_m) = delta(m)."""
    return 1 - delta(m) + sum(a * r_fp_cyclic(m, p) for p, a in factor(m).items())


def r_q_dicyclic_odd(m: int) -> int:
    """Q-classes of Dic_{4m}, m odd: the cyclic subgroups of <x>, plus one
    class of order-4 subgroups <x^a y>."""
    return delta(2 * m) + 1


def lambda_value(p: int) -> int:
    """Rank of K_-1(Z[Dic_{4p}]), p an odd prime: (p-1)/|<2>| when -1 lies in
    <2> mod p (iff ord_p(2) is even), else (p-1)/(2|<2>|)."""
    order = mult_order(2, p)
    return (p - 1) // order if order % 2 == 0 else (p - 1) // (2 * order)


# Values for the binary polyhedral groups, as tabulated in the paper.
POLYHEDRAL = {
    "tstar": {"r_Q": 5, "kminus1": (1, [])},
    "ostar": {"r_Q": 7, "kminus1": (1, [2])},
    "istar": {"r_Q": 7, "kminus1": (2, [2])},
}


# -- the quotient Z3 * Z2 = <a, b | a^3 = b^2 = 1> ----------------------------

_EXP = {"a": 1, "a2": 2}


def reduce_z3z2(tokens) -> tuple[str, ...]:
    """Reduced alternating word over the tokens a, a2, b."""
    stack: list[str] = []
    for tok in tokens:
        if stack and stack[-1] == "b" and tok == "b":
            stack.pop()
        elif stack and stack[-1] != "b" and tok != "b":
            exp = (_EXP[stack.pop()] + _EXP[tok]) % 3
            if exp:
                stack.append("a" if exp == 1 else "a2")
        else:
            stack.append(tok)
    return tuple(stack)


def invert_z3z2(word: tuple[str, ...]) -> tuple[str, ...]:
    swap = {"a": "a2", "a2": "a", "b": "b"}
    return reduce_z3z2(swap[t] for t in reversed(word))


def has_finite_order_z3z2(word: tuple[str, ...]) -> bool:
    """An element of a free product has finite order iff its cyclic
    reduction lies in one factor."""
    w = list(word)
    while len(w) >= 2 and (w[0] == "b") == (w[-1] == "b"):
        w = list(reduce_z3z2(w[1:-1] + [w[-1], w[0]]))
    return len(w) <= 1


# Images of the braid generators: rho(sigma1) = rho(sigma3) = ba and
# rho(sigma2) = ab; psi permutes the core subgroups H1, H2, H3 by (1 2),
# (2 3), (1 2); pi is the exponent sum mod 6.
BRAID_RHO = {1: ("b", "a"), 2: ("a", "b"), 3: ("b", "a")}
BRAID_PSI = {1: (2, 1, 3), 2: (1, 3, 2), 3: (2, 1, 3)}


def braid_images(word: tuple[int, ...]) -> tuple[tuple[str, ...], tuple[int, int, int], int]:
    """(rho, psi, pi) of a braid word, letters +-1, +-2, +-3 for sigma_i^+-1."""
    tokens: list[str] = []
    perm = (1, 2, 3)
    for letter in word:
        image = BRAID_RHO[abs(letter)]
        tokens.extend(image if letter > 0 else invert_z3z2(image))
        # psi(gh)[i] = psi(g)[psi(h)[i]]; the generator images are involutions
        step = BRAID_PSI[abs(letter)]
        perm = tuple(perm[step[i] - 1] for i in range(3))
    return reduce_z3z2(tokens), perm, sum(1 if x > 0 else -1 for x in word) % 6

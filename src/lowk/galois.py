"""Number-theoretic core: unit groups modulo n and Galois images.

`phi_generators` gives generators of the image of the Galois group of
F(zeta_n)/F inside (Z/n)^* for F one of Q, Q_p, F_p, in closed form: the
Frobenius p, a primitive root of the p-power part lifted by the Chinese
remainder theorem, or "all units".  `phi_image` is the subgroup they
generate, as its sorted residue tuple, enumerated by `groups.closure`; the
trivial group modulo 1 is the tuple (0,).  Only the image matters
downstream, so no cyclotomic arithmetic is ever performed.  Primality and
factorisation use trial division up to TRIAL_BOUND, and divisors are read
off the factorisation: an input that needs more, such as a prime past
10^14, raises ValueError with the reason instead of running unbounded.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .groups import closure

# Trial division stops here: past it, is_prime, factorization and divisors
# raise ValueError instead of running for hours.
TRIAL_BOUND = 10**7


def is_prime(n: int) -> bool:
    """Trial division by odd f <= sqrt(n); raises past TRIAL_BOUND."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    root = math.isqrt(n)
    for f in range(3, min(root, TRIAL_BOUND) + 1, 2):
        if n % f == 0:
            return False
    if root > TRIAL_BOUND:
        raise ValueError(
            f"cannot test {n} for primality: trial division stops at {TRIAL_BOUND}"
        )
    return True


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted, built from `factorization(n)`.

    Raises when sqrt(n) > TRIAL_BOUND.  That bounds the list too: a number
    up to 10^14 has at most 17,280 divisors.
    """
    if n < 1:
        raise ValueError(f"divisors of {n} undefined")
    if math.isqrt(n) > TRIAL_BOUND:
        raise ValueError(
            f"cannot list the divisors of {n}: trial division stops at {TRIAL_BOUND}"
        )
    out = [1]
    for p, e in factorization(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def factorization(n: int) -> list[tuple[int, int]]:
    """(p, e) for each prime power p^e exactly dividing n, p ascending.

    Trial division whose bound shrinks as factors are stripped out, so a
    number with small factors, such as 2^k, costs O(log n) divisions.
    Raises when the cofactor left after trial division up to TRIAL_BOUND
    could still be composite, that is, when its square root passes the bound.
    """
    out = []
    for f in itertools.chain((2,), range(3, TRIAL_BOUND + 1, 2)):
        if f * f > n:
            break
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            out.append((f, e))
    else:
        if math.isqrt(n) > TRIAL_BOUND:
            raise ValueError(f"cannot factor {n}: trial division stops at {TRIAL_BOUND}")
    if n > 1:
        out.append((n, 1))
    return out


def prime_divisors(n: int) -> list[int]:
    return [p for p, _ in factorization(n)]


def totient(n: int) -> int:
    """Euler's phi: the number of units modulo n >= 1."""
    for p in prime_divisors(n):
        n = n // p * (p - 1)
    return n


def mult_order(a: int, n: int) -> int:
    """Least k >= 1 with a^k = 1 mod n.  Requires gcd(a, n) = 1.

    Starts from phi(n), which a^k = 1 divides, and strips each prime factor
    q while a^(k/q) = 1 still holds: O(log n) modular powers once phi(n) is
    factored.
    """
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    if math.gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit modulo {n}")
    k = totient(n)
    for q in prime_divisors(k):
        while k % q == 0 and pow(a, k // q, n) == 1:
            k //= q
    return k


def generated_subgroup(n: int, gens: list[int] | tuple[int, ...]) -> tuple[int, ...]:
    """Closure of the given residues under multiplication mod n, as a sorted tuple."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    if n == 1:
        return (0,)
    for g in gens:
        if math.gcd(g, n) != 1:
            raise ValueError(f"generator {g} is not a unit modulo {n}")
    return tuple(sorted(closure(1, [g % n for g in gens], lambda x, g: x * g % n)))


@dataclass(frozen=True)
class FieldDescriptor:
    """One of Q, Q_p, F_p; selects the Galois-image rule in `phi_generators`."""

    kind: str  # "Q" | "Qp" | "Fp"
    p: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("Q", "Qp", "Fp"):
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind == "Q":
            if self.p is not None:
                raise ValueError("rational field carries no prime")
        elif self.p is None or not is_prime(self.p):
            raise ValueError(f"{self.kind} requires a prime, got {self.p}")

    @classmethod
    def rational(cls) -> "FieldDescriptor":
        return cls("Q")

    @classmethod
    def p_adic(cls, p: int) -> "FieldDescriptor":
        return cls("Qp", p)

    @classmethod
    def finite_prime(cls, p: int) -> "FieldDescriptor":
        return cls("Fp", p)

    @property
    def characteristic(self) -> int:
        return self.p if self.kind == "Fp" else 0

    @property
    def label(self) -> str:
        if self.kind == "Q":
            return "Q"
        return f"{'Q' if self.kind == 'Qp' else 'F'}_{self.p}"

    @classmethod
    def parse(cls, text: str) -> "FieldDescriptor":
        """Parse CLI syntax: 'Q', 'Qp:<p>' or 'Fp:<p>'."""
        if text == "Q":
            return cls.rational()
        for prefix, kind in (("Qp:", "Qp"), ("Fp:", "Fp")):
            digits = text[len(prefix):]
            if text.startswith(prefix) and digits.isascii() and digits.isdigit():
                return cls(kind, int(digits))
        raise ValueError(f"cannot parse field {text!r} (expected Q, Qp:<p> or Fp:<p>)")


def _primitive_root(p: int) -> int:
    """A generator of (Z/p^a)^* for every a >= 1, p an odd prime.

    A primitive root g mod p generates every (Z/p^a)^* unless
    g^(p-1) = 1 mod p^2, and then g + p does.
    """
    g = next(g for g in range(2, p) if mult_order(g, p) == p - 1)
    return g + p if pow(g, p - 1, p * p) == 1 else g


def _crt(r: int, q: int, s: int, m: int) -> int:
    """The residue mod q*m that is r mod q and s mod m (q, m coprime)."""
    return r + q * ((s - r) * pow(q, -1, m) % m)


def phi_generators(field: FieldDescriptor, n: int) -> tuple[int, ...] | None:
    """Generators of the image of Gal(F(zeta_n)/F) -> (Z/n)^*, or None for all of it.

    Rational: everything.  F_p (p not dividing n), and Q_p with p not
    dividing n: the Frobenius p.  Q_p with n = p^a * n1, n1 prime to p: the
    inertia group is all of (Z/p^a)^*, generated by a primitive root (by -1
    and 5 when p = 2), and the Frobenius p acts on the prime-to-p part; both
    are lifted to residues mod n by the Chinese remainder theorem.  Moduli
    n = 2 mod 4 are reduced to n/2 and lifted back through the canonical
    unit-group isomorphism.  Every generator is a residue 1 < r < n; the
    trivial image has none.
    """
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    if field.kind == "Q":
        return None
    p = field.p
    assert p is not None
    if field.kind == "Fp" and n % p == 0:
        raise ValueError(f"phi_generators over F_{p} needs a modulus prime to {p}")
    if n % p:
        gens: tuple[int, ...] = (p,)
    elif n % 4 == 2:
        # Q_p.  zeta_n and zeta_{n/2} generate the same field when n = 2 mod 4.
        half = phi_generators(field, n // 2)
        if half is None:
            return None
        gens = tuple(r if r % 2 else r + n // 2 for r in half)
    else:
        q, n1 = 1, n
        while n1 % p == 0:
            n1 //= p
            q *= p
        if n1 == 1:
            return None
        inertia = (q - 1, 5) if p == 2 else (_primitive_root(p),)
        gens = (*(_crt(g, q, 1, n1) for g in inertia), _crt(1, q, p, n1))
    return tuple(r for r in (g % n for g in gens) if r != 1 % n)


def phi_image(field: FieldDescriptor, n: int) -> tuple[int, ...]:
    """Image of Gal(F(zeta_n)/F) -> (Z/n)^*: the subgroup `phi_generators` generates.

    All units when there are no generators to close; modulo 1 that is (0,).
    """
    gens = phi_generators(field, n)
    if gens is None:
        return tuple(r for r in range(n) if math.gcd(r, n) == 1)
    return generated_subgroup(n, gens)

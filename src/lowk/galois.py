"""Number-theoretic core: unit groups modulo n and Galois images.

`phi_image` computes the image of the Galois group of F(zeta_n)/F inside
(Z/n)^* for F one of Q, Q_p, F_p.  Only the image set matters downstream,
so no cyclotomic arithmetic is ever performed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted."""
    if n < 1:
        raise ValueError(f"divisors of {n} undefined")
    small, large = [], []
    f = 1
    while f * f <= n:
        if n % f == 0:
            small.append(f)
            if f != n // f:
                large.append(n // f)
        f += 1
    return small + large[::-1]


def factorization(n: int) -> list[tuple[int, int]]:
    """(p, e) for each prime power p^e exactly dividing n, p ascending.

    Trial division whose bound shrinks as factors are stripped out, so a
    number with small factors, such as 2^k, costs O(log n) divisions.
    """
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            out.append((f, e))
        f += 1
    if n > 1:
        out.append((n, 1))
    return out


def prime_divisors(n: int) -> list[int]:
    return [p for p, _ in factorization(n)]


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
    phi = n
    for p in prime_divisors(n):
        phi = phi // p * (p - 1)
    k = phi
    for q in prime_divisors(phi):
        while k % q == 0 and pow(a, k // q, n) == 1:
            k //= q
    return k


@dataclass(frozen=True)
class UnitSubgroup:
    """A subgroup of (Z/n)^* as a sorted residue tuple.

    For n = 1 the trivial group is represented by the single residue 0.
    """

    modulus: int
    residues: tuple[int, ...]

    def __contains__(self, r: int) -> bool:
        return r % self.modulus in self.residues if self.modulus > 1 else True

    def __len__(self) -> int:
        return len(self.residues)

    def is_subgroup(self) -> bool:
        """Closure / identity / inverse check, used by the test suite."""
        n = self.modulus
        if n == 1:
            return self.residues == (0,)
        rs = set(self.residues)
        if 1 not in rs:
            return False
        return all(a * b % n in rs for a in rs for b in rs)


def full_unit_group(n: int) -> UnitSubgroup:
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    if n == 1:
        return UnitSubgroup(1, (0,))
    return UnitSubgroup(n, tuple(r for r in range(1, n) if math.gcd(r, n) == 1))


def generated_subgroup(n: int, gens: list[int] | tuple[int, ...]) -> UnitSubgroup:
    """Closure of the given residues under multiplication mod n."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    if n == 1:
        return UnitSubgroup(1, (0,))
    for g in gens:
        if math.gcd(g, n) != 1:
            raise ValueError(f"generator {g} is not a unit modulo {n}")
    have = {1}
    frontier = [1]
    gens_mod = [g % n for g in gens]
    while frontier:
        x = frontier.pop()
        for g in gens_mod:
            y = x * g % n
            if y not in have:
                have.add(y)
                frontier.append(y)
    return UnitSubgroup(n, tuple(sorted(have)))


def contains_minus_one(s: UnitSubgroup) -> bool:
    if s.modulus == 1:
        return True
    return (s.modulus - 1) in s.residues


def minimal_generators(s: UnitSubgroup) -> tuple[int, ...]:
    """A small generating set of s, found greedily.  Empty for the trivial group."""
    n = s.modulus
    if n <= 2 or len(s.residues) <= 1:
        return ()
    have = {1}
    gens: list[int] = []
    for r in s.residues:
        if r in have:
            continue
        gens.append(r)
        # abelian, so <have, r> = union of cosets have * r^i
        new = set(have)
        x = r
        while x not in have:
            new.update(h * x % n for h in have)
            x = x * r % n
        have = new
    return tuple(gens)


@dataclass(frozen=True)
class FieldDescriptor:
    """One of Q, Q_p, F_p; selects the Galois-image rule in `phi_image`."""

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
            if text.startswith(prefix):
                return cls(kind, int(text[len(prefix):]))
        raise ValueError(f"cannot parse field {text!r} (expected Q, Qp:<p> or Fp:<p>)")


def phi_image(field: FieldDescriptor, n: int) -> UnitSubgroup:
    """Image of Gal(F(zeta_n)/F) -> (Z/n)^*.

    Rational: everything.  F_p (p not dividing n): the Frobenius orbit <p>.
    Q_p: <p> when p does not divide n; the full unit group on the p-power
    part, paired with <p> on the rest, when it does.  Moduli n = 2 mod 4
    are reduced to n/2 and lifted back through the canonical unit-group
    isomorphism.
    """
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    if n == 1:
        return UnitSubgroup(1, (0,))
    if field.kind == "Q":
        return full_unit_group(n)
    p = field.p
    assert p is not None
    if field.kind == "Fp":
        if n % p == 0:
            raise ValueError(f"phi_image over F_{p} needs a modulus prime to {p}")
        return generated_subgroup(n, [p])
    # Q_p.  zeta_n and zeta_{n/2} generate the same field when n = 2 mod 4.
    if n % 4 == 2:
        half = phi_image(field, n // 2)
        if half.modulus == 1:
            return UnitSubgroup(2, (1,))
        m = half.modulus
        lifted = tuple(sorted(r if r % 2 == 1 else r + m for r in half.residues))
        return UnitSubgroup(n, lifted)
    a, n1 = 0, n
    while n1 % p == 0:
        n1 //= p
        a += 1
    if a == 0:
        return generated_subgroup(n, [p])
    if n1 == 1:
        return full_unit_group(n)
    tame = set(generated_subgroup(n1, [p]).residues)
    residues = tuple(
        t for t in range(1, n) if math.gcd(t, n) == 1 and t % n1 in tame
    )
    return UnitSubgroup(n, residues)

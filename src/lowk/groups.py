"""Exact models of finite group families: cyclic, dicyclic, binary polyhedral.

Element ids are canonical hashable values (ints or int tuples) and equality is
structural, so hashing and output ordering are reproducible; x^a y^b in
Dic_4m or Q_{2^k} is the int 2a + b, which sorts as the pair (a, b) does.
Multiplication, inversion and element orders are closed-form wherever the
family allows it, and no group keeps a multiplication table.  A group stores its order as an
integer; its sorted element list is materialised only when something reads
it, such as a class census.  So a closed-form answer for Z_m, Dic_4m or
Q_{2^k} costs nothing proportional to the group order.  `closure` is the one
loop that enumerates a group from generators; the binary polyhedral groups
T*, O* and I* come from it as 2x2 matrices over the fields of 3, 7 and 5
elements.  Those three are built once per process and shared (the
four-strand model's T* is the same object), so each gets one class census
and one order/inverse cache; callers must not mutate them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

ElementId = Any

CYCLIC = "cyclic"
DICYCLIC = "dicyclic"
GENERALIZED_QUATERNION = "generalized_quaternion"
BINARY_TETRAHEDRAL = "binary_tetrahedral"
BINARY_OCTAHEDRAL = "binary_octahedral"
BINARY_ICOSAHEDRAL = "binary_icosahedral"
CUSTOM = "custom"

# the most elements `FiniteGroup.from_closure` generates before giving up
MAX_CLOSURE_SIZE = 100_000


class GroupConstructionError(Exception):
    """A family constructor failed its own closure/order self-checks."""


@dataclass(frozen=True)
class FamilyTag:
    """Construction family of a group; param is m (cyclic/dicyclic) or k (Q_{2^k})."""

    kind: str
    param: int | None = None

    def __str__(self) -> str:
        return self.kind if self.param is None else f"{self.kind}({self.param})"


def binary_power(
    g: ElementId, k: int, mul: Callable[[ElementId, ElementId], ElementId], identity: ElementId
) -> ElementId:
    """g^k for k >= 0 by repeated squaring.

    Starts from g itself, not the identity, and squares only while higher
    bits remain: bit_length(k) + popcount(k) - 2 products for k >= 1.
    """
    if k == 0:
        return identity
    while not k & 1:
        g = mul(g, g)
        k >>= 1
    result = g
    k >>= 1
    while k:
        g = mul(g, g)
        if k & 1:
            result = mul(result, g)
        k >>= 1
    return result


def closure(
    identity: ElementId,
    generators: Iterable[ElementId],
    mul: Callable[[ElementId, ElementId], ElementId],
    limit: int | None = None,
) -> set[ElementId]:
    """The subgroup the generators generate: {identity} closed under x -> mul(x, g).

    In a finite group every product of generators is reached this way.  With
    a limit, the search stops once the set holds more than `limit` elements,
    so a caller tells an overflow by len(result) > limit.
    """
    generators = tuple(generators)
    cap = math.inf if limit is None else limit
    elements = {identity}
    frontier = [identity]
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = mul(x, g)
            if y not in elements:
                elements.add(y)
                if len(elements) > cap:
                    return elements
                frontier.append(y)
    return elements


def embedding(sub: FiniteGroup, group: FiniteGroup, images: Mapping) -> dict:
    """The injective homomorphism sub -> group extending the generator images.

    The pairs (g, image of g) generate a subgroup of sub x group.  It is the
    graph of a homomorphism exactly when no g occurs twice, so the closure
    stops past |sub| pairs, and that map is injective exactly when no image
    occurs twice.  Raises ValueError for images that define no homomorphism,
    do not generate sub, or define one that is not injective.
    """
    graph = closure((sub.identity, group.identity), images.items(),
                    lambda x, g: (sub.mul(x[0], g[0]), group.mul(x[1], g[1])), limit=sub.order)
    mapping = dict(graph)
    if len(mapping) != len(graph):
        raise ValueError(f"the images define no homomorphism {sub.name} -> {group.name}")
    if len(mapping) != sub.order:
        raise ValueError(f"the generator images do not generate {sub.name}")
    if len(set(mapping.values())) != len(mapping):
        raise ValueError(f"the homomorphism {sub.name} -> {group.name} is not injective")
    return mapping


class FiniteGroup:
    """A concrete finite group over opaque element ids.

    Operations are pure.  `generators` must generate the group (conjugacy
    machinery relies on it).  `elements` is an iterable of the element ids;
    it is sorted into the `elements` tuple on first access only, and checked
    then against `order`, which every builder states.
    The element tuple is filled in on first use, so no result depends on
    the order of calls.
    """

    def __init__(
        self,
        name: str,
        family: FamilyTag,
        elements: Iterable[ElementId],
        identity: ElementId,
        generators: Sequence[ElementId],
        mul: Callable[[ElementId, ElementId], ElementId],
        inv: Callable[[ElementId], ElementId],
        order_of: Callable[[ElementId], int],
        order: int,
    ) -> None:
        self.name = name
        self.family = family
        self._element_source = elements
        self._order = order
        self.identity = identity
        self.generators = tuple(generators)
        self.mul = mul
        self.inv = inv
        self.order_of = order_of

    @cached_property
    def elements(self) -> tuple[ElementId, ...]:
        """All element ids, sorted; built on first access."""
        elements = tuple(sorted(self._element_source))
        if len(elements) != self._order:
            raise GroupConstructionError(
                f"{self.name}: {len(elements)} elements, expected order {self._order}"
            )
        self._element_source = None
        return elements

    @cached_property
    def _element_set(self) -> frozenset[ElementId]:
        return frozenset(self.elements)

    @property
    def order(self) -> int:
        return self._order

    def power(self, g: ElementId, k: int) -> ElementId:
        if k < 0:
            g, k = self.inv(g), -k
        return binary_power(g, k, self.mul, self.identity)

    def conj(self, a: ElementId, g: ElementId) -> ElementId:
        """a * g * a^-1."""
        return self.mul(self.mul(a, g), self.inv(a))

    def __len__(self) -> int:
        return self._order

    def __iter__(self) -> Iterator[ElementId]:
        return iter(self.elements)

    def __contains__(self, g: ElementId) -> bool:
        try:
            return g in self._element_set
        except TypeError:  # unhashable, so no element id
            return False

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"

    @classmethod
    def from_closure(
        cls,
        name: str,
        generators: Sequence[ElementId],
        mul: Callable[[ElementId, ElementId], ElementId],
        identity: ElementId,
        expect_order: int,
        family: FamilyTag | None = None,
    ) -> "FiniteGroup":
        """Generate a group as the closure of `generators` under `mul`.

        The closure must have `expect_order` elements.  Inversion and element
        orders share one cache, filled by walking the powers of an element:
        the power before the identity is its inverse.
        """
        elements = closure(identity, generators, mul, limit=MAX_CLOSURE_SIZE)
        if len(elements) > MAX_CLOSURE_SIZE:
            raise GroupConstructionError(f"{name}: closure exceeded {MAX_CLOSURE_SIZE} elements")
        if len(elements) != expect_order:
            raise GroupConstructionError(
                f"{name}: closure has {len(elements)} elements, expected {expect_order}"
            )
        order_cache: dict[ElementId, int] = {}
        inv_cache: dict[ElementId, ElementId] = {}

        def order_of(g: ElementId) -> int:
            if g not in order_cache:
                powers = [g]
                while powers[-1] != identity:
                    powers.append(mul(powers[-1], g))
                order_cache[g] = len(powers)
                inv_cache[g] = powers[-2] if len(powers) > 1 else identity
            return order_cache[g]

        def inv(g: ElementId) -> ElementId:
            if g not in inv_cache:
                order_of(g)
            return inv_cache[g]

        return cls(
            name=name,
            family=family or FamilyTag(CUSTOM),
            elements=elements,
            order=expect_order,
            identity=identity,
            generators=generators,
            mul=mul,
            inv=inv,
            order_of=order_of,
        )


def build_cyclic(m: int) -> FiniteGroup:
    """Z_m with elements 0..m-1 under addition."""
    if m < 1:
        raise ValueError(f"cyclic order must be >= 1, got {m}")

    return FiniteGroup(
        name=f"Z_{m}",
        family=FamilyTag(CYCLIC, m),
        elements=range(m),
        order=m,
        identity=0,
        generators=(1 % m,),
        mul=lambda a, b: (a + b) % m,
        inv=lambda a: (-a) % m,
        order_of=lambda a: m // math.gcd(a, m),
    )


def _dicyclic(name: str, m: int, family: FamilyTag) -> FiniteGroup:
    """Dic_{4m} with x^a y^b (0 <= a < 2m, b in {0, 1}) as the int 2a + b.

    The id sorts as the pair (a, b) does.  x^a y^b x^c y^d is x^(a+c) y^d for
    b = 0, x^(a-c) y for d = 0 and x^(a-c+m) otherwise, so a product is one
    sum or difference modulo 4m.
    """
    two_m, four_m = 2 * m, 4 * m

    def mul(g, h):
        if not g & 1:
            return (g + h) % four_m
        if not h & 1:
            return (g - h) % four_m
        return (g - h + two_m) % four_m

    def inv(g):
        return (g + two_m) % four_m if g & 1 else -g % four_m

    def order_of(g):
        return 4 if g & 1 else four_m // math.gcd(g, four_m)

    return FiniteGroup(
        name=name,
        family=family,
        elements=range(four_m),
        order=four_m,
        identity=0,
        generators=(2, 1),
        mul=mul,
        inv=inv,
        order_of=order_of,
    )


def build_dicyclic(m: int) -> FiniteGroup:
    """Dic_{4m} = <x, y | x^m = y^2, yxy^-1 = x^-1>; x^a y^b is 2a + b, sorted like (a, b)."""
    if m < 2:
        raise ValueError(f"dicyclic parameter must be >= 2, got {m}")
    return _dicyclic(f"Dic_{4 * m}", m, FamilyTag(DICYCLIC, m))


def generalized_quaternion(k: int) -> FiniteGroup:
    """Q_{2^k} = Dic_{4 * 2^(k-2)} for k >= 3, with the same ids 2a + b."""
    if k < 3:
        raise ValueError(f"generalized quaternion index must be >= 3, got {k}")
    return _dicyclic(f"Q_{2 ** k}", 2 ** (k - 2), FamilyTag(GENERALIZED_QUATERNION, k))


def dicyclic_parameter(group: FiniteGroup) -> int | None:
    """m such that the group is Dic_{4m}, or None for other families."""
    tag = group.family
    if tag.kind == DICYCLIC:
        return tag.param
    if tag.kind == GENERALIZED_QUATERNION:
        assert tag.param is not None
        return 2 ** (tag.param - 2)
    return None


# 2x2 determinant-1 matrices over the p-element field; matrices are flat tuples (a, b, c, d).

def _matmul_prime(p: int):
    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return ((a * e + b * g) % p, (a * f + b * h) % p,
                (c * e + d * g) % p, (c * f + d * h) % p)
    return mul


# kind -> (p, generators in SL(2, p), order, family).  T* and I* are all of
# SL(2, 3) and SL(2, 5).  O* lies in SL(2, 7): the first generator has trace
# 3, a square root of 2 modulo 7, so order 8; the second has order 4.
_BINARY_POLYHEDRAL = {
    "T*": (3, ((1, 1, 0, 1), (0, 1, 2, 0)), 24, BINARY_TETRAHEDRAL),
    "O*": (7, ((0, 1, 6, 3), (0, 2, 3, 0)), 48, BINARY_OCTAHEDRAL),
    "I*": (5, ((1, 1, 0, 1), (0, 1, 4, 0)), 120, BINARY_ICOSAHEDRAL),
}


@cache
def build_binary_polyhedral(kind: str) -> FiniteGroup:
    """The binary tetrahedral/octahedral/icosahedral group, as T*, O* or I*.

    Each is generated by two determinant-1 2x2 matrices over a prime field:
    T* = SL(2, 3), I* = SL(2, 5), and O* is an order-48 subgroup of SL(2, 7).
    Construction self-checks the order and the uniqueness of the order-2
    element; that check takes every element's order, which fills the cache
    `inv` reads.  Each kind is built once per process and the one object is
    shared (`build_b4`'s T* is it), so callers must not mutate it.
    """
    if kind not in _BINARY_POLYHEDRAL:
        raise ValueError(f"unknown binary polyhedral kind {kind!r} (want T*, O* or I*)")
    p, gens, order, tag = _BINARY_POLYHEDRAL[kind]
    group = FiniteGroup.from_closure(
        name=kind,
        generators=gens,
        mul=_matmul_prime(p),
        identity=(1, 0, 0, 1),
        family=FamilyTag(tag),
        expect_order=order,
    )
    involutions = [g for g in group if g != group.identity and group.order_of(g) == 2]
    if len(involutions) != 1:
        raise GroupConstructionError(
            f"{kind}: expected a unique order-2 element, found {len(involutions)}"
        )
    return group

"""Rule-based enumeration of the finite and virtually cyclic subgroup classes.

The known classification of subgroups of sphere braid groups is encoded as
congruence/divisor predicates. A descriptor is a plain record whose
constructors (`_finite`, `_type_i`, `_type_ii`) fill in its name and order;
`virtually_cyclic_classes` picks the list for a strand count, and lists are
emitted in a fixed sorted order.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .galois import divisors


def _dicyclic_name(m: int) -> str:
    # dicyclic of order 4m; the power-of-two members are the quaternion groups
    if m >= 2 and m & (m - 1) == 0:
        return f"Q{4 * m}"
    return f"Dic_{4 * m}"


# finite kind -> (name, order) of its member with parameter m, in sort order
_FINITE = {
    "cyclic": (lambda m: f"Z_{m}", lambda m: m),
    "dicyclic": (_dicyclic_name, lambda m: 4 * m),
    "tstar": (lambda m: "T*", lambda m: 24),
    "ostar": (lambda m: "O*", lambda m: 48),
    "istar": (lambda m: "I*", lambda m: 120),
}
_RANK = {kind: rank for rank, kind in enumerate((*_FINITE, "type_I", "type_II"))}


@dataclass(frozen=True)
class SubgroupDescriptor:
    """One isomorphism class of subgroups, finite or virtually cyclic; fields in JSON order."""

    kind: str  # cyclic | dicyclic | tstar | ostar | istar | type_I | type_II
    name: str
    m: int | None = None                    # Z_m, or Dic_{4m}
    order: int | None = None                # finite kinds only
    finite_part: str | None = None          # type I: torsion subgroup name
    action_order: int | None = None         # type I: order of the Z-action
    factors: tuple[str, str] | None = None  # type II
    core: str | None = None                 # type II
    maximal: bool | None = None
    notes: tuple[str, ...] = ()

    def sort_key(self):
        return (
            _RANK[self.kind],
            self.m or 0,
            self.finite_part or "",
            self.action_order or 0,
            self.factors or (),
            self.core or "",
        )

    def to_json(self) -> dict:
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and value != ():
                out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


def _finite(kind: str, m: int | None = None, **kw) -> SubgroupDescriptor:
    name, order = _FINITE[kind]
    return SubgroupDescriptor(kind, name(m), m, order(m), **kw)


def _type_i(finite_part: str, action_order: int, **kw) -> SubgroupDescriptor:
    if finite_part == "Z_1":
        name = "Z"
    elif action_order == 1:
        name = f"{finite_part} x Z"
    else:
        name = f"{finite_part} x|_{action_order} Z"
    return SubgroupDescriptor("type_I", name, finite_part=finite_part,
                              action_order=action_order, **kw)


def _type_ii(f1: str, f2: str, core: str, **kw) -> SubgroupDescriptor:
    return SubgroupDescriptor("type_II", f"{f1} *_{{{core}}} {f2}",
                              factors=(f1, f2), core=core, **kw)


def maximal_finite_subgroups(n: int) -> list[SubgroupDescriptor]:
    """Maximal finite subgroup classes of the n-strand sphere braid group.

    For n <= 3 the group itself is finite (trivial, Z_2, Dic_12); n = 3
    takes the general rules, which give Dic_12 alone.
    """
    if n < 1:
        raise ValueError(f"strand count must be >= 1, got {n}")
    if n == 1:
        return [_finite("cyclic", 1, maximal=True)]
    if n == 2:
        return [_finite("cyclic", 2, maximal=True)]
    notes = ("single conjugacy class",) if n == 4 else ()
    out: list[SubgroupDescriptor] = []
    if n >= 5:
        out.append(_finite("cyclic", 2 * (n - 1), maximal=True))
    out.append(_finite("dicyclic", n, maximal=True, notes=notes))
    if n == 5 or n >= 7:
        out.append(_finite("dicyclic", n - 2, maximal=True))
    if n % 6 == 4:
        out.append(_finite("tstar", maximal=True, notes=notes))
    if n % 6 in (0, 2):
        out.append(_finite("ostar", maximal=True))
    if n % 30 in (0, 2, 12, 20):
        out.append(_finite("istar", maximal=True))
    return sorted(out, key=SubgroupDescriptor.sort_key)


def virtually_cyclic_classes_odd(n: int) -> list[SubgroupDescriptor]:
    """Isomorphism classes of virtually cyclic subgroups for odd n >= 3."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"classification requires odd n >= 3, got {n}")
    found: set[SubgroupDescriptor] = set()

    for m in divisors(n) + divisors(n - 2):
        if m >= 3:
            found.add(_finite("dicyclic", m))
    for q in (2 * n, 2 * (n - 1), 2 * (n - 2)):
        for m in divisors(q):
            found.add(_finite("cyclic", m))

    if n >= 5:
        for i in (0, 2):
            target = 2 * (n - i)
            for m in divisors(target):
                if m == target or m == n - i:
                    continue
                found.add(_type_i(f"Z_{m}", 1))
                if m >= 3:
                    found.add(_type_i(f"Z_{m}", 2))
        for m in divisors(2 * (n - 1)):
            if m != 2 * (n - 1):
                found.add(_type_i(f"Z_{m}", 1))
        for q in divisors((n - 1) // 2):
            found.add(_type_ii(f"Z_{4 * q}", f"Z_{4 * q}", f"Z_{2 * q}"))
        for i in (0, 2):
            for q in divisors(n - i):
                if 2 <= q < n - i:
                    found.add(_type_ii(_dicyclic_name(q), _dicyclic_name(q), f"Z_{2 * q}"))
                    if q >= 3:
                        found.add(_type_i(_dicyclic_name(q), 1))

    return sorted(found, key=SubgroupDescriptor.sort_key)



def virtually_cyclic_classes(n: int) -> list[SubgroupDescriptor]:
    """The virtually cyclic classes lowk lists for n strands: odd n >= 3, or n = 4."""
    if n == 4:
        return vc_classes_b4()
    if n >= 3 and n % 2 == 1:
        return virtually_cyclic_classes_odd(n)
    raise ValueError("virtually cyclic classification is available for odd n >= 3 and n = 4")


_INFINITELY_MANY = "infinitely many conjugacy classes of maximal representatives"
_BOTH_KINDS = "maximal and non-maximal realisations both occur"


def vc_classes_b4() -> list[SubgroupDescriptor]:
    """Isomorphism classes of infinite virtually cyclic subgroups for n = 4."""
    type_i = [
        _type_i("Z_1", 1),
        _type_i("Z_2", 1),
        _type_i("Z_4", 1),
        _type_i("Z_4", 2),
        _type_i("Q8", 1),
        _type_i("Q8", 2),
        _type_i("Q8", 3),
    ]
    type_ii = [
        _type_ii("Z_4", "Z_4", "Z_2"),
        _type_ii("Z_8", "Z_8", "Z_4"),
        _type_ii("Z_8", "Q8", "Z_4"),
        _type_ii("Q8", "Q8", "Z_4"),
        _type_ii("Q16", "Q16", "Q8", notes=("two abstract isomorphism classes",)),
    ]
    return sorted(type_i + type_ii, key=SubgroupDescriptor.sort_key)


def maximal_vc_classes_b4() -> list[SubgroupDescriptor]:
    """Maximal virtually cyclic classes for n = 4, with realisation flags."""
    out = [
        _finite("tstar", maximal=True, notes=("the only finite maximal class",)),
        _finite("dicyclic", 4, maximal=False,
                notes=("not maximal: it is a factor of Q16 *_{Q8} Q16",)),
    ]
    for j in (1, 2, 3):
        out.append(_type_i("Q8", j, maximal=True,
                           notes=(_BOTH_KINDS, _INFINITELY_MANY)))
    out.append(_type_ii(
        "Q16", "Q16", "Q8", maximal=True,
        notes=("two abstract isomorphism classes", _BOTH_KINDS, _INFINITELY_MANY),
    ))
    return sorted(out, key=SubgroupDescriptor.sort_key)

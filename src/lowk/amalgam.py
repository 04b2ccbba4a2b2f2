"""Normal-form arithmetic in an amalgamated free product G1 *_F G2.

Elements are stored as t_1 t_2 ... t_k f: alternating nontrivial left-coset
representatives from the two factors, followed by a core element of F.  Once
an AmalgamSpec fixes the transversals, this form is unique, which makes
equality a tuple comparison and golden tests possible.

Each spec tabulates, once, at construction, the step the arithmetic repeats:
the step table maps (trailing same-side coset rep or None, core element f,
factor element x) to the split of rep * f * x, so appending a factor element
to a normal form is one lookup and multiplies no factor elements.  A split
holds the letter (side, rep) itself, and the spec makes one such tuple per
coset rep, so every normal form of a spec shares its letters with the table
and appending a letter allocates nothing.

Next to the step table each spec keeps a conjugation table: for every
nontrivial coset rep t and core element f, the core element c with
emb(c) = t emb(f) t^-1.  Building it is the normality check (a conjugate
outside the image means the core is not normal, and the table is None), and
with it `conjugate_subgroup` walks a normal form's letters through lookups
instead of building words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .groups import ElementId, FiniteGroup, binary_power, embedding

Letter = tuple[int, ElementId]  # (side 1|2, transversal representative)
Word = Sequence[tuple[int, ElementId]]  # arbitrary factor elements tagged by side
Split = tuple[Letter | None, ElementId]  # (coset letter or None for F, core element)


class AmalgamError(Exception):
    pass


class AmalgamSpec:
    """Two finite factors glued along embeddings of a common finite core.

    `embed1`/`embed2` are images of core generators (or whole maps), closed by
    `groups.embedding`.  `transversal1`/`transversal2` are left-coset
    representatives (t F), with the identity representing F itself.  Compared
    by identity; specs are immutable after validation.
    """

    def __init__(
        self,
        name: str,
        g1: FiniteGroup,
        g2: FiniteGroup,
        core: FiniteGroup,
        embed1: Mapping[ElementId, ElementId],
        embed2: Mapping[ElementId, ElementId],
        transversal1: Sequence[ElementId],
        transversal2: Sequence[ElementId],
        letter_names: dict[tuple[int, ElementId], str],
        core_names: dict[ElementId, str],
    ) -> None:
        self.name = name
        self.factors = (g1, g2)
        self.core = core
        self.embeddings = (self._embed(1, g1, embed1), self._embed(2, g2, embed2))
        self.transversals = (tuple(transversal1), tuple(transversal2))
        self.letter_names = dict(letter_names)
        self.core_names = dict(core_names)
        self._validate()
        self._unembed = tuple(
            {img: src for src, img in emb.items()} for emb in self.embeddings
        )
        self._split = (self._split_table(0), self._split_table(1))
        self._step = (self._step_table(0), self._step_table(1))
        self._conj = self._conj_table()
        self.core_is_normal = self._conj is not None

    # -- validation ---------------------------------------------------------

    def _embed(self, side: int, g: FiniteGroup, images: Mapping) -> dict:
        try:
            return embedding(self.core, g, images)
        except ValueError as exc:
            raise AmalgamError(f"{self.name}: embedding {side}: {exc}") from None

    def _validate(self) -> None:
        """Transversal shapes; with index-many reps, `_split_table` catches a repeated coset."""
        for side in (0, 1):
            g = self.factors[side]
            trans = self.transversals[side]
            index = g.order // self.core.order
            if len(trans) != index or g.identity not in trans or any(t not in g for t in trans):
                raise AmalgamError(
                    f"{self.name}: transversal {side + 1} must hold {index} coset reps "
                    f"from factor {side + 1}, the identity among them"
                )

    def _split_table(self, side: int) -> dict[ElementId, Split]:
        """g -> (letter, f) with g = t f: letter = (side + 1, t) for the coset rep t,
        None when g lies in F.  Each letter is one tuple per rep, shared by every split.
        """
        g = self.factors[side]
        unembed = self._unembed[side]
        letters = {t: (side + 1, t) for t in self.transversals[side] if t != g.identity}
        table: dict[ElementId, Split] = {}
        for x in g.elements:
            for t in self.transversals[side]:
                rest = g.mul(g.inv(t), x)
                if rest in unembed:
                    table[x] = (letters.get(t), unembed[rest])
                    break
            else:
                raise AmalgamError(f"{self.name}: transversal {side + 1} misses {x!r}")
        return table

    def _step_table(self, side: int) -> dict[tuple[ElementId, ElementId], dict[ElementId, Split]]:
        """(last, f) -> {x: split of last * f * x}; last is a coset rep, None for 1.

        The entries are the split table's own tuples, so the table holds one
        letter tuple per coset rep and `_append` appends that tuple as it is.
        """
        g = self.factors[side]
        emb = self.embeddings[side]
        split = self._split[side]
        table = {}
        for rep in self.transversals[side]:
            last = None if rep == g.identity else rep
            for f in self.core.elements:
                prefix = g.mul(rep, emb[f])
                table[last, f] = {x: split[g.mul(prefix, x)] for x in g.elements}
        return table

    def _conj_table(self) -> tuple[dict[ElementId, dict[ElementId, ElementId]], ...] | None:
        """Per side, t -> {f: c} with emb(c) = t emb(f) t^-1 for each nontrivial rep t.

        None when some conjugate leaves the image of the core.  Every g = t f'
        gives g F g^-1 = t F t^-1, so the reps alone decide normality.
        """
        tables = []
        for side in (0, 1):
            g, emb, unembed = self.factors[side], self.embeddings[side], self._unembed[side]
            table = {
                t: {f: unembed.get(g.conj(t, emb[f])) for f in self.core.elements}
                for t in self.transversals[side] if t != g.identity
            }
            if any(None in row.values() for row in table.values()):
                return None
            tables.append(table)
        return tuple(tables)

    # -- helpers used by the arithmetic --------------------------------------

    def identity(self) -> "AmalgamElement":
        return AmalgamElement(self, (), self.core.identity)

    def from_factor(self, side: int, x: ElementId) -> "AmalgamElement":
        return reduce_word(self, [(side, x)])

    def from_core(self, f: ElementId) -> "AmalgamElement":
        if f not in self.core:
            raise AmalgamError(f"{f!r} is not a core element")
        return AmalgamElement(self, (), f)

    def format_element(self, el: "AmalgamElement") -> str:
        def core_str(f: ElementId) -> str:
            return self.core_names.get(f, repr(f))

        if not el.letters:
            return core_str(el.core)
        parts = [
            self.letter_names.get((side, t), f"{side}:{t!r}") for side, t in el.letters
        ]
        if el.core != self.core.identity:
            parts.append(core_str(el.core))
        return "*".join(parts)


@dataclass(frozen=True)
class AmalgamElement:
    """Unique normal form: alternating coset letters, then a core element.

    Compared and hashed as (spec, letters, core); specs compare by identity,
    so equal normal forms of two specs are different elements.
    """

    spec: AmalgamSpec
    letters: tuple[Letter, ...]
    core: ElementId

    @property
    def syllable_length(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters and self.core == self.spec.core.identity

    def __repr__(self) -> str:
        return f"<{self.spec.format_element(self)}>"


def _append(
    spec: AmalgamSpec, letters: list[Letter], core: ElementId, side: int, x: ElementId
) -> ElementId:
    """Multiply the normal form (letters, core) by the factor element x on the right.

    Mutates `letters`, returns the new core.
    """
    last = letters.pop()[1] if letters and letters[-1][0] == side else None
    letter, f = spec._step[side - 1][last, core][x]
    if letter is not None:
        letters.append(letter)
    return f


def reduce_word(spec: AmalgamSpec, word: Word) -> AmalgamElement:
    """Normal form of a word of factor elements tagged by side (1 or 2)."""
    letters: list[Letter] = []
    core = spec.core.identity
    for side, x in word:
        if side not in (1, 2):
            raise AmalgamError(f"letter side must be 1 or 2, got {side!r}")
        if x not in spec.factors[side - 1]:
            raise AmalgamError(f"{x!r} is not an element of factor {side}")
        core = _append(spec, letters, core, side, x)
    return AmalgamElement(spec, tuple(letters), core)


def multiply(a: AmalgamElement, b: AmalgamElement) -> AmalgamElement:
    if a.spec is not b.spec:
        raise AmalgamError("cannot multiply elements of different amalgams")
    spec = a.spec
    letters = list(a.letters)
    core = a.core
    for side, t in b.letters:
        core = _append(spec, letters, core, side, t)
    core = spec.core.mul(core, b.core)
    return AmalgamElement(spec, tuple(letters), core)


def invert(a: AmalgamElement) -> AmalgamElement:
    spec = a.spec
    letters: list[Letter] = []
    core = spec.core.inv(a.core)
    for side, t in reversed(a.letters):
        g = spec.factors[side - 1]
        core = _append(spec, letters, core, side, g.inv(t))
    return AmalgamElement(spec, tuple(letters), core)


def power(a: AmalgamElement, k: int) -> AmalgamElement:
    if k < 0:
        a, k = invert(a), -k
    return binary_power(a, k, multiply, a.spec.identity())


def has_finite_order(a: AmalgamElement) -> bool:
    """True iff the cyclic reduction of `a` has at most one syllable."""
    b = a
    while b.syllable_length >= 2 and b.letters[0][0] == b.letters[-1][0]:
        side, t = b.letters[0]
        first = b.spec.from_factor(side, t)
        shorter = multiply(multiply(invert(first), b), first)
        if shorter.syllable_length >= b.syllable_length:
            raise AmalgamError(
                f"cyclic reduction of {b!r} did not shorten it: {shorter!r}"
            )
        b = shorter
    return b.syllable_length <= 1


def conjugate_subgroup(
    a: AmalgamElement, subset: Iterable[ElementId]
) -> frozenset[ElementId]:
    """a S a^-1 for a subset S of the core; requires the core to be normal.

    For a = t_1 ... t_k f0 each s goes to f0 s f0^-1 in the core, then through
    the conjugation table of t_k, ..., t_1: no words are built.
    """
    spec = a.spec
    conj = spec._conj
    if conj is None:
        raise AmalgamError(f"{spec.name}: core is not normal in both factors")
    core = spec.core
    rows = [conj[side - 1][t] for side, t in reversed(a.letters)]
    out = set()
    for s in subset:
        if s not in core:
            raise AmalgamError(f"{s!r} is not a core element")
        c = core.conj(a.core, s)
        for row in rows:
            c = row[c]
        out.add(c)
    return frozenset(out)

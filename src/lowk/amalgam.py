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
with it `conjugates` walks a normal form's letters through lookups instead
of building words.

Three more tables, filled from the groups' own `mul` and `inv`, hold the
rest of what the arithmetic needs: the core's multiplication table
(f -> {g: f g}, 64 entries for Q8), the inverse of each core element, and
per side the inverse of each factor element.  So `multiply`, `invert` and
`conjugates` call no group operation: each letter is one step-table lookup
in the kernel's own loop, and each core product or inverse one dict lookup.

Every element the arithmetic builds comes from one private factory,
`_element`, not from the dataclass `__init__`.  `AmalgamElement` is a frozen
dataclass, so its generated `__init__` goes through `object.__setattr__`
once per field, and that was about 40 % of a `multiply`.  The factory
writes the three slots through their descriptors instead.  It checks
nothing: the arithmetic hands it normal forms it has just reduced.  The
element stays frozen, and assignment still raises `FrozenInstanceError`.
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

    Construction builds the tables the arithmetic reads, each indexed by
    side 0 or 1 where it has one:
    - `_split[side]`: factor element g -> (letter or None, f) with g = t f;
    - `_step[side]`: (last coset rep or None, core f) -> {x: split of last f x};
    - `_conj[side]`: rep t -> {f: c} with emb(c) = t emb(f) t^-1, or None
      for the whole table when the core is not normal;
    - `_core_mul`: core f -> {g: f g};
    - `_core_inv`: core f -> f^-1;
    - `_inv[side]`: factor element x -> x^-1.
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
        elements = core.elements
        self._core_mul = {f: {g: core.mul(f, g) for g in elements} for f in elements}
        self._core_inv = {f: core.inv(f) for f in elements}
        self._inv = tuple({x: g.inv(x) for x in g.elements} for g in self.factors)

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
        return _element(self, (), self.core.identity)

    def from_factor(self, side: int, x: ElementId) -> "AmalgamElement":
        return reduce_word(self, [(side, x)])

    def from_core(self, f: ElementId) -> "AmalgamElement":
        if f not in self.core:
            raise AmalgamError(f"{f!r} is not a core element")
        return _element(self, (), f)

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


@dataclass(frozen=True, slots=True)
class AmalgamElement:
    """Unique normal form: alternating coset letters, then a core element.

    Compared and hashed as (spec, letters, core); specs compare by identity,
    so equal normal forms of two specs are different elements.  Frozen, with
    slots and no `__dict__`.  The arithmetic builds elements through
    `_element`, which sets the slots without the generated `__init__`; calling
    `AmalgamElement(spec, letters, core)` gives an equal element.
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


_new = object.__new__
_set_spec, _set_letters, _set_core = (
    AmalgamElement.__dict__[name].__set__ for name in ("spec", "letters", "core")
)


def _element(spec: AmalgamSpec, letters: tuple[Letter, ...], core: ElementId) -> AmalgamElement:
    """The element (spec, letters, core), its slots set through their descriptors.

    A slot descriptor's `__set__` does not go through the frozen
    `__setattr__`, so this skips `__init__` and leaves the element frozen.
    """
    el = _new(AmalgamElement)
    _set_spec(el, spec)
    _set_letters(el, letters)
    _set_core(el, core)
    return el


def reduce_word(spec: AmalgamSpec, word: Word) -> AmalgamElement:
    """Normal form of a word of factor elements tagged by side (1 or 2).

    Each factor element costs one step-table lookup.  One on the side of
    the last letter merges with it, so that letter is popped and handed to
    the step.  Raises AmalgamError, naming the letter, for a side other
    than 1 or 2 or a value that is no element of its factor.
    """
    word = tuple(word)  # read twice: validated whole, then reduced
    for side, x in word:
        if side not in (1, 2):
            raise AmalgamError(f"letter side must be 1 or 2, got {side!r}")
        if x not in spec.factors[side - 1]:
            raise AmalgamError(f"{x!r} is not an element of factor {side}")
    step = spec._step
    letters: list[Letter] = []
    core = spec.core.identity
    for side, x in word:
        last = letters.pop()[1] if letters and letters[-1][0] == side else None
        letter, core = step[side - 1][last, core][x]
        if letter is not None:
            letters.append(letter)
    return _element(spec, tuple(letters), core)


def multiply(a: AmalgamElement, b: AmalgamElement) -> AmalgamElement:
    """a b: b's letters run through the step table after a's normal form, then
    b's core multiplies on the right, by a lookup in the core's table.

    Only at the junction can a letter merge: while b's letters cancel into
    the core, each next one lies on the side of a's last remaining letter.
    Once one yields a letter, the rest alternate sides after it and none
    lies in the core, so each yields one letter with no merge or test.
    """
    if a.spec is not b.spec:
        raise AmalgamError("cannot multiply elements of different amalgams")
    spec = a.spec
    step = spec._step
    letters = list(a.letters)
    core = a.core
    rest = iter(b.letters)
    for side, t in rest:
        last = letters.pop()[1] if letters and letters[-1][0] == side else None
        letter, core = step[side - 1][last, core][t]
        if letter is not None:
            letters.append(letter)
            break
    for side, t in rest:
        letter, core = step[side - 1][None, core][t]
        letters.append(letter)
    return _element(spec, tuple(letters), spec._core_mul[core][b.core])


def invert(a: AmalgamElement) -> AmalgamElement:
    """(t_1 ... t_k f)^-1 = f^-1 t_k^-1 ... t_1^-1, every inverse looked up.

    Consecutive letters of a normal form lie in different factors and none
    lies in the core, so no t_i^-1 merges with the letter before it or
    leaves a coset of the core: each step starts from no trailing letter and
    yields one letter, and the loop needs neither a pop nor a test.
    """
    spec = a.spec
    step, inv = spec._step, spec._inv
    letters: list[Letter] = []
    core = spec._core_inv[a.core]
    for side, t in reversed(a.letters):
        letter, core = step[side - 1][None, core][inv[side - 1][t]]
        letters.append(letter)
    return _element(spec, tuple(letters), core)


def power(a: AmalgamElement, k: int) -> AmalgamElement:
    if k < 0:
        a, k = invert(a), -k
    return binary_power(a, k, multiply, a.spec.identity())


def has_finite_order(a: AmalgamElement) -> bool:
    """True iff the cyclic reduction of `a` has at most one syllable."""
    b = a
    while b.syllable_length >= 2 and b.letters[0][0] == b.letters[-1][0]:
        # a coset rep's normal form is its letter and the core identity
        first = _element(b.spec, b.letters[:1], b.spec.core.identity)
        shorter = multiply(multiply(invert(first), b), first)
        if shorter.syllable_length >= b.syllable_length:
            raise AmalgamError(
                f"cyclic reduction of {b!r} did not shorten it: {shorter!r}"
            )
        b = shorter
    return b.syllable_length <= 1


def conjugates(a: AmalgamElement, elements: Iterable[ElementId]) -> list[ElementId]:
    """[a s a^-1 for s in elements], in order, for core elements s; requires
    the core to be normal.

    For a = t_1 ... t_k f0 each s goes to f0 s f0^-1, two lookups in the
    core's multiplication table, then through the conjugation table of
    t_k, ..., t_1: no words are built and no group operation is called.  The
    rows, f0's row of products and f0^-1 are looked up once for all of
    `elements`.
    """
    spec = a.spec
    conj = spec._conj
    if conj is None:
        raise AmalgamError(f"{spec.name}: core is not normal in both factors")
    rows = [conj[side - 1][t] for side, t in reversed(a.letters)]
    core_mul = spec._core_mul
    left, f0_inv = core_mul[a.core], spec._core_inv[a.core]
    out = []
    for s in elements:
        if s not in left:
            raise AmalgamError(f"{s!r} is not a core element")
        c = core_mul[left[s]][f0_inv]
        for row in rows:
            c = row[c]
        out.append(c)
    return out


def conjugate_subgroup(
    a: AmalgamElement, subset: Iterable[ElementId]
) -> frozenset[ElementId]:
    """a S a^-1 for a subset S of the core, as the set of `conjugates(a, S)`;
    requires the core to be normal."""
    return frozenset(conjugates(a, subset))

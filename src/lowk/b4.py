"""The four-strand sphere braid group as an amalgam Q16 *_{Q8} T*.

Builds the amalgam with the braid generators named inside it, then verifies
the braid presentation, the conjugation tables, the quotient maps rho (to
Z3 * Z2), psi (permutation of the three order-4 core subgroups) and pi (the
abelianisation onto Z/6), the two Q16 *_{Q8} Q16 amalgams, and the
Reidemeister-Schreier bases of the two finite-index kernels.  The factors
come from `lowk.groups`.  Every check is a row of its suite's table whose
check is an equation (the statement itself, or one standing for a prose
statement), parsed as words over the named elements and compared by normal
form, or, where no equation states the claim (every core element, a seeded
sample, an infinite order, a count), a function of the model returning
(holds, witness).  `check_row` alone turns a row into a result, and every
claim is reported as pass/fail, never assumed.
"""

from __future__ import annotations

import random
import re
from dataclasses import asdict, dataclass
from functools import cache, reduce
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .amalgam import (
    AmalgamElement,
    AmalgamError,
    AmalgamSpec,
    conjugate_subgroup,
    has_finite_order,
    invert,
    multiply,
    power,
)
from .groups import (
    FiniteGroup,
    build_binary_polyhedral,
    build_cyclic,
    closure,
    generalized_quaternion,
)

# -- the factors, from lowk.groups -------------------------------------------

# Q8 = generalized_quaternion(3) = Dic_8 with ids 2a + b for x^a y^b; the
# unit quaternions i and j are x = 2 and y = 1.
QUATERNION_NAMES = {
    0: "1", 4: "-1",
    2: "i", 6: "-i",
    1: "j", 5: "-j",
    3: "k", 7: "-k",
}
I_UNIT, J_UNIT, K_UNIT, MINUS_ONE = 2, 1, 3, 4
H_GENERATORS = (J_UNIT, I_UNIT, K_UNIT)  # H1 = <j>, H2 = <i>, H3 = <k>
Q8_IN_Q16 = MappingProxyType({I_UNIT: 4, J_UNIT: 1})  # i -> x^2, j -> y in Q16

# T* = SL(2, 3) with flat matrices (a, b, c, d).  i and j go to matrices
# squaring to -1 and anticommuting; r = -(1+i+j+k)/2 (order 3, conjugation
# cycles i -> j -> k) goes to 1 + i + j + k, since 1/2 = -1 modulo 3.
TSTAR_I, TSTAR_J = (0, 1, 2, 0), (1, 1, 1, 2)
R_REP = (0, 1, 2, 2)
R2_REP = (2, 2, 1, 0)  # r^2 = (-1+i+j+k)/2


def build_b4_spec() -> AmalgamSpec:
    """Q16 *_{Q8} T* with the transversals {1, u} and {1, r, r^2}."""
    core = generalized_quaternion(3)
    q16 = generalized_quaternion(4)
    tstar = build_binary_polyhedral("T*")
    return AmalgamSpec(
        name="B4(S2)",
        g1=q16,
        g2=tstar,
        core=core,
        embed1=Q8_IN_Q16,
        embed2={I_UNIT: TSTAR_I, J_UNIT: TSTAR_J},
        transversal1=(0, 2),
        transversal2=(tstar.identity, R_REP, R2_REP),
        letter_names={(1, 2): "u", (2, R_REP): "r", (2, R2_REP): "r2"},
        core_names=QUATERNION_NAMES,
    )


# -- words over named elements ------------------------------------------------

_WORD_TOKEN = re.compile(r"-?\d+|\w+|\S")


def evaluate_word(
    text: str, spec: AmalgamSpec, named: Mapping[str, AmalgamElement]
) -> AmalgamElement:
    """Value of a word such as "(sigma1 sigma2)^3 alpha0^-2" over named elements.

    A word is a product of factors; a factor is a name, 1 or a parenthesised
    word, optionally raised to an integer power ^k (k may be negative).
    Unknown names and unbalanced parentheses raise ValueError.
    """
    tokens = _WORD_TOKEN.findall(text)
    pos = 0

    def product() -> AmalgamElement:
        nonlocal pos
        value = None
        while pos < len(tokens) and tokens[pos] != ")":
            tok = tokens[pos]
            pos += 1
            if tok == "(":
                factor = product()
                if pos == len(tokens):
                    raise ValueError(f"unbalanced '(' in {text!r}")
                pos += 1
            elif tok == "1":
                factor = spec.identity()
            elif tok in named:
                factor = named[tok]
            else:
                raise ValueError(f"unknown name {tok!r} in {text!r}")
            if pos < len(tokens) and tokens[pos] == "^":
                if pos + 1 == len(tokens) or not tokens[pos + 1].lstrip("-").isdigit():
                    raise ValueError(f"'^' needs an integer exponent in {text!r}")
                factor = power(factor, int(tokens[pos + 1]))
                pos += 2
            value = factor if value is None else multiply(value, factor)
        if value is None:
            raise ValueError(f"empty word in {text!r}")
        return value

    value = product()
    if pos != len(tokens):
        raise ValueError(f"unbalanced ')' in {text!r}")
    return value


# -- the model -----------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class B4Model:
    """An amalgam with named elements; for B4 also its order-4 core subgroups."""

    spec: AmalgamSpec
    named: Mapping[str, AmalgamElement]
    h_subgroups: tuple = ()  # H1 = <delta4>, H2 = <alpha0^2>, H3 = <alpha0^2 delta4>

    def __getitem__(self, name: str) -> AmalgamElement:
        return self.named[name]


def _element_order(a: AmalgamElement) -> int | None:
    """The order of `a` if it is at most 64, else None."""
    x = a
    for n in range(1, 65):
        if x.is_identity:
            return n
        x = multiply(x, a)
    return None


# each braid element is a word in the elements named before it
_DEFINITIONS = (
    ("sigma3", "alpha0^-1 alpha1"),
    ("sigma2", "alpha0^-1 sigma3 alpha0"),
    ("sigma1", "alpha0^-1 sigma2 alpha0"),
    ("x", "alpha0^2 delta4 sigma1^2"),
    ("y", "delta4 sigma2^2"),
    ("z", "sigma2^7 sigma1"),
)
_ORDERS = {"alpha0": 8, "alpha1": 6, "delta4": 4, "ft": 2}
# the ACTION_ROWS rows `build_b4` runs on the model it builds
_SELF_CHECKS = (
    "actions.halftwist_inverts_alpha0",
    "actions.alpha0_fourth_fulltwist",
    "actions.s1s3inv",
)


@cache
def build_b4() -> B4Model:
    """Construct the model and run the order/relation self-checks, once per process.

    The model is shared, so its `named` is a read-only view.
    """
    spec = build_b4_spec()
    ft = spec.from_core(MINUS_ONE)
    named = {
        "alpha0": invert(spec.from_factor(1, 2)),
        "alpha1": multiply(ft, invert(spec.from_factor(2, R_REP))),
        "delta4": spec.from_core(J_UNIT),
        "ft": ft,
    }
    for name, word in _DEFINITIONS:
        named[name] = evaluate_word(word, spec, named)
    for name, n in _ORDERS.items():
        if _element_order(named[name]) != n:
            raise AmalgamError(f"{name} does not have order {n}")
    model = B4Model(
        spec=spec,
        named=MappingProxyType(named),
        h_subgroups=tuple(
            frozenset(spec.core.power(q, n) for n in range(4))
            for q in H_GENERATORS
        ),
    )
    rows = {row[0]: row for row in ACTION_ROWS}
    for check_id in _SELF_CHECKS:
        if not check_row(rows[check_id], model).ok:
            raise AmalgamError(f"self-check failed: {rows[check_id][-1]}")
    return model


# -- the quotient Z3 * Z2 -----------------------------------------------------

_A_INV = {"a": "a2", "a2": "a", "b": "b"}


@dataclass(frozen=True)
class FreeProductWord:
    """Reduced word in Z3 * Z2 = <a, b | a^3 = b^2 = 1> over tokens a, a2, b."""

    letters: tuple[str, ...] = ()

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "FreeProductWord":
        stack: list[str] = []
        for tok in tokens:
            if tok not in ("a", "a2", "b"):
                raise ValueError(f"bad token {tok!r}")
            if stack and (stack[-1] == "b") == (tok == "b"):
                if tok == "b":
                    stack.pop()
                else:
                    exp = (1 if stack[-1] == "a" else 2) + (1 if tok == "a" else 2)
                    stack.pop()
                    if exp % 3:
                        stack.append("a" if exp % 3 == 1 else "a2")
            else:
                stack.append(tok)
        return cls(tuple(stack))

    def __mul__(self, other: "FreeProductWord") -> "FreeProductWord":
        return FreeProductWord.from_tokens(self.letters + other.letters)

    def inverse(self) -> "FreeProductWord":
        return FreeProductWord.from_tokens(_A_INV[t] for t in reversed(self.letters))

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __str__(self) -> str:
        return "e" if not self.letters else "".join(
            "a^2" if t == "a2" else t for t in self.letters
        )


_RHO_TOKEN = {(1, 2): "b", (2, R2_REP): "a", (2, R_REP): "a2"}
_PI_TILDE = {"a": 4, "a2": 2, "b": 3}


def rho(model: B4Model, g: AmalgamElement) -> FreeProductWord:
    """Quotient by the core Q8: coset letters map u -> b, r^2 -> a, r -> a^2.

    The convention makes a the image of alpha1 and b the image of alpha0.
    The letters of a normal form alternate between the factors, so the
    tokens alternate b with a power of a: the word is already reduced and
    is built as it stands.
    """
    # from a list: a tuple built from a generator raised the b4_amalgam
    # benchmark's peak RSS by 2-3 MB over the same number of passes
    return FreeProductWord(tuple([_RHO_TOKEN[letter] for letter in g.letters]))


def pi_tilde(word: FreeProductWord) -> int:
    """Abelianisation of Z3 * Z2 onto Z/6: a -> 4, b -> 3."""
    return sum(_PI_TILDE[t] for t in word.letters) % 6


def pi(model: B4Model, g: AmalgamElement) -> int:
    """Abelianisation of the braid group onto Z/6 (factors through rho)."""
    return pi_tilde(rho(model, g))


def psi(model: B4Model, g: AmalgamElement) -> tuple[int, int, int]:
    """Permutation of the order-4 core subgroups H1, H2, H3 under conjugation.

    Each Hi = <qi> is cyclic and conjugation by g is an automorphism of the
    normal core, so g Hi g^-1 = <g qi g^-1>.  The Hi pairwise meet only in
    <-1>, so the order-4 element g qi g^-1 lies in exactly one Hj, and that
    Hj is g Hi g^-1: one conjugate per subgroup, not four, each read from the
    spec's conjugation table with no product or inverse.  A conjugate in no
    Hj, or in more than one, raises AmalgamError naming g.
    """
    images = []
    for q in H_GENERATORS:
        (conj,) = conjugate_subgroup(g, (q,))
        holders = [n for n, h in enumerate(model.h_subgroups, 1) if conj in h]
        if len(holders) != 1:
            raise AmalgamError(
                f"psi({g!r}): the conjugate {QUATERNION_NAMES.get(conj, conj)} of "
                f"{QUATERNION_NAMES[q]} lies in {len(holders)} of the H subgroups, not one"
            )
        images.append(holders[0])
    result = tuple(images)
    if sorted(result) != [1, 2, 3]:
        raise AmalgamError(f"conjugation does not permute the H subgroups: {result}")
    return result  # type: ignore[return-value]


_CYCLES = {
    (1, 2, 3): "id", (2, 1, 3): "(1,2)", (1, 3, 2): "(2,3)", (3, 2, 1): "(1,3)",
    (2, 3, 1): "(1,2,3)", (3, 1, 2): "(1,3,2)",
}


def perm_cycles(perm: tuple[int, int, int]) -> str:
    """Cycle notation for a permutation of {1, 2, 3} given by its image tuple.

    Read from the table of all six; any other tuple raises KeyError.
    """
    return _CYCLES[perm]


# -- check harness ------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    check_id: str
    statement: str
    status: str  # "pass" | "fail"
    witness_normal_form: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return asdict(self)  # in field order, the key order b4_verify.json pins


# quotient maps a row may apply to a word, with how their values print
_QUOTIENT_FORMAT = {"psi": perm_cycles, "rho": str, "pi": str}
_QUOTIENT_CALL = re.compile(r"\s*(psi|rho|pi)\((.*)\)\s*")


def check_row(row: tuple, model: B4Model | RSResult) -> CheckResult:
    """Evaluate one check row: (check_id, statement) or (check_id, statement, check).

    The check (the statement itself when none is given) is an equation or,
    where no equation states the claim, a function of the model returning
    (holds, witness).  An equation is "word = word", compared by normal
    form, or "f(word) = value" for f one of the quotient maps psi, rho, pi,
    compared by the printed value.
    """
    check_id, statement, *rest = row
    check = rest[0] if rest else statement
    holds, witness = check(model) if callable(check) else _equation(check_id, check, model)
    return CheckResult(check_id, statement, "pass" if holds else "fail", witness)


def _equation(check_id: str, equation: str, model: B4Model) -> tuple[bool, str]:
    if equation.count("=") != 1:
        raise ValueError(f"{check_id}: expected one '=' in {equation!r}")
    lhs_text, _, rhs_text = equation.partition("=")
    spec, named = model.spec, model.named
    call = _QUOTIENT_CALL.fullmatch(lhs_text)
    if call:
        fn, arg = call.groups()
        # looked up at call time, so wrappers installed on the module are seen
        value = _QUOTIENT_FORMAT[fn](globals()[fn](model, evaluate_word(arg, spec, named)))
        return value == rhs_text.strip(), value
    lhs = evaluate_word(lhs_text, spec, named)
    rhs = evaluate_word(rhs_text, spec, named)
    fmt = spec.format_element
    return (True, fmt(lhs)) if lhs == rhs else (False, f"lhs={fmt(lhs)} rhs={fmt(rhs)}")


BRAID_ROWS = (
    ("braid.commute_13", "sigma1 sigma3 = sigma3 sigma1"),
    ("braid.braid_12", "sigma1 sigma2 sigma1 = sigma2 sigma1 sigma2"),
    ("braid.braid_23", "sigma2 sigma3 sigma2 = sigma3 sigma2 sigma3"),
    ("braid.surface", "sigma1 sigma2 sigma3^2 sigma2 sigma1 = 1"),
    ("braid.fulltwist_121", "(sigma1 sigma2 sigma1)^2 = full twist",
     "(sigma1 sigma2 sigma1)^2 = ft"),
    ("braid.fulltwist_12", "(sigma1 sigma2)^3 = full twist", "(sigma1 sigma2)^3 = ft"),
    ("braid.fulltwist_21", "(sigma2 sigma1)^3 = full twist", "(sigma2 sigma1)^3 = ft"),
    ("braid.fulltwist_13", "(sigma1 sigma3^-1)^2 = full twist", "(sigma1 sigma3^-1)^2 = ft"),
)

# tau: (tau as a word, tau x tau^-1, tau y tau^-1)
_TAU_TABLE = {
    "sigma1": ("sigma1", "x", "y^-1 x^-1"),
    "sigma2": ("sigma2", "ft x^-1 y^-1", "y"),
    "s121": ("(sigma1 sigma2 sigma1)", "ft y", "ft x"),
    "s12": ("(sigma1 sigma2)", "ft y", "y^-1 x^-1"),
    "s21": ("(sigma2 sigma1)", "ft x^-1 y^-1", "ft x"),
}

ACTION_ROWS = (
    ("actions.alpha0_on_sigma1", "alpha0 sigma1 alpha0^-1 = sigma2"),
    ("actions.alpha0_on_sigma2", "alpha0 sigma2 alpha0^-1 = sigma3"),
    ("actions.alpha0sq_on_sigma3", "alpha0^2 sigma3 alpha0^-2 = sigma1"),
    ("actions.halftwist_on_sigma1", "delta4 sigma1 delta4^-1 = sigma3"),
    ("actions.halftwist_on_sigma2", "delta4 sigma2 delta4^-1 = sigma2"),
    ("actions.halftwist_on_sigma3", "delta4 sigma3 delta4^-1 = sigma1"),
    ("actions.halftwist_inverts_alpha0", "delta4 alpha0 delta4^-1 = alpha0^-1"),
    ("actions.alpha0_fourth_fulltwist", "alpha0^4 = full twist", "alpha0^4 = ft"),
    ("actions.s1s3inv", "alpha0^-2 delta4 = sigma1 sigma3^-1"),
    ("actions.sigma1_on_alpha0sq", "sigma1 alpha0^2 sigma1^-1 = delta4^-1"),
    ("actions.sigma1_on_halftwist_inv", "sigma1 delta4^-1 sigma1^-1 = alpha0^-2"),
    ("actions.sigma1_on_halftwist", "sigma1 delta4 sigma1^-1 = alpha0^2"),
    ("actions.sigma1_fixes_a0sq_d4",
     "sigma1 (alpha0^2 delta4) sigma1^-1 = alpha0^2 delta4"),
    ("actions.sigma2_on_alpha0sq", "sigma2 alpha0^2 sigma2^-1 = (alpha0^2 delta4)^-1"),
    ("actions.sigma2_fixes_halftwist", "sigma2 delta4 sigma2^-1 = delta4"),
    ("actions.sigma2_on_a0sq_d4", "sigma2 (alpha0^2 delta4) sigma2^-1 = alpha0^2"),
) + tuple(
    (f"actions.tau_{name}_on_{w}", f"{name} {w} {name}^-1 matches the table",
     f"{tau} {w} {tau}^-1 = {image}")
    for name, (tau, *images) in _TAU_TABLE.items()
    for w, image in zip(("x", "y"), images)
)


def _core(model: B4Model) -> Iterator[AmalgamElement]:
    """The core elements, as elements of the amalgam."""
    return (model.spec.from_core(q) for q in model.spec.core.elements)


def _random_words(pool: list, longest: int, count: int) -> Iterator[list]:
    """`count` seeded random words of 1 to `longest` letters from `pool`."""
    rng = random.Random(0xB4)
    for _ in range(count):
        yield [rng.choice(pool) for _ in range(rng.randint(1, longest))]


def _psi_is_a_homomorphism(model: B4Model) -> tuple[bool, str]:
    pool = [model[n] for n in ("sigma1", "sigma2", "sigma3", "alpha0", "alpha1", "delta4")]
    words = _random_words(pool + [invert(g) for g in pool], 8, 1000)
    identity = model.spec.identity()
    for u, v in zip(words, words):  # consecutive words pair up
        g, h = reduce(multiply, u, identity), reduce(multiply, v, identity)
        pg, ph = psi(model, g), psi(model, h)
        if psi(model, multiply(g, h)) != tuple(pg[i - 1] for i in ph):
            return False, ""
    return True, ""


def _pi_is_the_exponent_sum(model: B4Model) -> tuple[bool, str]:
    sigmas = [model[f"sigma{i}"] for i in (1, 2, 3)]
    pool = [(s, 1) for s in sigmas] + [(invert(s), -1) for s in sigmas]
    identity = model.spec.identity()
    return all(
        pi(model, reduce(multiply, (g for g, _ in w), identity)) == sum(e for _, e in w) % 6
        for w in _random_words(pool, 10, 500)
    ), ""


def _xy_words_distinct(model: B4Model) -> tuple[bool, str]:
    # a word is reduced when no letter follows its inverse (x X, Y y, ...);
    # each level keeps its words' last letters and values
    x, y = model["x"], model["y"]
    gens = {"x": x, "X": invert(x), "y": y, "Y": invert(y)}
    identity = model.spec.identity()
    level, seen, words = [("", identity)], {identity}, 1
    for _ in range(6):
        level = [(nm, multiply(el, g)) for last, el in level
                 for nm, g in gens.items() if nm != last.swapcase()]
        seen.update(el for _, el in level)
        words += len(level)
    return len(seen) == words, f"{len(seen)} words"


def _core_is_normal(model: B4Model) -> tuple[bool, str]:
    # conjugates through `multiply`, so the check also tests the normal forms
    for side, gen in ((1, 2), (2, R_REP)):
        g = model.spec.from_factor(side, gen)
        g_inv = invert(g)
        if any(multiply(multiply(g, q), g_inv).letters for q in _core(model)):
            return False, ""
    return True, ""


KERNEL_ROWS = (
    ("kernel.psi_sigma1", "psi(sigma1) = (1,2)"),
    ("kernel.psi_sigma2", "psi(sigma2) = (2,3)"),
    ("kernel.psi_alpha0", "psi(alpha0) = (1,3)"),
    ("kernel.psi_alpha1", "psi(alpha1) cycles H1 -> H2 -> H3", "psi(alpha1) = (1,2,3)"),
    ("kernel.psi_trivial_on_core", "psi(q) = id for every core element q",
     lambda m: (all(psi(m, q) == (1, 2, 3) for q in _core(m)), "")),
    ("kernel.psi_homomorphism_sample", "psi(gh) = psi(g) psi(h) on 500 random pairs",
     _psi_is_a_homomorphism),
    ("kernel.rho_kills_core", "rho(q) = e for every core element q",
     lambda m: (all(rho(m, q).is_identity for q in _core(m)), "")),
    ("kernel.rho_sigma1", "rho(sigma1) = ba"),
    ("kernel.rho_sigma1_sq", "rho(sigma1^2) = (ba)^2", "rho(sigma1^2) = baba"),
    ("kernel.rho_sigma2_sq", "rho(sigma2^2) = (ab)^2", "rho(sigma2^2) = abab"),
    # these three print no witness, unlike a psi/rho/pi equation
    ("kernel.pi_alpha0", "pi(alpha0) = 3", lambda m: (pi(m, m["alpha0"]) == 3, "")),
    ("kernel.pi_halftwist", "pi(delta4) = 0", lambda m: (pi(m, m["delta4"]) == 0, "")),
    ("kernel.pi_sigma1", "pi(sigma1) = 1", lambda m: (pi(m, m["sigma1"]) == 1, "")),
    ("kernel.pi_x_y_cubed", "pi(x y^3) lies outside {0, 3}", "pi(x y^3) = 2"),
    ("kernel.pi_matches_exponent_sum",
     "pi equals the braid exponent sum mod 6 on 500 random words", _pi_is_the_exponent_sum),
    ("kernel.xy_commute_with_core", "x and y commute with every core element",
     lambda m: (all(multiply(w, q) == multiply(q, w)
                    for w in (m["x"], m["y"]) for q in _core(m)), "")),
    ("kernel.xy_free_words_distinct",
     "reduced words in x, y of length <= 6 have distinct normal forms", _xy_words_distinct),
    ("kernel.core_normal", "conjugates of the core by the factor generators stay in the core",
     _core_is_normal),
    # z = sigma2^7 sigma1: order-3 action on the core, itself of infinite order
    ("kernel.z_psi_three_cycle", "psi(z) is a 3-cycle", "psi(z) = (1,3,2)"),
    ("kernel.z_cycle_1", "z alpha0^2 z^-1 = delta4^-1"),
    ("kernel.z_cycle_2", "z delta4^-1 z^-1 = (alpha0^2 delta4)^-1"),
    ("kernel.z_cycle_3", "z (alpha0^2 delta4)^-1 z^-1 = alpha0^2"),
    ("kernel.z_infinite_order", "z has infinite order",
     lambda m: (not has_finite_order(m["z"]), m.spec.format_element(m["z"]))),
    ("kernel.z_cube_nontrivial", "z^3 is not the identity",
     lambda m: (not power(m["z"], 3).is_identity, m.spec.format_element(power(m["z"], 3)))),
    ("kernel.z_pi", "pi(z) = 2"),
)


# -- the two Q16 *_{Q8} Q16 amalgams ------------------------------------------

@cache
def build_gamma_specs() -> tuple[AmalgamSpec, AmalgamSpec]:
    """The two isomorphism classes of Q16 *_{Q8} Q16, with transversals {1,a} and {1,x}.

    Both factors are the Q16 of the B4 model and the core is its Q8.  Each
    spec closes its own generator images: the first embedding is the
    model's (i -> x^2, j -> y); Gamma1 uses it on both sides, Gamma2 sends
    j -> x^2, k -> y.  Built once per process; specs are immutable.
    """
    b4 = build_b4().spec
    core, q16 = b4.core, b4.factors[0]

    def gamma(name: str, embed2: Mapping) -> AmalgamSpec:
        return AmalgamSpec(
            name=name,
            g1=q16,
            g2=q16,
            core=core,
            embed1=Q8_IN_Q16,
            embed2=embed2,
            transversal1=(0, 2),
            transversal2=(0, 2),
            letter_names={(1, 2): "a", (2, 2): "x"},
            core_names=QUATERNION_NAMES,
        )

    return gamma("Gamma1", Q8_IN_Q16), gamma("Gamma2", {J_UNIT: 4, K_UNIT: 1})


def _gamma_model(i: int) -> B4Model:
    """Gamma1 (i = 0) or Gamma2 (i = 1) with its letters a, x and b = j in the core."""
    spec = build_gamma_specs()[i]
    return B4Model(spec, {"a": spec.from_factor(1, 2), "x": spec.from_factor(2, 2),
                          "b": spec.from_core(J_UNIT)})


def _a2_orbit_size(model: B4Model) -> tuple[bool, str]:
    # the orbit under conjugation by a^-1 x, cut off past 6 elements
    orbit = closure(evaluate_word("a^2", model.spec, model.named),
                    [evaluate_word("a^-1 x", model.spec, model.named)],
                    lambda c, g: multiply(multiply(g, c), invert(g)), limit=6)
    return len(orbit) == 3, f"orbit size {len(orbit)}"


def _ax_has_infinite_order(model: B4Model) -> tuple[bool, str]:
    return not has_finite_order(evaluate_word("a^-1 x", model.spec, model.named)), ""


# in both Q16 *_{Q8} Q16 presentations a^2 = i and b = j in the core
GAMMA1_ROWS = (
    ("gamma.g1_actxa_a2", "a^-1 x fixes a^2", "(a^-1 x) a^2 (a^-1 x)^-1 = a^2"),
    ("gamma.g1_actxa_b", "a^-1 x fixes b", "(a^-1 x) b (a^-1 x)^-1 = b"),
    ("gamma.g1_actxa_a2b", "a^-1 x fixes a^2 b", "(a^-1 x) a^2 b (a^-1 x)^-1 = a^2 b"),
    ("gamma.g1_actxax_a2", "x a^-1 x fixes a^2", "(x a^-1 x) a^2 (x a^-1 x)^-1 = a^2"),
    ("gamma.g1_actxax_b", "x a^-1 x maps b to a^2 b",
     "(x a^-1 x) b (x a^-1 x)^-1 = a^2 b"),
    ("gamma.g1_actxax_a2b", "x a^-1 x maps a^2 b to b^-1",
     "(x a^-1 x) a^2 b (x a^-1 x)^-1 = b^-1"),
    ("gamma.g1_ax_infinite_order", "a^-1 x has infinite order in Gamma1",
     _ax_has_infinite_order),
)
GAMMA2_ROWS = (
    ("gamma.g2_cycle_a2", "a^-1 x maps a^2 to b^-1", "(a^-1 x) a^2 (a^-1 x)^-1 = b^-1"),
    ("gamma.g2_cycle_binv", "a^-1 x maps b^-1 to a^-2 b^-1",
     "(a^-1 x) b^-1 (a^-1 x)^-1 = a^-2 b^-1"),
    ("gamma.g2_cycle_a2inv_binv", "a^-1 x maps a^-2 b^-1 to a^2",
     "(a^-1 x) a^-2 b^-1 (a^-1 x)^-1 = a^2"),
    ("gamma.g2_orbit_size_3", "the a^-1 x conjugation orbit of a^2 has size 3", _a2_orbit_size),
    ("gamma.g2_ax_infinite_order", "a^-1 x has infinite order in Gamma2",
     _ax_has_infinite_order),
)


# -- Reidemeister-Schreier ----------------------------------------------------

@dataclass(frozen=True)
class RSResult:
    index: int
    rank: int
    generators: tuple[FreeProductWord, ...]


def reidemeister_schreier(quotient: FiniteGroup, a_image, b_image) -> RSResult:
    """Schreier generators of the kernel of Z3 * Z2 -> quotient.

    The map must embed both free factors (a_image of order 3, b_image of
    order 2), so the kernel is torsion-free and its rank is certified by the
    Euler characteristic: rank = 1 + index/6, where 6 divides the index by
    Lagrange.  The transversal is found, not given: a breadth-first search
    from e over the tokens a, a2, b keeps the first word that reaches each
    image, so the number of words is the index.

    No two generators are equal, so none needs to be filtered out.  Let T
    be the transversal and call a, a2 and b syllables.
    1. Each word of T is its parent's word plus one token, with nothing
       cancelled: a token that would cancel or merge with a word's last
       syllable leads back to that word's parent, or to a coset the parent
       reached by an a-step, so the search never keeps it.  So T is closed
       under syllable prefixes.
    2. Generator (t, s) is t s u^-1, with u the word of T for the coset of
       t s.  It is trivial exactly when t s reduces to a word of T.
       Otherwise t s reduces to p x with p in T and p x not in T, and
       x = a2 only when t = p a and s = a.
    3. If u is empty, or u = q y (y its last syllable) with exactly one of
       x and y equal to b, nothing merges: m = x and q = u.  x = y, which
       would cancel, cannot be: q would lie in p's coset, so q = p and
       u = p x would be in T.  If x and y are
       different powers of a they merge into one syllable m = x y^-1, and
       p m is not in T: it lies in q's coset, so it would be q, and
       u = p m y would not be reduced.  So the generator reduces to
       p m q^-1 with p, q in T, m one syllable and p m not in T.
    4. Two generators with the same word have the same p: if |p1| < |p2|,
       then p1 m1 is a syllable prefix of p2, so it is in T.  Then m = b
       comes only from (p, b), and m = a or a2 comes from (p, a) or from
       (p a, a), which need p a not in T and p a in T respectively.  So the
       word fixes the pair.
    """
    if quotient.order_of(a_image) != 3 or quotient.order_of(b_image) != 2:
        raise ValueError(
            "kernel is not torsion-free: the images of a and b must have orders 3 and 2"
        )
    steps = [(FreeProductWord((tok,)), g)
             for tok, g in (("a", a_image), ("a2", quotient.mul(a_image, a_image)),
                            ("b", b_image))]
    rep_of = {quotient.identity: FreeProductWord()}
    frontier = [quotient.identity]
    for g in frontier:
        for step, h in steps:
            x = quotient.mul(g, h)
            if x not in rep_of:
                rep_of[x] = rep_of[g] * step
                frontier.append(x)

    generators: list[FreeProductWord] = []
    for g, t in rep_of.items():
        for step, h in (steps[0], steps[2]):  # the generators a and b
            gen = t * step * rep_of[quotient.mul(g, h)].inverse()
            if not gen.is_identity:
                generators.append(gen)
    index = len(rep_of)
    return RSResult(index=index, rank=1 + index // 6, generators=tuple(generators))


def _sym3() -> FiniteGroup:
    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    return FiniteGroup.from_closure(
        name="S3",
        generators=((2, 0, 1), (2, 1, 0)),
        mul=compose,
        identity=(0, 1, 2),
        expect_order=6,
    )


# (check-id prefix, quotient builder, images of a and b, index claim, basis
# claim, basis words); the bases are written for a of order 3 and b of order 2
_RS_KERNELS = (
    ("sym3", _sym3, (2, 0, 1), (2, 1, 0), "the permutation quotient has index 6",
     "the Schreier generators contain (ab)^2 and (ba)^2",
     (("a", "b", "a", "b"), ("b", "a", "b", "a"))),
    ("abelianized", lambda: build_cyclic(6), 4, 3, "the abelianised quotient has index 6",
     "the Schreier generators contain [b,a] and [b,a^2] up to inversion",
     (("b", "a", "b", "a2"), ("b", "a2", "b", "a"))),  # [b, a], [b, a^2]
)


def _rs_part(prefix, quotient, a_image, b_image, index_claim, basis_claim, basis) -> tuple:
    """(builder of the kernel's RSResult, its index, rank and basis rows)."""
    words = [FreeProductWord(w) for w in basis]

    def contains_basis(rs: RSResult) -> tuple[bool, str]:
        found = set(rs.generators)
        return (all(w in found or w.inverse() in found for w in words),
                "; ".join(str(g) for g in rs.generators))

    return (lambda: reidemeister_schreier(quotient(), a_image, b_image), (
        (f"rs.{prefix}_index", index_claim, lambda rs: (rs.index == 6, str(rs.index))),
        (f"rs.{prefix}_rank", "Euler characteristic certifies rank 2",
         lambda rs: (rs.rank == 2, str(rs.rank))),
        (f"rs.{prefix}_basis", basis_claim, contains_basis),
    ))


# -- the suites ---------------------------------------------------------------

# suite -> its parts, each (builder of the model its rows read, the rows); the
# builders call build_b4 through the module global, so a wrapper installed on
# the module sees those calls
_SUITE_TABLE = {
    "braid": ((lambda: build_b4(), BRAID_ROWS),),
    "actions": ((lambda: build_b4(), ACTION_ROWS),),
    "gamma": ((lambda: _gamma_model(0), GAMMA1_ROWS), (lambda: _gamma_model(1), GAMMA2_ROWS)),
    "kernel": ((lambda: build_b4(), KERNEL_ROWS),),
    "rs": tuple(_rs_part(*kernel) for kernel in _RS_KERNELS),
}
SUITES = tuple(_SUITE_TABLE)


def verify_suite(name: str) -> list[CheckResult]:
    if name not in _SUITE_TABLE:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES} or 'all'")
    checks = []
    for build, rows in _SUITE_TABLE[name]:
        model = build()
        checks += [check_row(row, model) for row in rows]
    return checks


def verify_all() -> dict[str, list[CheckResult]]:
    return {name: verify_suite(name) for name in SUITES}

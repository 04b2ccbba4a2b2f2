"""Seeded query decks for the four workloads, each query with its check.

A deck is the fixed list of queries one workload cycles through.  It is a
function of the seed alone: the seed draws parameters inside stated strata
(primes, prime powers, composites of a fixed shape, fixed families), one
draw within 1 % above each grid point of each stratum, so two seeds give
different parameters with the same cost profile.  Expected answers come
from `oracles`, computed while the deck is built, so the timed loop only
calls lowk and compares.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import Callable

import lowk
import lowk.cli

from . import oracles


@dataclass(frozen=True)
class Query:
    """One call into lowk: `call` is timed, `check` returns None or the reason
    the output is wrong, `render` gives the text that goes into the digest."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    render: Callable[[object], str] = repr


# -- queries through the command line ----------------------------------------

def run_cli(argv: tuple[str, ...]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lowk.cli.main(list(argv))
    return code, out.getvalue() + err.getvalue()


def _lookup(doc, path: str):
    for key in path.split("."):
        doc = doc[key]
    return doc


def expect_fields(expected: dict[str, object]) -> Callable[[tuple[int, str]], str | None]:
    """Check exit code 0 and each dotted JSON path against its value."""

    def check(result: tuple[int, str]) -> str | None:
        code, out = result
        if code != 0:
            return f"exit code {code}: {out.strip()[:200]}"
        try:
            doc = json.loads(out)
            for path, want in expected.items():
                got = _lookup(doc, path)
                if got != want:
                    return f"{path} = {got!r}, expected {want!r}"
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc!r}"
        return None

    return check


def expect_text(want: str) -> Callable[[tuple[int, str]], str | None]:
    def check(result: tuple[int, str]) -> str | None:
        code, out = result
        if code != 0:
            return f"exit code {code}"
        return None if out == want else "output differs from the golden file"

    return check


def cli_query(argv: list[str], check: Callable[[tuple[int, str]], str | None]) -> Query:
    args = tuple(argv)
    return Query(
        label="lowk " + " ".join(args),
        call=lambda: run_cli(args),
        check=check,
        render=lambda result: f"{result[0]}\n{result[1]}",
    )


def group_query(family: str, params: list[str], invariants: str,
                expected: dict[str, object], field: str | None = None) -> Query:
    argv = ["group", family, *params, "--invariants", invariants]
    if field is not None:
        argv += ["--field", field]
    return cli_query(argv + ["--format", "json"], expect_fields(expected))


# -- seeded strata ------------------------------------------------------------

def grid(lo: float, hi: float, points: int) -> list[float]:
    """`points` sizes spaced evenly in log scale from lo to hi."""
    return [lo * (hi / lo) ** (i / max(1, points - 1)) for i in range(points)]


def near(rng: random.Random, sizes: list[float], accept: Callable[[int], bool],
         width: float) -> list[int]:
    """For each size x, the first accepted integer from a random start in
    [x, x(1 + width)]: the seed picks the arithmetic, the grid the cost.
    Where that band holds one integer or none, the start is fixed."""
    out = []
    for x in sizes:
        lo = math.ceil(x)
        n = rng.randint(lo, max(lo, math.floor(x * (1 + width))))
        while not accept(n):
            n += 1
        out.append(n)
    return out


def shaped(rng: random.Random, sizes: list[float], cofactors: tuple[int, ...],
           width: float) -> list[int]:
    """Composites c * q near each size, c taken in turn from `cofactors` and
    q a prime not dividing c: the factorisation shape is fixed, so the cost
    follows the size."""
    out = []
    for i, x in enumerate(sizes):
        c = cofactors[i % len(cofactors)]
        out += [c * q for q in near(rng, [x / c],
                                    lambda n: oracles.is_prime(n) and c % n != 0, width)]
    return out


def two_is_primitive_root(p: int) -> bool:
    """Primes where <2> mod p has p - 1 elements, so the cost of the <2>
    residue tuple grows with p rather than with the arithmetic of p - 1."""
    return oracles.is_prime(p) and oracles.mult_order(2, p) == p - 1


def band(tiny: bool) -> float:
    """Width of the draw above each grid point: narrow, so a seed moves a
    query's cost by a few percent; wider on the tiny decks, whose numbers
    are too small for a 1 % band to hold more than one choice."""
    return 0.2 if tiny else 0.01


def interleave(strata: list[list[Query]]) -> list[Query]:
    """Round-robin over the strata, so any prefix of a pass has the mix."""
    deck = []
    for i in range(max(len(s) for s in strata)):
        deck.extend(s[i] for s in strata if i < len(s))
    return deck


# -- census_wh ----------------------------------------------------------------

def _cyclic_wh(m: int) -> Query:
    return group_query("cyclic", ["--m", str(m)], "wh,k0",
                       {"group.order": m, "wh.rank": oracles.wh_cyclic(m)})


def _dicyclic_wh(m: int) -> Query:
    return group_query("dicyclic", ["--m", str(m)], "wh,k0",
                       {"group.order": 4 * m, "wh.rank": oracles.wh_dicyclic(m)})


def _quaternion_wh(k: int) -> Query:
    m = 2 ** (k - 2)
    return group_query("quaternion", ["--k", str(k)], "wh,k0",
                       {"group.order": 4 * m, "wh.rank": oracles.wh_dicyclic(m)})


def census_wh(rng: random.Random, tiny: bool) -> list[Query]:
    """Census-bound Whitehead ranks, group orders 500-1100 (tiny: 40-90)."""
    k = 0.08 if tiny else 1.0
    lo, hi, w = 500 * k, 1100 * k, band(tiny)
    strata = [
        [_cyclic_wh(m) for m in near(rng, grid(lo, hi, 8), oracles.is_prime, w)],
        [_cyclic_wh(m) for m in shaped(rng, grid(lo, hi, 12), (6, 10, 14), w)],
        [_cyclic_wh(m) for m in ((49, 64, 81) if tiny else (625, 729, 961, 1024))],
        [_dicyclic_wh(m) for m in near(rng, grid(lo / 4, hi / 4, 6), oracles.is_prime, w)],
        [_dicyclic_wh(m) for m in shaped(rng, grid(lo / 4, hi / 4, 4), (3,), w)],
        [_quaternion_wh(q) for q in ((5, 6) if tiny else (9, 10))],
    ]
    return interleave(strata)


# -- carter_rf ----------------------------------------------------------------

def _field(slot: int, order: int) -> tuple[str, str, int | None]:
    """Cycle Q, Q_p, F_p by slot; p runs through the prime divisors of the
    group order, so each slot's field is fixed by the shape of the order."""
    kind = ("Q", "Qp", "Fp")[slot % 3]
    if kind == "Q":
        return kind, "Q", None
    primes = sorted(oracles.factor(order))
    p = primes[(slot // 3) % len(primes)]
    return kind, f"{kind}:{p}", p


def _cyclic_carter(slot: int, m: int) -> Query:
    kind, field, p = _field(slot, m)
    if kind == "Q":
        rf = oracles.delta(m)
    elif kind == "Qp":
        rf = oracles.r_qp_cyclic(m, p)
    else:
        rf = oracles.r_fp_cyclic(m, p)
    return group_query("cyclic", ["--m", str(m)], "kminus1,rf", {
        "kminus1.rank": oracles.k_minus_one_rank_cyclic(m),
        "kminus1.torsion": [],
        "r_F.value": rf,
    }, field)


def _dicyclic_carter(slot: int, p: int) -> Query:
    kind, field, _ = _field(slot, 4 * p)
    expected: dict[str, object] = {
        "kminus1.rank": oracles.lambda_value(p),
        "kminus1.torsion": [2] if p % 4 == 1 else [],
    }
    if kind == "Q":
        expected["r_F.value"] = oracles.r_q_dicyclic_odd(p)
    return group_query("dicyclic", ["--m", str(p)], "kminus1,rf", expected, field)


def _polyhedral_carter(slot: int, family: str) -> Query:
    table = oracles.POLYHEDRAL[family]
    order = {"tstar": 24, "ostar": 48, "istar": 120}[family]
    kind, field, _ = _field(slot, order)
    rank, torsion = table["kminus1"]
    expected: dict[str, object] = {"kminus1.rank": rank, "kminus1.torsion": torsion}
    if kind == "Q":
        expected["r_F.value"] = table["r_Q"]
    return group_query(family, [], "kminus1,rf", expected, field)


def carter_rf(rng: random.Random, tiny: bool) -> list[Query]:
    """Carter ranks and r_F over Q, Q_p, F_p on groups with many prime divisors:
    Z_m with m = 30q, 42q or 60q (orders 600-3000), Dic_4p, T*, O*, I*."""
    cyclic = shaped(rng, grid(30, 110, 4) if tiny else grid(600, 3000, 15),
                    (6, 10) if tiny else (30, 42, 60), band(tiny))
    dicyclic = near(rng, grid(7, 60, 3) if tiny else grid(100, 900, 15), oracles.is_prime,
                    band(tiny))
    strata = [
        [_cyclic_carter(i, m) for i, m in enumerate(cyclic)],
        [_dicyclic_carter(i, p) for i, p in enumerate(dicyclic)],
        [_polyhedral_carter(i, fam)
         for i, fam in enumerate(("tstar", "ostar", "istar") * (1 if tiny else 3))],
    ]
    return interleave(strata)


# -- closed_form_big ----------------------------------------------------------

def _dicyclic_closed(p: int) -> Query:
    return group_query("dicyclic", ["--m", str(p)], "wh,k0,kminus1", {
        "wh.rank": oracles.wh_dicyclic(p),
        "kminus1.rank": oracles.lambda_value(p),
        "kminus1.torsion": [2] if p % 4 == 1 else [],
    })


def _lambda_query(p: int) -> Query:
    return cli_query(["lambda", "--m", str(p), "--format", "json"],
                     expect_fields({"lambda": oracles.lambda_value(p)}))


def closed_form_big(rng: random.Random, tiny: bool) -> list[Query]:
    """Closed forms beyond the census bound: time and memory go to eager
    element lists and to the <2> residue tuple."""
    if tiny:
        dicyclic = lam = cyclic = grid(5003, 20_000, 2)
        qk = range(14, 16)
    else:
        dicyclic, lam = grid(10_000, 200_000, 6), grid(10_000, 1_000_000, 8)
        cyclic, qk = grid(5001, 1_000_000, 16), range(14, 19)
    strata = [
        [_dicyclic_closed(p) for p in near(rng, dicyclic, two_is_primitive_root, band(tiny))],
        [_lambda_query(p) for p in near(rng, lam, two_is_primitive_root, band(tiny))],
        [_quaternion_wh(k) for k in qk],
        [_cyclic_wh(n) for n in near(rng, cyclic, lambda n: True, band(tiny))],
    ]
    return interleave(strata)


# -- b4_amalgam ---------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# coset letters of the normal form -> tokens of Z3 * Z2
_TOKEN = {"u": "b", "r2": "a", "r": "a2"}


def _rho_letters(spec, el) -> tuple[str, ...]:
    return oracles.reduce_z3z2(_TOKEN[spec.letter_names[letter]] for letter in el.letters)


def _vc_classes(descriptors: list[dict]) -> set:
    out = set()
    for d in descriptors:
        if d["kind"] == "type_I":
            out.add(("type_I", d["finite_part"], d["action_order"]))
        elif d["kind"] == "type_II":
            out.add(("type_II", tuple(d["factors"]), d["core"]))
        else:
            out.add(("finite", d["name"]))
    return out


def _expect_vc(n: int) -> Callable[[tuple[int, str]], str | None]:
    golden = json.loads((GOLDEN / f"vcodd_n{n}.json").read_text())
    want = _vc_classes(golden["finite"]
                       + [dict(d, kind="type_I") for d in golden["type_I"]]
                       + [dict(d, kind="type_II") for d in golden["type_II"]])

    def check(result: tuple[int, str]) -> str | None:
        code, out = result
        if code != 0:
            return f"exit code {code}"
        got = _vc_classes(json.loads(out)["virtually_cyclic"])
        return None if got == want else f"classes differ from vcodd_n{n}.json"

    return check


def _classify_query(n: int, vc: bool) -> Query:
    argv = ["classify", "--n", str(n), "--format", "json"] + (["--vc"] if vc else [])
    if vc and n in (5, 7):
        return cli_query(argv, _expect_vc(n))
    if not vc and n == 4:
        return cli_query(argv, lambda result: None if result[0] == 0 and [
            d["name"] for d in json.loads(result[1])["maximal_finite"]
        ] == ["Q16", "T*"] else "maximal finite subgroups of B4 are not Q16, T*")
    return cli_query(argv, lambda result: None if result[0] == 0 else "exit code")


class BraidWords:
    """Library calls on the B4 model, checked against the Z3 * Z2 oracle."""

    OPS = ("word", "multiply", "invert", "power", "has_finite_order",
           "conjugate_subgroup", "quotient_maps")

    def __init__(self) -> None:
        self.model = lowk.build_b4()
        self.spec = self.model.spec
        self.gens = {}
        for i in (1, 2, 3):
            g = self.model[f"sigma{i}"]
            self.gens[i], self.gens[-i] = g, lowk.invert(g)

    def element(self, word: tuple[int, ...]):
        return reduce(lowk.multiply, (self.gens[x] for x in word))

    def query(self, op: str, word: tuple[int, ...], k: int, cut: int) -> Query:
        rho_w, psi_w, pi_w = oracles.braid_images(word)
        rho_of = lambda el: _rho_letters(self.spec, el)  # noqa: E731
        label = f"{op} {' '.join(map(str, word))}"
        if op == "word":
            return Query(label, lambda: self.element(word),
                         lambda e: None if rho_of(e) == rho_w else "rho mismatch")
        if op == "multiply":
            left, right = word[:cut], word[cut:]

            def call():
                return (lowk.multiply(self.element(left), self.element(right)),
                        self.element(word))

            return Query(label, call, lambda r: None if r[0] == r[1] and rho_of(r[0]) == rho_w
                         else "product differs from the word")
        if op == "invert":
            def call():
                e = self.element(word)
                inv = lowk.invert(e)
                return inv, lowk.multiply(e, inv)

            want = oracles.invert_z3z2(rho_w)
            return Query(label, call, lambda r: None if r[1].is_identity and rho_of(r[0]) == want
                         else "inverse is wrong")
        if op == "power":
            want = oracles.reduce_z3z2(rho_w * k)
            return Query(f"{label} ^{k}", lambda: lowk.power(self.element(word), k),
                         lambda e: None if rho_of(e) == want else "power rho mismatch")
        if op == "has_finite_order":
            want = oracles.has_finite_order_z3z2(rho_w)
            return Query(label, lambda: lowk.has_finite_order(self.element(word)),
                         lambda f: None if f == want else f"finite order should be {want}")
        hs = self.model.h_subgroups
        if op == "conjugate_subgroup":
            want = tuple(hs[j - 1] for j in psi_w)

            def call():
                e = self.element(word)
                return tuple(lowk.conjugate_subgroup(e, h) for h in hs)

            return Query(label, call, lambda r: None if r == want else "psi action mismatch",
                         render=lambda r: repr([sorted(h) for h in r]))

        def call():
            e = self.element(word)
            return (lowk.rho(self.model, e), lowk.psi(self.model, e), lowk.pi(self.model, e))

        return Query(label, call,
                     lambda r: None if (r[0].letters, r[1], r[2]) == (rho_w, psi_w, pi_w)
                     else "quotient maps mismatch",
                     render=lambda r: f"{r[0]} {r[1]} {r[2]}")


def b4_amalgam(rng: random.Random, tiny: bool) -> list[Query]:
    """The B4 verification suites, report and classification, plus a stream of
    amalgam library calls on random words of 1-12 braid generators."""
    words = BraidWords()
    library = []
    for i in range(70 if tiny else 3500):
        op = BraidWords.OPS[i % len(BraidWords.OPS)]
        length = max(1 + (i // len(BraidWords.OPS)) % 12, 2 if op == "multiply" else 1)
        word = tuple(rng.choice((1, 2, 3)) * rng.choice((1, -1)) for _ in range(length))
        library.append(words.query(op, word,
                                   k=2 + i % 4, cut=rng.randint(1, max(1, length - 1))))
    report = (GOLDEN / "b4_report.json").read_text()
    cases = [(4, False), (4, True), (5, True), (7, True)]
    commands = [
        cli_query(["b4", "verify", "--suite", "all", "--format", "json"],
                  expect_fields({"failed": 0})),
        cli_query(["b4", "report", "--format", "json"], expect_text(report)),
    ] + [_classify_query(n, vc) for n, vc in cases]
    # spread the command-line queries evenly through the library stream
    deck = list(library)
    step = len(deck) // len(commands)
    for j, q in enumerate(commands):
        deck.insert(j * (step + 1), q)
    return deck


BUILDERS = {
    "census_wh": census_wh,
    "carter_rf": carter_rf,
    "closed_form_big": closed_form_big,
    "b4_amalgam": b4_amalgam,
}


def build_deck(workload: str, seed: int, tiny: bool = False) -> list[Query]:
    rng = random.Random(f"{workload}/{seed}")
    return BUILDERS[workload](rng, tiny)

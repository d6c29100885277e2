"""Property suites behind the CLI ``check`` command.

Each suite validates one algebraic shortcut against an oracle or axiom on
the bundled graphs, at bounds small enough for interactive use.  Everything
is deterministic for a fixed seed.
"""

from __future__ import annotations

import random

from . import gproduct, ihull, oracle, ragroup
from .builtin import BUILTIN_GRAPH_TEXTS, builtin, all_mono_graphs
from .gproduct import GPElement, make_element, multiply, right_divide
from .graph import GraphProduct, Value


class CheckResult(Value):
    __slots__ = _fields = ("name", "passed", "detail")
    name: str
    passed: bool
    detail: str


def random_element(gp: GraphProduct, rng: random.Random, max_len: int) -> GPElement:
    letters = gp.all_letters()
    n = rng.randrange(max_len + 1)
    return make_element(gp, [(rng.choice(letters), 1) for _ in range(n)])


def _mono_graphs(max_vertices: int) -> list[GraphProduct]:
    return [gp for n in range(1, max_vertices + 1) for gp in all_mono_graphs(n)]


def check_normal_form(seed: int, max_len: int, max_vertices: int) -> CheckResult:
    """Equality by canonical form against letter-level shuffle closure."""
    tried = 0
    for name in ("single", "k2_edgeless", "p3", "k3", "mixed"):
        gp = builtin(name)
        letters = gp.all_letters()
        words = [()]
        for _ in range(min(max_len, 4)):
            words = [w + (l,) for w in words for l in letters] + words
        words = list(dict.fromkeys(words))
        for w in words:
            e = make_element(gp, [(l, 1) for l in w])
            cls = oracle.letter_shuffle_class(gp, w)
            for other in cls:
                tried += 1
                if make_element(gp, [(l, 1) for l in other]) != e:
                    return CheckResult(
                        "normal-form", False, f"{name}: {w} vs {other} disagree"
                    )
    return CheckResult("normal-form", True, f"{tried} closure comparisons")


def check_cancellation(seed: int, max_len: int, max_vertices: int) -> CheckResult:
    rng = random.Random(seed)
    for _ in range(400):
        gp = builtin(rng.choice(list(BUILTIN_GRAPH_TEXTS)))
        a = random_element(gp, rng, max_len)
        c = random_element(gp, rng, max_len)
        if right_divide(multiply(a, c), c) != a:
            return CheckResult("right-cancellation", False, f"a={a}, c={c}")
    return CheckResult("right-cancellation", True, "400 random pairs")


def check_lclm(seed: int, max_len: int, max_vertices: int) -> CheckResult:
    rng = random.Random(seed)
    tried = 0
    for gp in _mono_graphs(min(max_vertices, 3)):
        elems = oracle.elements_up_to(gp, min(max_len, 3))
        sample = elems if len(elems) <= 12 else rng.sample(elems, 12)
        for b in sample:
            for c in sample:
                tried += 1
                bound = b.letter_length() + c.letter_length()
                want = oracle.lclm_oracle(b, c, bound)
                got = gproduct.lclm(b, c)
                if (want is None) != (got is None):
                    return CheckResult("lclm", False, f"existence differs for {b}, {c}")
                if got is not None and got[2] != want:
                    return CheckResult("lclm", False, f"minimum differs for {b}, {c}")
    return CheckResult("lclm", True, f"{tried} oracle comparisons")


def check_hclf(seed: int, max_len: int, max_vertices: int) -> CheckResult:
    rng = random.Random(seed)
    for _ in range(150):
        gp = builtin(rng.choice(["p3", "k3", "k2_edgeless", "mixed"]))
        a = random_element(gp, rng, min(max_len, 4))
        b = random_element(gp, rng, min(max_len, 4))
        if gproduct.hclf(a, b) != oracle.hclf_oracle(a, b):
            return CheckResult("hclf", False, f"a={a}, b={b}")
    return CheckResult("hclf", True, "150 oracle comparisons")


def check_presentation(seed: int, max_len: int, max_vertices: int) -> CheckResult:
    graphs = [builtin(name) for name in BUILTIN_GRAPH_TEXTS]
    graphs += _mono_graphs(min(max_vertices, 3))
    total = 0
    for gp in graphs:
        report = ihull.check_relations(gp)
        total += report.checked
        if not report.ok:
            return CheckResult(
                "presentation", False, f"violated: {report.violations[0]}"
            )
    return CheckResult("presentation", True, f"{total} relations hold")


def check_inverse_axioms(seed: int, max_len: int, max_vertices: int) -> CheckResult:
    gp = builtin("p3")
    elems = oracle.elements_up_to(gp, 2)
    pairs = [ihull.IHPair(a, b) for a in elems for b in elems]
    for s in pairs:
        si = ihull.ih_inverse(s)
        if ihull.ih_multiply(ihull.ih_multiply(s, si), s) != s:
            return CheckResult("inverse-axioms", False, f"s s^-1 s != s at {s}")
    idems = [s for s in pairs if ihull.is_idempotent(s)]
    for e in idems:
        for f in idems:
            if ihull.ih_multiply(e, f) != ihull.ih_multiply(f, e):
                return CheckResult("inverse-axioms", False, f"{e}, {f} do not commute")
    return CheckResult("inverse-axioms", True, f"{len(pairs)} elements")


def check_eta(seed: int, max_len: int, max_vertices: int) -> CheckResult:
    rng = random.Random(seed)
    gp = builtin("p3")
    elems = oracle.elements_up_to(gp, 2)
    pairs = [ihull.IHPair(a, b) for a in elems for b in elems]
    for s in pairs:
        h = ragroup.eta(s)
        if h.is_identity() != (s.a == s.b):
            return CheckResult("eta", False, f"purity fails at {s}")
    for _ in range(400):
        s, t = rng.choice(pairs), rng.choice(pairs)
        st = ihull.ih_multiply(s, t)
        if st is ihull.ZERO:
            continue
        if ragroup.eta(st) != ragroup.eta(s) * ragroup.eta(t):
            return CheckResult("eta", False, f"not multiplicative at {s}, {t}")
    return CheckResult("eta", True, f"{len(pairs)} elements, 400 products")


ALL_CHECKS = (
    check_normal_form,
    check_cancellation,
    check_lclm,
    check_hclf,
    check_presentation,
    check_inverse_axioms,
    check_eta,
)


def run_all(seed: int, max_len: int, max_vertices: int) -> list[CheckResult]:
    return [fn(seed, max_len, max_vertices) for fn in ALL_CHECKS]

"""Property suites: the one definition of each property that both
``polygraph check`` and the acceptance criteria judge.

Each suite validates one algebraic shortcut against an oracle or axiom on
the cases it is given, and its detail counts those cases.  ``run_all``
passes the small families that ``check`` judges at interactive bounds;
acceptance criteria 1, 2, 4, 7, 9 and 10 run the same suites on larger
ones.  Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

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


def check_normal_form(graphs: Sequence[GraphProduct], max_len: int) -> CheckResult:
    """Equality by canonical form against letter-level shuffle closure, on
    every word of at most max_len letters: the form is constant on each
    class, and no two classes share a form; each closure is taken once."""
    tried = 0
    for gp in graphs:
        letters = gp.all_letters()
        words = [()]
        for _ in range(max_len):
            words = [w + (l,) for w in words for l in letters] + [()]  # each once
        form = {w: make_element(gp, [(l, 1) for l in w]) for w in words}
        class_of_form = {}
        for w in form:
            owner = class_of_form.get(form[w])
            if owner is not None and w in owner:
                continue  # w's class is judged already, from its first word
            cls = oracle.letter_shuffle_class(gp, w)
            tried += len(cls) ** 2  # |class(w)| comparisons for each of its words
            for other in cls:
                if form[other] != form[w]:
                    return CheckResult("normal-form", False, f"{w} vs {other} disagree")
            if owner is not None:
                return CheckResult("normal-form", False, f"{w} and {min(owner)} share a form")
            class_of_form[form[w]] = cls
    return CheckResult("normal-form", True, f"{tried} closure comparisons")


def check_cancellation(
    rng: random.Random, graphs: Sequence[GraphProduct], pairs: int, max_len: int
) -> CheckResult:
    """(a*c)/c == a on random pairs of at most max_len letters each."""
    for _ in range(pairs):
        gp = rng.choice(graphs)
        a = random_element(gp, rng, max_len)
        c = random_element(gp, rng, max_len)
        if right_divide(multiply(a, c), c) != a:
            return CheckResult("right-cancellation", False, f"a={a}, c={c}")
    return CheckResult("right-cancellation", True, f"{pairs} random pairs")


def check_lclm(families: Sequence[Sequence[GPElement]]) -> CheckResult:
    """lclm against exhaustive search on every pair within a family: the same
    existence verdict, and m == the oracle's multiple == s*b == t*c."""
    tried = 0
    for elems in families:
        for b in elems:
            for c in elems:
                tried += 1
                bound = b.letter_length() + c.letter_length()
                want = oracle.lclm_oracle(b, c, bound)
                got = gproduct.lclm(b, c)
                if (want is None) != (got is None):
                    return CheckResult("lclm", False, f"existence differs for {b}, {c}")
                if got is not None and not got[2] == want == multiply(got[0], b) == multiply(got[1], c):
                    return CheckResult("lclm", False, f"minimum differs for {b}, {c}")
    return CheckResult("lclm", True, f"{tried} oracle comparisons")


def check_hclf(rng: random.Random, max_len: int) -> CheckResult:
    for _ in range(150):
        gp = builtin(rng.choice(["p3", "k3", "k2_edgeless", "mixed"]))
        a = random_element(gp, rng, max_len)
        b = random_element(gp, rng, max_len)
        if gproduct.hclf(a, b) != oracle.hclf_oracle(a, b):
            return CheckResult("hclf", False, f"a={a}, b={b}")
    return CheckResult("hclf", True, "150 oracle comparisons")


def check_presentation(graphs: Sequence[GraphProduct]) -> CheckResult:
    total = 0
    for gp in graphs:
        report = ihull.check_relations(gp)
        total += report.checked
        if not report.ok:
            return CheckResult("presentation", False, f"violated: {report.violations[0]}")
    return CheckResult("presentation", True, f"{total} relations hold")


def check_inverse_axioms(pairs: Sequence[ihull.IHPair]) -> CheckResult:
    """s s^-1 s = s, idempotents are exactly the diagonal pairs and commute,
    and Green's R and L are equality of first and of second coordinates."""
    r_links, l_links = set(), set()  # (coordinate, s s^-1) and (coordinate, s^-1 s)
    for s in pairs:
        si = ihull.ih_inverse(s)
        if ihull.ih_multiply(ihull.ih_multiply(s, si), s) != s:
            return CheckResult("inverse-axioms", False, f"s s^-1 s != s at {s}")
        diagonal = s.a == s.b
        if ihull.is_idempotent(s) != diagonal or (ihull.ih_multiply(s, s) == s) != diagonal:
            return CheckResult("inverse-axioms", False, f"idempotents miss the diagonal at {s}")
        r_links.add((s.a, ihull.ih_multiply(s, si)))
        l_links.add((s.b, ihull.ih_multiply(si, s)))
    idems = [s for s in pairs if s.a == s.b]
    for e in idems:
        for f in idems:
            if ihull.ih_multiply(e, f) != ihull.ih_multiply(f, e):
                return CheckResult("inverse-axioms", False, f"{e}, {f} do not commute")
    for rel, links in (("R", r_links), ("L", l_links)):
        # equal coordinates exactly when equal idempotents: each determines the other
        if not len(links) == len({c for c, _ in links}) == len({k for _, k in links}):
            return CheckResult("inverse-axioms", False, f"Green's {rel} is not coordinate equality")
    return CheckResult("inverse-axioms", True, f"{len(pairs)} elements")


def check_eta(rng: random.Random, pairs: Sequence[ihull.IHPair], products: int) -> CheckResult:
    """eta is 0-restricted and idempotent-pure, and multiplicative on random
    products, of which the nonzero ones are counted; it fails when 100 draws
    per product find too few of them."""
    if ragroup.eta(ihull.ZERO) is not ihull.ZERO:
        return CheckResult("eta", False, "eta(0) is not 0")
    for s in pairs:
        h = ragroup.eta(s)
        if h is ihull.ZERO or h.is_identity() != ihull.is_idempotent(s):
            return CheckResult("eta", False, f"purity fails at {s}")
    checked = draws = 0
    while checked < products:
        if draws == 100 * products:
            return CheckResult("eta", False, f"{checked} nonzero products in {draws} draws")
        draws += 1
        s, t = rng.choice(pairs), rng.choice(pairs)
        st = ihull.ih_multiply(s, t)
        if st is ihull.ZERO:
            continue
        if ragroup.eta(st) != ragroup.eta(s) * ragroup.eta(t):
            return CheckResult("eta", False, f"not multiplicative at {s}, {t}")
        checked += 1
    return CheckResult("eta", True, f"{len(pairs)} elements, {products} products")


def run_all(seed: int, max_len: int, max_vertices: int) -> list[CheckResult]:
    """The suites at interactive bounds, each with a fresh seeded rng."""
    builtins = [builtin(name) for name in BUILTIN_GRAPH_TEXTS]
    monos = [gp for n in range(1, min(max_vertices, 3) + 1) for gp in all_mono_graphs(n)]
    rng = random.Random(seed)
    samples = []
    for gp in monos:
        elems = oracle.elements_up_to(gp, min(max_len, 3))
        samples.append(elems if len(elems) <= 12 else rng.sample(elems, 12))
    p3 = oracle.elements_up_to(builtin("p3"), 2)
    pairs = [ihull.IHPair(a, b) for a in p3 for b in p3]
    return [
        check_normal_form(builtins, min(max_len, 4)),
        check_cancellation(random.Random(seed), builtins, 400, max_len),
        check_lclm(samples),
        check_hclf(random.Random(seed), min(max_len, 4)),
        check_presentation(builtins + monos),
        check_inverse_axioms(pairs),
        check_eta(random.Random(seed), pairs, 400),
    ]

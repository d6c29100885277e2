"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Component-size bounds in the criteria are realized as generator (letter)
counts, which makes every enumeration finite; graphs are the stated labeled
families plus the bundled mixed example.
"""

import itertools
import random

from polygraph import checks, oracle
from polygraph.builtin import all_mono_graphs, builtin, mono_graph
from polygraph.gproduct import (
    ComponentElement,
    component_embed,
    final_component,
    identity,
    lclm,
    left_divide,
    multiply,
    normal_form,
    split_final,
)
from polygraph.graph import parse_graph
from polygraph.ihull import IHPair, ZERO, eval_word, ih_multiply, max_above, natural_le

from conftest import random_shuffle_walk

SEED = 20240824


def report(num, name, ok, why=""):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed{why}"


def judge(num, name, result, detail):
    """Report a property suite's verdict; its detail counts the cases it
    judged, so it pins the criterion's family."""
    report(num, name, result.passed, f": {result.detail}")
    assert result.detail == detail


def elements(gp, max_letters):
    return oracle.elements_up_to(gp, max_letters)


# ---------------------------------------------------------------------------

def test_criterion_1_normal_form():
    """Canonical-form equality equals shuffle-closure equivalence on all
    labeled 4-vertex graphs, words of <= 5 letters."""
    result = checks.check_normal_form(all_mono_graphs(4), 5)
    judge(1, "normal-form vs shuffle closure", result, "537048 closure comparisons")


def test_criterion_2_right_cancellation():
    """10,000 seeded random (a, c) pairs on mixed graphs of <= 6 vertices."""
    rng = random.Random(SEED)
    graphs = []
    for _ in range(50):
        n = rng.randint(1, 6)
        lines = []
        for i in range(1, n + 1):
            if rng.random() < 0.5:
                lines.append(f"vertex v{i} mono")
            else:
                ls = " ".join(f"v{i}l{j}" for j in range(rng.randint(1, 2)))
                lines.append(f"vertex v{i} free {ls}")
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if rng.random() < 0.5:
                    lines.append(f"edge v{i} v{j}")
        graphs.append(parse_graph("\n".join(lines) + "\n"))
    result = checks.check_cancellation(rng, graphs, 10_000, 5)
    judge(2, "right cancellation", result, "10000 random pairs")


def test_criterion_3_final_component():
    """Final components are shuffle-invariant and functorial on P3 and K3."""
    rng = random.Random(SEED)
    ok = True
    for name in ("p3", "k3"):
        gp = builtin(name)
        for a in elements(gp, 5):
            for v in gp.vertices:
                d, comp = final_component(a, v)
                for _ in range(20):
                    other = random_shuffle_walk(gp, a.expr, rng)
                    d2, rest2 = split_final(gp, other, v)
                    if d2 != d or normal_form(gp, rest2) != comp:
                        ok = False
                # extension law: a*x has final component d*x, same complement
                for k in (1, 2):
                    x = component_embed(gp, v, k)
                    d3, comp3 = final_component(multiply(a, x), v)
                    dx = k if d is None else d.payload + k
                    if d3 != ComponentElement(v, dx) or comp3 != comp:
                        ok = False
    report(3, "final-component uniqueness and functoriality", ok)


def test_criterion_4_lclm_vs_oracle():
    """lclm agrees with exhaustive search: same existence verdict, and the
    returned multiple is the oracle's least common left multiple."""
    cases = [(g, 3) for g in all_mono_graphs(3)]
    cases += [
        (mono_graph(4, []), 2),
        (mono_graph(4, [(1, 2), (2, 3), (3, 4)]), 2),
        (mono_graph(4, [(1, 2), (1, 3), (1, 4)]), 2),
        (mono_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]), 2),
        (mono_graph(4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]), 2),
        (builtin("mixed"), 2),
    ]
    result = checks.check_lclm([elements(gp, k) for gp, k in cases])
    judge(4, "lclm soundness and minimality", result, "9019 oracle comparisons")


def test_criterion_5_bicyclic():
    """Single-vertex inverse hull follows the bicyclic closed form."""
    gp = builtin("single")

    def emb(k):
        return component_embed(gp, "x", k)

    def closed_form(m, n, p, q):
        j = max(n, p)
        return IHPair(emb(m + j - n), emb(q + j - p))

    # lclm against the exhaustive oracle on a small corner, and the closed
    # form against lclm there
    ok = checks.check_lclm([[emb(k) for k in range(5)]]).passed
    for m, n, p, q in itertools.product(range(5), repeat=4):
        s, t, _ = lclm(emb(n), emb(p))
        if closed_form(m, n, p, q) != IHPair(multiply(s, emb(m)), multiply(t, emb(q))):
            ok = False
    # full range against ih_multiply
    for m, n, p, q in itertools.product(range(11), repeat=4):
        if ih_multiply(IHPair(emb(m), emb(n)), IHPair(emb(p), emb(q))) != closed_form(m, n, p, q):
            ok = False
    report(5, "bicyclic specialization", ok)


def test_criterion_6_polycyclic():
    """Edgeless graphs: xx^-1 = 1 and xy^-1 = 0 for distinct generators."""
    ok = True
    for n in (2, 3):
        gp = mono_graph(n, [])
        letters = gp.all_letters()
        for x in letters:
            if eval_word(gp, f"{x} {x}^-1") != IHPair(identity(gp), identity(gp)):
                ok = False
            for y in letters:
                if x != y and eval_word(gp, f"{x} {y}^-1") is not ZERO:
                    ok = False
    report(6, "polycyclic specialization", ok)


def test_criterion_7_presentation_relations():
    """All generated relations hold in every monogenic graph on <= 4
    vertices and in a mixed free/mono example."""
    graphs = []
    for n in range(1, 5):
        graphs.extend(all_mono_graphs(n))
    graphs.append(builtin("mixed"))
    judge(7, "presentation relations", checks.check_presentation(graphs), "1528 relations hold")


def _p3_pairs(max_letters=3):
    gp = builtin("p3")
    elems = elements(gp, max_letters)
    return gp, elems, [IHPair(a, b) for a in elems for b in elems]


def test_criterion_8_fstar_inverse():
    """The set of elements above a pair has a unique maximum, equal to
    max_above."""
    gp, elems, pairs = _p3_pairs()
    divisors = {a.expr: oracle.all_left_divisors(a) for a in elems}
    ok = True
    for s in pairs:
        common = divisors[s.a.expr] & divisors[s.b.expr]
        above = {IHPair(left_divide(s.a, x), left_divide(s.b, x)) for x in common}
        maxima = [t for t in above if all(natural_le(u, t) for u in above)]
        if len(maxima) != 1 or maxima[0] != max_above(s):
            ok = False
    report(8, "F*-inverse maximal elements", ok)


def test_criterion_9_strong_estar_unitary():
    """eta is 0-restricted, idempotent-pure, and multiplicative."""
    _, _, pairs = _p3_pairs()
    result = checks.check_eta(random.Random(SEED), pairs, 5000)
    judge(9, "strong E*-unitarity witness", result, "676 elements, 5000 products")


def test_criterion_10_inverse_and_green():
    """Inverse-monoid axioms and Green characterizations, exhaustively."""
    _, _, pairs = _p3_pairs()
    result = checks.check_inverse_axioms(pairs)
    judge(10, "inverse-monoid and Green structure", result, "676 elements")


def test_criterion_11_embedded_hulls():
    """Single-vertex-supported products in P3 equal the component-level
    bicyclic products, exponents <= 6."""
    gp = builtin("p3")
    ok = True
    for v in gp.vertices:
        def emb(k):
            return component_embed(gp, v, k) if k else identity(gp)

        for m, n, p, q in itertools.product(range(7), repeat=4):
            got = ih_multiply(IHPair(emb(m), emb(n)), IHPair(emb(p), emb(q)))
            j = max(n, p)
            if got != IHPair(emb(m + j - n), emb(q + j - p)):
                ok = False
    report(11, "embedded component hulls", ok)

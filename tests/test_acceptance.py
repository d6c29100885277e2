"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Component-size bounds in the criteria are realized as generator (letter)
counts, which makes every enumeration finite; graphs are the stated labeled
families plus the bundled mixed example.
"""

import itertools
import random

from polygraph import oracle
from polygraph.builtin import all_mono_graphs, builtin, mono_graph
from polygraph.gproduct import (
    ComponentElement,
    component_embed,
    final_component,
    identity,
    lclm,
    left_divide,
    make_element,
    multiply,
    right_divide,
    split_final,
)
from polygraph.ihull import (
    IHPair,
    ZERO,
    check_relations,
    eval_word,
    ih_inverse,
    ih_multiply,
    is_idempotent,
    max_above,
    natural_le,
)
from polygraph.ragroup import eta

from conftest import random_shuffle_walk

SEED = 20240824


def report(num, name, ok):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def elements(gp, max_letters):
    return oracle.elements_up_to(gp, max_letters)


# ---------------------------------------------------------------------------

def test_criterion_1_normal_form():
    """Canonical-form equality equals shuffle-closure equivalence on all
    labeled 4-vertex graphs, words of <= 5 letters."""
    letters = tuple(f"x{i}" for i in range(1, 5))
    words = [()]
    for _ in range(5):
        words = [w + (l,) for w in words for l in letters] + [()]
    words = list(dict.fromkeys(words))
    index = {w: i for i, w in enumerate(words)}

    ok = True
    for gp in all_mono_graphs(4):
        parent = list(range(len(words)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        vertex = gp.vertex_of_letter
        for w, i in index.items():
            for k in range(len(w) - 1):
                if gp.adjacent(vertex(w[k]), vertex(w[k + 1])):
                    nxt = w[:k] + (w[k + 1], w[k]) + w[k + 2:]
                    ri, rj = find(i), find(index[nxt])
                    if ri != rj:
                        parent[ri] = rj

        canon_of_root = {}
        root_of_canon = {}
        for w, i in index.items():
            c = make_element(gp, [(l, 1) for l in w]).expr
            r = find(i)
            if canon_of_root.setdefault(r, c) != c:
                ok = False
            if root_of_canon.setdefault(c, r) != r:
                ok = False
    report(1, "normal-form vs shuffle closure", ok)


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
        from polygraph.graph import parse_graph

        graphs.append(parse_graph("\n".join(lines) + "\n"))

    ok = True
    for _ in range(10_000):
        gp = rng.choice(graphs)
        letters = gp.all_letters()
        a = make_element(gp, [(rng.choice(letters), 1) for _ in range(rng.randint(0, 5))])
        c = make_element(gp, [(rng.choice(letters), 1) for _ in range(rng.randint(0, 5))])
        if right_divide(multiply(a, c), c) != a:
            ok = False
            break
    report(2, "right cancellation", ok)


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
                    from polygraph.gproduct import normal_form

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
    ok = True
    for gp, max_letters in cases:
        elems = elements(gp, max_letters)
        for b in elems:
            for c in elems:
                want = oracle.lclm_oracle(b, c, b.letter_length() + c.letter_length())
                got = lclm(b, c)
                if (got is None) != (want is None):
                    ok = False
                    continue
                if got is None:
                    continue
                s, t, m = got
                if not m == want == multiply(s, b) == multiply(t, c):
                    ok = False
    report(4, "lclm soundness and minimality", ok)


def test_criterion_5_bicyclic():
    """Single-vertex inverse hull follows the bicyclic closed form."""
    gp = builtin("single")

    def emb(k):
        return component_embed(gp, "x", k)

    def closed_form(m, n, p, q):
        j = max(n, p)
        return IHPair(emb(m + j - n), emb(q + j - p))

    ok = True
    # closed form against the exhaustive oracle on a small corner
    for m, n, p, q in itertools.product(range(5), repeat=4):
        res = lclm(emb(n), emb(p))
        want = oracle.lclm_oracle(emb(n), emb(p), n + p)
        if res[2] != want:
            ok = False
        if closed_form(m, n, p, q) != IHPair(
            multiply(res[0], emb(m)), multiply(res[1], emb(q))
        ):
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
    ok = all(check_relations(gp).ok for gp in graphs)
    report(7, "presentation relations", ok)


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
    gp, elems, pairs = _p3_pairs()
    ok = True
    for s in pairs:
        h = eta(s)
        if h is ZERO:
            ok = False
        if h.is_identity() != is_idempotent(s):
            ok = False
    if eta(ZERO) is not ZERO:
        ok = False
    rng = random.Random(SEED)
    checked = 0
    while checked < 5000:
        s, t = rng.choice(pairs), rng.choice(pairs)
        st = ih_multiply(s, t)
        if st is ZERO:
            continue
        if eta(st) != eta(s) * eta(t):
            ok = False
        checked += 1
    report(9, "strong E*-unitarity witness", ok)


def test_criterion_10_inverse_and_green():
    """Inverse-monoid axioms and Green characterizations, exhaustively."""
    gp, elems, pairs = _p3_pairs()
    ok = True
    for s in pairs:
        si = ih_inverse(s)
        if ih_multiply(ih_multiply(s, si), s) != s:
            ok = False
        if (ih_multiply(s, s) == s) != (s.a == s.b):
            ok = False
    idems = [s for s in pairs if is_idempotent(s)]
    for e in idems:
        for f in idems:
            if ih_multiply(e, f) != ih_multiply(f, e):
                ok = False

    # Green's relations via the domain/image idempotents, all pairs
    dom_key = {s: ih_multiply(s, ih_inverse(s)) for s in pairs}
    im_key = {s: ih_multiply(ih_inverse(s), s) for s in pairs}
    for s in pairs:
        for t in pairs:
            if (s.a == t.a) != (dom_key[s] == dom_key[t]):
                ok = False
            if (s.b == t.b) != (im_key[s] == im_key[t]):
                ok = False

    # 0-bisimplicity witness u = (c, b) linking s = (a, b) and t = (c, d)
    small = [s for s in pairs if s.a.letter_length() <= 2 and s.b.letter_length() <= 2]
    for s in small[::3]:
        for t in small[::3]:
            u = IHPair(t.a, s.b)
            if im_key[u] != im_key[s] or dom_key[u] != dom_key[t]:
                ok = False
    report(10, "inverse-monoid and Green structure", ok)


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

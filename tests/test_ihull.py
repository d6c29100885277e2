import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygraph import oracle
from polygraph.builtin import builtin
from polygraph.gproduct import hclf, identity, left_divide, make_element, multiply, normal_form
from polygraph.graph import parse_graph
from polygraph.ihull import (
    IHPair,
    Relation,
    ZERO,
    check_relations,
    eval_word,
    generate_presentation,
    green_H,
    green_L,
    green_R,
    ih_identity,
    ih_inverse,
    ih_multiply,
    is_idempotent,
    max_above,
    natural_le,
    parse_ihelement,
)

from conftest import (
    BUILTIN_NAMES, graph_and_syllables, graph_and_words, graph_products, word_element
)


def pair(gp, a, b):
    return IHPair(make_element(gp, a), make_element(gp, b))


@pytest.fixture
def small_pairs(p3):
    elems = oracle.elements_up_to(p3, 2)
    return [IHPair(a, b) for a in elems for b in elems]


# ---------------------------------------------------------------------------
# multiplication and inversion

def test_multiply_examples(p3):
    assert ih_multiply(pair(p3, "1", "x1"), pair(p3, "x3", "1")) is ZERO
    assert ih_multiply(pair(p3, "1", "x1"), pair(p3, "x1", "1")) == ih_identity(p3)
    assert ih_multiply(pair(p3, "1", "x1"), pair(p3, "x2", "1")) == pair(p3, "x2", "x1")


def test_zero_absorbs(p3):
    s = pair(p3, "x1", "x2")
    assert ih_multiply(s, ZERO) is ZERO
    assert ih_multiply(ZERO, s) is ZERO


def test_inverse_examples(p3):
    assert ih_inverse(pair(p3, "x1", "x2")) == pair(p3, "x2", "x1")
    e = pair(p3, "x1 x2", "x1 x2")
    assert ih_inverse(e) == e
    assert ih_inverse(ZERO) is ZERO


def test_is_idempotent_examples(p3):
    assert is_idempotent(pair(p3, "x1", "x1"))
    s = pair(p3, "x1", "x2")
    assert not is_idempotent(s)
    assert ih_multiply(s, s) != s
    assert is_idempotent(ZERO)


def test_inverse_monoid_axioms(small_pairs):
    for s in small_pairs[:200]:
        si = ih_inverse(s)
        assert ih_multiply(ih_multiply(s, si), s) == s
        assert ih_inverse(si) == s


@given(graph_and_words(num_words=4, max_letters=2))
@settings(max_examples=50, deadline=None)
def test_product_inverse_antihomomorphism(gw):
    gp, w1, w2, w3, w4 = gw
    s = IHPair(word_element(gp, w1), word_element(gp, w2))
    t = IHPair(word_element(gp, w3), word_element(gp, w4))
    st_ = ih_multiply(s, t)
    expect = ih_multiply(ih_inverse(t), ih_inverse(s))
    if st_ is ZERO:
        assert expect is ZERO
    else:
        assert ih_inverse(st_) == expect


def test_idempotents_commute(small_pairs):
    idems = [s for s in small_pairs if is_idempotent(s)][:25]
    for e in idems:
        for f in idems:
            assert ih_multiply(e, f) == ih_multiply(f, e)


def test_idempotents_are_diagonal(small_pairs):
    for s in small_pairs:
        assert (ih_multiply(s, s) == s) == (s.a == s.b)


# ---------------------------------------------------------------------------
# natural partial order and maximal elements

def test_natural_le_examples(p3):
    s = IHPair(
        multiply(make_element(p3, "x2"), make_element(p3, "x1")),
        multiply(make_element(p3, "x2"), make_element(p3, "x3")),
    )
    assert natural_le(s, pair(p3, "x1", "x3"))
    assert natural_le(s, s)
    assert not natural_le(pair(p3, "x1", "1"), pair(p3, "x2", "1"))
    assert natural_le(ZERO, s)
    assert not natural_le(s, ZERO)


def test_natural_le_matches_idempotent_definition(small_pairs):
    # s <= t iff s = (s s^-1) t
    sample = small_pairs[::7]
    for s in sample[:40]:
        for t in sample[:40]:
            e = ih_multiply(s, ih_inverse(s))
            assert natural_le(s, t) == (ih_multiply(e, t) == s)


def test_natural_le_long_words():
    # one lclm decides the order; the right division by peeling that did it
    # before took 0.2-0.5 s on these inputs, and about 4x per doubling
    rng = random.Random(4)
    mixed = parse_graph("vertex u free p q\nvertex w mono\nvertex x mono\nedge u w\n")
    for gp, commuting in ((builtin("p3"), "x1 x2"), (mixed, "p w")):
        x, c, d = (make_element(gp, " ".join(rng.choices(gp.all_letters(), k=1500)))
                   for _ in range(3))
        t = IHPair(c, d)
        t0 = time.perf_counter()
        assert natural_le(IHPair(x * c, x * d), t)
        assert not natural_le(t, IHPair(x * c, x * d))  # x*c does not divide c
        assert not natural_le(IHPair(x * c, d), t)  # d is not x*d
        # a and b commute, so lclm(a*c, b*c) = (b, a, b*a*c): a*d is the
        # second cofactor times d, but the first is not the identity
        a, b = (make_element(gp, y) for y in commuting.split())
        assert not natural_le(IHPair(a * c, a * d), IHPair(b * c, d))
        assert time.perf_counter() - t0 < 1.0


def test_max_above_examples(p3):
    s = pair(p3, "x1 x2", "x2 x3")  # x2*x1 and x2*x3
    assert max_above(s) == pair(p3, "x1", "x3")
    top = pair(p3, "x1", "x3")
    assert max_above(top) == top
    s = pair(p3, "x1 x2", "x1 x2")
    assert max_above(s) == ih_identity(p3)


@pytest.mark.parametrize("graph, a, b, top", [
    # u strips p only: its rests q and p differ, and x stays blocked behind u
    ("vertex u free p q\nvertex x mono\n", "p q x p", "p p x p", "[q x p | p x p]"),
    ("p3", "x2^3 x1", "x2 x3", "[x1 x2^2 | x3]"),  # a head consumed, one shortened
    ("p3", "x3 x1", "x3 x1^2", "[1 | x1]"),  # x3 stripped, then x1 unblocked
    ("mixed", "p q w^2", "p q p w", "[w | p]"),
    ("p3", "x3 x2 x1", "x3 x2 x1", "[1 | 1]"),
    ("p3", "1", "x1 x2", "[1 | x1 x2]"),
])
def test_max_above_strip_cases(graph, a, b, top):
    gp = builtin(graph) if "\n" not in graph else parse_graph(graph)
    s = pair(gp, a, b)
    m = max_above(s)
    assert str(m) == top
    h = hclf(s.a, s.b)
    assert m == IHPair(left_divide(s.a, h), left_divide(s.b, h))


@st.composite
def common_prefix_pairs(draw):
    """(gp, x, a, b): a graph with up to 8 vertices, mono or mixed, and three
    elements cut from 0 to 300 syllables, so that x*a and x*b share x."""
    gp, syllables = draw(graph_and_syllables(max_vertices=8))
    i, j = sorted(draw(st.integers(0, len(syllables))) for _ in range(2))
    x, a, b = (normal_form(gp, part) for part in (syllables[:i], syllables[i:j], syllables[j:]))
    return gp, x, a, b


@given(common_prefix_pairs())
@settings(max_examples=80, deadline=None)
def test_max_above_strips_hclf(gxab):
    gp, x, a, b = gxab
    xa, xb = multiply(x, a), multiply(x, b)
    h = hclf(xa, xb)
    assert h == multiply(x, hclf(a, b))
    m = max_above(IHPair(xa, xb))
    assert m == IHPair(left_divide(xa, h), left_divide(xb, h))
    assert hclf(m.a, m.b) == identity(gp)


def test_max_above_is_above_and_idempotent_operation(small_pairs):
    for s in small_pairs[:150]:
        m = max_above(s)
        assert natural_le(s, m)
        assert max_above(m) == m


def test_max_above_zero_input():
    with pytest.raises(ValueError):
        max_above(ZERO)


# ---------------------------------------------------------------------------
# Green's relations

def test_green_examples(p3):
    assert green_L(pair(p3, "x1", "x2"), pair(p3, "x3", "x2"))
    assert green_R(pair(p3, "x1", "x2"), pair(p3, "x1", "x3"))
    s, t = pair(p3, "x1", "x2"), pair(p3, "x1", "x3")
    assert not green_H(s, t)
    assert green_H(s, s)
    assert green_L(ZERO, ZERO) and not green_L(ZERO, s)


def test_green_via_idempotents(small_pairs):
    sample = small_pairs[::11]
    for s in sample[:30]:
        for t in sample[:30]:
            assert green_R(s, t) == (
                ih_multiply(s, ih_inverse(s)) == ih_multiply(t, ih_inverse(t))
            )
            assert green_L(s, t) == (
                ih_multiply(ih_inverse(s), s) == ih_multiply(ih_inverse(t), t)
            )
            assert green_H(s, t) == (s == t)


def test_zero_bisimple_witness(small_pairs):
    sample = small_pairs[::13]
    for s in sample[:25]:
        for t in sample[:25]:
            u = IHPair(t.a, s.b)
            assert green_L(s, u) and green_R(u, t)


# ---------------------------------------------------------------------------
# word evaluation

def test_eval_word_examples(p3):
    assert eval_word(p3, "x1 x3^-1") is ZERO
    assert eval_word(p3, "x1 x1^-1") == ih_identity(p3)
    assert eval_word(p3, "x1 x2^-1") == pair(p3, "x2", "x1")


def test_eval_word_closure(p3):
    # any signed word collapses to zero or a single pair
    import itertools

    tokens = [("x1", 1), ("x1", -1), ("x2", 1), ("x3", -1)]
    for w in itertools.product(tokens, repeat=4):
        res = eval_word(p3, w)
        assert res is ZERO or isinstance(res, IHPair)


def test_eval_word_mixed_alphabet(mixed):
    assert eval_word(mixed, "p q q^-1") == IHPair(identity(mixed), make_element(mixed, "p"))
    assert eval_word(mixed, "p q^-1") is ZERO  # distinct letters of one free vertex


def eval_by_letters(gp, tokens):
    """Reference: one inverse-hull product per signed letter."""
    one = identity(gp)
    acc = ih_identity(gp)
    for letter, sign in tokens:
        g = make_element(gp, letter)
        acc = ih_multiply(acc, IHPair(one, g) if sign > 0 else IHPair(g, one))
    return acc


@st.composite
def graph_and_runs(draw):
    gp = draw(st.sampled_from(BUILTIN_NAMES).map(builtin) | graph_products())
    letters = gp.all_letters()
    runs = draw(st.lists(
        st.tuples(st.sampled_from(letters), st.sampled_from([1, -1]), st.integers(1, 20)),
        max_size=5,
    ))
    return gp, runs


@given(graph_and_runs())
@settings(max_examples=60, deadline=None)
def test_eval_word_matches_letter_fold(gr):
    gp, runs = gr
    text = " ".join(f"{letter}^{sign * k}" for letter, sign, k in runs)
    tokens = [(letter, sign) for letter, sign, k in runs for _ in range(k)]
    want = eval_by_letters(gp, tokens)
    assert eval_word(gp, text) == want
    assert eval_word(gp, tokens) == want


def test_eval_word_long_runs(p3, mixed):
    assert eval_word(p3, "x1^100000") == pair(p3, "1", "x1^100000")
    assert eval_word(p3, "x1^99999 x1^-100000") == pair(p3, "x1", "1")
    assert eval_word(mixed, "p^100000") == pair(mixed, "1", "p^100000")
    assert eval_word(mixed, "p^50000 p^-50000") == ih_identity(mixed)


def test_eval_word_merges_runs(p3):
    assert eval_word(p3, "x1 x1^2 x2^-1 x2^-1") == eval_word(p3, "x1^3 x2^-2")


@pytest.mark.parametrize("sign", [2, 0, True, 1.0])
def test_eval_word_rejects_bad_sign(p3, sign):
    with pytest.raises(ValueError):
        eval_word(p3, [("x1", sign)])


# ---------------------------------------------------------------------------
# presentation

def _strs(rels):
    return [str(r) for r in rels]


def test_presentation_single_vertex():
    gp = builtin("single")
    assert _strs(generate_presentation(gp)) == ["x x^-1 = 1"]


def test_presentation_edgeless_pair():
    gp = builtin("k2_edgeless")
    rels = _strs(generate_presentation(gp))
    assert "x1 x2^-1 = 0" in rels
    assert "x2 x1^-1 = 0" in rels


def test_presentation_path(p3):
    rels = _strs(generate_presentation(p3))
    assert "x1 x2 = x2 x1" in rels
    assert "x1 x2^-1 = x2^-1 x1" in rels
    assert "x2 x1^-1 = x1^-1 x2" in rels
    assert "x1^-1 x2^-1 = x2^-1 x1^-1" in rels
    assert "x1 x3^-1 = 0" in rels


def test_presentation_free_component(mixed):
    rels = _strs(generate_presentation(mixed))
    assert "p p^-1 = 1" in rels
    assert "p q^-1 = 0" in rels
    assert "p w = w p" in rels


def test_presentation_deterministic(p3):
    assert generate_presentation(p3) == generate_presentation(p3)


def test_check_relations(p3, k3, mixed):
    for gp in (p3, k3, builtin("k2_edgeless"), mixed):
        report = check_relations(gp)
        assert report.ok, report.violations
    # complete graph has no non-adjacent pairs, so no annihilation relations
    assert all(r.right is not ZERO for r in generate_presentation(k3))


# ---------------------------------------------------------------------------
# embedded component hulls

def test_embedded_hull_bicyclic(p3):
    # single-vertex-supported products follow the bicyclic closed form
    from polygraph.gproduct import component_embed

    def emb(k):
        return component_embed(p3, "x2", k)

    for m in range(4):
        for n in range(4):
            for p in range(4):
                for q in range(4):
                    got = ih_multiply(IHPair(emb(m), emb(n)), IHPair(emb(p), emb(q)))
                    j = max(n, p)
                    assert got == IHPair(emb(m + j - n), emb(q + j - p))


# ---------------------------------------------------------------------------
# text form

def test_parse_ihelement_round_trip(p3):
    for text in ("0", "[1 | 1]", "[x2 | x1]", "[x1 x2^2 | x3]"):
        s = parse_ihelement(p3, text)
        assert parse_ihelement(p3, str(s)) == s


def test_parse_ihelement_errors(p3):
    with pytest.raises(ValueError):
        parse_ihelement(p3, "[x1]")
    with pytest.raises(ValueError):
        parse_ihelement(p3, "x1 | x2")


def test_reimport_frees_old_classes():
    # a re-imported package must not keep the old module alive, e.g. through
    # typing's cache of Union[...] aliases
    code = (
        "import gc, sys, weakref\n"
        "import polygraph\n"
        "refs = [weakref.ref(polygraph.ihull.IHPair), weakref.ref(polygraph.ragroup.GroupWord)]\n"
        "for name in [m for m in sys.modules if m.split('.')[0] == 'polygraph']:\n"
        "    del sys.modules[name]\n"
        "del polygraph\n"
        "import polygraph\n"
        "gc.collect()\n"
        "assert all(r() is None for r in refs), 'old classes still alive'\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr

import random
import re
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygraph import oracle
from polygraph.builtin import builtin, mono_graph
from polygraph.graph import GraphError, parse_graph
from polygraph.gproduct import (
    ComponentElement,
    component_embed,
    final_component,
    hclf,
    identity,
    initial_component,
    lclm,
    left_divide,
    make_element,
    multiply,
    normal_form,
    right_divide,
    shuffle_reduce,
    split_final,
)
from polygraph.ihull import IHPair, max_above

from conftest import graph_and_syllables, graph_and_words, graph_products, mono_graphs, word_element
from reference import shuffle_reduce_reference

MONO_OR_MIXED = st.one_of(mono_graphs(), graph_products())


# ---------------------------------------------------------------------------
# make_element / normal_form

def test_commuting_letters_sorted(p3):
    assert str(make_element(p3, "x2 x1")) == "x1 x2"


def test_non_adjacent_letters_fixed(p3):
    assert str(make_element(p3, "x3 x1")) == "x3 x1"


def test_free_component_amalgamation(mixed):
    assert str(make_element(mixed, "w p q w")) == "p q w^2"


def test_amalgamation_across_commuting_letter(p3):
    assert str(make_element(p3, "x2 x1 x2")) == "x1 x2^2"


def test_identity_word(p3):
    assert make_element(p3, "1") == identity(p3)
    assert str(identity(p3)) == "1"


def test_make_element_errors(p3):
    with pytest.raises(ValueError):
        make_element(p3, "nope")
    with pytest.raises(ValueError):
        make_element(p3, "x1^0")


@pytest.mark.parametrize("pair", [("p", 2.0), ("w", 2.0), ("w", True), ("p", False)])
def test_make_element_rejects_non_int_exponent(mixed, pair):
    # unchecked, a float on a free letter raises TypeError in (letter,) * k,
    # and a bool on a monogenic letter becomes the payload True
    with pytest.raises(ValueError, match="must be an int"):
        make_element(mixed, [pair])


@pytest.mark.parametrize("word, error, message", [
    # every syntax error comes before any unknown-letter or exponent error
    ("zz x1^", ValueError, "bad token 'x1^'"),
    (["zz", ("x1", 1), "x1^^2"], ValueError, "bad token 'x1^^2'"),
    (["x1", ("zz", 1), ("x1", 2.0)], ValueError, "exponent on 'x1' must be an int, not 2.0"),
    # after that, the first bad token wins
    ("zz x1^0", GraphError, "unknown letter 'zz'"),
    ("x1 x1^0 zz", ValueError, "exponent on 'x1' must be >= 1"),
    ([("x1", 1), ("zz", 2), ("x1", 0)], GraphError, "unknown letter 'zz'"),
    # a token that is neither a string nor a (letter, k) pair is a syntax error
    ([5], ValueError, "bad token 5"),
    ([["x1"]], ValueError, "bad token ['x1']"),
    ([("x1",)], ValueError, "bad token ('x1',)"),
    (["zz", ("x1", 0), (5, 1)], ValueError, "bad token (5, 1)"),
])
def test_make_element_error_order(p3, word, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make_element(p3, word)


def _text_word(tokens):
    return " ".join(letter if k == 1 else f"{letter}^{k}" for letter, k in tokens)


@st.composite
def graph_and_tokens(draw):
    """A mono or mixed graph and up to 40 (letter, k) tokens, 1 <= k <= 3."""
    gp = draw(MONO_OR_MIXED)
    tokens = draw(st.lists(
        st.tuples(st.sampled_from(gp.all_letters()), st.integers(1, 3)), max_size=40,
    ))
    return gp, tokens


@given(graph_and_tokens())
@settings(max_examples=100, deadline=None)
def test_make_element_text_pairs_and_syllables_agree(gt):
    gp, tokens = gt
    raw = []
    for letter, k in tokens:
        v = gp.vertex_of_letter(letter)
        raw.append((v, k if gp.is_mono(v) else (letter,) * k))
    e = make_element(gp, _text_word(tokens))
    assert make_element(gp, tokens) == e
    assert normal_form(gp, raw) == e


@given(graph_and_tokens(), st.integers(0, 40))
@settings(max_examples=100, deadline=None)
def test_multiply_matches_normal_form(gt, cut):
    gp, tokens = gt
    a, b = make_element(gp, tokens[:cut]), make_element(gp, tokens[cut:])
    assert multiply(a, b) == normal_form(gp, a.expr + b.expr)


def test_make_element_mixes_tokens_and_pairs(p3):
    assert str(make_element(p3, ["x2", ("x1", 2), "x1^3", "1"])) == "x1^5 x2"


@pytest.mark.parametrize("raw", [[("w",)], [5], [("w", 1, 2)]])
def test_normal_form_rejects_non_pairs(mixed, raw):
    with pytest.raises(ValueError, match=f"^{re.escape(f'bad syllable {raw[0]!r}')}$"):
        normal_form(mixed, raw)


@given(st.one_of(graph_and_syllables(), graph_and_syllables(signed=True)))
@settings(max_examples=150, deadline=None)
def test_normal_form_idempotent(gs):
    """A canonical expression piles with no amalgamation and reads off
    unchanged, which the hclf strip relies on."""
    gp, syllables = gs
    e = shuffle_reduce(gp, syllables)
    assert shuffle_reduce(gp, e) == e


@given(st.one_of(graph_and_syllables(), graph_and_syllables(signed=True)))
@settings(max_examples=150, deadline=None)
def test_kernel_matches_reference(gs):
    gp, syllables = gs
    assert shuffle_reduce(gp, syllables) == shuffle_reduce_reference(gp, syllables)


def _syllables(text):
    """``"x1:2 u:pq"`` as syllables: an int exponent, or free letters."""
    out = []
    for tok in text.split():
        v, payload = tok.split(":")
        free = not payload.lstrip("-").isdigit()
        out.append(ComponentElement(v, tuple(payload) if free else int(payload)))
    return out


@pytest.mark.parametrize("graph, syllables, expected", [
    # one vertex: everything amalgamates, or cancels to the identity
    (("single",), "x:1 x:2 x:3", "x:6"),
    (("single",), "x:2 x:-1 x:-1", ""),
    # edgeless: only neighbours in the list amalgamate, nothing moves
    (("k2_edgeless",), "x2:1 x1:1 x1:2 x2:1 x1:1", "x2:1 x1:3 x2:1 x1:1"),
    ((3, []), "x3:1 x2:1 x1:1 x3:2", "x3:1 x2:1 x1:1 x3:2"),
    # complete: sorted by vertex, one syllable each
    (("k3",), "x3:1 x2:1 x1:1 x3:1 x1:2 x2:5", "x1:3 x2:6 x3:2"),
    ((4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
     "x4:1 x2:1 x4:1 x1:1", "x1:1 x2:1 x4:2"),
    # x2 commutes with both and goes first; x3's stack empties at the
    # read-off while x1 still waits for it
    (("p3",), "x3:1 x1:1 x3:1 x2:1 x1:1", "x2:1 x3:1 x1:1 x3:1 x1:1"),
    ((3, []), "x2:1 x1:1 x3:1 x1:1", "x2:1 x1:1 x3:1 x1:1"),
    # signed cancellations empty x2's stack, then x1's, in mid-pile
    ((3, []), "x1:1 x2:1 x2:-1 x1:-1 x3:1", "x3:1"),
    # x2 is pushed again after its stack emptied, and blocks x1
    ((3, []), "x1:1 x2:1 x2:-1 x2:1 x1:-1", "x1:1 x2:1 x1:-1"),
    # free pieces joined in order across a commuting vertex
    (("mixed",), "u:p w:1 u:q w:1 u:pp", "u:pqpp w:2"),
    (("mixed",), "w:1 u:q w:2", "u:q w:3"),
])
def test_kernel_cases(graph, syllables, expected):
    gp = builtin(*graph) if isinstance(graph[0], str) else mono_graph(*graph)
    syllables = _syllables(syllables)
    got = shuffle_reduce(gp, syllables)
    assert got == tuple(_syllables(expected))
    assert got == shuffle_reduce_reference(gp, syllables)


def test_make_element_long_word():
    gp = builtin("k2_edgeless")
    e = make_element(gp, "x1 x2 " * 20000)
    assert e.expr == (ComponentElement("x1", 1), ComponentElement("x2", 1)) * 20000


def test_make_element_long_free_run(mixed):
    e = make_element(mixed, "p " * 20000)
    assert e.expr == (ComponentElement("u", ("p",) * 20000),)


@given(graph_and_words(num_words=1, max_letters=5))
@settings(max_examples=60, deadline=None)
def test_normal_form_in_shuffle_closure(gw):
    gp, w = gw
    e = word_element(gp, w)
    assert tuple(oracle.element_letters(e)) in oracle.letter_shuffle_class(gp, w)


@given(graph_and_words(num_words=2, max_letters=4))
@settings(max_examples=60, deadline=None)
def test_equality_matches_oracle(gw):
    gp, w1, w2 = gw
    assert (word_element(gp, w1) == word_element(gp, w2)) == (
        tuple(w2) in oracle.letter_shuffle_class(gp, w1)
    )


# ---------------------------------------------------------------------------
# multiplication

@given(graph_and_words(num_words=3, max_letters=3))
@settings(max_examples=60, deadline=None)
def test_multiply_associative(gw):
    gp, w1, w2, w3 = gw
    a, b, c = (word_element(gp, w) for w in (w1, w2, w3))
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


@given(graph_and_words(num_words=1, max_letters=4))
@settings(max_examples=40, deadline=None)
def test_identity_laws(gw):
    gp, w = gw
    a = word_element(gp, w)
    e = identity(gp)
    assert multiply(a, e) == a
    assert multiply(e, a) == a


def test_mono_amalgamation(p3):
    x1 = make_element(p3, "x1")
    assert str(multiply(x1, x1)) == "x1^2"


def test_multiply_graph_mismatch(p3, k3):
    with pytest.raises(ValueError):
        multiply(make_element(p3, "x1"), make_element(k3, "x1"))


# ---------------------------------------------------------------------------
# final / initial components

def test_final_component_examples(p3):
    a = make_element(p3, "x3 x1")
    d, comp = final_component(a, "x1")
    assert d == ComponentElement("x1", 1)
    assert comp == make_element(p3, "x3")

    a = make_element(p3, "x1 x3")
    d, comp = final_component(a, "x1")
    assert d is None
    assert comp == a

    d, comp = final_component(identity(p3), "x1")
    assert d is None and comp.is_identity()


def test_initial_component_examples(p3):
    a = make_element(p3, "x1 x3")
    d, comp = initial_component(a, "x1")
    assert d == ComponentElement("x1", 1)
    assert comp == make_element(p3, "x3")

    a = make_element(p3, "x3 x1")
    assert initial_component(a, "x1") == (None, a)

    a = make_element(p3, "x1^2")
    d, comp = initial_component(a, "x1")
    assert d == ComponentElement("x1", 2)
    assert comp.is_identity()


def test_initial_component_free_payload(mixed):
    # the split reads the syllables backwards, but the payload keeps its order
    d, comp = initial_component(make_element(mixed, "p q w"), "u")
    assert (d, comp) == (ComponentElement("u", ("p", "q")), make_element(mixed, "w"))
    a = make_element(mixed, "w^2")
    assert initial_component(a, "u") == (None, a)


@given(graph_and_words(num_words=1, max_letters=5), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_final_component_shuffle_invariant(gw, rng):
    from conftest import random_shuffle_walk

    gp, w = gw
    a = word_element(gp, w)
    for v in gp.vertices:
        expect = split_final(gp, a.expr, v)
        other = random_shuffle_walk(gp, a.expr, rng)
        d, rest = split_final(gp, other, v)
        assert d == expect[0]
        assert normal_form(gp, rest) == normal_form(gp, expect[1])


@given(graph_and_words(num_words=1, max_letters=4), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_final_component_functorial(gw, k):
    gp, w = gw
    a = word_element(gp, w)
    for v in gp.vertices:
        x = component_embed(gp, v, k if gp.is_mono(v) else (gp.letters(v)[0],) * k)
        d, comp = final_component(a, v)
        d2, comp2 = final_component(multiply(a, x), v)
        dx = x.expr[0].payload if d is None else d.payload + x.expr[0].payload
        assert d2 == ComponentElement(v, dx)
        assert comp2 == comp


@given(graph_and_words(num_words=1, max_letters=4, graphs=MONO_OR_MIXED), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_initial_component_functorial(gw, k):
    gp, w = gw
    a = word_element(gp, w)
    for v in gp.vertices:
        x = component_embed(gp, v, k if gp.is_mono(v) else (gp.letters(v)[0],) * k)
        d, comp = initial_component(a, v)
        d2, comp2 = initial_component(multiply(x, a), v)
        dx = x.expr[0].payload if d is None else x.expr[0].payload + d.payload
        assert d2 == ComponentElement(v, dx)
        assert comp2 == comp


# ---------------------------------------------------------------------------
# division

def _divisions(gp, divide, rows):
    for a, c, want in rows:
        got = divide(make_element(gp, a), make_element(gp, c))
        assert got == (None if want is None else make_element(gp, want)), (a, c)


def test_right_divide_examples(p3, mixed):
    assert right_divide(make_element(p3, "x1 x2"), make_element(p3, "x2")) == make_element(p3, "x1")
    assert right_divide(make_element(p3, "x1 x3"), make_element(p3, "x1")) is None
    a = make_element(p3, "x3 x2 x1")
    assert right_divide(a, identity(p3)) == a
    _divisions(p3, right_divide, [
        ("x2^2 x3 x1", "x3 x1", "x2^2"),  # two consumed monogenic peels
        ("x1^3 x2", "x1^2", "x1 x2"),  # the remainder x1 merges at the boundary
    ])
    _divisions(mixed, right_divide, [
        ("p q q", "q", "p q"),  # free remainder
        ("p q w", "p q", "w"),  # consumed free peel
        ("p q", "p", None),  # p is not a suffix of p q
    ])


def test_left_divide_examples(p3, mixed):
    assert left_divide(make_element(p3, "x1 x3"), make_element(p3, "x3")) is None
    a = make_element(p3, "x3 x2 x1")
    assert left_divide(a, identity(p3)) == a
    _divisions(p3, left_divide, [
        ("x1 x2", "x1", "x2"),  # consumed monogenic peel
        ("x1^3", "x1", "x1^2"),  # monogenic remainder
        ("x1 x3 x2^2", "x1 x3", "x2^2"),  # two consumed monogenic peels
    ])
    _divisions(mixed, left_divide, [
        ("p p q", "p", "p q"),  # free remainder
        ("p q w", "p q", "w"),  # consumed free peel
        ("p q", "q", None),  # q is not a prefix of p q
    ])


@given(graph_and_words(num_words=2, max_letters=4))
@settings(max_examples=80, deadline=None)
def test_right_cancellation(gw):
    gp, w1, w2 = gw
    a, c = word_element(gp, w1), word_element(gp, w2)
    assert right_divide(multiply(a, c), c) == a


@given(graph_and_words(num_words=2, max_letters=4))
@settings(max_examples=60, deadline=None)
def test_left_cancellation(gw):
    gp, w1, w2 = gw
    a, c = word_element(gp, w1), word_element(gp, w2)
    assert left_divide(multiply(c, a), c) == a


@given(graph_and_words(num_words=2, max_letters=4, graphs=MONO_OR_MIXED))
@settings(max_examples=60, deadline=None)
def test_left_divide_matches_oracle(gw):
    # every left divisor of a, and one element that mostly is not
    gp, w1, w2 = gw
    a = word_element(gp, w1)
    divisors = oracle.all_left_divisors(a)
    for c in divisors | {word_element(gp, w2)}:
        b = left_divide(a, c)
        assert (b is not None) == (c in divisors)
        if b is not None:
            assert multiply(c, b) == a


@given(graph_and_words(num_words=2, max_letters=4, graphs=MONO_OR_MIXED))
@settings(max_examples=60, deadline=None)
def test_right_divide_matches_oracle(gw):
    # w2's element and every element of at most 2 letters: many of them do
    # not divide a, which judges the no-quotient branch as well
    gp, w1, w2 = gw
    a = word_element(gp, w1)
    for c in [word_element(gp, w2)] + oracle.elements_up_to(gp, 2):
        b = right_divide(a, c)
        assert (b is not None) == (a in oracle.left_ideal(c, a.letter_length()))
        if b is not None:
            assert multiply(b, c) == a


# ---------------------------------------------------------------------------
# lclm

def test_lclm_examples(p3):
    s, t, m = lclm(make_element(p3, "x1"), make_element(p3, "x2"))
    assert (str(s), str(t), str(m)) == ("x2", "x1", "x1 x2")

    assert lclm(make_element(p3, "x1"), make_element(p3, "x3")) is None

    s, t, m = lclm(make_element(p3, "x1"), make_element(p3, "x1^2"))
    assert (str(s), str(t), str(m)) == ("x1", "1", "x1^2")


def test_lclm_adjacent_embeds(mixed):
    # nonidentity elements of adjacent components: m is just the product
    c = make_element(mixed, "p q")
    d = make_element(mixed, "w^2")
    s, t, m = lclm(c, d)
    assert m == multiply(c, d)
    assert s == d and t == c


@given(graph_and_words(num_words=2, max_letters=3))
@settings(max_examples=50, deadline=None)
def test_lclm_matches_oracle(gw):
    gp, w1, w2 = gw
    b, c = word_element(gp, w1), word_element(gp, w2)
    bound = b.letter_length() + c.letter_length()
    want = oracle.lclm_oracle(b, c, bound)
    got = lclm(b, c)
    if want is None:
        assert got is None
    else:
        s, t, m = got
        assert m == want
        assert m == multiply(s, b) == multiply(t, c)


def test_lclm_long_word_without_recursion():
    gp = builtin("k2_edgeless")
    b = make_element(gp, "x1 x2 " * 2000)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        s, t, m = lclm(b, make_element(gp, "x2"))
    finally:
        sys.setrecursionlimit(limit)
    assert s == identity(gp)
    assert t == make_element(gp, "x1 x2 " * 1999 + "x1")
    assert m == b


def test_lclm_single_vertex_matches_component_rule(p3):
    # restricted to one vertex the ambient LCLM is the component one
    for m_ in range(4):
        for n_ in range(4):
            b = component_embed(p3, "x2", m_) if m_ else identity(p3)
            c = component_embed(p3, "x2", n_) if n_ else identity(p3)
            s, t, m = lclm(b, c)
            assert m == component_embed(p3, "x2", max(m_, n_))


# ---------------------------------------------------------------------------
# hclf

def test_hclf_examples(p3):
    assert hclf(make_element(p3, "x2 x1"), make_element(p3, "x2 x3")) == make_element(p3, "x2")
    assert hclf(make_element(p3, "x1 x2"), make_element(p3, "x1 x3")) == make_element(p3, "x1")
    a = make_element(p3, "x3 x2 x1")
    assert hclf(a, a) == a


@pytest.mark.parametrize("graph, a, b, common", [
    # u's heads share only the prefix p; their rests q and p differ, so u never
    # strips again, and x, which does not commute with u, stays blocked
    ("vertex u free p q\nvertex x mono\n", "p q x p", "p p x p", "p"),
    # monogenic: x2 consumes b's head and shortens a's to x2^2
    ("p3", "x2^3 x1", "x2 x3", "x2"),
    # stripping x3 from both unblocks the smaller, non-adjacent x1
    ("p3", "x3 x1", "x3 x1^2", "x3 x1"),
    # a free head consumed in one coordinate, shortened in the other
    ("mixed", "p q w^2", "p q p w", "p q w"),
    ("p3", "x3 x2 x1", "x3 x2 x1", "x3 x2 x1"),  # identical inputs
    ("p3", "1", "x1 x2", "1"),  # identity inputs
    ("p3", "1", "1", "1"),
])
def test_hclf_strip_cases(graph, a, b, common):
    gp = builtin(graph) if "\n" not in graph else parse_graph(graph)
    a, b = make_element(gp, a), make_element(gp, b)
    h = hclf(a, b)
    assert h == make_element(gp, common)
    assert h == oracle.hclf_oracle(a, b)
    assert hclf(b, a) == h


def test_hclf_long_common_prefix():
    # ~2,000-syllable elements sharing a ~1,500-syllable left factor on a
    # random 8-vertex graph at density 0.5; a strip that re-normalises the
    # whole element per stripped piece takes many seconds here
    rng = random.Random(8)
    gp = mono_graph(8, [(i, j) for i in range(1, 9) for j in range(i + 1, 9) if rng.random() < 0.5])
    letters = gp.all_letters()

    def word(n):
        return make_element(gp, [(rng.choice(letters), 1) for _ in range(n)])

    x, ta, tb = word(2200), word(700), word(700)
    a, b = multiply(x, ta), multiply(x, tb)
    assert a.length > 1800 and b.length > 1800
    t0 = time.perf_counter()
    h = hclf(a, b)
    t1 = time.perf_counter()
    m = max_above(IHPair(a, b))
    t2 = time.perf_counter()
    assert t1 - t0 < 1.0 and t2 - t1 < 1.0
    assert h == multiply(x, hclf(ta, tb))
    assert multiply(h, m.a) == a and multiply(h, m.b) == b
    assert hclf(m.a, m.b) == identity(gp)


@given(graph_and_words(num_words=2, max_letters=4))
@settings(max_examples=50, deadline=None)
def test_hclf_matches_oracle(gw):
    gp, w1, w2 = gw
    a, b = word_element(gp, w1), word_element(gp, w2)
    assert hclf(a, b) == oracle.hclf_oracle(a, b)


# ---------------------------------------------------------------------------
# component embedding

def test_component_embed_examples(p3, mixed):
    assert str(component_embed(p3, "x1", 3)) == "x1^3"
    assert str(component_embed(mixed, "u", ("p", "q"))) == "p q"
    assert component_embed(p3, "x1", 2) != component_embed(p3, "x1", 3)
    assert component_embed(mixed, "u", ("p",)) != component_embed(mixed, "u", ("q",))


def test_component_embed_invalid(p3, mixed):
    with pytest.raises(ValueError):
        component_embed(p3, "x1", ("x1",))
    with pytest.raises(ValueError):
        component_embed(mixed, "u", ("w",))


@pytest.mark.parametrize("vertex, payload, message", [
    # a bool is an int, but not a positive exponent, and False is not the identity
    ("w", True, "monogenic payload for 'w' must be a positive int"),
    ("w", False, "monogenic payload for 'w' must be a positive int"),
    ("u", False, "free payload for 'u' must be a nonempty letter tuple"),
    # a letter that is not a str, hashable or not
    ("u", (["p"],), "letter ['p'] not in alphabet of 'u'"),
    ("u", ("p", 5), "letter 5 not in alphabet of 'u'"),
    (["u"], ("p",), "undeclared vertex ['u']"),
    # an identity payload only of the vertex's own kind: 0 or ()
    ("w", (), "monogenic payload for 'w' must be a positive int"),
    ("u", 0, "free payload for 'u' must be a nonempty letter tuple"),
    (["u"], (), "undeclared vertex ['u']"),
])
def test_validation_rejects_malformed_components(mixed, vertex, payload, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        component_embed(mixed, vertex, payload)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        normal_form(mixed, [(vertex, payload)])

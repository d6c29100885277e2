import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygraph import oracle
from polygraph.builtin import builtin
from polygraph.gproduct import make_element
from polygraph.ihull import IHPair, ZERO, eval_word, format_pgword, ih_multiply
from polygraph.ragroup import eta, group_identity, group_reduce

from conftest import graph_and_words, mono_graphs, word_element


def signed_words(gp, max_len=6):
    letters = list(gp.vertices)
    return st.lists(
        st.tuples(st.sampled_from(letters), st.sampled_from([1, -1])),
        max_size=max_len,
    )


def signed_shuffle_class(gp, word):
    """Every signed word reachable from ``word`` by commuting swaps."""
    seen = {word}
    frontier = [word]
    while frontier:
        cur = frontier.pop()
        for i in range(len(cur) - 1):
            if gp.adjacent(cur[i][0], cur[i + 1][0]):
                nxt = cur[:i] + (cur[i + 1], cur[i]) + cur[i + 2:]
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return seen


def expand(r):
    """One (letter, +1 or -1) token per letter of a group word's syllables."""
    out = []
    for ce in r.expr:
        out.extend([(ce.vertex, 1 if ce.payload > 0 else -1)] * abs(ce.payload))
    return tuple(out)


def reference_reduce(gp, word):
    """Brute-force group_reduce: cancel an adjacent x x^-1 pair anywhere in
    the shuffle class until none is left, then take the least word of the
    class under (vertex index, + before -)."""
    word = tuple(word)
    while True:
        words = signed_shuffle_class(gp, word)
        cancellable = [
            w[:i] + w[i + 2:]
            for w in words
            for i in range(len(w) - 1)
            if w[i][0] == w[i + 1][0] and w[i][1] == -w[i + 1][1]
        ]
        if not cancellable:
            return min(words, key=lambda w: [(gp.vertex_index(l), -s) for l, s in w])
        word = cancellable[0]


def test_reduce_examples(p3):
    assert str(group_reduce(p3, "x1 x2 x1^-1")) == "x2"
    assert str(group_reduce(p3, "x1 x3 x1^-1")) == "x1 x3 x1^-1"
    assert str(group_reduce(p3, "x1 x1^-1")) == "1"


def test_reduce_rejects_bad_sign(p3):
    for sign in (0, 2, True, 1.0):
        with pytest.raises(ValueError):
            group_reduce(p3, [("x1", sign)])


@pytest.mark.parametrize("read", [eval_word, group_reduce])
@pytest.mark.parametrize("word, message", [
    ([5], "bad signed token 5"),
    ([["x1"]], "bad signed token ['x1']"),
    ([("x1",)], "bad signed token ('x1',)"),
    ("zz x1 x1^^2", "bad signed token 'x1^^2'"),  # syntax before unknown letters
])
def test_signed_readers_reject_malformed_tokens(p3, read, word, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read(p3, word)


def test_reduce_requires_mono(mixed):
    with pytest.raises(ValueError):
        group_reduce(mixed, "p")


@given(mono_graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_reduce_idempotent(gp, data):
    w = data.draw(signed_words(gp))
    r = group_reduce(gp, w)
    assert group_reduce(gp, str(r)) == r
    assert str(r) == format_pgword(expand(r))


@given(mono_graphs(max_vertices=3), st.data())
@settings(max_examples=40, deadline=None)
def test_reduce_constant_on_shuffle_classes(gp, data):
    w = tuple(data.draw(signed_words(gp, max_len=5)))
    r = group_reduce(gp, w)
    # commuting swaps of signed letters never change the reduced form
    for other in signed_shuffle_class(gp, w):
        assert group_reduce(gp, other) == r


@given(mono_graphs(max_vertices=4), st.data())
@settings(max_examples=100, deadline=None)
def test_reduce_matches_brute_force(gp, data):
    w = data.draw(signed_words(gp, max_len=7))
    assert expand(group_reduce(gp, w)) == reference_reduce(gp, w)


@given(mono_graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_positive_words_match_monoid_normal_form(gp, data):
    letters = data.draw(st.lists(st.sampled_from(list(gp.vertices)), max_size=6))
    r = group_reduce(gp, [(l, 1) for l in letters])
    e = make_element(gp, [(l, 1) for l in letters])
    assert expand(r) == tuple((l, 1) for l in oracle.element_letters(e))


@given(mono_graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_word_times_inverse_is_identity(gp, data):
    w = data.draw(signed_words(gp))
    r = group_reduce(gp, w)
    assert (r * r.inverse()).is_identity()


def test_long_word_times_inverse_is_identity():
    gp = builtin("k2_edgeless")
    rng = random.Random(5)
    w = [(rng.choice(("x1", "x2")), rng.choice((1, -1))) for _ in range(2000)]
    inverse = [(l, -s) for l, s in reversed(w)]
    assert group_reduce(gp, w + inverse).is_identity()
    assert len(expand(group_reduce(gp, w))) > 100


def test_huge_exponents_stay_syllables():
    # one syllable per run: nothing of size 10^9 is built
    w = group_reduce(builtin("k2_edgeless"), "x1^1000000000 x2 x1^-5")
    assert str(w) == "x1^1000000000 x2 x1^-5"
    assert len(w.expr) == 3
    assert str(w.inverse()) == "x1^5 x2^-1 x1^-1000000000"
    assert (w * w.inverse()).is_identity()


# ---------------------------------------------------------------------------
# eta

def test_eta_examples(p3):
    assert eta(IHPair(make_element(p3, "x1"), make_element(p3, "x1"))).is_identity()
    assert str(eta(IHPair(make_element(p3, "x2"), make_element(p3, "x1")))) == "x1 x2^-1"
    assert eta(ZERO) is ZERO


def test_eta_long_runs(p3):
    a = make_element(p3, "x1^30 x3^40 x2^31")
    b = make_element(p3, "x3^35 x2^50 x1^33")
    a_inverse = " ".join(f"{ce.vertex}^{-ce.payload}" for ce in reversed(a.expr))
    h = eta(IHPair(a, b))
    assert h == group_reduce(p3, f"{a_inverse} {b}")
    assert str(h) == "x2^19 x3^-40 x1^-30 x3^35 x1^33"


def test_eta_rejects_non_element():
    with pytest.raises(TypeError):
        eta("x")


def test_eta_requires_mono(mixed):
    with pytest.raises(ValueError):
        eta(IHPair(make_element(mixed, "p"), make_element(mixed, "w")))


def test_eta_idempotent_pure(p3):
    elems = oracle.elements_up_to(p3, 2)
    for a in elems:
        for b in elems:
            h = eta(IHPair(a, b))
            assert h.is_identity() == (a == b)


def test_eta_prehomomorphism(p3):
    rng = random.Random(7)
    elems = oracle.elements_up_to(p3, 2)
    pairs = [IHPair(a, b) for a in elems for b in elems]
    checked = 0
    while checked < 300:
        s, t = rng.choice(pairs), rng.choice(pairs)
        st_ = ih_multiply(s, t)
        if st_ is ZERO:
            continue
        assert eta(st_) == eta(s) * eta(t)
        checked += 1


def test_group_identity(p3):
    assert group_identity(p3).is_identity()
    assert str(group_identity(p3)) == "1"

"""Kernel work per layer, by counts: every kernel pass and both piles of the
``hclf`` strip go through ``gproduct._pile``, so the syllables it piles
measure a layer's work without a clock.  Each layer's count is an exact
function of its inputs, and doubling the words may at most about double it
(a 2.5x allowance); the counts do not depend on the machine or the hash
seed."""

import random
from functools import partial
from itertools import groupby

import pytest

from polygraph import gproduct
from polygraph.builtin import mono_graph
from polygraph.gproduct import (
    GPElement, final_component, hclf, initial_component, lclm, make_element, multiply,
)
from polygraph.ihull import IHPair, max_above, natural_le
from polygraph.ragroup import eta, group_reduce

SIZES = (250, 500, 1000)  # letters per word


@pytest.fixture
def piled(monkeypatch):
    """Counter of the syllables piled since the test started."""
    count = [0]
    pile = gproduct._pile

    def counted(gp, syllables):
        count[0] += len(syllables)
        return pile(gp, syllables)

    monkeypatch.setattr(gproduct, "_pile", counted)
    return count


def graph():
    """Seeded 8-vertex monogenic graph at edge density 0.5."""
    rng = random.Random(10)
    pairs = [(i, j) for i in range(1, 9) for j in range(i + 1, 9)]
    return mono_graph(8, [p for p in pairs if rng.random() < 0.5])


def words(gp, n, seed, signed=False):
    """Three seeded words of n letters."""
    rng = random.Random(seed)
    signs = ("", "^-1") if signed else ("",)
    return [" ".join(rng.choice(gp.vertices) + rng.choice(signs) for _ in range(n))
            for _ in range(3)]


def elements(gp, n, seed):
    return [make_element(gp, w) for w in words(gp, n, seed)]


def common_pair(gp, n, seed):
    """c*a and c*b: elements with a long highest common left factor."""
    a, b, c = elements(gp, n, seed)
    return multiply(c, a), multiply(c, b)


def multiple_pair(gp, n, seed):
    """u*w and v*w, u over x1, x2 and v over x3, x5 with n/4 letters each:
    on graph() each of x1, x2 is adjacent to each of x3 and x5, so lclm
    carries all of w's syllables into their matches and v past u, giving
    s = v and t = u."""
    rng = random.Random(seed)
    u, v = (" ".join(rng.choice(pair) for _ in range(n // 4)) for pair in (("x1", "x2"), ("x3", "x5")))
    w = words(gp, n, seed)[0]
    return make_element(gp, f"{u} {w}"), make_element(gp, f"{v} {w}")


def le_pair(gp, n, seed):
    """s = [x*c | x*d] and t = [c | d], so that s <= t."""
    x, c, d = elements(gp, n, seed)
    return IHPair(multiply(x, c), multiply(x, d)), IHPair(c, d)


# each builds its inputs uncounted and returns the counted call
LAYERS = {
    "make_element": lambda gp, n, seed: partial(make_element, gp, words(gp, n, seed)[0]),
    "multiply": lambda gp, n, seed: partial(multiply, *elements(gp, n, seed)[:2]),
    "hclf": lambda gp, n, seed: partial(hclf, *common_pair(gp, n, seed)),
    "max_above": lambda gp, n, seed: partial(max_above, IHPair(*common_pair(gp, n, seed))),
    "lclm": lambda gp, n, seed: partial(lclm, *multiple_pair(gp, n, seed)),
    "natural_le": lambda gp, n, seed: partial(natural_le, *le_pair(gp, n, seed)),
    "initial_component": lambda gp, n, seed: (
        lambda a=elements(gp, n, seed)[0]: initial_component(a, a.expr[0].vertex)
    ),
    "group_reduce": lambda gp, n, seed: (
        partial(group_reduce, gp, words(gp, n, seed, signed=True)[0])
    ),
    "eta": lambda gp, n, seed: partial(eta, IHPair(*elements(gp, n, seed)[:2])),
}


def syllables(*elems):
    return sum(len(e.expr) for e in elems)


def read_back(*elems):
    """The syllables kernel passes pile to read elems back: shuffle_reduce
    piles nothing below 2 syllables."""
    return sum(len(e.expr) for e in elems if len(e.expr) >= 2)


def strip_work(a, b):
    """Both piles of the strip, plus the kernel pass that reads the hclf back."""
    return syllables(a, b) + read_back(hclf(a, b))


def lclm_work(b, c):
    """The two products of lclm's invariant check, plus the passes that read
    s and t back; for multiple_pair, no two syllables of u, or of v, merge in
    them, so each is read back from as many syllables as it has."""
    s, t, _ = lclm(b, c)
    return syllables(s, b) + syllables(t, c) + read_back(s, t)


def le_work(s, t):
    """lclm(s.a, t.a), whose second cofactor is x, then the product x*t.b."""
    x = lclm(s.a, t.a)[1]
    return lclm_work(s.a, t.a) + syllables(x, t.b)


# the syllables each layer piles, from its inputs; computed before the counted call
WORK = {
    "make_element": lambda gp, n, seed: len(words(gp, n, seed)[0].split()),  # one per token
    "multiply": lambda gp, n, seed: syllables(*elements(gp, n, seed)[:2]),
    "hclf": lambda gp, n, seed: strip_work(*common_pair(gp, n, seed)),
    "max_above": lambda gp, n, seed: strip_work(*common_pair(gp, n, seed)),
    "lclm": lambda gp, n, seed: lclm_work(*multiple_pair(gp, n, seed)),
    "natural_le": lambda gp, n, seed: le_work(*le_pair(gp, n, seed)),
    "initial_component": lambda gp, n, seed: syllables(elements(gp, n, seed)[0]) - 1,
    "group_reduce": lambda gp, n, seed: (  # one per signed run
        len(list(groupby(words(gp, n, seed, signed=True)[0].split())))
    ),
    "eta": lambda gp, n, seed: syllables(*elements(gp, n, seed)[:2]),
}


def piled_by(piled, layer, gp, n):
    call = LAYERS[layer](gp, n, seed=n)
    before = piled[0]
    call()
    return piled[0] - before


@pytest.mark.parametrize("layer", LAYERS)
def test_kernel_work_is_exact(piled, layer):
    gp = graph()
    for n in SIZES:
        want = WORK[layer](gp, n, seed=n)
        assert piled_by(piled, layer, gp, n) == want, (layer, n)


@pytest.mark.parametrize("layer", LAYERS)
def test_kernel_work_doubles_at_most(piled, layer):
    gp = graph()
    counts = [piled_by(piled, layer, gp, n) for n in SIZES]
    assert counts[0] > 0, counts
    for small, large in zip(counts, counts[1:]):
        assert large <= 2.5 * small, (layer, counts)


def test_final_component_piles_nothing(piled):
    # every syllable after the final component is adjacent to its vertex, so
    # the rest is a slice of the canonical expression and needs no kernel pass
    gp = graph()
    for n in SIZES:
        a = elements(gp, n, seed=n)[0]
        before = piled[0]
        d, rest = final_component(a, a.expr[-1].vertex)
        assert piled[0] == before
        assert multiply(rest, GPElement(gp, (d,))) == a

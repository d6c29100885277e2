import random

import pytest
from hypothesis import strategies as st

from polygraph.builtin import builtin, mono_graph
from polygraph.gproduct import ComponentElement, make_element
from polygraph.graph import parse_graph

BUILTIN_NAMES = ("single", "k2_edgeless", "p3", "k3", "mixed")


@pytest.fixture
def p3():
    return builtin("p3")


@pytest.fixture
def k3():
    return builtin("k3")


@pytest.fixture
def mixed():
    return builtin("mixed")


@st.composite
def mono_graphs(draw, min_vertices=1, max_vertices=4):
    n = draw(st.integers(min_vertices, max_vertices))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = [p for p in pairs if draw(st.booleans())]
    return mono_graph(n, edges)


@st.composite
def graph_products(draw, max_vertices=4):
    """Random graph with a mix of monogenic and free components."""
    n = draw(st.integers(1, max_vertices))
    lines = []
    for i in range(1, n + 1):
        if draw(st.booleans()):
            lines.append(f"vertex v{i} mono")
        else:
            k = draw(st.integers(1, 2))
            letters = " ".join(f"v{i}l{j}" for j in range(k))
            lines.append(f"vertex v{i} free {letters}")
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for i, j in pairs:
        if draw(st.booleans()):
            lines.append(f"edge v{i} v{j}")
    return parse_graph("\n".join(lines) + "\n")


@st.composite
def graph_and_syllables(draw, signed=False, max_vertices=12):
    """A graph with up to ``max_vertices`` vertices and up to 300 syllables,
    drawn in runs of 1 to 6 syllables of one vertex, so that free vertices
    get long runs of pieces to join.  Signed syllables carry nonzero
    exponents, as group_reduce (+1/-1) and eta (-k for the first coordinate,
    k for the second) pass them; a run's signs vary, so stacks empty
    mid-pile."""
    graphs = mono_graphs(1, max_vertices)
    gp = draw(graphs if signed else st.one_of(graphs, graph_products(max_vertices)))
    n = draw(st.integers(0, 300))
    picks = draw(st.lists(
        st.tuples(
            st.sampled_from(gp.vertices), st.integers(1, 6), st.integers(1, 3),
            st.integers(0, 255),
        ),
        min_size=n // 3, max_size=n // 3 + 1,
    ))
    syllables = []
    for v, run, k, bits in picks:
        for i in range(run):
            if signed:
                payload = -k if bits >> i & 1 else k
            elif gp.is_mono(v):
                payload = k
            else:
                letters = gp.letters(v)
                payload = tuple(letters[(bits >> (i + j)) % len(letters)] for j in range(k))
            syllables.append(ComponentElement(v, payload))
    return gp, syllables[:n]


@st.composite
def graph_and_words(draw, num_words=1, max_letters=5, graphs=None):
    gp = draw(graphs if graphs is not None else graph_products())
    letters = gp.all_letters()
    words = tuple(
        tuple(draw(st.sampled_from(letters)) for _ in range(draw(st.integers(0, max_letters))))
        for _ in range(num_words)
    )
    return (gp,) + words


def word_element(gp, letters):
    return make_element(gp, [(l, 1) for l in letters])


def random_shuffle_walk(gp, expr, rng: random.Random, steps=None):
    """A random shuffle-equivalent reordering of a reduced expression."""
    w = list(expr)
    if steps is None:
        steps = 2 * len(w) * len(w) + 4
    for _ in range(steps):
        if len(w) < 2:
            break
        i = rng.randrange(len(w) - 1)
        if gp.adjacent(w[i].vertex, w[i + 1].vertex):
            w[i], w[i + 1] = w[i + 1], w[i]
    return tuple(w)

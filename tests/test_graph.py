from pathlib import Path

import pytest
from hypothesis import given

from polygraph.builtin import BUILTIN_GRAPH_TEXTS
from polygraph.graph import GraphError, format_graph, parse_graph

from conftest import graph_products


def test_parse_basic():
    gp = parse_graph("vertex u mono\nvertex w mono\nedge u w\n")
    assert gp.vertices == ("u", "w")
    assert gp.edges == frozenset({frozenset({"u", "w"})})


def test_parse_free_component():
    gp = parse_graph("vertex u free p q\nvertex w mono\n")
    assert not gp.is_mono("u")
    assert gp.letters("u") == ("p", "q")
    assert gp.is_mono("w")
    assert gp.letters("w") == ("w",)


def test_parse_comments_and_blank_lines():
    gp = parse_graph("# a comment\n\nvertex a mono  # trailing\nvertex b mono\nedge a b\n")
    assert gp.vertices == ("a", "b")
    assert gp.adjacent("a", "b")


@pytest.mark.parametrize(
    "text",
    [
        "vertex u mono\nedge u u\n",            # self-loop
        "vertex u mono\nvertex u mono\n",       # duplicate vertex
        "vertex u free p\nvertex w free p\n",   # duplicate letter
        "vertex u mono\nvertex w free u\n",     # letter collides with mono token
        "vertex u mono\nedge u w\n",            # undeclared endpoint
        "vertex u free\n",                      # empty letter list
        "vertex 1u mono\n",                     # bad name
        "frobnicate u w\n",                     # unknown directive
        "vertex u mono extra\n",                # trailing tokens
    ],
)
def test_parse_errors(text):
    with pytest.raises(GraphError):
        parse_graph(text)


def test_adjacency_examples(p3):
    assert p3.adjacent("x1", "x2")
    assert not p3.adjacent("x1", "x3")
    assert not p3.adjacent("x1", "x1")


def test_adjacency_undeclared(p3):
    with pytest.raises(GraphError):
        p3.adjacent("x1", "nope")


@pytest.mark.parametrize(
    "lookup, args",
    [
        ("vertex_index", ("nope",)),
        ("adjacent", ("nope", "x1")),
        ("is_mono", ("nope",)),
        ("letters", ("nope",)),
        ("vertex_of_letter", ("nope",)),
    ],
)
def test_lookup_of_undeclared_name(p3, lookup, args):
    with pytest.raises(GraphError, match="'nope'"):
        getattr(p3, lookup)(*args)


@given(graph_products())
def test_adjacency_symmetric_irreflexive(gp):
    for u in gp.vertices:
        assert not gp.adjacent(u, u)
        for v in gp.vertices:
            assert gp.adjacent(u, v) == gp.adjacent(v, u)


@given(graph_products())
def test_format_parse_round_trip(gp):
    assert parse_graph(format_graph(gp)) == gp


def test_edge_orientation_normalized():
    g1 = parse_graph("vertex a mono\nvertex b mono\nedge a b\n")
    g2 = parse_graph("vertex a mono\nvertex b mono\nedge b a\n")
    assert g1 == g2


def test_bundled_graph_files_match_builtins():
    # the golden CLI table reads graphs/*.graph, the check suites the dict
    graphs = Path(__file__).resolve().parents[1] / "graphs"
    assert {f.stem: f.read_text() for f in graphs.glob("*.graph")} == BUILTIN_GRAPH_TEXTS

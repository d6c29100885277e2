"""Bundled example graphs used by the CLI checks and the test suite."""

from __future__ import annotations

from .graph import GraphProduct, parse_graph

DEFAULT_SEED = 20240824  # seed of the property suites behind ``polygraph check``

BUILTIN_GRAPH_TEXTS: dict[str, str] = {
    "single": "vertex x mono\n",
    "k2_edgeless": "vertex x1 mono\nvertex x2 mono\n",
    "p3": (
        "vertex x1 mono\n"
        "vertex x2 mono\n"
        "vertex x3 mono\n"
        "edge x1 x2\n"
        "edge x2 x3\n"
    ),
    "k3": (
        "vertex x1 mono\n"
        "vertex x2 mono\n"
        "vertex x3 mono\n"
        "edge x1 x2\n"
        "edge x1 x3\n"
        "edge x2 x3\n"
    ),
    "mixed": "vertex u free p q\nvertex w mono\nedge u w\n",
}


def builtin(name: str) -> GraphProduct:
    return parse_graph(BUILTIN_GRAPH_TEXTS[name])


def mono_graph(n: int, edges: list[tuple[int, int]]) -> GraphProduct:
    """All-monogenic graph on vertices x1..xn with the given index edges."""
    lines = [f"vertex x{i} mono" for i in range(1, n + 1)]
    lines += [f"edge x{i} x{j}" for i, j in edges]
    return parse_graph("\n".join(lines) + "\n")


def all_mono_graphs(n: int) -> list[GraphProduct]:
    """All labeled all-monogenic graphs on n vertices."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    out = []
    for mask in range(1 << len(pairs)):
        edges = [p for k, p in enumerate(pairs) if mask >> k & 1]
        out.append(mono_graph(n, edges))
    return out

"""Independence graphs and per-vertex component declarations.

A graph here is a finite vertex set with an irreflexive, symmetric edge
relation.  Each vertex carries a component declaration: either a single
generator (monogenic, token equal to the vertex name) or a free monoid on an
explicit letter alphabet.  Declaration order of vertices and letters is the
total order every normal form in this package is computed against.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class GraphError(ValueError):
    """Malformed graph description or reference to an undeclared name."""


@dataclass(frozen=True)
class Graph:
    """Vertex list plus a set of unordered edges between distinct vertices."""

    vertices: tuple[str, ...]
    edges: frozenset[frozenset[str]]

    @cached_property
    def _index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise GraphError(f"undeclared vertex {v!r}") from None

    def adjacent(self, u: str, v: str) -> bool:
        self.index(u)
        self.index(v)
        return u != v and frozenset((u, v)) in self.edges

    def edge_pairs(self) -> list[tuple[str, str]]:
        """Edges as ordered pairs, sorted by declaration order."""
        pairs = []
        for e in self.edges:
            u, v = sorted(e, key=self.index)
            pairs.append((u, v))
        pairs.sort(key=lambda p: (self.index(p[0]), self.index(p[1])))
        return pairs


@dataclass(frozen=True)
class ComponentSpec:
    """Per-vertex component kind: ``None`` payload means monogenic, a letter
    tuple means the free monoid on those letters."""

    entries: tuple[tuple[str, tuple[str, ...] | None], ...]

    @cached_property
    def _by_vertex(self) -> dict[str, tuple[str, ...] | None]:
        return dict(self.entries)

    @cached_property
    def _letter_vertex(self) -> dict[str, str]:
        out: dict[str, str] = {}
        for v, letters in self.entries:
            for a in (v,) if letters is None else letters:
                out[a] = v
        return out

    def is_mono(self, v: str) -> bool:
        try:
            return self._by_vertex[v] is None
        except KeyError:
            raise GraphError(f"undeclared vertex {v!r}") from None

    def letters(self, v: str) -> tuple[str, ...]:
        spec = self._by_vertex[v]
        return (v,) if spec is None else spec

    def vertex_of(self, letter: str) -> str:
        try:
            return self._letter_vertex[letter]
        except KeyError:
            raise GraphError(f"unknown letter {letter!r}") from None

    def all_letters(self) -> tuple[str, ...]:
        return tuple(self._letter_vertex)


@dataclass(frozen=True)
class GraphProduct:
    """A validated graph together with its component declarations.

    This is the ambient context every element in the package refers to;
    instances are immutable and compare by value.
    """

    graph: Graph
    components: ComponentSpec

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.graph.vertices

    def adjacent(self, u: str, v: str) -> bool:
        return self.graph.adjacent(u, v)

    def vertex_index(self, v: str) -> int:
        return self.graph.index(v)

    def is_mono(self, v: str) -> bool:
        return self.components.is_mono(v)

    def letters(self, v: str) -> tuple[str, ...]:
        return self.components.letters(v)

    def vertex_of_letter(self, letter: str) -> str:
        return self.components.vertex_of(letter)

    def all_mono(self) -> bool:
        return all(self.components.is_mono(v) for v in self.vertices)


def _check_name(name: str, what: str) -> None:
    if not NAME_RE.match(name):
        raise GraphError(f"invalid {what} name {name!r}")


def parse_graph(text: str) -> GraphProduct:
    """Parse the line-oriented graph file format.

    Lines are ``vertex <name> mono``, ``vertex <name> free <letter>...`` or
    ``edge <name> <name>``; ``#`` starts a comment.
    """
    entries: list[tuple[str, tuple[str, ...] | None]] = []
    seen_vertices: set[str] = set()
    seen_letters: set[str] = set()
    edge_decls: list[tuple[str, str, int]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw = parts[0]
        if kw == "vertex":
            if len(parts) < 3:
                raise GraphError(f"line {lineno}: incomplete vertex declaration")
            name, kind = parts[1], parts[2]
            _check_name(name, "vertex")
            if name in seen_vertices:
                raise GraphError(f"line {lineno}: duplicate vertex {name!r}")
            seen_vertices.add(name)
            if kind == "mono":
                if len(parts) != 3:
                    raise GraphError(f"line {lineno}: trailing tokens after 'mono'")
                if name in seen_letters:
                    raise GraphError(f"line {lineno}: duplicate letter {name!r}")
                seen_letters.add(name)
                entries.append((name, None))
            elif kind == "free":
                letters = tuple(parts[3:])
                if not letters:
                    raise GraphError(f"line {lineno}: free component needs letters")
                for a in letters:
                    _check_name(a, "letter")
                    if a in seen_letters:
                        raise GraphError(f"line {lineno}: duplicate letter {a!r}")
                    seen_letters.add(a)
                entries.append((name, letters))
            else:
                raise GraphError(f"line {lineno}: unknown component kind {kind!r}")
        elif kw == "edge":
            if len(parts) != 3:
                raise GraphError(f"line {lineno}: edge needs two endpoints")
            edge_decls.append((parts[1], parts[2], lineno))
        else:
            raise GraphError(f"line {lineno}: unknown directive {kw!r}")

    edges: set[frozenset[str]] = set()
    for u, v, lineno in edge_decls:
        if u not in seen_vertices or v not in seen_vertices:
            raise GraphError(f"line {lineno}: edge endpoint not declared")
        if u == v:
            raise GraphError(f"line {lineno}: self-loop at {u!r}")
        edges.add(frozenset((u, v)))

    vertices = tuple(v for v, _ in entries)
    return GraphProduct(Graph(vertices, frozenset(edges)), ComponentSpec(tuple(entries)))


def format_graph(gp: GraphProduct) -> str:
    """Render a graph back to the file format; inverse of parse_graph."""
    lines = []
    for v in gp.vertices:
        if gp.is_mono(v):
            lines.append(f"vertex {v} mono")
        else:
            lines.append(f"vertex {v} free " + " ".join(gp.letters(v)))
    for u, v in gp.graph.edge_pairs():
        lines.append(f"edge {u} {v}")
    return "\n".join(lines) + "\n"

"""Independence graphs and per-vertex component declarations.

A graph here is a finite vertex set with an irreflexive, symmetric edge
relation.  Each vertex carries a component declaration: either a single
generator (monogenic, token equal to the vertex name) or a free monoid on an
explicit letter alphabet.  Declaration order of vertices and letters is the
total order every normal form in this package is computed against.
"""

from __future__ import annotations

import re

NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class GraphError(ValueError):
    """Malformed graph description or reference to an undeclared name."""


class Value:
    """Immutable value object.

    A subclass names its fields in ``_fields``; instances compare and hash by
    type and field values, and refuse assignment after ``__init__``.  Classes
    built in hot loops write their own ``__init__``, ``__eq__`` and
    ``__hash__``, because the generic ones below loop over ``_fields``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


class Graph(Value):
    """Vertex list plus a set of unordered edges between distinct vertices.

    Adjacency is computed once, when the graph is built: each vertex's
    declaration index (``indices``), its neighbour set (``neighbours``), and
    for each vertex index the indices of the other vertices not adjacent to
    it (``non_neighbours``), whose syllables block a shuffle past it.
    """

    __slots__ = ("vertices", "edges", "indices", "neighbours", "non_neighbours")
    _fields = ("vertices", "edges")

    def __init__(self, vertices: tuple[str, ...], edges: frozenset[frozenset[str]]) -> None:
        super().__init__(vertices, edges)
        index = {v: i for i, v in enumerate(vertices)}
        neighbours: dict[str, set[str]] = {v: set() for v in vertices}
        for u, v in edges:
            neighbours[u].add(v)
            neighbours[v].add(u)
        object.__setattr__(self, "indices", index)
        object.__setattr__(
            self, "neighbours", {v: frozenset(n) for v, n in neighbours.items()}
        )
        object.__setattr__(self, "non_neighbours", tuple(
            tuple(index[u] for u in vertices if u != v and u not in neighbours[v])
            for v in vertices
        ))

    def index(self, v: str) -> int:
        try:
            return self.indices[v]
        except KeyError:
            raise GraphError(f"undeclared vertex {v!r}") from None

    def adjacent(self, u: str, v: str) -> bool:
        neighbours = self.neighbours
        if u not in neighbours or v not in neighbours:
            raise GraphError(f"undeclared vertex {v if u in neighbours else u!r}")
        return v in neighbours[u]

    def edge_pairs(self) -> list[tuple[str, str]]:
        """Edges as ordered pairs, sorted by declaration order."""
        pairs = []
        for e in self.edges:
            u, v = sorted(e, key=self.index)
            pairs.append((u, v))
        pairs.sort(key=lambda p: (self.index(p[0]), self.index(p[1])))
        return pairs


class ComponentSpec(Value):
    """Per-vertex component kind: ``None`` payload means monogenic, a letter
    tuple means the free monoid on those letters."""

    __slots__ = ("entries", "_by_vertex", "_letter_vertex")
    _fields = ("entries",)

    def __init__(self, entries: tuple[tuple[str, tuple[str, ...] | None], ...]) -> None:
        super().__init__(entries)
        letter_vertex: dict[str, str] = {}
        for v, letters in entries:
            for a in (v,) if letters is None else letters:
                letter_vertex[a] = v
        object.__setattr__(self, "_by_vertex", dict(entries))
        object.__setattr__(self, "_letter_vertex", letter_vertex)

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


class GraphProduct(Value):
    """A validated graph together with its component declarations.

    This is the ambient context every element in the package refers to;
    instances are immutable and compare by value.
    """

    __slots__ = _fields = ("graph", "components")

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

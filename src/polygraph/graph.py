"""The graph product value: a graph with a component monoid at each vertex.

A ``GraphProduct`` is a finite vertex set with an irreflexive, symmetric edge
relation, and at each vertex a component: either a single generator
(monogenic, token equal to the vertex name) or a free monoid on an explicit
letter alphabet.  Declaration order of vertices and letters is the total
order every normal form in this package is computed against.
"""

from __future__ import annotations

import re

NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class GraphError(ValueError):
    """Malformed graph description or reference to an undeclared name."""


class Value:
    """Immutable value object.

    A subclass names its fields in ``_fields``; instances compare and hash by
    type and field values, and refuse assignment after ``__init__``.

    Construction writes each slot through its class's own slot descriptor,
    taken once when the subclass is created: ``_setters`` holds one
    ``Cls.name.__set__`` per name in ``__slots__``, in order.  A descriptor's
    ``__set__`` writes past the refusing ``__setattr__`` below without looking
    the field name up on each call, a lookup that made up over a third of the
    cost of building a two-field value.  Classes built in hot loops write their
    own ``__init__`` from module-level setters (``_set_vertex =
    ComponentElement.vertex.__set__``), ``__eq__`` and ``__hash__``, because
    the generic ones below loop over their fields.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _setters: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *values) -> None:
        for set_field, value in zip(self._setters, values, strict=True):
            set_field(self, value)

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


class GraphProduct(Value):
    """A graph with a component monoid at each vertex.

    ``entries`` lists the vertices in declaration order, each with ``None``
    for a monogenic component or the letter tuple of a free one; ``edges`` is
    a set of unordered pairs of distinct vertices.  Everything derived is
    computed once, here: the vertex tuple, each vertex's declaration index
    (``indices``), its neighbour set (``neighbours``), for each vertex index
    the indices of the other vertices not adjacent to it (``non_neighbours``),
    whose syllables block a shuffle past it, each vertex's alphabet
    (``alphabets``) and the vertex of each letter (``letter_vertex``).
    """

    __slots__ = (
        "entries", "edges", "vertices", "indices", "neighbours", "non_neighbours",
        "alphabets", "letter_vertex", "_kinds",
    )
    _fields = ("entries", "edges")

    def __init__(
        self,
        entries: tuple[tuple[str, tuple[str, ...] | None], ...],
        edges: frozenset[frozenset[str]],
    ) -> None:
        vertices = tuple(v for v, _ in entries)
        index = {v: i for i, v in enumerate(vertices)}
        neighbours: dict[str, set[str]] = {v: set() for v in vertices}
        for u, v in edges:
            neighbours[u].add(v)
            neighbours[v].add(u)
        alphabets = {v: (v,) if letters is None else letters for v, letters in entries}
        super().__init__(  # every slot, in __slots__ order
            entries,
            edges,
            vertices,
            index,
            {v: frozenset(n) for v, n in neighbours.items()},
            tuple(
                tuple(index[u] for u in vertices if u != v and u not in neighbours[v])
                for v in vertices
            ),
            alphabets,
            {a: v for v, letters in alphabets.items() for a in letters},
            dict(entries),
        )

    def vertex_index(self, v: str) -> int:
        try:
            return self.indices[v]
        except KeyError:
            raise GraphError(f"undeclared vertex {v!r}") from None

    def adjacent(self, u: str, v: str) -> bool:
        neighbours = self.neighbours
        if u not in neighbours or v not in neighbours:
            raise GraphError(f"undeclared vertex {v if u in neighbours else u!r}")
        return v in neighbours[u]

    def is_mono(self, v: str) -> bool:
        try:
            return self._kinds[v] is None
        except KeyError:
            raise GraphError(f"undeclared vertex {v!r}") from None

    def letters(self, v: str) -> tuple[str, ...]:
        try:
            return self.alphabets[v]
        except KeyError:
            raise GraphError(f"undeclared vertex {v!r}") from None

    def vertex_of_letter(self, letter: str) -> str:
        try:
            return self.letter_vertex[letter]
        except KeyError:
            raise GraphError(f"unknown letter {letter!r}") from None

    def all_letters(self) -> tuple[str, ...]:
        return tuple(self.letter_vertex)

    def all_mono(self) -> bool:
        return all(kind is None for kind in self._kinds.values())


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

    return GraphProduct(tuple(entries), frozenset(edges))


def format_graph(gp: GraphProduct) -> str:
    """Render a graph back to the file format; inverse of parse_graph."""
    lines = []
    for v in gp.vertices:
        if gp.is_mono(v):
            lines.append(f"vertex {v} mono")
        else:
            lines.append(f"vertex {v} free " + " ".join(gp.letters(v)))
    for i, j in sorted(sorted(map(gp.vertex_index, e)) for e in gp.edges):
        lines.append(f"edge {gp.vertices[i]} {gp.vertices[j]}")
    return "\n".join(lines) + "\n"

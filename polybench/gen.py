"""Seeded inputs for the benchmark, made without the package under test.

Everything here depends only on ``random.Random(seed)``: graph texts in the
package's file format, the benchmark's own reading of those texts
(``BenchGraph``), and words over their letters.  The checkers in
``verify.py`` use ``BenchGraph`` as their independent model of the graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

N_VERTICES = 8
N_FREE = 3  # vertices of a "mixed" graph that carry a free monoid on two letters
FAMILIES = ("edgeless", "path", "complete", "random")


@dataclass(frozen=True)
class BenchGraph:
    """Graph text plus the benchmark's own parse of it."""

    name: str
    text: str

    @cached_property
    def _parsed(self):
        vertices, letters, edges = [], {}, set()
        for raw in self.text.splitlines():
            parts = raw.split("#", 1)[0].split()
            if not parts:
                continue
            if parts[0] == "vertex":
                v = parts[1]
                vertices.append(v)
                letters[v] = (v,) if parts[2] == "mono" else tuple(parts[3:])
            elif parts[0] == "edge":
                edges.add(frozenset(parts[1:3]))
        vertex_of = {a: v for v in vertices for a in letters[v]}
        return tuple(vertices), letters, frozenset(edges), vertex_of

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._parsed[0]

    def letters(self, v: str) -> tuple[str, ...]:
        return self._parsed[1][v]

    def is_mono(self, v: str) -> bool:
        return self.letters(v) == (v,)

    def all_letters(self) -> tuple[str, ...]:
        return tuple(a for v in self.vertices for a in self.letters(v))

    def vertex_of(self, letter: str) -> str:
        return self._parsed[3][letter]

    def adjacent(self, u: str, v: str) -> bool:
        return frozenset((u, v)) in self._parsed[2]

    def index(self, v: str) -> int:
        return self.vertices.index(v)


def graph_text(vertices, edges, free=()) -> str:
    lines = [
        f"vertex {v} free {v}a {v}b" if v in free else f"vertex {v} mono" for v in vertices
    ]
    lines += [f"edge {u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


def family_edges(rng: random.Random, family: str, vertices) -> list[tuple[str, str]]:
    pairs = list(combinations(vertices, 2))
    if family == "edgeless":
        return []
    if family == "complete":
        return pairs
    if family == "path":
        order = list(vertices)
        rng.shuffle(order)
        return list(zip(order, order[1:]))
    if family == "random":  # density exactly one half
        return sorted(rng.sample(pairs, len(pairs) // 2))
    raise ValueError(family)


def product_graphs(rng: random.Random) -> list[BenchGraph]:
    """The eight 8-vertex graphs: each family, all-monogenic and mixed."""
    vertices = [f"v{i}" for i in range(N_VERTICES)]
    out = []
    for family in FAMILIES:
        edges = family_edges(rng, family, vertices)
        out.append(BenchGraph(f"{family}-mono", graph_text(vertices, edges)))
        free = rng.sample(vertices, N_FREE)
        out.append(BenchGraph(f"{family}-mixed", graph_text(vertices, edges, free)))
    return out


def hull_graphs(rng: random.Random, count: int) -> list[BenchGraph]:
    """All-monogenic graphs on 4, 5, 6, 4, ... vertices at edge density one
    half."""
    out = []
    for k in range(count):
        vertices = [f"x{i}" for i in range(4 + k % 3)]
        edges = family_edges(rng, "random", vertices)
        out.append(BenchGraph(f"hull{len(vertices)}-{k}", graph_text(vertices, edges)))
    return out


def random_word(rng: random.Random, g: BenchGraph, n: int, letters=None) -> list[str]:
    letters = letters or g.all_letters()
    return [rng.choice(letters) for _ in range(n)]


def commuting_shuffle(rng: random.Random, g: BenchGraph, word: list[str]) -> list[str]:
    """Random swaps of neighbouring letters at adjacent vertices: an
    equivalent word made with the benchmark's adjacency only."""
    w = list(word)
    for _ in range(4 * len(w)):
        i = rng.randrange(len(w) - 1)
        if g.adjacent(g.vertex_of(w[i]), g.vertex_of(w[i + 1])):
            w[i], w[i + 1] = w[i + 1], w[i]
    return w


def adjacent_pair(rng: random.Random, g: BenchGraph):
    pairs = [(u, v) for u, v in combinations(g.vertices, 2) if g.adjacent(u, v)]
    return rng.choice(pairs) if pairs else None


def blocking_letters(rng: random.Random, g: BenchGraph):
    """Two letters whose vertices are distinct and non-adjacent, or two
    different letters of one free vertex; None when no such pair exists."""
    pairs = [
        (rng.choice(g.letters(u)), rng.choice(g.letters(v)))
        for u, v in combinations(g.vertices, 2)
        if not g.adjacent(u, v)
    ]
    pairs += [g.letters(v)[:2] for v in g.vertices if not g.is_mono(v)]
    return tuple(rng.choice(pairs)) if pairs else None


def signed(letters, sign: int) -> list[str]:
    return [a if sign > 0 else f"{a}^-1" for a in letters]


def burst(rng: random.Random, letter: str, low: int, high: int, rest: int) -> list[str]:
    """``x^k x^-(k-rest)``: evaluates to ``[1 | x^rest]`` after 2k-rest steps."""
    k = rng.randint(low, high)
    return [f"{letter}^{k}", f"{letter}^-{k - rest}"] if k > rest else [f"{letter}^{k}"]

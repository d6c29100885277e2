"""Arithmetic and order theory of the inverse hull in pair form.

Nonzero elements are ordered pairs (a, b) of graph-product elements, read as
"inverse translation by a, then translation by b".  Because the supported
components have trivial unit groups, pairs are equal exactly when their
coordinates are equal, and a single zero absorbs every failed composition.
When every component is monogenic this monoid is the polygraph monoid of the
graph, generalizing the bicyclic and polycyclic monoids.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import groupby

from .gproduct import (
    _read_tokens,
    _strip_hclf,
    _write_runs,
    ComponentElement,
    GPElement,
    identity,
    lclm,
    make_element,
    multiply,
)
from .graph import GraphProduct, Value


class _Zero:
    """The absorbing zero; a shared singleton."""

    _instance: "_Zero | None" = None

    def __new__(cls) -> "_Zero":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "0"

    def __str__(self) -> str:
        return "0"


ZERO = _Zero()


class IHPair(Value):
    """Nonzero inverse-hull element: inverse translation by a, then by b."""

    __slots__ = _fields = ("a", "b")
    a: GPElement
    b: GPElement

    def __init__(self, a: GPElement, b: GPElement) -> None:
        _set_a(self, a)
        _set_b(self, b)

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __str__(self) -> str:
        return f"[{self.a} | {self.b}]"

    def __repr__(self) -> str:
        return f"<IHPair {self}>"


_set_a, _set_b = IHPair.a.__set__, IHPair.b.__set__


IHElement = IHPair | _Zero

SignedToken = tuple[str, int]  # (letter, +1 or -1)


class Relation(Value):
    """A defining relation; ``right`` is a word or the zero symbol."""

    __slots__ = _fields = ("left", "right")
    left: tuple[SignedToken, ...]
    right: tuple[SignedToken, ...] | _Zero

    def __str__(self) -> str:
        return f"{format_pgword(self.left)} = {format_pgword(self.right)}"


def ih_identity(gp: GraphProduct) -> IHPair:
    e = identity(gp)
    return IHPair(e, e)


def ih_multiply(s: IHElement, t: IHElement) -> IHElement:
    if s is ZERO or t is ZERO:
        return ZERO
    res = lclm(s.b, t.a)
    if res is None:
        return ZERO
    u, w, _ = res
    return IHPair(multiply(u, s.a), multiply(w, t.b))


def ih_inverse(s: IHElement) -> IHElement:
    if s is ZERO:
        return ZERO
    return IHPair(s.b, s.a)


def is_idempotent(s: IHElement) -> bool:
    return s is ZERO or s.a == s.b


def natural_le(s: IHElement, t: IHElement) -> bool:
    """The natural partial order, s <= t exactly when s = ss^-1 t: t.a
    right-divides s.a with a quotient x, and s.b = x*t.b.  Without units, t.a
    right-divides s.a exactly when lclm(s.a, t.a) = (1, x, s.a), so one lclm
    decides both, in O(n |V|)."""
    if s is ZERO:
        return True
    if t is ZERO:
        return False
    res = lclm(s.a, t.a)
    if res is None or not res[0].is_identity():
        return False
    return s.b == multiply(res[1], t.b)


def max_above(s: IHElement) -> IHPair:
    """The unique maximal element above a nonzero s: strip the highest
    common left factor of its coordinates."""
    if s is ZERO:
        raise ValueError("zero has no maximal element above it")
    return IHPair(*(GPElement(s.a.gp, tuple(list(front))) for front in _strip_hclf(s.a, s.b)[1:]))


def green_L(s: IHElement, t: IHElement) -> bool:
    if s is ZERO or t is ZERO:
        return s is t
    return s.b == t.b


def green_R(s: IHElement, t: IHElement) -> bool:
    if s is ZERO or t is ZERO:
        return s is t
    return s.a == t.a


def green_H(s: IHElement, t: IHElement) -> bool:
    return green_L(s, t) and green_R(s, t)


# ---------------------------------------------------------------------------
# signed words

def format_pgword(word: tuple[SignedToken, ...] | _Zero) -> str:
    if word is ZERO:
        return "0"
    return _write_runs(word) or "1"


def _runs(
    word: str | Iterable[SignedToken], letter_vertex: dict[str, str]
) -> Iterator[tuple[str, int]]:
    """Maximal runs of a signed word as (letter, signed exponent);
    neighbouring tokens of the same signed letter merge."""
    tokens = _read_tokens(word, letter_vertex, signed=True)
    for (letter, _), run in groupby(tokens, key=lambda p: (p[0], p[1] > 0)):
        yield letter, sum(exp for _, exp in run)


def eval_word(gp: GraphProduct, word: str | Iterable[SignedToken]) -> IHElement:
    """Evaluate a signed word: g maps to (1, g), g^-1 to (g, 1).

    Since (1, g)^k = (1, g^k) and (g, 1)^k = (g^k, 1), each maximal run of a
    signed letter costs one inverse-hull product.
    """
    one = identity(gp)
    acc: IHElement = ih_identity(gp)
    letter_vertex, kinds = gp.letter_vertex, gp._kinds
    for letter, exp in list(_runs(word, letter_vertex)):  # syntax errors before any other
        v, k = letter_vertex.get(letter) or gp.vertex_of_letter(letter), abs(exp)
        g = GPElement(gp, (ComponentElement(v, k if kinds[v] is None else (letter,) * k),))
        acc = ih_multiply(acc, IHPair(one, g) if exp > 0 else IHPair(g, one))
    return acc


# ---------------------------------------------------------------------------
# presentation

def generate_presentation(gp: GraphProduct) -> tuple[Relation, ...]:
    """Defining relations of the inverse hull over the signed letters.

    Per component: the bicyclic relation for monogenic vertices and the
    polycyclic relations for free ones.  Across vertices: annihilation for
    distinct non-adjacent pairs, and the three commutation shapes for
    adjacent pairs.  Ordered deterministically by declaration order.
    """
    rels: list[Relation] = []
    verts = gp.vertices

    for v in verts:
        letters = gp.letters(v)
        for x in letters:
            rels.append(Relation(((x, 1), (x, -1)), ()))
        for x in letters:
            for y in letters:
                if x != y:
                    rels.append(Relation(((x, 1), (y, -1)), ZERO))

    for u in verts:
        for w in verts:
            if u == w or gp.adjacent(u, w):
                continue
            for x in gp.letters(u):
                for y in gp.letters(w):
                    rels.append(Relation(((x, 1), (y, -1)), ZERO))

    for i, u in enumerate(verts):
        for w in verts[i + 1:]:
            if not gp.adjacent(u, w):
                continue
            for x in gp.letters(u):
                for y in gp.letters(w):
                    rels.append(Relation(((x, 1), (y, 1)), ((y, 1), (x, 1))))
                    rels.append(Relation(((x, 1), (y, -1)), ((y, -1), (x, 1))))
                    rels.append(Relation(((y, 1), (x, -1)), ((x, -1), (y, 1))))
                    rels.append(Relation(((x, -1), (y, -1)), ((y, -1), (x, -1))))
    return tuple(rels)


class RelationReport(Value):
    __slots__ = _fields = ("checked", "violations")
    checked: int
    violations: tuple[Relation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_relations(gp: GraphProduct) -> RelationReport:
    """Evaluate both sides of every generated relation; expect no mismatch."""
    bad = []
    rels = generate_presentation(gp)
    for rel in rels:
        lhs = eval_word(gp, rel.left)
        rhs = ZERO if rel.right is ZERO else eval_word(gp, rel.right)
        if lhs != rhs and not (lhs is ZERO and rhs is ZERO):
            bad.append(rel)
    return RelationReport(len(rels), tuple(bad))


# ---------------------------------------------------------------------------
# text form

def parse_ihelement(gp: GraphProduct, text: str) -> IHElement:
    """Parse "0" or "[<a> | <b>]" with "1" for the empty word."""
    text = text.strip()
    if text == "0":
        return ZERO
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"bad inverse-hull element {text!r}")
    body = text[1:-1]
    if "|" not in body:
        raise ValueError(f"bad inverse-hull element {text!r}")
    left, right = body.split("|", 1)
    return IHPair(make_element(gp, left.strip()), make_element(gp, right.strip()))

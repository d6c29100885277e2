"""Reduced words in the graph group and the prehomomorphism from the
inverse hull into it.

Only all-monogenic graphs are supported: each vertex contributes one group
generator, generators of adjacent vertices commute, and the graph monoid
embeds in this group.  Mapping a nonzero pair (a, b) to the reduced form of
a^-1 b gives a 0-restricted, idempotent-pure prehomomorphism, which is the
witness that the polygraph monoid is strongly E*-unitary.
"""

from __future__ import annotations

from collections.abc import Iterable

from .gproduct import ComponentElement, shuffle_reduce
from .graph import GraphProduct, Value
from .ihull import IHElement, IHPair, SignedToken, ZERO, _Zero, _expand, _runs


class GroupWord(Value):
    """Canonical reduced word: lexicographically least among the reduced
    words equivalent under commuting swaps, vertex order first and positive
    before negative.

    ``expr`` holds its syllables as the normal-form kernel returns them, one
    signed exponent per maximal run of a letter, the shape of
    ``GPElement.expr``.  ``letters`` expands them to one (letter, +1 or -1)
    token per letter; it is the only member whose cost grows with the
    exponents."""

    __slots__ = _fields = ("gp", "expr")
    gp: GraphProduct
    expr: tuple[ComponentElement, ...]

    @property
    def letters(self) -> tuple[SignedToken, ...]:
        return _expand((ce.vertex, ce.payload) for ce in self.expr)

    def is_identity(self) -> bool:
        return not self.expr

    def inverse(self) -> "GroupWord":
        return GroupWord(self.gp, shuffle_reduce(self.gp, _inverted(self.expr)))

    def __hash__(self) -> int:
        # Value.__eq__ compares gp as well; hashing it would rehash the whole graph
        return hash(self.expr)

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        if self.gp != other.gp:
            raise ValueError("words belong to different graphs")
        return GroupWord(self.gp, shuffle_reduce(self.gp, self.expr + other.expr))

    def __str__(self) -> str:
        return " ".join(map(str, self.expr)) or "1"

    def __repr__(self) -> str:
        return f"<GroupWord {self}>"


GroupOrZero = GroupWord | _Zero


def _require_mono(gp: GraphProduct) -> None:
    if not gp.all_mono():
        raise ValueError("graph group arithmetic needs all-monogenic components")


def _inverted(expr: tuple[ComponentElement, ...]) -> list[ComponentElement]:
    return [ComponentElement(ce.vertex, -ce.payload) for ce in reversed(expr)]


def group_reduce(gp: GraphProduct, word: str | Iterable[SignedToken]) -> GroupWord:
    """Reduced word of a signed word: the normal-form kernel applied to its
    maximal runs as syllables with signed exponents."""
    _require_mono(gp)
    indices = gp.indices
    runs = list(_runs(word, gp.letter_vertex))  # syntax errors before any other
    for letter, _ in runs:
        if letter not in indices:
            gp.vertex_index(letter)  # GraphError
    return GroupWord(gp, shuffle_reduce(gp, [ComponentElement(*run) for run in runs]))


def group_identity(gp: GraphProduct) -> GroupWord:
    _require_mono(gp)
    return GroupWord(gp, ())


def eta(s: IHElement, gp: GraphProduct | None = None) -> GroupOrZero:
    """Prehomomorphism into the graph group with zero: a pair (a, b) maps to
    the reduced form of a^-1 b, zero maps to zero."""
    if s is ZERO:
        if gp is not None:
            _require_mono(gp)
        return ZERO
    if not isinstance(s, IHPair):
        raise TypeError(f"eta needs an inverse-hull element, not {type(s).__name__}")
    gp = s.a.gp
    _require_mono(gp)
    return GroupWord(gp, shuffle_reduce(gp, _inverted(s.a.expr) + list(s.b.expr)))

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
from .ihull import IHElement, IHPair, SignedToken, ZERO, _Zero, format_pgword, parse_pgword


class GroupWord(Value):
    """Canonical reduced word: lexicographically least among the reduced
    words equivalent under commuting swaps, vertex order first and positive
    before negative."""

    __slots__ = _fields = ("gp", "letters")
    gp: GraphProduct
    letters: tuple[SignedToken, ...]

    def __init__(self, gp: GraphProduct, letters: tuple[SignedToken, ...]) -> None:
        object.__setattr__(self, "gp", gp)
        object.__setattr__(self, "letters", letters)

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.gp, self.letters) == (other.gp, other.letters)

    def __hash__(self) -> int:
        return hash((self.gp, self.letters))

    def is_identity(self) -> bool:
        return not self.letters

    def inverse(self) -> "GroupWord":
        return group_reduce(self.gp, [(l, -s) for l, s in reversed(self.letters)])

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        if self.gp != other.gp:
            raise ValueError("words belong to different graphs")
        return group_reduce(self.gp, self.letters + other.letters)

    def __str__(self) -> str:
        return format_pgword(self.letters)

    def __repr__(self) -> str:
        return f"<GroupWord {self}>"


GroupOrZero = GroupWord | _Zero


def _require_mono(gp: GraphProduct) -> None:
    if not gp.all_mono():
        raise ValueError("graph group arithmetic needs all-monogenic components")


def group_reduce(gp: GraphProduct, word: str | Iterable[SignedToken]) -> GroupWord:
    """Reduced word of a signed word: the normal-form kernel applied to its
    letters as syllables with exponent +1 or -1."""
    _require_mono(gp)
    syllables = []
    for letter, sign in parse_pgword(word):
        gp.vertex_index(letter)
        syllables.append(ComponentElement(letter, sign))
    return _group_word(gp, syllables)


def _group_word(gp: GraphProduct, syllables: Iterable[ComponentElement]) -> GroupWord:
    letters: list[SignedToken] = []
    for ce in shuffle_reduce(gp, syllables):
        sign = 1 if ce.payload > 0 else -1
        letters.extend([(ce.vertex, sign)] * abs(ce.payload))
    return GroupWord(gp, tuple(letters))


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
    inverse_a = [ComponentElement(ce.vertex, -ce.payload) for ce in reversed(s.a.expr)]
    return _group_word(gp, inverse_a + list(s.b.expr))

"""Brute-force reference implementations.

Everything here is definitionally correct by exhaustive construction and
deliberately slow; the fast algebraic paths are validated against these on
small instances.  Divisibility is judged by divisor sets and truncated left
ideals, never by the division functions under test.  All enumeration is
bounded and raises BoundExceeded rather than silently truncating.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional, Sequence

from .gproduct import GPElement, make_element, multiply
from .graph import GraphProduct

DEFAULT_MAX_CLASS = 200_000


class BoundExceeded(RuntimeError):
    """An enumeration outgrew its configured size bound."""


def element_letters(a: GPElement) -> tuple[str, ...]:
    """Flatten an element to single-generator letters."""
    out: list[str] = []
    for ce in a.expr:
        if isinstance(ce.payload, int):
            out.extend(ce.vertex for _ in range(ce.payload))
        else:
            out.extend(ce.payload)
    return tuple(out)


def letter_shuffle_class(
    gp: GraphProduct,
    letters: Sequence[str],
    max_size: int = DEFAULT_MAX_CLASS,
) -> frozenset[tuple[str, ...]]:
    """Closure of a letter word under swaps of adjacent-vertex letters.

    At letter level no amalgamation exists, so membership in this closure is
    exactly equality in the graph product.
    """
    vertex = gp.vertex_of_letter
    start = tuple(letters)
    seen = {start}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for i in range(len(w) - 1):
            if gp.adjacent(vertex(w[i]), vertex(w[i + 1])):
                nxt = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                if nxt not in seen:
                    if len(seen) >= max_size:
                        raise BoundExceeded(f"letter class larger than {max_size}")
                    seen.add(nxt)
                    queue.append(nxt)
    return frozenset(seen)


def words_equal(gp: GraphProduct, w1: Sequence[str], w2: Sequence[str]) -> bool:
    """Letter-level equality by closure membership."""
    if len(w1) != len(w2):
        return False
    return tuple(w2) in letter_shuffle_class(gp, w1)


def all_left_divisors(
    a: GPElement, max_size: int = DEFAULT_MAX_CLASS
) -> frozenset[GPElement]:
    """Every x with a = x*y, by exhaustive prefix extraction over the
    letter-level shuffle class."""
    gp = a.gp
    divisors: set[GPElement] = set()
    for w in letter_shuffle_class(gp, element_letters(a), max_size):
        for k in range(len(w) + 1):
            divisors.add(make_element(gp, [(l, 1) for l in w[:k]]))
    return frozenset(divisors)


def _words_of_length(letters: Sequence[str], n: int) -> Iterable[tuple[str, ...]]:
    if n == 0:
        yield ()
        return
    for w in _words_of_length(letters, n - 1):
        for l in letters:
            yield w + (l,)


def elements_up_to(gp: GraphProduct, max_letters: int) -> list[GPElement]:
    """All distinct elements representable by words of at most the given
    letter length, deterministically ordered."""
    seen: dict[tuple, GPElement] = {}
    order: list[GPElement] = []
    for n in range(max_letters + 1):
        for w in _words_of_length(gp.all_letters(), n):
            e = make_element(gp, [(l, 1) for l in w])
            if e.expr not in seen:
                seen[e.expr] = e
                order.append(e)
    return order


def left_ideal(c: GPElement, bound: int) -> frozenset[GPElement]:
    """The principal left ideal S*c cut at letter length bound.

    The only relations are commutations, so letter length is additive and
    t*c ranges over it as t ranges over the elements of at most
    bound - |c| letters; empty when that room is negative.
    """
    return frozenset(multiply(t, c) for t in elements_up_to(c.gp, bound - c.letter_length()))


def common_left_multiples(
    b: GPElement, c: GPElement, bound: int
) -> list[GPElement]:
    """All m with letter length <= bound divisible on the right by b and c.

    Multiples of b are enumerated as s*b over all cofactor words s, then
    filtered by membership in the truncated left ideal of c.
    """
    ideal = left_ideal(c, bound)
    multiples = (multiply(s, b) for s in elements_up_to(b.gp, bound - b.letter_length()))
    return [m for m in dict.fromkeys(multiples) if m in ideal]


def lclm_oracle(b: GPElement, c: GPElement, bound: int) -> Optional[GPElement]:
    """Minimum common left multiple found by exhaustive search, or None.

    Raises if the candidate set has no single element dividing all others
    (never expected for these components).
    """
    candidates = common_left_multiples(b, c, bound)
    if not candidates:
        return None
    best = min(candidates, key=lambda m: m.letter_length())
    if not left_ideal(best, bound) >= set(candidates):
        raise RuntimeError("common left multiples are not principal")
    return best


def hclf_oracle(
    a: GPElement, b: GPElement, max_size: int = DEFAULT_MAX_CLASS
) -> GPElement:
    """Join of all common left factors, by exhaustive divisor intersection."""
    common = all_left_divisors(a, max_size) & all_left_divisors(b, max_size)
    best = max(common, key=lambda x: x.letter_length())
    if not all_left_divisors(best, max_size) >= common:
        raise RuntimeError("common left factors have no maximum")
    return best

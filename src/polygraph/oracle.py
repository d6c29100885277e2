"""Brute-force reference implementations.

Everything here is definitionally correct by exhaustive construction and
deliberately slow; the fast algebraic paths are validated against these on
small instances.  Divisibility is judged by divisor sets and truncated left
ideals, never by the division functions under test.  All enumeration is
bounded and raises BoundExceeded rather than silently truncating.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional, Sequence

from .gproduct import GPElement, make_element, multiply
from .graph import GraphProduct

MAX_CLASS = 200_000  # size bound of every letter class; read at call time


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
    gp: GraphProduct, letters: Sequence[str]
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
                    if len(seen) >= MAX_CLASS:
                        raise BoundExceeded(f"letter class larger than {MAX_CLASS}")
                    seen.add(nxt)
                    queue.append(nxt)
    return frozenset(seen)


def all_left_divisors(a: GPElement) -> frozenset[GPElement]:
    """Every x with a = x*y, by exhaustive prefix extraction over the
    letter-level shuffle class."""
    gp = a.gp
    divisors: set[GPElement] = set()
    for w in letter_shuffle_class(gp, element_letters(a)):
        for k in range(len(w) + 1):
            divisors.add(make_element(gp, [(l, 1) for l in w[:k]]))
    return frozenset(divisors)


def _walk(
    start: GPElement, step: Callable[[GPElement, GPElement], GPElement], depth: int
) -> list[GPElement]:
    """The distinct elements that step(x, g) reaches from start in at most
    depth steps, breadth first, g over the one-letter elements in declaration
    order; empty when depth is negative.

    Letter length is additive, so level k holds exactly the elements k
    letters longer than start, and no two levels share an element.
    """
    if depth < 0:
        return []
    gp = start.gp
    gens = [make_element(gp, [(l, 1)]) for l in gp.all_letters()]
    order, level = [start], [start]
    for _ in range(depth):
        level = list(dict.fromkeys(step(x, g) for x in level for g in gens))
        order += level
    return order


def elements_up_to(gp: GraphProduct, max_letters: int) -> list[GPElement]:
    """All distinct elements of at most the given letter length, shortest
    first and then by least word (lexicographic in declaration order): the
    walk reaches each element first through its least word, whose prefixes
    are least words too."""
    return _walk(make_element(gp, ()), multiply, max_letters)


def left_ideal(c: GPElement, bound: int) -> frozenset[GPElement]:
    """The principal left ideal S*c cut at letter length bound: the closure
    of c under left multiplication by generators; empty when c is longer."""
    return frozenset(_walk(c, lambda x, g: multiply(g, x), bound - c.letter_length()))


def lclm_oracle(b: GPElement, c: GPElement, bound: int) -> Optional[GPElement]:
    """The shortest common left multiple of letter length <= bound, or None.

    Raises if that multiple does not divide all the others (never expected
    for these components: the intersection of S*b and S*c is principal).
    """
    common = left_ideal(b, bound) & left_ideal(c, bound)
    if not common:
        return None
    best = min(common, key=GPElement.letter_length)
    if not left_ideal(best, bound) >= common:
        raise RuntimeError("common left multiples are not principal")
    return best


def hclf_oracle(a: GPElement, b: GPElement) -> GPElement:
    """Join of all common left factors, by exhaustive divisor intersection."""
    common = all_left_divisors(a) & all_left_divisors(b)
    best = max(common, key=lambda x: x.letter_length())
    if not all_left_divisors(best) >= common:
        raise RuntimeError("common left factors have no maximum")
    return best

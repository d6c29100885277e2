"""Brute-force reference implementations.

Everything here is definitionally correct by exhaustive construction and
deliberately slow; the fast algebraic paths are validated against these on
small instances.  All enumeration is bounded and raises BoundExceeded rather
than silently truncating.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional, Sequence

from .gproduct import (
    ComponentElement,
    GPElement,
    make_element,
    multiply,
    right_divide,
    left_divide,
)
from .graph import GraphProduct

DEFAULT_MAX_CLASS = 200_000


class BoundExceeded(RuntimeError):
    """An enumeration outgrew its configured size bound."""


def is_reduced(gp: GraphProduct, expr: Sequence[ComponentElement]) -> bool:
    """No two same-vertex entries separated only by adjacent vertices."""
    for i in range(len(expr)):
        for j in range(i + 1, len(expr)):
            if expr[j].vertex != expr[i].vertex:
                continue
            if all(gp.adjacent(expr[k].vertex, expr[i].vertex) for k in range(i + 1, j)):
                return False
            break
    return True


def _swap_closure(start: tuple, commute, max_size: int, what: str) -> frozenset:
    """Closure of a sequence under swaps of neighbouring entries that commute."""
    seen = {start}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for i in range(len(w) - 1):
            if commute(w[i], w[i + 1]):
                nxt = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                if nxt not in seen:
                    if len(seen) >= max_size:
                        raise BoundExceeded(f"{what} class larger than {max_size}")
                    seen.add(nxt)
                    queue.append(nxt)
    return frozenset(seen)


def shuffle_class(
    gp: GraphProduct,
    expr: Sequence[ComponentElement],
    max_size: int = DEFAULT_MAX_CLASS,
) -> frozenset[tuple[ComponentElement, ...]]:
    """Closure of a reduced expression under single shuffles."""
    start = tuple(expr)
    if not is_reduced(gp, start):
        raise ValueError("expression is not reduced")
    return _swap_closure(start, lambda x, y: gp.adjacent(x.vertex, y.vertex), max_size, "shuffle")


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
    return _swap_closure(
        tuple(letters), lambda x, y: gp.adjacent(vertex(x), vertex(y)), max_size, "letter"
    )


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


def common_left_multiples(
    b: GPElement, c: GPElement, bound: int
) -> list[GPElement]:
    """All m with letter length <= bound divisible on the right by b and c.

    Multiples of b are enumerated as s*b over all cofactor words s, then
    filtered by right-divisibility by c.
    """
    gp = b.gp
    room = bound - b.letter_length()
    out: list[GPElement] = []
    seen: set[tuple] = set()
    if room < 0:
        return out
    for s in elements_up_to(gp, room):
        m = multiply(s, b)
        if m.expr in seen:
            continue
        seen.add(m.expr)
        if right_divide(m, c) is not None:
            out.append(m)
    return out


def lclm_oracle(b: GPElement, c: GPElement, bound: int) -> Optional[GPElement]:
    """Minimum common left multiple found by exhaustive search, or None.

    Raises if the candidate set has no single element dividing all others
    (never expected for these components).
    """
    candidates = common_left_multiples(b, c, bound)
    if not candidates:
        return None
    best = min(candidates, key=lambda m: m.letter_length())
    for m in candidates:
        if right_divide(m, best) is None:
            raise RuntimeError("common left multiples are not principal")
    return best


def hclf_oracle(
    a: GPElement, b: GPElement, max_size: int = DEFAULT_MAX_CLASS
) -> GPElement:
    """Join of all common left factors, by exhaustive divisor intersection."""
    common = all_left_divisors(a, max_size) & all_left_divisors(b, max_size)
    best = max(common, key=lambda x: x.letter_length())
    for x in common:
        if left_divide(best, x) is None:
            raise RuntimeError("common left factors have no maximum")
    return best

"""Elements and arithmetic of a graph product of free components.

Elements are kept in a canonical reduced expression: a sequence of
nonidentity component elements in which no two entries of the same vertex can
be brought together by swapping adjacent-vertex neighbours.  The canonical
representative is the greedy least-vertex-first form, so equality of elements
is equality of expressions.

Component payloads: monogenic components store a positive exponent, free
components a nonempty letter tuple.  Neither kind has nontrivial units and no
product of nonidentity elements is the identity, which the algorithms below
rely on (amalgamation never deletes a monoid syllable).  The normal-form
kernel ``shuffle_reduce`` also serves the graph group, whose syllables carry
signed exponents that can cancel.
"""

from __future__ import annotations

import re
from collections.abc import Generator, Iterable, Iterator, Sequence
from itertools import chain, groupby, repeat

from .graph import GraphError, GraphProduct, Value

Payload = int | tuple[str, ...]

_TOKEN_RE = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?\Z")


class ComponentElement(Value):
    """A single nonidentity element of one vertex's component."""

    __slots__ = _fields = ("vertex", "payload")
    vertex: str
    payload: Payload

    def __init__(self, vertex: str, payload: Payload) -> None:
        object.__setattr__(self, "vertex", vertex)
        object.__setattr__(self, "payload", payload)

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.vertex == other.vertex and self.payload == other.payload

    def __hash__(self) -> int:
        return hash((self.vertex, self.payload))

    def __str__(self) -> str:
        p = self.payload
        return _write_runs([(self.vertex, p)] if isinstance(p, int) else zip(p, repeat(1)))


def _read_tokens(
    word: str | Iterable, letter_vertex: dict[str, str], signed: bool = False
) -> Iterator[tuple[str, int]]:
    """(letter, exponent) of each ``a`` / ``a^k`` token of a word, skipping
    ``"1"``; (letter, k) pairs in an iterable pass through if k is an int,
    and in a signed word only if k is 1 or -1.  A token that is a key of
    ``letter_vertex`` is read as (token, 1) without the regex.  A signed
    word's exponent must not be zero; callers check a monoid word's."""
    for tok in word.split() if isinstance(word, str) else word:
        if not isinstance(tok, str):
            if not (isinstance(tok, tuple) and len(tok) == 2 and isinstance(tok[0], str)):
                raise ValueError(f"bad {'signed token' if signed else 'token'} {tok!r}")
            letter, k = tok
            if not isinstance(k, int) or isinstance(k, bool):
                raise ValueError(f"exponent on {letter!r} must be an int, not {k!r}")
            if signed and k not in (1, -1):
                raise ValueError(f"sign of {letter!r} must be 1 or -1, not {k!r}")
            yield tok
            continue
        if tok in letter_vertex:  # a declared letter, the common token
            yield tok, 1
            continue
        if tok == "1":
            continue
        m = _TOKEN_RE.match(tok)
        if not m:
            raise ValueError(f"bad {'signed token' if signed else 'token'} {tok!r}")
        letter, k = m.group(1), int(m.group(2)) if m.group(2) else 1
        if signed and k == 0:
            raise ValueError(f"zero exponent on {letter!r}")
        yield letter, k


def _write_runs(tokens: Iterable[tuple[str, int]]) -> str:
    """Text of (letter, exponent) tokens, each run of equal tokens written
    once as ``a`` or ``a^k``."""
    parts = []
    for (letter, exp), run in groupby(tokens):
        k = exp * sum(1 for _ in run)
        parts.append(letter if k == 1 else f"{letter}^{k}")
    return " ".join(parts)


class GPElement(Value):
    """Canonical reduced expression of a graph-product element.

    The constructor checks nothing: ``expr`` must already be canonical.  The
    entry points that validate their input are ``make_element``,
    ``normal_form``, ``component_embed`` and the word readers ``eval_word``
    and ``parse_ihelement``.  Operations on elements trust their arguments,
    but ``final_component``, ``initial_component`` and ``_peel`` (divisions)
    pass the rest of an element through the validating ``normal_form``."""

    __slots__ = _fields = ("gp", "expr")
    gp: GraphProduct
    expr: tuple[ComponentElement, ...]

    def __init__(self, gp: GraphProduct, expr: tuple[ComponentElement, ...]) -> None:
        object.__setattr__(self, "gp", gp)
        object.__setattr__(self, "expr", expr)

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.gp, self.expr) == (other.gp, other.expr)

    def __hash__(self) -> int:
        # __eq__ compares gp as well; hashing it would rehash the whole graph
        return hash(self.expr)

    @property
    def length(self) -> int:
        """Number of components of any reduced expression."""
        return len(self.expr)

    def letter_length(self) -> int:
        """Total generator count; finer than component length, utility only."""
        return sum(
            ce.payload if isinstance(ce.payload, int) else len(ce.payload)
            for ce in self.expr
        )

    def is_identity(self) -> bool:
        return not self.expr

    def __mul__(self, other: "GPElement") -> "GPElement":
        return multiply(self, other)

    def __str__(self) -> str:
        if not self.expr:
            return "1"
        return " ".join(str(ce) for ce in self.expr)

    def __repr__(self) -> str:
        return f"<GPElement {self}>"


# ---------------------------------------------------------------------------
# component-level arithmetic

def comp_right_divide(x: Payload, y: Payload) -> Payload | None:
    """r with x = r * y inside the component, or None."""
    if isinstance(x, int):
        return x - y if x >= y else None
    if y == () or (len(x) >= len(y) and x[len(x) - len(y):] == y):
        return x[: len(x) - len(y)]
    return None


def comp_lclm(x: Payload, y: Payload) -> tuple[Payload, Payload, Payload] | None:
    """(s, t, m) with m = s*x = t*y generating the intersection, or None.

    In a free monoid two elements have a common left multiple exactly when
    one is a suffix of the other; for a monogenic component the intersection
    always exists and is governed by max of exponents.
    """
    if isinstance(x, int):
        m = max(x, y)
        return m - x, m - y, m
    s = comp_right_divide(y, x)
    if s is not None:
        return s, (), y
    t = comp_right_divide(x, y)
    if t is not None:
        return (), t, x
    return None


def comp_hclf(x: Payload, y: Payload) -> tuple[Payload, Payload, Payload]:
    """(f, x', y') with f the highest common left factor inside the component
    (maybe identity), x = f * x' and y = f * y'."""
    if isinstance(x, int):
        f = min(x, y)
        return f, x - f, y - f
    n = 0
    while n < len(x) and n < len(y) and x[n] == y[n]:
        n += 1
    return x[:n], x[n:], y[n:]


# ---------------------------------------------------------------------------
# normal form

def _validate_component(gp: GraphProduct, ce: ComponentElement) -> None:
    v, p = ce.vertex, ce.payload
    if not isinstance(v, str):
        raise GraphError(f"undeclared vertex {v!r}")
    if gp.is_mono(v):  # GraphError on an undeclared vertex
        if not isinstance(p, int) or isinstance(p, bool) or p < 1:
            raise ValueError(f"monogenic payload for {v!r} must be a positive int")
    else:
        if not isinstance(p, tuple) or not p:
            raise ValueError(f"free payload for {v!r} must be a nonempty letter tuple")
        letter_vertex = gp.letter_vertex
        for a in p:
            if not isinstance(a, str) or letter_vertex.get(a) != v:
                raise ValueError(f"letter {a!r} not in alphabet of {v!r}")


def _pile(gp: GraphProduct, syllables: Iterable[ComponentElement]) -> Generator:
    """Heap of pieces of validated syllables (a stack of live positions per
    vertex) and its read-off.  A syllable joins its vertex's top unless a live
    syllable of a non-adjacent vertex lies above it; an identity amalgam (of
    signed exponents) is dropped and never makes two others mergeable.  Free
    letter pieces join once, after piling; a reduced expression never joins.
    Priming returns (piled, heads, waiting): v's head is its first live
    position (``end`` once none is left), ``waiting[v]`` counts the
    non-adjacent vertices whose head precedes it (|V| once v has none).
    ``send(v)`` drops and returns a v head with ``waiting[v] == 0``, an
    initial component; ``next`` drops the least such v's, so the rest reads
    off least vertex first, O(n |V|) in all.  Collect with
    ``tuple(list(...))``: ``tuple(...)`` resizes and unbalances free lists."""
    indices, blockers = gp.indices, gp.non_neighbours
    piled: list[ComponentElement] = []
    stacks: list[list[int]] = [[] for _ in blockers]
    tops = [-1] * len(blockers)  # position of each vertex's top live syllable
    pieces: dict[int, list[Payload]] = {}  # free letter pieces per position
    for ce in syllables:
        v = indices[ce.vertex]
        top = tops[v]
        if top >= 0:
            for u in blockers[v]:
                if tops[u] > top:
                    break
            else:  # nothing of a non-adjacent vertex lies above v's top
                if not isinstance(ce.payload, int):
                    pieces.setdefault(top, [piled[top].payload]).append(ce.payload)
                elif payload := piled[top].payload + ce.payload:
                    piled[top] = ComponentElement(ce.vertex, payload)
                else:  # signed exponents cancelled
                    stacks[v].pop()
                    tops[v] = stacks[v][-1] if stacks[v] else -1
                continue
        tops[v] = top = len(piled)
        stacks[v].append(top)
        piled.append(ce)
    for pos, run in pieces.items():
        piled[pos] = ComponentElement(piled[pos].vertex, tuple(list(chain.from_iterable(run))))
    queues = [iter(stack) for stack in stacks]
    end, empty = len(piled), len(stacks)
    heads = [next(queue, end) for queue in queues]
    waiting = []
    for v, h in enumerate(heads):
        count = 0
        for u in blockers[v]:
            if heads[u] < h:
                count += 1
        waiting.append(count if h < end else empty)
    v = yield piled, heads, waiting
    while True:
        if v is None:
            try:
                v = waiting.index(0)
            except ValueError:  # no vertex is available: nothing remains
                return
        ce = piled[heads[v]]
        h = heads[v] = next(queues[v], end)
        count = 0
        for u in blockers[v]:
            if heads[u] < h:  # u's head now precedes v's
                waiting[u] -= 1
                count += 1
        waiting[v] = count if h < end else empty
        v = yield ce


def shuffle_reduce(
    gp: GraphProduct, syllables: Iterable[ComponentElement]
) -> tuple[ComponentElement, ...]:
    """Canonical reduced expression of validated syllables, read off their ``_pile``."""
    syllables = tuple(syllables)
    if len(syllables) < 2:  # nothing to amalgamate or order
        return syllables
    pile = _pile(gp, syllables)
    next(pile)
    return tuple(list(pile))


def _syllable(pair: object) -> ComponentElement:
    try:
        return ComponentElement(*pair)
    except TypeError:  # not a (vertex, payload) pair
        raise ValueError(f"bad syllable {pair!r}") from None


def normal_form(gp: GraphProduct, raw: Iterable[ComponentElement]) -> GPElement:
    """Canonical form of an arbitrary sequence of syllables or pairs."""
    comps = [ce if isinstance(ce, ComponentElement) else _syllable(ce) for ce in raw]
    for ce in comps:
        _validate_component(gp, ce)
    return GPElement(gp, shuffle_reduce(gp, comps))


def make_element(gp: GraphProduct, word: str | Iterable) -> GPElement:
    """Canonical image of a word over the declared letters.

    ``word`` is whitespace-separated letter tokens with optional ``^k``
    exponents (k >= 1), or an iterable of such tokens and (letter, k) pairs;
    ``"1"`` denotes the identity.  Each syllable is built from a declared
    letter and a checked exponent, so it goes to the kernel unvalidated.
    """
    letter_vertex, kinds = gp.letter_vertex, gp._kinds
    raw: list[ComponentElement] = []
    for letter, k in list(_read_tokens(word, letter_vertex)):  # syntax errors before any other
        if k < 1:
            raise ValueError(f"exponent on {letter!r} must be >= 1")
        v = letter_vertex.get(letter) or gp.vertex_of_letter(letter)  # GraphError if unknown
        raw.append(ComponentElement(v, k if kinds[v] is None else (letter,) * k))
    return GPElement(gp, shuffle_reduce(gp, raw))


def identity(gp: GraphProduct) -> GPElement:
    return GPElement(gp, ())


def component_embed(gp: GraphProduct, v: str, payload: Payload) -> GPElement:
    """Embed a single component element; the identity payload of v's kind,
    0 or (), gives the identity."""
    if isinstance(v, str) and type(payload) in (int, tuple):
        if payload == (0 if gp.is_mono(v) else ()):  # GraphError on an undeclared v
            return identity(gp)
    ce = ComponentElement(v, payload)
    _validate_component(gp, ce)
    return GPElement(gp, (ce,))


def _require_same(a: GPElement, b: GPElement) -> None:
    if a.gp != b.gp:
        raise ValueError("elements belong to different graphs")


def multiply(a: GPElement, b: GPElement) -> GPElement:
    """Product a*b: the factors' syllables are canonical already, so they go
    to the kernel unvalidated."""
    _require_same(a, b)
    return GPElement(a.gp, shuffle_reduce(a.gp, a.expr + b.expr))


# ---------------------------------------------------------------------------
# final / initial components

def split_final(
    gp: GraphProduct, expr: Sequence[ComponentElement], v: str
) -> tuple[ComponentElement | None, tuple[ComponentElement, ...]]:
    """Final v-component and raw complement of an arbitrary reduced expression.

    A backward scan stops at the rightmost v-entry, the component, or at a
    non-adjacent entry after it, where the final v-component is the identity
    (None).
    """
    gp.vertex_index(v)
    for j in range(len(expr) - 1, -1, -1):
        ce = expr[j]
        if ce.vertex == v:
            return ce, tuple(expr[:j]) + tuple(expr[j + 1:])
        if not gp.adjacent(ce.vertex, v):
            break
    return None, tuple(expr)


def final_component(a: GPElement, v: str) -> tuple[ComponentElement | None, GPElement]:
    """(d, a') with a = a'*d when d is nonidentity, a' = a when d is None."""
    d, rest = split_final(a.gp, a.expr, v)
    if d is None:
        return None, a
    return d, normal_form(a.gp, rest)


def initial_component(a: GPElement, v: str) -> tuple[ComponentElement | None, GPElement]:
    """(d, a') with a = d*a' when d is nonidentity, a' = a when d is None:
    split_final of the reversed syllables, which never reads payloads."""
    d, rest = split_final(a.gp, a.expr[::-1], v)
    if d is None:
        return None, a
    return d, normal_form(a.gp, rest[::-1])


# ---------------------------------------------------------------------------
# division, LCLM, HCLF

def _mirrored(expr: Sequence[ComponentElement]) -> tuple[ComponentElement, ...]:
    """Reduced, not canonical, expression of the mirror image (a*b goes to
    mirror(b)*mirror(a)): the syllables and each free letter tuple reversed."""
    return tuple([ComponentElement(ce.vertex, ce.payload[::-1]) if isinstance(ce.payload, tuple)
                  else ce for ce in reversed(expr)])


def _peel(
    gp: GraphProduct, expr: tuple[ComponentElement, ...], divisor: tuple[ComponentElement, ...]
) -> tuple[ComponentElement, ...] | None:
    """b with expr = b*divisor, or None, for reduced expressions: peels the
    divisor's syllables off final components, each with one normal form of
    the rest and a nonidentity remainder, so b is canonical after a peel."""
    for ce in reversed(divisor):
        d, rest = split_final(gp, expr, ce.vertex)
        if d is None:
            return None
        rem = comp_right_divide(d.payload, ce.payload)
        if rem is None:
            return None
        expr = normal_form(gp, (rest + (ComponentElement(ce.vertex, rem),)) if rem else rest).expr
    return expr


def right_divide(a: GPElement, c: GPElement) -> GPElement | None:
    """The unique b with a = b*c, or None when c does not right-divide a."""
    _require_same(a, c)
    b = _peel(a.gp, a.expr, c.expr)
    return None if b is None else GPElement(a.gp, b)


def left_divide(a: GPElement, c: GPElement) -> GPElement | None:
    """The unique b with a = c*b, or None: the right peel of the mirror
    images, read back in canonical form by one more kernel pass."""
    _require_same(a, c)
    gp = a.gp
    b = _peel(gp, _mirrored(a.expr), _mirrored(c.expr))
    return None if b is None else GPElement(gp, shuffle_reduce(gp, _mirrored(b)))


def _posneg(c: GPElement, d: GPElement) -> tuple[GPElement, GPElement] | None:
    """Full positive/negative reduction: (s, t) with s*c = t*d the least
    common left multiple, or None when there is none.

    Read as translation by c followed by inverse translation by d, rewritten
    as inverse translation by s followed by translation by t.  Like subword
    reversing, d is peeled one syllable at a time from the right, starting
    from t = c.  The peeled syllable is carried leftwards through t: it passes
    a syllable of an adjacent vertex, meets one of its own vertex in a
    component lclm, and has no common multiple with any other.  What is left
    of it, a, and the rewritten t' satisfy a*t = t'*(peeled syllable); a joins
    s and t' replaces t.  Any syllable sequence for t serves, so s and t stay
    raw syllable lists and are reduced once at the end.
    """
    gp = c.gp
    if d.is_identity():
        return identity(gp), c
    t = list(c.expr)
    s: list[ComponentElement] = []  # right to left
    for dce in reversed(d.expr):
        a: ComponentElement | None = dce
        b: list[ComponentElement] = []  # right to left
        for ce in reversed(t):
            if a is None or (ce.vertex != a.vertex and gp.adjacent(ce.vertex, a.vertex)):
                b.append(ce)
            elif ce.vertex == a.vertex:
                res = comp_lclm(ce.payload, a.payload)
                if res is None:
                    return None
                sa, tc, _ = res
                a = ComponentElement(ce.vertex, sa) if sa else None
                if tc:
                    b.append(ComponentElement(ce.vertex, tc))
            else:
                return None
        b.reverse()
        t = b
        if a is not None:
            s.append(a)
    s.reverse()
    return GPElement(gp, shuffle_reduce(gp, s)), GPElement(gp, shuffle_reduce(gp, t))


def lclm(b: GPElement, c: GPElement) -> tuple[GPElement, GPElement, GPElement] | None:
    """Least common left multiple: (s, t, m) with m = s*b = t*c, or None.

    None signals that b and c have no common left multiple at all.
    """
    _require_same(b, c)
    res = _posneg(b, c)
    if res is None:
        return None
    s, t = res
    m = multiply(s, b)
    if m != multiply(t, c):
        raise RuntimeError(f"lclm invariant broken: {s} * {b} != {t} * {c}")
    return s, t, m


def _strip_hclf(a: GPElement, b: GPElement) -> tuple[GPElement, GPElement, GPElement]:
    """(x, a', b') with x = hclf(a, b), a = x*a' and b = x*b': while some
    vertex is available in both fronts, least first, with a nonidentity
    component hclf f of its heads, f joins x and is stripped from both heads.
    Peeling never makes two syllables mergeable, so the rest of each front
    reads off as a' and b'.  O(n |V|)."""
    _require_same(a, b)
    gp = a.gp
    if not (a.expr and b.expr):
        return identity(gp), a, b
    fronts = [_pile(gp, a.expr), _pile(gp, b.expr)]
    (pa, ha, wa), (pb, hb, wb) = states = [next(front) for front in fronts]
    common: list[ComponentElement] = []
    v = 0
    while v < len(wa):
        if not (wa[v] or wb[v]):
            f, *rests = comp_hclf(pa[ha[v]].payload, pb[hb[v]].payload)
            if f:
                common.append(ComponentElement(pa[ha[v]].vertex, f))
                for front, (piled, heads, _), rest in zip(fronts, states, rests):
                    if rest:
                        piled[heads[v]] = ComponentElement(piled[heads[v]].vertex, rest)
                    else:
                        front.send(v)
                v = -1  # least vertex first again
        v += 1
    return (GPElement(gp, shuffle_reduce(gp, common)),
            *(GPElement(gp, tuple(list(front))) for front in fronts))


def hclf(a: GPElement, b: GPElement) -> GPElement:
    """Highest common left factor: the pieces one strip peels off the
    fronts of a and b together (``_strip_hclf``)."""
    return _strip_hclf(a, b)[0]

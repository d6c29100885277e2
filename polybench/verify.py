"""Checks of the program's outputs made apart from the program.

A graph product of free monoids is the trace monoid on its letters in which
two letters commute exactly when their vertices are distinct and adjacent.
So two words are the same element exactly when their projections onto every
pair of non-commuting letters agree (the projection lemma for traces).  The
checks below read the program's printed normal forms and judge them with the
benchmark's own graph model (``gen.BenchGraph``) only.

Each ``check_*`` function returns ``None`` when the output passes and a short
reason when it does not.
"""

from __future__ import annotations

import re
from functools import lru_cache

from gen import BenchGraph

_TOKEN = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:\^(\d+))?\Z")
_SIGNED = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?\Z")


def tokens(text: str) -> list[tuple[str, int]]:
    """``"v1^3 pa pb^2"`` as ``[("v1", 3), ("pa", 1), ("pb", 2)]``; "1" is empty."""
    text = text.strip()
    if text == "1":
        return []
    out = []
    for tok in text.split():
        m = _TOKEN.match(tok)
        if not m:
            raise ValueError(f"bad token {tok!r}")
        out.append((m.group(1), int(m.group(2) or 1)))
    return out


def letters_of(text: str) -> list[str]:
    return [a for a, k in tokens(text) for _ in range(k)]


def syllables(g: BenchGraph, text: str) -> list[tuple[str, list[tuple[str, int]]]]:
    """Maximal runs of tokens at one vertex, as (vertex, tokens)."""
    out: list[tuple[str, list[tuple[str, int]]]] = []
    for a, k in tokens(text):
        v = g.vertex_of(a)
        if out and out[-1][0] == v:
            out[-1][1].append((a, k))
        else:
            out.append((v, [(a, k)]))
    return out


@lru_cache(maxsize=None)
def dependent_pairs(g: BenchGraph) -> tuple[tuple[str, str], ...]:
    letters = g.all_letters()
    return tuple(
        (a, b)
        for i, a in enumerate(letters)
        for b in letters[i:]
        if a == b or not g.adjacent(g.vertex_of(a), g.vertex_of(b))
    )


def equivalent(g: BenchGraph, w1: list[str], w2: list[str]) -> bool:
    """Whether two letter words are the same element of the graph product."""
    if len(w1) != len(w2):
        return False
    for a, b in dependent_pairs(g):
        if [x for x in w1 if x == a or x == b] != [x for x in w2 if x == a or x == b]:
            return False
    return True


def check_same(g: BenchGraph, out_text: str, word: list[str]) -> str | None:
    if not equivalent(g, letters_of(out_text), word):
        return f"{out_text!r} is not the element of the given word"
    return None


def check_normal_form(g: BenchGraph, out_text: str, word: list[str]) -> str | None:
    """``out_text`` is the element of ``word``, reduced, least vertex first.

    No syllable may be movable, through syllables it commutes with, in front
    of one at a later vertex.  An expression with two syllables at one vertex
    and only commuting ones between always has such a pair, so this also
    checks that the expression is reduced."""
    bad = check_same(g, out_text, word)
    if bad:
        return bad
    syl = syllables(g, out_text)
    for k, (v, toks) in enumerate(syl):
        if g.is_mono(v) and len(toks) != 1:
            return f"monogenic syllable at {v} is split: {toks}"
        vi = g.index(v)
        for j in range(k - 1, -1, -1):
            u = syl[j][0]
            if not g.adjacent(u, v):
                break
            if g.index(u) > vi:
                return f"syllable {k} at {v} belongs before syllable {j} at {u}"
    return None


def initial_syllables(g: BenchGraph, text: str) -> dict[str, list[tuple[str, int]]]:
    """Vertex to its initial component, for every vertex that has one."""
    out = {}
    seen: list[str] = []
    for v, toks in syllables(g, text):
        if v not in out and all(g.adjacent(u, v) for u in seen):
            out[v] = toks
        seen.append(v)
    return out


def check_coprime(g: BenchGraph, text1: str, text2: str) -> str | None:
    """The two elements share no nontrivial initial component."""
    i1, i2 = initial_syllables(g, text1), initial_syllables(g, text2)
    for v in set(i1) & set(i2):
        if g.is_mono(v) or i1[v][0][0] == i2[v][0][0]:
            return f"{text1!r} and {text2!r} share an initial component at {v}"
    return None



def free_reduce(word: str) -> str:
    """A signed word with neighbouring powers of one letter merged and
    trivial ones dropped: the same group element, in fewer letters."""
    out: list[list] = []
    for tok in word.split():
        m = _SIGNED.match(tok)
        if not m:
            raise ValueError(f"bad signed token {tok!r}")
        a, k = m.group(1), int(m.group(2) or 1)
        if out and out[-1][0] == a:
            out[-1][1] += k
            if not out[-1][1]:
                out.pop()
        else:
            out.append([a, k])
    return " ".join(a if k == 1 else f"{a}^{k}" for a, k in out) or "1"


def pair_word(a_text: str, b_text: str) -> str:
    """The signed word a^-1 b, which evaluates to the pair [a | b]."""
    neg = [f"{a}^-{k}" for a, k in reversed(tokens(a_text))]
    return " ".join(neg + [f"{a}^{k}" for a, k in tokens(b_text)]) or "1"

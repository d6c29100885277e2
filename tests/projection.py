"""Trace-monoid judge of lclm, hclf, max_above, natural_le and the two
divisions on long words.

Every supported component is a free monoid (a monogenic one on one letter),
so a graph product is the trace monoid on its letters, in which two letters
commute exactly when their vertices are distinct and adjacent.  Two words are
the same element exactly when their projections onto every dependent pair of
letters (a pair that does not commute, each letter with itself included) are
equal: the projection lemma (Cori and Perrin, 1985; Diekert and Rozenberg,
eds., *The Book of Traces*, 1995).  The judge reads elements as they print
(``"x1^3 p q"``) and uses nothing of the package it judges, so a fault that
the package's own paths share stays visible to it.  Its cost is linear in
the word length times the number of dependent pairs, so it reaches lengths
that the enumerating oracles of ``polygraph.oracle`` cannot.

Its criteria:

- b and c have a common left multiple exactly when, for every dependent
  pair, one projection is a suffix of the other;
- a common left multiple s*b = t*c is the least one exactly when s and t
  have no common nonidentity left factor (right cancellation);
- x = hclf(a, b) with a = x*a' and b = x*b' exactly when a' and b' have no
  common nonidentity left factor (cancellation on both sides);
- two elements have a common nonidentity left factor exactly when some
  letter left-divides both, and a letter left-divides a word exactly when it
  occurs in it and every letter before its first occurrence commutes with
  it;
- c right-divides a exactly when every projection of c is a suffix of the
  same one of a, and the quotient projects onto what precedes that suffix;
  c left-divides a with prefixes, and the quotient projects onto what
  follows them;
- so [a | b] <= [c | d] in the inverse hull, that is a = x*c and b = x*d,
  exactly when, for every dependent pair, the projection of c is a suffix of
  that of a and the projection of b is that of a with the suffix removed,
  followed by that of d.

Standard library only.
"""

import re
from collections.abc import Iterable, Sequence

_TOKEN = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:\^(\d+))?\Z")


def letters(text: str) -> list[str]:
    """The letters of a printed monoid element, powers written out; ``"1"``
    is the empty word."""
    out: list[str] = []
    for tok in text.split():
        if tok == "1":
            continue
        m = _TOKEN.match(tok)
        if not m:
            raise ValueError(f"bad token {tok!r}")
        out += [m.group(1)] * int(m.group(2) or 1)
    return out


class TraceModel:
    """The trace monoid of a graph product of free components, given the
    vertex of each letter and the edges as pairs of vertices."""

    def __init__(self, letter_vertex: dict[str, str], edges: Iterable[Iterable[str]]) -> None:
        self.letter_vertex = dict(letter_vertex)
        self.edges = {frozenset(e) for e in edges}
        alphabet = sorted(self.letter_vertex)
        self.pairs_of: dict[str, list[tuple[str, str]]] = {a: [] for a in alphabet}
        for i, a in enumerate(alphabet):
            for b in alphabet[i:]:
                if not self.commute(a, b):
                    self.pairs_of[a].append((a, b))
                    if b != a:
                        self.pairs_of[b].append((a, b))

    def commute(self, a: str, b: str) -> bool:
        u, v = self.letter_vertex[a], self.letter_vertex[b]
        return u != v and frozenset((u, v)) in self.edges

    def projections(self, word: Sequence[str]) -> dict[tuple[str, str], list[str]]:
        """The projection of word onto each dependent pair that it meets."""
        out: dict[tuple[str, str], list[str]] = {}
        for x in word:
            for pair in self.pairs_of[x]:
                out.setdefault(pair, []).append(x)
        return out

    def equal(self, u: Sequence[str], v: Sequence[str]) -> bool:
        return len(u) == len(v) and self.projections(u) == self.projections(v)

    def have_common_multiple(self, u: Sequence[str], v: Sequence[str]) -> bool:
        """Whether every projection of u and the same one of v are comparable
        as suffixes."""
        pu, pv = self.projections(u), self.projections(v)
        for pair in pu.keys() | pv.keys():
            x, y = sorted((pu.get(pair, []), pv.get(pair, [])), key=len)
            if y[len(y) - len(x):] != x:
                return False
        return True

    def initial(self, word: Sequence[str]) -> set[str]:
        """The letters that left-divide word."""
        out: set[str] = set()
        seen: set[str] = set()
        for x in word:
            if x not in seen:
                if all(self.commute(x, y) for y in seen):
                    out.add(x)
                seen.add(x)
        return out

    def coprime(self, u: Sequence[str], v: Sequence[str]) -> bool:
        return not self.initial(u) & self.initial(v)

    def judge_lclm(self, b: str, c: str, result: Sequence[str] | None) -> str | None:
        """None when ``result``, the printed (s, t, m) of lclm(b, c) or None
        for no common multiple, is right; else what is wrong with it."""
        wb, wc = letters(b), letters(c)
        exists = self.have_common_multiple(wb, wc)
        if (result is None) == exists:
            return f"lclm({b}, {c}) is {result}, but a common multiple {'exists' if exists else 'does not'}"
        if result is None:
            return None
        s, t, m = map(letters, result)
        if not (self.equal(s + wb, m) and self.equal(t + wc, m)):
            return f"s*b = t*c = m fails for lclm({b}, {c}) = {tuple(result)}"
        if not self.coprime(s, t):
            return f"s = {result[0]} and t = {result[1]} share a left factor: lclm({b}, {c}) is not least"
        return None

    def judge_natural_le(self, s: Sequence[str], t: Sequence[str], result: bool) -> str | None:
        """None when ``result`` is whether s <= t, for s = (a, b) and
        t = (c, d) printed; else what is wrong with it."""
        pa, pb, pc, pd = (self.projections(letters(w)) for w in (*s, *t))
        le = True
        for pair in pa.keys() | pb.keys() | pc.keys() | pd.keys():
            a, b, c, d = (p.get(pair, []) for p in (pa, pb, pc, pd))
            k = len(a) - len(c)
            if k < 0 or a[k:] != c or b != a[:k] + d:
                le = False
                break
        if result != le:
            return f"natural_le([{s[0]} | {s[1]}], [{t[0]} | {t[1]}]) is {result}, but should be {le}"
        return None

    def _quotient(self, a: str, c: str, right: bool) -> dict[tuple[str, str], list[str]] | None:
        """The nonempty projections of b with a = b*c (right) or a = c*b
        (left), or None when there is no such b: each projection of c must
        be a suffix (a prefix) of the same one of a, and b's is the rest."""
        pa, pc = self.projections(letters(a)), self.projections(letters(c))
        out = {}
        for pair in pa.keys() | pc.keys():
            x, y = pa.get(pair, []), pc.get(pair, [])
            k = len(x) - len(y)
            if k < 0 or (x[k:] if right else x[:len(y)]) != y:
                return None
            rest = x[:k] if right else x[len(y):]
            if rest:
                out[pair] = rest
        return out

    def _judge_divide(self, name: str, a: str, c: str, result: str | None) -> str | None:
        want = self._quotient(a, c, right=name == "right_divide")
        if result is None and want is None:
            return None
        if result is None or want is None:
            return f"{name}({a}, {c}) is {result}, but a quotient {'does not' if want is None else 'exists'}"
        if self.projections(letters(result)) != want:
            return f"{name}({a}, {c}) is {result}, a wrong quotient"
        return None

    def judge_right_divide(self, a: str, c: str, result: str | None) -> str | None:
        """None when ``result``, the printed b with a = b*c or None for no
        such b, is right; else what is wrong with it."""
        return self._judge_divide("right_divide", a, c, result)

    def judge_left_divide(self, a: str, c: str, result: str | None) -> str | None:
        """None when ``result``, the printed b with a = c*b or None for no
        such b, is right; else what is wrong with it."""
        return self._judge_divide("left_divide", a, c, result)

    def judge_hclf(self, a: str, b: str, x: str, a_rest: str, b_rest: str) -> str | None:
        """None when x = hclf(a, b) and (a_rest, b_rest) are what a and b
        leave after x, all printed; else what is wrong with them."""
        wx, wa, wb = letters(x), letters(a_rest), letters(b_rest)
        if not (self.equal(wx + wa, letters(a)) and self.equal(wx + wb, letters(b))):
            return f"x*a' = a or x*b' = b fails for x = {x}, a' = {a_rest}, b' = {b_rest}"
        if not self.coprime(wa, wb):
            return f"a' = {a_rest} and b' = {b_rest} share a left factor: hclf({a}, {b}) = {x} is not highest"
        return None

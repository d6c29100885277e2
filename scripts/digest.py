#!/usr/bin/env python3
"""Differential digest of polygraph's outputs on seeded random inputs.

Builds seeded random graphs with 2 to 8 vertices, all-monogenic and mixed,
and on each runs rounds of random words through the public operations:
make_element, multiply, both divisions (a quotient that exists and one that
may not), final and initial components, lclm, hclf, ih_multiply, max_above,
natural_le and eval_word, plus group_reduce, eta, and the inverse and
product of group words on the all-monogenic graphs.  Last, each graph gets
one right and one left division of a product of two 60-100 letter words,
then the lclm of x*w and y*w for a 60-100 letter w, once for two random
letters x and y and once, where the graph has two, for letters whose
vertices block each other, so that no common multiple exists, and then
natural_le of [x*c | x*d] against [c | d], which holds, and against
[y*c | d] for a letter y, which does not, on 60-100 letter words x, c and d.
Every result is one case, rendered exactly (syllable by syllable, payload
types included), and the script prints the number of cases and a sha256 over
them.

Two trees give the same digest exactly when they give the same outputs, so
a change that should not alter any result is checked by running this under
each tree's ``src`` and comparing the two lines:

    PYTHONPATH=old/src python3 scripts/digest.py --seed 1 --graphs 120
    PYTHONPATH=new/src python3 scripts/digest.py --seed 1 --graphs 120

``--lines`` prints every case instead, for diffing when the digests differ.
Standard library only.
"""

import argparse
import hashlib
import random

from polygraph import (
    GPElement,
    GroupWord,
    IHPair,
    ZERO,
    eta,
    eval_word,
    final_component,
    group_reduce,
    hclf,
    ih_multiply,
    initial_component,
    lclm,
    left_divide,
    make_element,
    max_above,
    multiply,
    natural_le,
    parse_graph,
    right_divide,
)

ROUNDS = 25  # rounds of random words per graph


def random_graph(rng: random.Random, mixed: bool):
    """A graph with 2-8 vertices at a random edge density, and its letters in
    declaration order; in a mixed graph about a third of the vertices carry a
    free monoid on 1-3 letters."""
    n = rng.randint(2, 8)
    lines, letters = [], []
    for i in range(1, n + 1):
        if mixed and rng.random() < 0.35:
            free = [f"{c}{i}" for c in "pqr"[: rng.randint(1, 3)]]
            letters += free
            lines.append(f"vertex u{i} free {' '.join(free)}")
        else:
            letters.append(f"x{i}")
            lines.append(f"vertex x{i} mono")
    names = [line.split()[1] for line in lines]
    density = rng.random()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                lines.append(f"edge {names[i]} {names[j]}")
    return parse_graph("\n".join(lines) + "\n"), letters


def render(x) -> str:
    """Exact text of a result: syllables with their payloads' reprs."""
    if x is None:
        return "none"
    if x is ZERO:
        return "0"
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, tuple):  # lclm's (s, t, m) or a component split
        return " | ".join(render(y) for y in x)
    if isinstance(x, IHPair):
        return f"[{render(x.a)} | {render(x.b)}]"
    if isinstance(x, (GPElement, GroupWord)):
        return " ".join(f"{ce.vertex}:{ce.payload!r}" for ce in x.expr) or "1"
    return f"{x.vertex}:{x.payload!r}"  # ComponentElement


def cases(seed: int, num_graphs: int):
    """Yield one line per case: the operation's name and its rendered result."""
    rng = random.Random(seed)
    graphs = []
    for g in range(num_graphs):
        gp, letters = random_graph(rng, mixed=g % 2 == 1)
        graphs.append((gp, letters))
        mono = gp.all_mono()
        max_len = rng.choice((14, 30))

        def word(lo=0, hi=max_len):
            return " ".join(
                rng.choice(letters) + rng.choice(("", "", "", "^2", "^3"))
                for _ in range(rng.randint(lo, hi))
            )

        def signed_word(hi=12):
            return " ".join(
                rng.choice(letters) + rng.choice(("", "", "^-1", "^2", "^-2"))
                for _ in range(rng.randint(0, hi))
            )

        for _ in range(3):  # long normal forms
            yield "nf-long", make_element(gp, word(60, 200))
        for _ in range(ROUNDS):
            a, b = make_element(gp, word()), make_element(gp, word())
            c = make_element(gp, word(0, 6))
            v = rng.choice(gp.vertices)
            ab = multiply(a, b)
            yield "make_element", a
            yield "multiply", ab
            yield "right_divide", right_divide(ab, b)
            yield "right_divide?", right_divide(a, b)
            yield "left_divide", left_divide(ab, a)
            yield "left_divide?", left_divide(b, a)
            yield "final_component", final_component(a, v)
            yield "initial_component", initial_component(a, v)
            yield "lclm", lclm(a, b)
            yield "lclm-common", lclm(multiply(c, a) if rng.random() < 0.5 else a, multiply(b, c))
            yield "hclf", hclf(a, b)
            yield "hclf-common", hclf(multiply(c, a), multiply(c, b))
            s, t = IHPair(a, b), IHPair(b, c)
            yield "ih_multiply", ih_multiply(s, t)
            yield "max_above", max_above(IHPair(multiply(c, a), multiply(c, b)))
            yield "natural_le", natural_le(IHPair(multiply(c, a), multiply(c, b)), s)
            yield "natural_le?", natural_le(s, t)
            w = signed_word()
            e = eval_word(gp, w)
            yield "eval_word", e
            if mono:
                r, h = group_reduce(gp, w + " " + signed_word()), eta(s)
                yield "group_reduce", r
                yield "eta", h
                yield "eta-eval", eta(e, gp)
                yield "group-inverse", r.inverse()
                yield "group-inverse", h.inverse()
                yield "group-mul", r * h
                yield "group-mul", h.inverse() * r
    # drawn after every case above, so those keep their inputs
    for gp, letters in graphs:
        a, c = (make_element(gp, " ".join(rng.choices(letters, k=rng.randint(60, 100))))
                for _ in range(2))
        yield "right_divide-long", right_divide(multiply(a, c), c)
        yield "left_divide-long", left_divide(multiply(c, a), c)
    for gp, letters in graphs:
        vertex = gp.letter_vertex
        blocking = [(x, y) for x in letters for y in letters if x != y and (
            vertex[x] == vertex[y] or not gp.adjacent(vertex[x], vertex[y]))]
        pairs = [("lclm-long", *rng.choices(letters, k=2))]
        if blocking:
            pairs.append(("lclm-long-blocked", *rng.choice(blocking)))
        for name, x, y in pairs:
            w = " ".join(rng.choices(letters, k=rng.randint(60, 100)))
            yield name, lclm(make_element(gp, f"{x} {w}"), make_element(gp, f"{y} {w}"))
    for gp, letters in graphs:
        x, c, d = (make_element(gp, " ".join(rng.choices(letters, k=rng.randint(60, 100))))
                   for _ in range(3))
        s, y = IHPair(multiply(x, c), multiply(x, d)), make_element(gp, rng.choice(letters))
        yield "natural_le-long", natural_le(s, IHPair(c, d))
        yield "natural_le-long?", natural_le(s, IHPair(multiply(y, c), d))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--graphs", type=int, default=120, help="number of random graphs")
    ap.add_argument("--lines", action="store_true", help="print every case, not the digest")
    args = ap.parse_args()

    h = hashlib.sha256()
    n = 0
    for name, result in cases(args.seed, args.graphs):
        line = f"{n} {name} {render(result)}\n"
        if args.lines:
            print(line, end="")
        h.update(line.encode())
        n += 1
    if not args.lines:
        print(f"cases {n} sha256 {h.hexdigest()}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Quick tour of the library on the bundled graphs.

Prints, for each graph: a few normal forms, an lclm/hclf sample, the
generated relation list, and some inverse-hull arithmetic.
"""

import argparse
import random

from polygraph.builtin import BUILTIN_GRAPH_TEXTS, builtin
from polygraph.gproduct import hclf, lclm, make_element, multiply
from polygraph.ihull import (
    IHPair,
    ZERO,
    eval_word,
    format_pgword,
    generate_presentation,
    ih_multiply,
    max_above,
)


def tour(name: str, rng: random.Random) -> None:
    gp = builtin(name)
    letters = gp.all_letters()
    print(f"== {name} (vertices: {' '.join(gp.vertices)}) ==")

    words = [
        [(rng.choice(letters), 1) for _ in range(rng.randint(2, 4))]
        for _ in range(3)
    ]
    for w in words:
        raw = " ".join(l for l, _ in w)
        print(f"  nf({raw!r}) = {make_element(gp, w)}")

    b, c = (make_element(gp, w) for w in words[:2])
    res = lclm(b, c)
    if res is None:
        print(f"  lclm({b}, {c}) = none")
    else:
        print(f"  lclm({b}, {c}) = {res[2]}")
    print(f"  hclf({multiply(b, c)}, {b}) = {hclf(multiply(b, c), b)}")

    rels = generate_presentation(gp)
    print(f"  {len(rels)} relations, e.g. {rels[0]}")

    w = " ".join(
        f"{rng.choice(letters)}^{rng.choice([1, -1])}" for _ in range(4)
    )
    s = eval_word(gp, w)
    print(f"  eval({w!r}) = {s}")
    if s is not ZERO:
        print(f"  max above it: {max_above(s)}")
    print()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("graphs", nargs="*", default=sorted(BUILTIN_GRAPH_TEXTS))
    args = ap.parse_args()
    rng = random.Random(args.seed)
    for name in args.graphs:
        tour(name, rng)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Tabulate monoid growth and lclm existence rates across graph families.

For every labeled monogenic graph on n vertices this counts the distinct
elements represented by words of each length, and the fraction of element
pairs admitting a common left multiple.  More edges mean more commuting, so
more words collapse together and more lclms exist; the table makes that
trade-off concrete.
"""

import argparse
import itertools
from collections import Counter

from polygraph import oracle
from polygraph.builtin import all_mono_graphs
from polygraph.gproduct import lclm


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--vertices", type=int, default=3)
    ap.add_argument("--max-letters", type=int, default=4)
    args = ap.parse_args()

    n = args.vertices
    print(f"{'edges':>18} {'elements':>9} {'lclm pairs':>11}")
    rows = Counter()
    for gp in all_mono_graphs(n):
        elems = oracle.elements_up_to(gp, args.max_letters)
        have = sum(
            1 for b, c in itertools.product(elems, repeat=2) if lclm(b, c)
        )
        edges = sorted(tuple(sorted(e)) for e in gp.edges)
        label = ",".join(f"{u}-{v}" for u, v in edges) or "(none)"
        frac = have / (len(elems) ** 2)
        print(f"{label:>18} {len(elems):>9} {frac:>10.1%}")
        rows[len(edges)] += 1
    print(f"\n{sum(rows.values())} graphs on {n} vertices, by edge count: "
          + ", ".join(f"{k}: {v}" for k, v in sorted(rows.items())))


if __name__ == "__main__":
    main()

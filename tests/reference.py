"""Cubic reference implementation of the normal-form kernel.

The tests compare ``gproduct.shuffle_reduce`` with it on inputs of up to a
few hundred syllables, which the brute-force closures of ``polygraph.oracle``
cannot reach.
"""

from collections.abc import Iterable

from polygraph.gproduct import ComponentElement
from polygraph.graph import GraphProduct


def shuffle_reduce_reference(
    gp: GraphProduct, syllables: Iterable[ComponentElement]
) -> tuple[ComponentElement, ...]:
    """Reference for ``gproduct.shuffle_reduce``.

    First amalgamates every pair of same-vertex syllables separated only by
    adjacent-vertex syllables, dropping any amalgam whose payload is the
    identity, until nothing changes; then repeatedly emits the least-vertex
    syllable that can be shuffled to the front.  Cubic in the number of
    syllables.
    """
    comps = list(syllables)
    adjacent = gp.adjacent

    # amalgamation fixpoint
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(comps):
            v = comps[i].vertex
            j = i + 1
            while j < len(comps):
                if comps[j].vertex == v:
                    payload = comps[i].payload + comps[j].payload  # int or tuple
                    del comps[j]
                    changed = True
                    if not payload:  # 0 or (), the identity
                        del comps[i]
                        break
                    comps[i] = ComponentElement(v, payload)
                    continue
                if not adjacent(comps[j].vertex, v):
                    break
                j += 1
            i += 1

    # greedy least-vertex-first extraction; at most one syllable of each
    # vertex can be shuffled to the front of a reduced expression
    vindex = gp.vertex_index
    out: list[ComponentElement] = []
    while comps:
        best_pos = None
        best_key = None
        for pos, ce in enumerate(comps):
            if all(adjacent(prev.vertex, ce.vertex) for prev in comps[:pos]):
                key = vindex(ce.vertex)
                if best_key is None or key < best_key:
                    best_key, best_pos = key, pos
        out.append(comps.pop(best_pos))
    return tuple(out)

"""Per-layer tracing from outside the package.

``Tracer.install`` replaces each public function named in ``SPANS`` by a
wrapper, in every ``polygraph`` module that holds it (``ihull``, for one,
binds ``lclm`` and ``multiply`` at import), and ``uninstall`` puts the
originals back.  A wrapper records a span: its name, its duration and the
span open when it started (its parent).  Self time is the duration minus the
time covered by child spans.  Spans are folded into per-name and per-edge
totals as they close, so memory stays flat however many calls a run makes.
``GraphProduct.adjacent`` costs less than a span, so it is only counted.
"""

from __future__ import annotations

import re
import sys
from collections import defaultdict
from time import perf_counter

# (layer, module, function)
SPANS = (
    ("graph", "graph", "parse_graph"),
    ("gproduct", "gproduct", "normal_form"),
    ("gproduct", "gproduct", "make_element"),
    ("gproduct", "gproduct", "multiply"),
    ("gproduct", "gproduct", "final_component"),
    ("gproduct", "gproduct", "initial_component"),
    ("gproduct", "gproduct", "right_divide"),
    ("gproduct", "gproduct", "left_divide"),
    ("gproduct", "gproduct", "lclm"),
    ("gproduct", "gproduct", "hclf"),
    ("ihull", "ihull", "eval_word"),
    ("ihull", "ihull", "ih_multiply"),
    ("ihull", "ihull", "natural_le"),
    ("ihull", "ihull", "max_above"),
    ("ragroup", "ragroup", "group_reduce"),
    ("ragroup", "ragroup", "eta"),
)

_EXP = re.compile(r"\^(-?\d+)\Z")


def signed_letters(word) -> int:
    """Letter count of a signed word in text or token form."""
    if not isinstance(word, str):
        return len(word)
    n = 0
    for tok in word.split():
        if tok != "1":
            m = _EXP.search(tok)
            n += abs(int(m.group(1))) if m else 1
    return n


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.edges: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self._names: list[str] = []
        self._child: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Drop what was recorded; installed wrappers keep recording."""
        for table in (self.calls, self.self_time, self.counts, self.edges):
            table.clear()

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn, before=None, after=None):
        names, child = self._names, self._child

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            parent = names[-1] if names else "op"
            names.append(name)
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                names.pop()
                covered = child.pop()
                if child:
                    child[-1] += dt
                self.calls[name] += 1
                self.self_time[name] += dt - covered
                edge = self.edges[(parent, name)]
                edge[0] += 1
                edge[1] += dt
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self, name: str):
        counts = self.counts

        def nf_before(args):
            gp, raw = args[0], tuple(args[1])
            counts["gproduct.normal_form.syllables_in"] += len(raw)
            return (gp, raw) + args[2:]

        def nf_after(el):
            counts["gproduct.normal_form.syllables_out"] += len(el.expr)

        def eval_before(args):
            counts["ihull.eval_word.letters"] += signed_letters(args[1])
            return args

        def gr_before(args):
            word = args[1] if isinstance(args[1], str) else tuple(args[1])
            counts["ragroup.group_reduce.tokens_in"] += signed_letters(word)
            return (args[0], word) + args[2:]

        def lclm_after(res):
            counts["gproduct.lclm.none"] += res is None

        def ihmul_after(res):
            counts["ihull.ih_multiply.zero"] += res is self._zero

        return {
            "gproduct.normal_form": (nf_before, nf_after),
            "ihull.eval_word": (eval_before, None),
            "ragroup.group_reduce": (gr_before, None),
            "gproduct.lclm": (None, lclm_after),
            "ihull.ih_multiply": (None, ihmul_after),
        }.get(name, (None, None))

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        mods = [m for k, m in sys.modules.items() if k == "polygraph" or k.startswith("polygraph.")]
        graph_mod = sys.modules["polygraph.graph"]
        self._zero = sys.modules["polygraph.ihull"].ZERO
        for layer, modname, fname in SPANS:
            orig = getattr(sys.modules[f"polygraph.{modname}"], fname)
            name = f"{layer}.{fname}"
            wrapper = self._span(name, orig, *self._hooks(name))
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

        cls = graph_mod.GraphProduct
        orig_adj = cls.adjacent
        counts = self.counts

        def adjacent(gp, u, v):
            counts["graph.adjacent.calls"] += 1
            return orig_adj(gp, u, v)

        self._patched.append((cls, "adjacent", orig_adj))
        cls.adjacent = adjacent

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer, _, fname in SPANS:
            name = f"{layer}.{fname}"
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_ms"] = self.self_time[name] * 1e3
        out.update(self.counts)
        return out

    def call_graph(self) -> list[dict]:
        return [
            {"parent": p, "name": n, "calls": c, "total_ms": t * 1e3}
            for (p, n), (c, t) in sorted(self.edges.items())
        ]

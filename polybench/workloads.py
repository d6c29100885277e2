"""The four workloads: seeded inputs, the operations of each round, checks.

A workload is ``generate(seed)`` (benchmark-side data only: graph texts and
words), ``prepare(pg, inputs)`` (the set-up a user pays: parse the graphs
and build the input elements with the package), ``rounds`` (lists of
``Op``; round ``r`` of a run uses ``state.rounds[r % len(state.rounds)]``),
and ``check(state, r, results)`` (reasons an output is wrong, judged apart
from the program or by properties the method must have).

Every round of one workload has the same operations on new inputs, so a run
always attempts whole rounds.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import gen
import verify
from gen import BenchGraph


@dataclass(frozen=True)
class Ref:
    """An argument that is the result of op ``i`` of the same round."""

    i: int


@dataclass(frozen=True)
class Op:
    kind: str
    module: str  # "gproduct", "ihull", "ragroup", or "cli"
    fn: str
    args: tuple


@dataclass
class State:
    pg: SimpleNamespace
    inputs: object
    rounds: list[list[Op]]
    extra: dict = field(default_factory=dict)


def _w(word) -> str:
    return " ".join(word)


# ---------------------------------------------------------------------------
# nf-long: normal forms of long words


class NfLong:
    """``make_element`` on 300-letter words and ``multiply`` of two elements
    made from 150-letter words, on every graph of ``gen.product_graphs``."""

    name = "nf-long"
    imports = ("polygraph",)
    n_rounds = 2  # each has every graph; more would only lengthen set-up and checks
    word_len = 300
    factor_len = 150

    def generate(self, seed: int):
        rng = random.Random(seed)
        graphs = gen.product_graphs(rng)
        cases = []
        for r in range(self.n_rounds):
            for gi, g in enumerate(graphs):
                word = gen.random_word(rng, g, self.word_len)
                cases.append(
                    SimpleNamespace(
                        r=r,
                        gi=gi,
                        word=word,
                        shuffled=gen.commuting_shuffle(rng, g, word),
                        wa=gen.random_word(rng, g, self.factor_len),
                        wb=gen.random_word(rng, g, self.factor_len),
                    )
                )
        return SimpleNamespace(graphs=graphs, cases=cases)

    def prepare(self, pg, inputs) -> State:
        gps = [pg.graph.parse_graph(g.text) for g in inputs.graphs]
        make = pg.gproduct.make_element
        rounds: list[list[Op]] = [[] for _ in range(self.n_rounds)]
        for c in inputs.cases:
            gp = gps[c.gi]
            a, b = make(gp, _w(c.wa)), make(gp, _w(c.wb))
            rounds[c.r] += [
                Op("make_element", "gproduct", "make_element", (gp, _w(c.word))),
                Op("multiply", "gproduct", "multiply", (a, b)),
            ]
        return State(pg, inputs, rounds, {"gps": gps})

    def check(self, state: State, r: int, results: list):
        make = state.pg.gproduct.make_element
        cases = [c for c in state.inputs.cases if c.r == r]
        for k, c in enumerate(cases):
            g, gp = state.inputs.graphs[c.gi], state.extra["gps"][c.gi]
            nf, prod = results[2 * k], results[2 * k + 1]
            yield verify.check_normal_form(g, str(nf), c.word)
            if make(gp, _w(c.shuffled)) != nf:
                yield f"{g.name}: a commuting shuffle of the word has another normal form"
            yield verify.check_normal_form(g, str(prod), c.wa + c.wb)
            if make(gp, _w(c.wa + c.wb)) != prod:
                yield f"{g.name}: multiply differs from make_element of the joined words"


# ---------------------------------------------------------------------------
# divide-lclm: division, lclm and hclf on medium elements


class DivideLclm:
    """Per graph of ``gen.product_graphs``: both divisions of a 40-letter
    product, ``lclm`` of a pair that has a common left multiple and of one
    that has none, and ``hclf``.  A division that has no quotient is only
    checked: it returns at the first component, so as an operation it would
    only add near-zero latencies."""

    name = "divide-lclm"
    imports = ("polygraph",)
    n_rounds = 8
    half = 20  # letters in a and in c; a*c has about 20 to 40 syllables
    hclf_part = 20  # letters in hclf's a and b after a 10-letter x: costs as much as a division

    def generate(self, seed: int):
        rng = random.Random(seed)
        graphs = gen.product_graphs(rng)
        cases = []
        for r in range(self.n_rounds):
            for gi, g in enumerate(graphs):
                word = lambda n: gen.random_word(rng, g, n)  # noqa: E731
                pair = gen.adjacent_pair(rng, g)
                if pair:
                    x = gen.random_word(rng, g, rng.randint(1, 3), g.letters(pair[0]))
                    y = gen.random_word(rng, g, rng.randint(1, 3), g.letters(pair[1]))
                else:  # edgeless: x must be empty for disjoint adjacent supports
                    x = []
                    y = gen.random_word(rng, g, rng.randint(1, 3), g.letters(rng.choice(g.vertices)))
                cases.append(
                    SimpleNamespace(
                        r=r,
                        gi=gi,
                        a=word(self.half),
                        c=word(self.half),
                        block=gen.blocking_letters(rng, g),
                        w=word(15),
                        lw=word(self.half),
                        lx=x,
                        ly=y,
                        b1=word(15),
                        b2=word(15),
                        hx=word(10),
                        ha=word(self.hclf_part),
                        hb=word(self.hclf_part),
                    )
                )
        return SimpleNamespace(graphs=graphs, cases=cases)

    def prepare(self, pg, inputs) -> State:
        gps = [pg.graph.parse_graph(g.text) for g in inputs.graphs]
        make = pg.gproduct.make_element
        rounds: list[list[Op]] = [[] for _ in range(self.n_rounds)]
        built = []
        for c in inputs.cases:
            gp = gps[c.gi]
            e = SimpleNamespace(
                a=make(gp, _w(c.a)),
                c=make(gp, _w(c.c)),
                hx=make(gp, _w(c.hx)),
            )
            ops = [
                Op("right_divide", "gproduct", "right_divide", (make(gp, _w(c.a + c.c)), e.c)),
                Op("left_divide", "gproduct", "left_divide", (make(gp, _w(c.c + c.a)), e.c)),
                Op("lclm", "gproduct", "lclm", (make(gp, _w(c.lx + c.lw)), make(gp, _w(c.ly + c.lw)))),
                Op("hclf", "gproduct", "hclf", (make(gp, _w(c.hx + c.ha)), make(gp, _w(c.hx + c.hb)))),
            ]
            if c.block:  # none exists on the all-monogenic complete graph
                p, q = c.block
                ops.append(Op("lclm_none", "gproduct", "lclm",
                              (make(gp, _w(c.b1 + [p])), make(gp, _w(c.b2 + [q])))))
            e.start = len(rounds[c.r])
            rounds[c.r] += ops
            built.append(e)
        return State(pg, inputs, rounds, {"gps": gps, "built": built})

    def check(self, state: State, r: int, results: list):
        gpm = state.pg.gproduct
        for c, e in zip(state.inputs.cases, state.extra["built"]):
            if c.r != r:
                continue
            g, gp = state.inputs.graphs[c.gi], state.extra["gps"][c.gi]
            rd, ld, lc, h = results[e.start:e.start + 4]
            for label, q in (("right_divide", rd), ("left_divide", ld)):
                if q != e.a:
                    yield f"{g.name}: {label} of a product by c is {q}, not a = {e.a}"
                else:
                    yield verify.check_same(g, str(q), c.a)
            if lc is None:
                yield f"{g.name}: lclm(x*w, y*w) is None"
            else:
                s, t, m = lc
                for f, word in ((s, c.lx), (t, c.ly)):
                    if not verify.equivalent(g, verify.letters_of(str(f)) + word + c.lw,
                                             verify.letters_of(str(m))):
                        yield f"{g.name}: lclm cofactor {f} times its input is not m = {m}"
                yield verify.check_same(g, str(m), c.lx + c.ly + c.lw)
            yield from self._check_hclf(gpm, g, gp, c, e, h)
            if c.block:
                p, q = c.block
                if results[e.start + 4] is not None:
                    yield f"{g.name}: lclm of words ending in {p} and {q} = {results[e.start + 4]}, expected None"
                rdn = gpm.right_divide(gpm.make_element(gp, _w(c.w + [p])), gpm.make_element(gp, q))
                if rdn is not None:
                    yield f"{g.name}: right_divide(w*{p}, {q}) = {rdn}, expected None"

    @staticmethod
    def _check_hclf(gpm, g, gp, c, e, h):
        letters = verify.letters_of
        q = gpm.left_divide(h, e.hx)
        if q is None or not verify.equivalent(g, letters(str(e.hx)) + letters(str(q)), letters(str(h))):
            yield f"{g.name}: x = {e.hx} is not a left factor of hclf = {h}"
            return
        cofactors = []
        for word in (c.hx + c.ha, c.hx + c.hb):
            r = gpm.left_divide(gpm.make_element(gp, _w(word)), h)
            if r is None or not verify.equivalent(g, letters(str(h)) + letters(str(r)), word):
                yield f"{g.name}: hclf = {h} does not left-divide {_w(word)}"
                return
            cofactors.append(str(r))
        yield verify.check_coprime(g, *cofactors)


# ---------------------------------------------------------------------------
# hull-eval: the inverse hull on polygraph monoids


class HullEval:
    """Per graph of a round, from ``gen.hull_graphs``: evaluate four signed
    words with exponent runs of about 150 and two short ones, multiply the
    first two results, take the maximal element above the first, test the
    order, and map it to the graph group.

    Long evaluations are 40%, short ones 20% and the single calls 40% of the
    operations.  So the median is the middle of the short evaluations and
    the 90th percentile lies three quarters into the long ones, away from
    the boundaries between kinds."""

    name = "hull-eval"
    imports = ("polygraph",)
    n_rounds = 12
    n_graphs = 24  # many graphs, so that no one graph's shape sets the cost
    per_round = 6  # graphs in a round: 4, 5, 6, 4, 5 and 6 vertices
    part = 5  # letters in each negative and positive part of a long word
    short = 8  # letters in each part of a short word
    run = (145, 155)  # exponent k of a burst x^k x^-(k-d)

    def _nonzero_word(self, rng, g, n, bursts):
        """Negative letters, then positive ones, optionally each part ending
        in a burst.  ``x^k x^-k`` is the identity and ``[a | b] x^k x^-(k-d)``
        is ``[a | b x^d]``, so the word never evaluates to zero."""
        neg = gen.signed(gen.random_word(rng, g, n), -1)
        pos = gen.signed(gen.random_word(rng, g, n), 1)
        if bursts:  # at the end of each part, so that every word costs alike
            neg += gen.burst(rng, rng.choice(g.vertices), *self.run, 0)
            pos += gen.burst(rng, rng.choice(g.vertices), *self.run, rng.randint(0, 2))
        return neg + pos

    def generate(self, seed: int):
        rng = random.Random(seed)
        graphs = gen.hull_graphs(rng, self.n_graphs)
        cases = []
        for r in range(self.n_rounds):
            for gi in range(self.per_round * r, self.per_round * (r + 1)):
                gi %= len(graphs)
                g = graphs[gi]
                words = [self._nonzero_word(rng, g, self.part, True) for _ in range(4)]
                words += [self._nonzero_word(rng, g, self.short, False) for _ in range(2)]
                zero = (r + gi) % 3 == 0
                if zero:  # ... x y^-1 with x, y non-adjacent: zero
                    x, y = gen.blocking_letters(rng, g)
                    words[1] += [x, f"{y}^-1"]
                cases.append(SimpleNamespace(r=r, gi=gi, words=[_w(w) for w in words], zero=zero))
        return SimpleNamespace(graphs=graphs, cases=cases)

    def prepare(self, pg, inputs) -> State:
        gps = [pg.graph.parse_graph(g.text) for g in inputs.graphs]
        rounds: list[list[Op]] = [[] for _ in range(self.n_rounds)]
        for c in inputs.cases:
            gp = gps[c.gi]
            b = len(rounds[c.r])
            rounds[c.r] += [Op("eval_word", "ihull", "eval_word", (gp, w)) for w in c.words]
            rounds[c.r] += [
                Op("ih_multiply", "ihull", "ih_multiply", (Ref(b), Ref(b + 1))),
                Op("max_above", "ihull", "max_above", (Ref(b),)),
                Op("natural_le", "ihull", "natural_le", (Ref(b), Ref(b + 7))),
                Op("eta", "ragroup", "eta", (Ref(b),)),
            ]
        return State(pg, inputs, rounds, {"gps": gps})

    def check(self, state: State, r: int, results: list):
        ih, rg = state.pg.ihull, state.pg.ragroup
        cases = [c for c in state.inputs.cases if c.r == r]
        for k, c in enumerate(cases):
            g, gp = state.inputs.graphs[c.gi], state.extra["gps"][c.gi]
            evals, (prod, m, le, e) = results[10 * k:10 * k + 6], results[10 * k + 6:10 * k + 10]
            for i, (w, s) in enumerate(zip(c.words, evals)):
                if c.zero and i == 1:
                    if s is not ih.ZERO:
                        yield f"{g.name}: a word ending in x y^-1, x and y non-adjacent, gave {s}"
                elif s is ih.ZERO:
                    yield f"{g.name}: {w} evaluated to 0"
                elif (e if i == 0 else rg.eta(s)) != rg.group_reduce(gp, verify.free_reduce(w)):
                    yield f"{g.name}: eta(eval_word(w)) != group_reduce(w) for w = {w}"
            s1, s2 = evals[:2]
            if s1 is ih.ZERO:
                continue
            if s2 is ih.ZERO:
                if prod is not ih.ZERO:
                    yield f"{g.name}: ih_multiply({s1}, 0) = {prod}"
            else:  # eval is a homomorphism and eval(a^-1 b) = [a | b]
                both = verify.pair_word(str(s1.a), str(s1.b)) + " " + verify.pair_word(str(s2.a), str(s2.b))
                if prod != ih.eval_word(gp, both):
                    yield f"{g.name}: ih_multiply({s1}, {s2}) = {prod}, but eval({both}) differs"
            if le is not True:
                yield f"{g.name}: s <= max_above(s) is {le}"
            if rg.eta(m) != e:
                yield f"{g.name}: eta(max_above(s)) != eta(s)"
            yield verify.check_coprime(g, str(m.a), str(m.b))
            if ih.ih_multiply(ih.ih_multiply(s1, ih.ih_inverse(s1)), s1) != s1:
                yield f"{g.name}: s s^-1 s != s"


# ---------------------------------------------------------------------------
# cli-oneshot: one fresh process per operation


class CliOneshot:
    """One ``python -m polygraph -g <file>`` process per operation, over the
    graphs in ``graphs/``: ``nf``, ``divide``, ``lclm``, ``ih max``,
    ``eval`` and ``group nf`` on small words."""

    name = "cli-oneshot"
    n_rounds = 16
    imports = ("polygraph", "polygraph.cli")
    trace = False  # run the CLI under -X importtime

    def __init__(self, root: Path) -> None:
        self.root = root

    def generate(self, seed: int):
        rng = random.Random(seed)
        graphs = [
            (str(p.relative_to(self.root)), BenchGraph(p.stem, p.read_text()))
            for p in sorted((self.root / "graphs").glob("*.graph"))
        ]
        mono = [gg for gg in graphs if all(gg[1].is_mono(v) for v in gg[1].vertices)]
        cases = []
        for r in range(self.n_rounds):
            pick = lambda pool, k: pool[(r + k) % len(pool)]  # noqa: E731
            path, g = pick(graphs, 0)
            nf = (path, g, gen.random_word(rng, g, 6))
            path, g = pick(graphs, 1)
            div = (path, g, gen.random_word(rng, g, 3), gen.random_word(rng, g, 3))
            path, g = pick(graphs, 2)
            pair = gen.adjacent_pair(rng, g)
            if pair:
                x = gen.random_word(rng, g, 2, g.letters(pair[0]))
                y = gen.random_word(rng, g, 2, g.letters(pair[1]))
            else:
                x, y = [], gen.random_word(rng, g, 2)
            lc = (path, g, x, y, gen.random_word(rng, g, 3))
            path, g = pick(graphs, 3)
            mx = (path, g, gen.random_word(rng, g, 3), gen.random_word(rng, g, 3))
            path, g = pick(graphs, 4)
            ev = (path, g, gen.signed(gen.random_word(rng, g, 3), -1) + gen.signed(gen.random_word(rng, g, 3), 1))
            path, g = pick(mono, 5)
            gr = (path, g, [rng.choice(g.vertices) + rng.choice(("", "^-1")) for _ in range(6)])
            cases.append(SimpleNamespace(nf=nf, div=div, lclm=lc, max=mx, eval=ev, group=gr))
        return SimpleNamespace(cases=cases)

    def prepare(self, pg, inputs) -> State:
        make = pg.gproduct.make_element
        gps: dict[str, object] = {}

        def gp_of(path):
            if path not in gps:
                gps[path] = pg.graph.parse_graph((self.root / path).read_text())
            return gps[path]

        rounds, expected = [], []
        for c in inputs.cases:
            path, g, word = c.nf
            exp = [make(gp_of(path), _w(word))]
            ops = [Op("nf", "cli", "run", (path, "nf", _w(word)))]
            path, g, a, d = c.div
            exp.append(make(gp_of(path), _w(a)))
            ops.append(Op("divide", "cli", "run", (path, "divide", _w(a + d), _w(d))))
            path, g, x, y, w = c.lclm
            exp.append(make(gp_of(path), _w(x + y + w)))
            ops.append(Op("lclm", "cli", "run", (path, "lclm", _w(x + w), _w(y + w))))
            path, g, a, b = c.max
            s = pg.ihull.IHPair(make(gp_of(path), _w(a)), make(gp_of(path), _w(b)))
            exp.append(pg.ihull.max_above(s))
            ops.append(Op("ih max", "cli", "run", (path, "ih", "max", str(s))))
            path, g, word = c.eval
            exp.append(pg.ihull.eval_word(gp_of(path), _w(word)))
            ops.append(Op("eval", "cli", "run", (path, "eval", _w(word))))
            path, g, word = c.group
            exp.append(pg.ragroup.group_reduce(gp_of(path), _w(word)))
            ops.append(Op("group nf", "cli", "run", (path, "group", "nf", _w(word))))
            rounds.append(ops)
            expected.append(exp)
        return State(pg, inputs, rounds, {"gp_of": gp_of, "expected": expected})

    def check(self, state: State, r: int, results: list):
        pg, gp_of = state.pg, state.extra["gp_of"]
        make = pg.gproduct.make_element
        c, exp = state.inputs.cases[r], state.extra["expected"][r]
        for op, res, want in zip(state.rounds[r], results, exp):
            code, out = res
            path, g = op.args[0], getattr(c, _CASE_FIELD[op.kind])[1]
            if code != 0:
                yield f"{op.kind} on {path} exited {code}"
                continue
            gp = gp_of(path)
            if op.kind == "nf":
                yield verify.check_normal_form(g, out, c.nf[2])
                got = make(gp, out)
            elif op.kind == "divide":
                yield verify.check_same(g, out, c.div[2])
                got = make(gp, out)
            elif op.kind == "lclm":
                m = out.split("|")[2].strip()
                yield verify.check_same(g, m, c.lclm[2] + c.lclm[3] + c.lclm[4])
                got = make(gp, m)
            elif op.kind in ("ih max", "eval"):
                got = pg.ihull.parse_ihelement(gp, out)
            else:
                got = pg.ragroup.group_reduce(gp, out)
            if got != want:
                yield f"{op.kind} on {path} printed {out!r}, expected {want}"

    # -- the operation ------------------------------------------------------

    def env(self) -> dict:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        if sys.pycache_prefix:
            env["PYTHONPYCACHEPREFIX"] = sys.pycache_prefix
        return env

    def command(self, args) -> list[str]:
        flags = ["-X", "importtime"] if self.trace else []
        return [sys.executable, *flags, "-m", "polygraph", "-g", *args]

    def _process(self, cmd) -> tuple[int, str, str]:
        """Run ``cmd`` to its end.  A timer kills it after a minute: a
        ``timeout`` argument would make ``subprocess`` poll for the exit
        with sleeps of up to 50 ms, which shows in every latency."""
        proc = subprocess.Popen(
            cmd, cwd=self.root, env=self._env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        timer = threading.Timer(60, proc.kill)
        timer.start()
        try:
            out, err = proc.communicate()
        finally:
            timer.cancel()
        return proc.returncode, out, err

    def run(self, *args):
        """Runs one CLI process; returns (exit status, stripped stdout)."""
        code, out, err = self._process(self.command(args))
        if self.trace:
            self.import_us.append(_polygraph_import_us(err))
        return code, out.strip()

    def interpreter_s(self) -> float:
        """Wall time of a bare ``python -c pass`` in the same environment."""
        t0 = time.perf_counter()
        code, _, err = self._process([sys.executable, "-c", "pass"])
        if code:
            raise RuntimeError(f"bare interpreter exited {code}: {err}")
        return time.perf_counter() - t0

    def start(self, state: State) -> None:
        """Environment of the CLI processes, and one untimed process so
        that the first timed one finds the interpreter and its bytecode
        cached, as a user's later calls do."""
        self._env = self.env()
        self.import_us: list[int] = []
        self.run(*state.rounds[0][0].args)


_CASE_FIELD = {"nf": "nf", "divide": "div", "lclm": "lclm", "ih max": "max", "eval": "eval", "group nf": "group"}


def _polygraph_import_us(stderr: str) -> int:
    """Sum of the cumulative import times of top-level ``polygraph``
    imports in ``python -X importtime`` output."""
    total = 0
    for line in stderr.splitlines():
        parts = line.split("|")  # "import time: self | cumulative | <indent>name"
        if line.startswith("import time:") and len(parts) == 3 and parts[2].startswith(" polygraph"):
            total += int(parts[1])
    return total

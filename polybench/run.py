#!/usr/bin/env python3
"""Benchmark of the polygraph package in this tree (imported from ``src/``).

    python3 polybench/run.py --workload nf-long --seed 1 --seconds 28 --trace 0

Runs one workload as a closed loop (one client, one operation in flight) for
``--seconds``, checks every output, and prints one JSON object as the last
line of standard output: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the same rounds run once more with every layer wrapped (see
``tracer.py``) and the metrics are the per-layer ones.  Details of each run
go to standard error; ``--trace 1`` also writes the call graph to
``polybench/results/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up repeats: at least SETUP_MIN, and more while their total is under
# SETUP_BUDGET_S, so that a set-up of a few milliseconds still gets a steady
# median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 5, 41, 1.0

import tracer as tracing  # noqa: E402
from workloads import CliOneshot, DivideLclm, HullEval, NfLong, Ref  # noqa: E402

END_TO_END = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {"graph.adjacent.calls": "count", "graph.parse_graph.self_ms": "ms"}
for _layer, _mod, _fn in tracing.SPANS[1:]:
    PER_LAYER[f"{_layer}.{_fn}.calls"] = "count"
    PER_LAYER[f"{_layer}.{_fn}.self_ms"] = "ms"
PER_LAYER.update({
    "gproduct.normal_form.calls_per_op": "count",
    "gproduct.normal_form.syllables_in": "count",
    "gproduct.normal_form.syllables_out": "count",
    "gproduct.lclm.none": "count",
    "ihull.eval_word.letters": "count",
    "ihull.ih_multiply.zero": "count",
    "ragroup.group_reduce.tokens_in": "count",
    "cli.import_ms": "ms",
    "cli.process_ms": "ms",
    "cli.interpreter_ms": "ms",
    "trace.overhead_s": "s",
})


def make_workload(name: str):
    if name == "cli-oneshot":
        return CliOneshot(ROOT)
    return {"nf-long": NfLong, "divide-lclm": DivideLclm, "hull-eval": HullEval}[name]()


@dataclass(frozen=True)
class Failed:
    """Result of an operation that raised, or whose input op failed."""

    why: str


def import_polygraph(modules) -> SimpleNamespace:
    """A fresh import of the package's modules; the standard library modules
    they use stay imported, so this is the package's own import cost."""
    for key in [k for k in sys.modules if k == "polygraph" or k.startswith("polygraph.")]:
        del sys.modules[key]
    for name in modules:
        importlib.import_module(name)
    return SimpleNamespace(**{m: sys.modules[f"polygraph.{m}"] for m in ("graph", "gproduct", "ihull", "ragroup")})


def setup(wl, inputs):
    """Import, parse the graphs and build the inputs several times (see
    ``SETUP_MIN``); the first repeat may also compile the package to
    bytecode, which the median leaves out."""
    totals, imports = [], []
    while len(totals) < SETUP_MIN or (sum(totals) < SETUP_BUDGET_S and len(totals) < SETUP_MAX):
        t0 = time.perf_counter()
        pg = import_polygraph(wl.imports)
        t1 = time.perf_counter()
        state = wl.prepare(pg, inputs)
        totals.append(time.perf_counter() - t0)
        imports.append(t1 - t0)
    return state, statistics.median(totals), statistics.median(imports)


def run_loop(wl, state, *, deadline=None, n_rounds=None):
    """Whole rounds until ``deadline`` (perf_counter) or ``n_rounds``.

    Keeps the results of the first pass over the distinct rounds and only
    compares later repeats with them, so memory does not grow with speed."""
    targets = {"cli": wl, **vars(state.pg)}
    m = len(state.rounds)
    latencies: list[float] = []
    kinds: dict[str, list[float]] = defaultdict(list)
    first: list[list] = []
    mismatched: list[int] = []
    failed = attempted = 0
    perf = time.perf_counter
    t_start = perf()
    r = 0
    while True:
        results: list = []
        for op in state.rounds[r % m]:
            args = [results[a.i] if isinstance(a, Ref) else a for a in op.args]
            if any(isinstance(a, Failed) for a in args):
                results.append(Failed("an input operation failed"))
                failed += 1
                continue
            fn = getattr(targets[op.module], op.fn)
            t0 = perf()
            try:
                res = fn(*args)
            except Exception as exc:  # a failed operation is counted, not fatal
                res = Failed(f"{op.kind}: {type(exc).__name__}: {exc}")
                failed += 1
            dt = perf() - t0
            latencies.append(dt)
            kinds[op.kind].append(dt)
            results.append(res)
        attempted += len(results)
        if r < m:
            first.append(results)
        elif results != first[r % m]:
            mismatched.append(r)
        r += 1
        if (r >= n_rounds) if n_rounds is not None else perf() >= deadline:
            break
    wall = perf() - t_start
    return SimpleNamespace(
        latencies=latencies, kinds=kinds, results=first, mismatched=mismatched,
        failed=failed, attempted=attempted, wall=wall, rounds=r,
    )


def check_outputs(wl, state, loop) -> list[str]:
    """Each distinct round is checked once; repeats must equal it."""
    m = len(state.rounds)
    problems = [f"round {r} differs from round {r % m} on the same inputs" for r in loop.mismatched]
    for r, results in enumerate(loop.results):
        if any(isinstance(x, Failed) for x in results):
            continue  # counted in "failed"; its other outputs are not judged
        try:
            problems += [p for p in wl.check(state, r, results) if p]
        except Exception as exc:  # a checker that cannot read an output rejects it
            problems.append(f"round {r}: checker raised {type(exc).__name__}: {exc}")
    return problems


def quantile_ms(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def end_to_end(wl, loop, setup_s: float) -> dict[str, float]:
    who = resource.RUSAGE_CHILDREN if isinstance(wl, CliOneshot) else resource.RUSAGE_SELF
    return {
        "throughput_ops_s": (loop.attempted - loop.failed) / loop.wall,
        "latency_p50_ms": quantile_ms(loop.latencies, 50),
        "latency_p90_ms": quantile_ms(loop.latencies, 90),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def per_layer(wl, inputs, state, plain, import_s: float, args) -> tuple[dict[str, float], object]:
    """Run the rounds of ``plain`` again with every layer wrapped."""
    tr = tracing.Tracer()
    tr.install()
    try:
        traced_state = wl.prepare(state.pg, inputs)
        parse_ms = tr.self_time["graph.parse_graph"] * 1e3
        tr.reset()
        wl.trace = True
        traced = run_loop(wl, traced_state, n_rounds=plain.rounds)
    finally:
        tr.uninstall()
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(tr.layer_metrics())
    metrics["graph.parse_graph.self_ms"] = parse_ms
    metrics["gproduct.normal_form.calls_per_op"] = (
        tr.calls["gproduct.normal_form"] / traced.attempted
    )
    metrics["trace.overhead_s"] = traced.wall - plain.wall
    if isinstance(wl, CliOneshot):
        metrics["cli.import_ms"] = statistics.median(wl.import_us) / 1e3
        metrics["cli.process_ms"] = statistics.median(traced.latencies) * 1e3
        metrics["cli.interpreter_ms"] = statistics.median(
            wl.interpreter_s() for _ in range(min(plain.rounds, 20))
        ) * 1e3
    else:
        metrics["cli.import_ms"] = import_s * 1e3
    out = HERE / "results" / f"trace-{args.workload}-{args.seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"metrics": metrics, "call_graph": tr.call_graph()}, indent=1))
    return {k: metrics[k] for k in PER_LAYER}, traced


def report_kinds(loop, label: str) -> None:
    for kind, lat in sorted(loop.kinds.items()):
        lat = sorted(lat)
        print(
            f"{label} {kind:18} n={len(lat):4} p50={lat[len(lat) // 2] * 1e3:9.2f} ms"
            f" max={lat[-1] * 1e3:9.2f} ms",
            file=sys.stderr,
        )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("nf-long", "divide-lclm", "hull-eval", "cli-oneshot"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "polygraph" / "__init__.py").is_file():
        print(f"polybench: no polygraph package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # Bytecode as an installed package has it, kept inside the benchmark's
    # directory whatever PYTHONDONTWRITEBYTECODE says.
    sys.dont_write_bytecode = False
    sys.pycache_prefix = str(HERE / ".pycache")

    wl = make_workload(args.workload)
    inputs = wl.generate(args.seed)
    state, setup_s, import_s = setup(wl, inputs)
    if isinstance(wl, CliOneshot):
        wl.start(state)

    plain = run_loop(wl, state, deadline=time.perf_counter() + args.seconds)
    metrics = end_to_end(wl, plain, setup_s)
    units = END_TO_END
    attempted, failed = plain.attempted, plain.failed
    problems = check_outputs(wl, state, plain)
    report_kinds(plain, "plain")
    if args.trace:
        metrics, traced = per_layer(wl, inputs, state, plain, import_s, args)
        units = PER_LAYER
        attempted += traced.attempted
        failed += traced.failed
        if traced.results != plain.results or traced.mismatched:
            problems.append("the traced rounds gave other results than the plain ones")

    failures = [x.why for rr in plain.results for x in rr if isinstance(x, Failed)]
    for why in failures[:5]:
        print(f"FAILED: {why}", file=sys.stderr)
    for problem in problems[:20]:
        print(f"WRONG: {problem}", file=sys.stderr)
    print(f"rounds={plain.rounds} wall={plain.wall:.3f}s problems={len(problems)}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

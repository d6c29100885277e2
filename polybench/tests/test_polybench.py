"""Tests of the benchmark itself: seeded inputs, checkers, miniature runs.

    python3 -m pytest polybench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402
from workloads import CliOneshot, DivideLclm, HullEval, NfLong  # noqa: E402

WORKLOADS = ("nf-long", "divide-lclm", "hull-eval", "cli-oneshot")

# Small sizes so that a whole workload runs in about a second.
MINIATURE = {
    NfLong: {"n_rounds": 1, "word_len": 40, "factor_len": 20},
    DivideLclm: {"n_rounds": 1, "half": 6, "hclf_part": 6},
    HullEval: {"n_rounds": 1, "run": (5, 10)},
    CliOneshot: {"n_rounds": 1},
}


@pytest.fixture
def miniature(monkeypatch):
    for cls, attrs in MINIATURE.items():
        for k, v in attrs.items():
            monkeypatch.setattr(cls, k, v)
    monkeypatch.setattr(run, "SETUP_MIN", 1)
    monkeypatch.setattr(run, "SETUP_MAX", 1)


def one_round(name: str, seed: int = 7):
    wl = run.make_workload(name)
    state = wl.prepare(run.import_polygraph(wl.imports), wl.generate(seed))
    if isinstance(wl, CliOneshot):
        wl._env = wl.env()
    results = run.run_loop(wl, state, n_rounds=1).results[0]
    return wl, state, results


def reasons(wl, state, results) -> list[str]:
    return [p for p in wl.check(state, 0, results) if p]


# -- inputs ------------------------------------------------------------------


@pytest.mark.parametrize("name", WORKLOADS)
def test_inputs_repeat_for_a_seed(name):
    wl = run.make_workload(name)
    assert wl.generate(11) == wl.generate(11)
    assert wl.generate(11) != wl.generate(12)


def test_graph_families():
    graphs = gen.product_graphs(gen.random.Random(3))
    edges = {g.name: sum(g.adjacent(u, v) for u in g.vertices for v in g.vertices) // 2 for g in graphs}
    assert edges == {
        "edgeless-mono": 0, "edgeless-mixed": 0, "path-mono": 7, "path-mixed": 7,
        "complete-mono": 28, "complete-mixed": 28, "random-mono": 14, "random-mixed": 14,
    }
    mixed = graphs[1]
    assert sum(not mixed.is_mono(v) for v in mixed.vertices) == gen.N_FREE


def test_commuting_shuffle_is_equivalent():
    rng = gen.random.Random(5)
    for g in gen.product_graphs(rng):
        word = gen.random_word(rng, g, 50)
        assert verify.equivalent(g, word, gen.commuting_shuffle(rng, g, word))


# -- independent checks ------------------------------------------------------

P3 = gen.BenchGraph("p3", "vertex x1 mono\nvertex x2 mono\nvertex x3 mono\nedge x1 x2\nedge x2 x3\n")
MIXED = gen.BenchGraph("mixed", "vertex u free p q\nvertex w mono\nedge u w\n")


def test_normal_form_checker():
    assert verify.check_normal_form(P3, "x1 x2", ["x2", "x1"]) is None
    assert verify.check_normal_form(P3, "x3 x1", ["x3", "x1"]) is None  # x1, x3 do not commute
    assert "belongs before" in verify.check_normal_form(P3, "x2 x1", ["x2", "x1"])
    assert "belongs before" in verify.check_normal_form(P3, "x2 x1 x2", ["x2", "x1", "x2"])  # not reduced
    assert "split" in verify.check_normal_form(P3, "x1 x1", ["x1", "x1"])
    assert "not the element" in verify.check_normal_form(P3, "x1 x3", ["x3", "x1"])
    assert "not the element" in verify.check_normal_form(MIXED, "q p", ["p", "q"])
    assert verify.check_normal_form(MIXED, "p q w", ["p", "w", "q"]) is None


def test_coprime_checker():
    assert verify.check_coprime(MIXED, "p w", "q") is None
    assert verify.check_coprime(MIXED, "w p", "p") is not None  # p is initial in both
    assert verify.check_coprime(P3, "x3 x1", "x1") is None  # x1 is not initial in x3 x1


# -- planted wrong answers ---------------------------------------------------


def test_nf_long_rejects_wrong_product(miniature):
    wl, state, results = one_round("nf-long")
    assert reasons(wl, state, results) == []
    results[1] = results[0]
    assert reasons(wl, state, results)


def test_divide_lclm_rejects_wrong_answers(miniature):
    wl, state, results = one_round("divide-lclm")
    assert reasons(wl, state, results) == []
    e = state.extra["built"][0]
    for i, wrong in ((0, e.c), (3, state.pg.gproduct.identity(e.c.gp)), (4, e.c)):  # 4: lclm_none
        planted = list(results)
        planted[i] = wrong
        assert reasons(wl, state, planted), state.rounds[0][i].kind


def test_hull_eval_rejects_wrong_eta(miniature):
    wl, state, results = one_round("hull-eval")
    assert reasons(wl, state, results) == []
    gp = state.extra["gps"][0]
    results[9] = state.pg.ragroup.group_reduce(gp, gp.vertices[0])
    assert any("eta" in r for r in reasons(wl, state, results))


def test_cli_rejects_wrong_output(miniature):
    wl, state, results = one_round("cli-oneshot")
    assert reasons(wl, state, results) == []
    planted = list(results)
    planted[0] = (0, "1")
    planted[1] = (2, "")
    found = reasons(wl, state, planted)
    assert any("'1'" in r for r in found) and any("exited 2" in r for r in found)


# -- miniature runs ----------------------------------------------------------


def bench(capsys, *args) -> dict:
    assert run.main(list(args)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", WORKLOADS)
def test_miniature_run(name, miniature, capsys):
    out = bench(capsys, "--workload", name, "--seed", "3", "--seconds", "0.1")
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_run_reports_every_layer(miniature, capsys):
    out = bench(capsys, "--workload", "divide-lclm", "--seed", "3", "--seconds", "0.1", "--trace", "1")
    assert out["correct"]
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["gproduct.right_divide.calls"] > 0 and metrics["graph.adjacent.calls"] > 0
    assert metrics["gproduct.normal_form.calls_per_op"] > 1
    assert metrics["gproduct.lclm.none"] > 0
    # the wrappers are gone afterwards
    gproduct = sys.modules["polygraph.gproduct"]
    assert not hasattr(gproduct.normal_form, "__wrapped__")


def test_benchmark_json_matches():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER

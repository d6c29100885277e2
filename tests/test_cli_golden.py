"""Golden CLI table: exit code, standard output and standard error of
``polygraph.cli.main`` for every command, JSON mode, the error exits and
``check``, on the graph files in ``graphs/``.

The table was taken from the tree before the O(n·|V|) normal-form kernel
and pins the CLI's output byte for byte.  An expected standard error of
``None`` is an argparse usage error, whose text belongs to argparse.
"""

from pathlib import Path

import pytest

from polygraph.cli import main

ROOT = Path(__file__).resolve().parents[1]

CASES = [
    (['-g', 'graphs/p3.graph', 'nf', 'x2 x1'], 0, 'x1 x2\n', ''),
    (['-g', 'graphs/p3.graph', 'nf', 'x3 x2 x1 x2 x1^3'], 0, 'x2^2 x3 x1^4\n', ''),
    (['-g', 'graphs/p3.graph', 'nf', '1'], 0, '1\n', ''),
    (['-g', 'graphs/p3.graph', 'eq', 'x2 x1', 'x1 x2'], 0, 'true\n', ''),
    (['-g', 'graphs/p3.graph', 'eq', 'x3 x1', 'x1 x3'], 0, 'false\n', ''),
    (['-g', 'graphs/p3.graph', 'mul', 'x1', 'x1'], 0, 'x1^2\n', ''),
    (['-g', 'graphs/p3.graph', 'mul', 'x3 x2', 'x1 x3'], 0, 'x2 x3 x1 x3\n', ''),
    (['-g', 'graphs/p3.graph', 'divide', 'x1 x2', 'x2'], 0, 'x1\n', ''),
    (['-g', 'graphs/p3.graph', 'divide', 'x1 x3', 'x1'], 1, 'none\n', ''),
    (['-g', 'graphs/p3.graph', 'final', 'x1', 'x3 x1'], 0, 'x1 | x3\n', ''),
    (['-g', 'graphs/p3.graph', 'final', 'x1', 'x1 x3'], 0, '1 | x1 x3\n', ''),
    (['-g', 'graphs/p3.graph', 'lclm', 'x1', 'x2'], 0, 'x2 | x1 | x1 x2\n', ''),
    (['-g', 'graphs/p3.graph', 'lclm', 'x1', 'x3'], 1, 'none\n', ''),
    (['-g', 'graphs/p3.graph', 'lclm', 'x2 x1^2', 'x3 x1'], 1, 'none\n', ''),
    (['-g', 'graphs/p3.graph', 'hclf', 'x2 x1', 'x2 x3'], 0, 'x2\n', ''),
    (['-g', 'graphs/p3.graph', 'ih', 'mul', '[1|x1]', '[x3|1]'], 0, '0\n', ''),
    (['-g', 'graphs/p3.graph', 'ih', 'mul', '[x1|x2]', '[x2|x3]'], 0, '[x1 | x3]\n', ''),
    (['-g', 'graphs/p3.graph', 'ih', 'inv', '[x1|x2 x3]'], 0, '[x2 x3 | x1]\n', ''),
    (['-g', 'graphs/p3.graph', 'ih', 'inv', '[x1|x2]'], 0, '[x2 | x1]\n', ''),
    (['-g', 'graphs/p3.graph', 'ih', 'le', '[x1 x2|x2 x3]', '[x1|x3]'], 0, 'true\n', ''),
    (['-g', 'graphs/p3.graph', 'ih', 'max', '[x1 x2|x2 x3]'], 0, '[x1 | x3]\n', ''),
    (['-g', 'graphs/p3.graph', 'ih', 'max', '0'], 1, '0\n', ''),
    (['-g', 'graphs/p3.graph', 'ih', 'idem', '[x1 x3|x1 x3]'], 0, 'true\n', ''),
    (['-g', 'graphs/p3.graph', 'ih', 'idem', '[x1|x1]'], 0, 'true\n', ''),
    (['-g', 'graphs/p3.graph', 'eval', 'x1 x2^-1'], 0, '[x2 | x1]\n', ''),
    (['-g', 'graphs/p3.graph', 'eval', 'x1^5 x1^-3 x3^-1 x2'], 0, '0\n', ''),
    (['-g', 'graphs/p3.graph', 'group', 'nf', 'x1 x2 x1^-1'], 0, 'x2\n', ''),
    (['-g', 'graphs/p3.graph', 'group', 'nf', 'x1^1000000000'], 0, 'x1^1000000000\n', ''),
    (['-g', 'graphs/p3.graph', 'present'], 0, (
        'x1 x1^-1 = 1\n'
        'x2 x2^-1 = 1\n'
        'x3 x3^-1 = 1\n'
        'x1 x3^-1 = 0\n'
        'x3 x1^-1 = 0\n'
        'x1 x2 = x2 x1\n'
        'x1 x2^-1 = x2^-1 x1\n'
        'x2 x1^-1 = x1^-1 x2\n'
        'x1^-1 x2^-1 = x2^-1 x1^-1\n'
        'x2 x3 = x3 x2\n'
        'x2 x3^-1 = x3^-1 x2\n'
        'x3 x2^-1 = x2^-1 x3\n'
        'x2^-1 x3^-1 = x3^-1 x2^-1\n'
    ), ''),
    (['-g', 'graphs/mixed.graph', 'nf', 'w p q w'], 0, 'p q w^2\n', ''),
    (['-g', 'graphs/mixed.graph', 'nf', 'p q p^3 w q q'], 0, 'p q p^3 q^2 w\n', ''),
    (['-g', 'graphs/mixed.graph', 'mul', 'p q', 'w p'], 0, 'p q p w\n', ''),
    (['-g', 'graphs/mixed.graph', 'divide', 'p q w', 'q w'], 0, 'p\n', ''),
    (['-g', 'graphs/mixed.graph', 'lclm', 'p q', 'q'], 0, '1 | p | p q\n', ''),
    (['-g', 'graphs/mixed.graph', 'lclm', 'p', 'q'], 1, 'none\n', ''),
    (['-g', 'graphs/mixed.graph', 'hclf', 'p q w', 'p w'], 0, 'p w\n', ''),
    (['-g', 'graphs/mixed.graph', 'eval', 'p q^2 w p^-1'], 0, '0\n', ''),
    (['-g', 'graphs/mixed.graph', 'eval', 'p q w^-1 q^-1'], 0, '[w | p]\n', ''),
    (['-g', 'graphs/mixed.graph', 'ih', 'max', '[p q w|w q]'], 0, '[p q | q]\n', ''),
    (['-g', 'graphs/mixed.graph', 'group', 'nf', 'w p'], 2, '', 'error: graph group arithmetic needs all-monogenic components\n'),
    (['-g', 'graphs/mixed.graph', 'present'], 0, (
        'p p^-1 = 1\n'
        'q q^-1 = 1\n'
        'p q^-1 = 0\n'
        'q p^-1 = 0\n'
        'w w^-1 = 1\n'
        'p w = w p\n'
        'p w^-1 = w^-1 p\n'
        'w p^-1 = p^-1 w\n'
        'p^-1 w^-1 = w^-1 p^-1\n'
        'q w = w q\n'
        'q w^-1 = w^-1 q\n'
        'w q^-1 = q^-1 w\n'
        'q^-1 w^-1 = w^-1 q^-1\n'
    ), ''),
    (['-g', 'graphs/k3.graph', 'nf', 'x3 x2 x1 x3'], 0, 'x1 x2 x3^2\n', ''),
    (['-g', 'graphs/k2_edgeless.graph', 'nf', 'x2 x1 x2 x1 x1'], 0, 'x2 x1 x2 x1^2\n', ''),
    (['-g', 'graphs/k2_edgeless.graph', 'group', 'nf', 'x1 x2 x2^-1 x1^-1 x2'], 0, 'x2\n', ''),
    (['-g', 'graphs/single.graph', 'nf', 'x^3 x^2'], 0, 'x^5\n', ''),
    (['-g', 'graphs/single.graph', 'present'], 0, 'x x^-1 = 1\n', ''),
    (['--format', 'json', '-g', 'graphs/p3.graph', 'nf', 'x2 x1'], 0, '{"result": "x1 x2", "status": "ok", "detail": null}\n', ''),
    (['--format', 'json', '-g', 'graphs/p3.graph', 'divide', 'x1 x3', 'x1'], 1, '{"result": "none", "status": "none", "detail": null}\n', ''),
    (['--format', 'json', '-g', 'graphs/p3.graph', 'ih', 'max', '0'], 1, '{"result": "0", "status": "error", "detail": "zero has no maximal element"}\n', ''),
    (['--format', 'json', '-g', 'graphs/p3.graph', 'nf', 'bogus'], 2, '{"result": null, "status": "error", "detail": "unknown letter \'bogus\'"}\n', ''),
    (['--format', 'json', '-g', 'graphs/mixed.graph', 'lclm', 'p', 'q'], 1, '{"result": "none", "status": "none", "detail": null}\n', ''),
    (['--format', 'json', 'check', '--seed', '3', '--max-len', '2', '--max-vertices', '2'], 0, '{"result": [{"name": "normal-form", "passed": true, "detail": "63 closure comparisons"}, {"name": "right-cancellation", "passed": true, "detail": "400 random pairs"}, {"name": "lclm", "passed": true, "detail": "94 oracle comparisons"}, {"name": "hclf", "passed": true, "detail": "150 oracle comparisons"}, {"name": "presentation", "passed": true, "detail": "57 relations hold"}, {"name": "inverse-axioms", "passed": true, "detail": "121 elements"}, {"name": "eta", "passed": true, "detail": "121 elements, 400 products"}], "status": "ok", "detail": null}\n', ''),
    (['-g', 'graphs/p3.graph', 'nf', 'x9'], 2, '', "error: unknown letter 'x9'\n"),
    (['-g', 'graphs/p3.graph', 'nf', 'bogus_letter'], 2, '', "error: unknown letter 'bogus_letter'\n"),
    (['-g', 'graphs/p3.graph', 'nf', 'x1^^2'], 2, '', "error: bad token 'x1^^2'\n"),
    (['-g', 'graphs/p3.graph', 'nf', 'x1^0'], 2, '', "error: exponent on 'x1' must be >= 1\n"),
    (['-g', 'graphs/p3.graph', 'nf', 'x1^-2'], 2, '', "error: exponent on 'x1' must be >= 1\n"),
    (['-g', 'graphs/p3.graph', 'eval', 'x1^2^3'], 2, '', "error: bad signed token 'x1^2^3'\n"),
    (['-g', 'graphs/p3.graph', 'eval', 'x1^0'], 2, '', "error: zero exponent on 'x1'\n"),
    (['-g', 'graphs/missing.graph', 'nf', 'x1'], 2, '', "error: [Errno 2] No such file or directory: 'graphs/missing.graph'\n"),
    (['nf', 'x1'], 2, '', 'error: this command needs a graph file (-g FILE)\n'),
    (['-g', 'graphs/p3.graph', 'nf'], 2, '', None),
    (['check', '--seed', '3', '--max-len', '2', '--max-vertices', '2'], 0, (
        'PASS normal-form: 63 closure comparisons\n'
        'PASS right-cancellation: 400 random pairs\n'
        'PASS lclm: 94 oracle comparisons\n'
        'PASS hclf: 150 oracle comparisons\n'
        'PASS presentation: 57 relations hold\n'
        'PASS inverse-axioms: 121 elements\n'
        'PASS eta: 121 elements, 400 products\n'
    ), ''),
]


@pytest.mark.parametrize("argv, code, out, err", CASES, ids=[" ".join(c[0]) for c in CASES])
def test_cli_golden(argv, code, out, err, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    try:
        got = main(list(argv))
    except SystemExit as exc:
        got = exc.code
    captured = capsys.readouterr()
    assert (got, captured.out) == (code, out)
    if err is not None:
        assert captured.err == err

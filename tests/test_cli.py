import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from polygraph import checks, cli, gproduct, ihull, ragroup
from polygraph.builtin import BUILTIN_GRAPH_TEXTS, builtin
from polygraph.cli import main
from polygraph.gproduct import identity, make_element, multiply


@pytest.fixture
def p3_file(tmp_path):
    f = tmp_path / "p3.graph"
    f.write_text(BUILTIN_GRAPH_TEXTS["p3"])
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_nf(capsys, p3_file):
    code, out, _ = run(capsys, "-g", p3_file, "nf", "x2 x1")
    assert (code, out) == (0, "x1 x2\n")


def test_eq(capsys, p3_file):
    code, out, _ = run(capsys, "-g", p3_file, "eq", "x2 x1", "x1 x2")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "-g", p3_file, "eq", "x3 x1", "x1 x3")
    assert (code, out) == (0, "false\n")


def test_mul(capsys, p3_file):
    code, out, _ = run(capsys, "-g", p3_file, "mul", "x1", "x1")
    assert (code, out) == (0, "x1^2\n")


def test_divide(capsys, p3_file):
    code, out, _ = run(capsys, "-g", p3_file, "divide", "x1 x2", "x2")
    assert (code, out) == (0, "x1\n")
    code, out, _ = run(capsys, "-g", p3_file, "divide", "x1 x3", "x1")
    assert (code, out) == (1, "none\n")


def test_final(capsys, p3_file):
    code, out, _ = run(capsys, "-g", p3_file, "final", "x1", "x3 x1")
    assert (code, out) == (0, "x1 | x3\n")
    code, out, _ = run(capsys, "-g", p3_file, "final", "x1", "x1 x3")
    assert (code, out) == (0, "1 | x1 x3\n")


def test_lclm(capsys, p3_file):
    code, out, _ = run(capsys, "-g", p3_file, "lclm", "x1", "x2")
    assert (code, out) == (0, "x2 | x1 | x1 x2\n")
    code, out, _ = run(capsys, "-g", p3_file, "lclm", "x1", "x3")
    assert (code, out) == (1, "none\n")


def test_hclf(capsys, p3_file):
    code, out, _ = run(capsys, "-g", p3_file, "hclf", "x2 x1", "x2 x3")
    assert (code, out) == (0, "x2\n")


def test_ih_commands(capsys, p3_file):
    code, out, _ = run(capsys, "-g", p3_file, "ih", "mul", "[1|x1]", "[x3|1]")
    assert (code, out) == (0, "0\n")
    code, out, _ = run(capsys, "-g", p3_file, "ih", "inv", "[x1|x2]")
    assert (code, out) == (0, "[x2 | x1]\n")
    code, out, _ = run(capsys, "-g", p3_file, "ih", "le", "[x1 x2|x2 x3]", "[x1|x3]")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "-g", p3_file, "ih", "max", "[x1 x2|x2 x3]")
    assert (code, out) == (0, "[x1 | x3]\n")
    code, out, _ = run(capsys, "-g", p3_file, "ih", "idem", "[x1|x1]")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "-g", p3_file, "ih", "max", "0")
    assert code == 1


def test_eval(capsys, p3_file):
    code, out, _ = run(capsys, "-g", p3_file, "eval", "x1 x2^-1")
    assert (code, out) == (0, "[x2 | x1]\n")


def test_group_nf(capsys, p3_file):
    code, out, _ = run(capsys, "-g", p3_file, "group", "nf", "x1 x2 x1^-1")
    assert (code, out) == (0, "x2\n")


def test_group_nf_huge_exponent(capsys, p3_file):
    code, out, _ = run(capsys, "-g", p3_file, "group", "nf", "x1^1000000000")
    assert (code, out) == (0, "x1^1000000000\n")


def test_present(capsys, tmp_path):
    f = tmp_path / "single.graph"
    f.write_text(BUILTIN_GRAPH_TEXTS["single"])
    code, out, _ = run(capsys, "-g", str(f), "present")
    assert (code, out) == (0, "x x^-1 = 1\n")


def test_json_format(capsys, p3_file):
    code, out, _ = run(capsys, "--format", "json", "-g", p3_file, "nf", "x2 x1")
    assert code == 0
    assert json.loads(out) == {"result": "x1 x2", "status": "ok", "detail": None}


def test_json_none(capsys, p3_file):
    code, out, _ = run(capsys, "--format", "json", "-g", p3_file, "divide", "x1 x3", "x1")
    assert code == 1
    assert json.loads(out)["status"] == "none"


def test_missing_graph_exit_2(capsys):
    code, _, err = run(capsys, "nf", "x1")
    assert code == 2


def test_recursion_error_exit_2(capsys, monkeypatch, p3_file):
    def too_deep(b, c):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(gproduct, "lclm", too_deep)
    code, out, err = run(capsys, "-g", p3_file, "lclm", "x1", "x2")
    assert (code, out) == (2, "")
    assert err == "error: maximum recursion depth exceeded\n"
    code, out, _ = run(capsys, "--format", "json", "-g", p3_file, "lclm", "x1", "x2")
    assert code == 2
    assert json.loads(out)["status"] == "error"


def test_broken_invariant_exit_2(capsys, monkeypatch, p3_file):
    # a wrong pair from the reduction trips lclm's invariant check
    monkeypatch.setattr(gproduct, "_posneg", lambda c, d: (gproduct.identity(c.gp), c))
    code, out, err = run(capsys, "-g", p3_file, "lclm", "x1", "x2")
    assert (code, out) == (2, "")
    assert err == "error: lclm invariant broken: 1 * x1 != x1 * x2\n"
    code, out, _ = run(capsys, "--format", "json", "-g", p3_file, "lclm", "x1", "x2")
    assert code == 2
    assert json.loads(out)["status"] == "error"


def test_memory_error_exit_2(capsys, monkeypatch, p3_file):
    # raised by a stand-in: a real out-of-memory state would starve other processes
    def out_of_memory(gp, word):
        raise MemoryError

    monkeypatch.setattr(cli, "make_element", out_of_memory)
    code, out, err = run(capsys, "-g", p3_file, "nf", "x1")
    assert (code, out, err) == (2, "", "error: MemoryError\n")
    code, out, _ = run(capsys, "--format", "json", "-g", p3_file, "nf", "x1")
    assert code == 2
    assert json.loads(out) == {"result": None, "status": "error", "detail": "MemoryError"}


class ClosedPipe:
    """A standard output whose reader has quit, as ``| head`` does."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_closed_stdout_exit_2(capsys, monkeypatch, p3_file, fmt):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["--format", fmt, "-g", p3_file, "nf", "x1"])
    assert (code, capsys.readouterr().err) == (2, "error: [Errno 32] Broken pipe\n")


def test_deterministic_output(capsys, p3_file):
    runs = [run(capsys, "-g", p3_file, "present") for _ in range(2)]
    assert runs[0] == runs[1]


def test_check_passes(capsys):
    code, out, _ = run(capsys, "check", "--max-len", "3", "--max-vertices", "2")
    assert code == 0
    assert "FAIL" not in out


@pytest.mark.parametrize("option, value", [("--max-len", "-1"), ("--max-vertices", "0")])
def test_check_bounds_below_range_exit_2(capsys, option, value):
    # unchecked, --max-len -1 fails inside random.randrange, and
    # --max-vertices 0 passes after zero lclm comparisons
    with pytest.raises(SystemExit) as exc:
        main(["check", option, value])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.splitlines()[-1].endswith(f"error: argument {option}: must be at least {int(value) + 1}")


def test_check_least_bounds_pass(capsys):
    code, out, _ = run(capsys, "check", "--max-len", "0", "--max-vertices", "1")
    assert code == 0
    assert "FAIL" not in out


def non_least_lclm(b, c, lclm=gproduct.lclm):
    """A common left multiple one generator above the least one."""
    res = lclm(b, c)
    x = make_element(b.gp, [(b.gp.all_letters()[0], 1)])
    return None if res is None else tuple(multiply(x, e) for e in res)


def with_false_relation(gp, present=ihull.generate_presentation):
    """The presentation plus x x^-1 = 0, which no inverse hull satisfies."""
    x = gp.all_letters()[0]
    return present(gp) + (ihull.Relation(((x, 1), (x, -1)), ihull.ZERO),)


# each suite, with the operation it judges (the name checks calls) made wrong
PLANTED = {
    "right-cancellation": (checks, "right_divide", lambda a, c: a),
    "lclm": (gproduct, "lclm", non_least_lclm),
    "hclf": (gproduct, "hclf", lambda a, b: identity(a.gp)),
    "presentation": (ihull, "generate_presentation", with_false_relation),
    "inverse-axioms": (ihull, "ih_inverse", lambda s: s),
    "eta": (ragroup, "eta", lambda s, gp=None: (  # everything nonzero to the identity
        s if s is ihull.ZERO else ragroup.group_identity(s.a.gp)
    )),
}


@pytest.mark.parametrize("suite", PLANTED)
def test_planted_fault_fails_its_suite(monkeypatch, suite):
    monkeypatch.setattr(*PLANTED[suite])
    passed = {r.name: r.passed for r in checks.run_all(1, 2, 2)}
    assert passed[suite] is False
    assert [name for name, ok in passed.items() if not ok] == [suite]


@pytest.mark.parametrize("wrong, detail", [
    # a form that depends on more than the shuffle class
    (lambda word: word[:1], "('x1', 'x2') vs ('x2', 'x1') disagree"),
    # one form for the two classes of x1 x3 and x3 x1
    (sorted, "('x3', 'x1') and ('x1', 'x3') share a form"),
])
def test_planted_normal_form_fault(monkeypatch, wrong, detail):
    monkeypatch.setattr(checks, "make_element", lambda gp, word: make_element(gp, wrong(word)))
    result = checks.check_normal_form([builtin("p3")], 2)
    assert (result.passed, result.detail) == (False, detail)


def test_eta_to_zero_fails(monkeypatch):
    # the union with criterion 9: no nonzero pair may map to zero
    monkeypatch.setattr(ragroup, "eta", lambda s, gp=None: ihull.ZERO)
    pairs = [ihull.IHPair(identity(builtin("p3")), identity(builtin("p3")))]
    result = checks.check_eta(random.Random(1), pairs, 1)
    assert (result.passed, result.detail) == (False, "purity fails at [1 | 1]")


def test_eta_without_nonzero_products_fails():
    # [x1 | x3]^2 = 0 on p3, so no draw finds a product to judge
    p3 = builtin("p3")
    pairs = [ihull.IHPair(make_element(p3, "x1"), make_element(p3, "x3"))]
    result = checks.check_eta(random.Random(1), pairs, 1)
    assert (result.passed, result.detail) == (False, "0 nonzero products in 100 draws")


def test_check_planted_fault_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(gproduct, "lclm", non_least_lclm)
    code, out, _ = run(capsys, "check", "--max-len", "2", "--max-vertices", "2")
    assert code == 1
    assert [line for line in out.splitlines() if "FAIL" in line] == [
        "FAIL lclm: minimum differs for 1, 1"
    ]
    code, out, _ = run(capsys, "--format", "json", "check", "--max-len", "2", "--max-vertices", "2")
    assert code == 1
    assert json.loads(out)["status"] == "fail"


def test_argument_from_file(capsys, p3_file, tmp_path):
    # one argv string is capped at 128 KiB on Linux; a file has no such cap
    word = " ".join(["x1", "x3"] * 50_000)
    (tmp_path / "word.txt").write_text(word + "\n")
    code, out, _ = run(capsys, "-g", p3_file, "nf", f"@{tmp_path / 'word.txt'}")
    assert (code, out) == (0, word + "\n")


def test_missing_argument_file_exit_2(capsys, p3_file, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["-g", p3_file, "nf", f"@{tmp_path / 'missing'}"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert "No such file" in err.splitlines()[-1]


def test_import_is_lean():
    # building the parser and running an algebra command needs neither the
    # property suites and their oracles nor json nor dataclasses
    code = (
        "import sys, polygraph.cli\n"
        "print([m for m in ('dataclasses', 'json', 'polygraph.checks', 'polygraph.oracle')"
        " if m in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"

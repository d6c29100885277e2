import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from polygraph import cli, gproduct
from polygraph.builtin import BUILTIN_GRAPH_TEXTS
from polygraph.cli import main


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


def test_parse_error_exit_2(capsys, p3_file):
    code, _, err = run(capsys, "-g", p3_file, "nf", "bogus_letter")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("nf", "x1^^2"), "bad token 'x1^^2'"),
        (("eval", "x1^0"), "zero exponent on 'x1'"),
        (("nf", "x1^-2"), "exponent on 'x1' must be >= 1"),
    ],
)
def test_token_errors_exit_2(capsys, p3_file, argv, message):
    code, out, err = run(capsys, "-g", p3_file, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


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

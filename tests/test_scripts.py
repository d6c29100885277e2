import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "args",
    [
        ["scripts/demo_tour.py"],
        ["scripts/growth_table.py", "--vertices", "2", "--max-letters", "3"],
    ],
)
def test_script_runs(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_digest_is_deterministic():
    """A small digest run prints one line, the same under two hash seeds."""
    lines = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "scripts/digest.py", "--seed", "3", "--graphs", "2"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines.append(proc.stdout)
    assert re.fullmatch(r"cases [1-9]\d* sha256 [0-9a-f]{64}\n", lines[0])
    assert lines[0] == lines[1]

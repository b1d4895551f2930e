"""The benchmark's self-check passes: a tampered corpus record and a tower
item with a wrong expected h-vector each count as failed items.

The script runs as its docstring says, from the root of the checkout, in a
fresh interpreter; nothing under ``perfbench/`` is imported here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_self_check_passes():
    run = subprocess.run([sys.executable, "perfbench/run.py", "--self-check"], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "self-check: PASS" in run.stdout.splitlines()

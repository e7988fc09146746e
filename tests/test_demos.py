"""Smoke test: the quick demos run to completion from the repository root.

Demos 04 and 05 train for tens of seconds each and are left out; demo 07 is
the shell pipeline through the CLI.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", [
    "01_load_prune_measure.py",
    "02_baseline_showdown.py",
    "03_bridge_lesson.py",
    "06_subgraph_length_tradeoff.py",
])
def test_demo_exits_0(demo):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]

"""Smoke test: the Python demos run to completion from the repository root.

The ones that train for several seconds (03 and 04) are marked slow. Demo
04 is the one end-to-end run of `load_communities` into `CommunityReward`,
and 05 of the spanner protocol's `PathQuerySet` and `spsp_penalty`. Demo 07
is the shell pipeline through the CLI.
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
    pytest.param("03_bridge_lesson.py", marks=pytest.mark.slow),
    pytest.param("04_community_aware_pruning.py", marks=pytest.mark.slow),
    "05_spanner_vs_learned.py",
    "06_subgraph_length_tradeoff.py",
])
def test_demo_exits_0(demo):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]

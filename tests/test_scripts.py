"""Smoke test of the experiment script in ``scripts/``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_semistable_census_small():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "semistable_census.py"),
         "--max-vertices", "2", "--max-edges", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert sum(line.startswith("graph ") for line in lines) == 3
    # the banana curve: two spanning trees, two semistable multidegrees per
    # general orbit
    assert (
        "graph edges=[(0, 1), (0, 1)] spanning_trees=2 orbits=2 "
        "general_semistable_counts=[2]"
    ) in lines

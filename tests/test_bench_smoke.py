"""Each benchmark workload runs on the small ladder and passes its answer
gate, with every function the benchmark wraps still present.

A refactor that renames or drops a wrapped function, or changes a count
the answer gate checks, fails here rather than only when the benchmark
is run.  Results go to the git-ignored ``bench/results/``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["orbits", "sheaves", "limits", "scan"])
def test_small_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--size", "small"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    *_, detail, result = proc.stdout.splitlines()
    detail, result = json.loads(detail), json.loads(result)
    assert result["correct"] is True, detail["failures"]
    assert detail["missing_wrap_targets"] == []

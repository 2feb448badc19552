"""Reduced-size smoke test of the benchmark itself.

    python3 bench/smoke_test.py

Runs every workload on the small ladder, untraced and traced, and checks
that the result line has exactly its four keys, that every metric
named in BENCHMARK.json is emitted with its unit as a finite number, and
that the answer gate passes.  It also checks that the benchmark, copied
without the program under test, fails without printing a result.
"""

from __future__ import annotations

import math
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import suite  # noqa: E402


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = suite.spec()

    def check_metrics(self, result, wanted):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        got = result["metrics"]
        self.assertEqual(set(got), {m["name"] for m in wanted})
        for m in wanted:
            self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
            value = got[m["name"]]["value"]
            self.assertIsInstance(value, (int, float), m["name"])
            self.assertTrue(math.isfinite(value), m["name"])

    def test_every_workload_emits_every_metric(self):
        for w in self.spec["workloads"]:
            for trace, wanted in ((0, self.spec["end_to_end"]), (1, self.spec["per_layer"])):
                with self.subTest(workload=w["name"], trace=trace):
                    rc, detail, result = suite.run_one(w["name"], 1, 1, trace, size="small")
                    self.assertEqual(rc, 0, detail)
                    self.check_metrics(result, wanted)
                    self.assertEqual(detail["failures"], [])

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory(prefix=".work-smoke-", dir=suite.BENCH) as tmp:
            shutil.copy(suite.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(suite.BENCH, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns(".work-*", "results", "__pycache__"))
            rc, detail, result = suite.run_one("limits", 1, 1, 0, size="small", cwd=tmp,
                                               timeout=180)
        self.assertNotEqual(rc, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()

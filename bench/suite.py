"""Run every workload once and print each metric with its unit.

    python3 bench/suite.py [--trace]

Each workload runs once with seed 1 for ``run_seconds`` from
BENCHMARK.json, untraced (end-to-end metrics); with ``--trace`` it also
runs traced (per-layer metrics), and the tracing overhead is the traced
pass time over the untraced one.  Exits 1 if any run is not correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(workload, seed, seconds, trace, size="full", cwd=ROOT, timeout=600):
    """Run bench/run.py in a child process; returns (exit code, detail,
    result), the last two parsed from the last two stdout lines."""
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
           "--size", size]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return proc.returncode, proc.stderr, None
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    bench = spec()
    ok = True
    for w in bench["workloads"]:
        name = w["name"]
        for trace in ((0, 1) if args.trace else (0,)):
            rc, detail, result = run_one(name, 1, bench["run_seconds"], trace)
            if result is None:
                print(f"{name}: exit {rc}\n{detail}")
                ok = False
                continue
            ok = ok and result["correct"]
            kind = "per-layer (traced)" if trace else "end-to-end"
            print(f"== {name} {kind}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"   {metric:36s} {m['value']:>16.6g} {m['unit']}")
            if trace:
                t = detail["trace"]
                print(f"   tracing overhead: {t['overhead_s']:+.3f} s ({t['overhead_frac']:+.1%})")
            else:
                print(f"   tail = p{detail['tail_percentile']:.2f} of {detail['tasks']} tasks"
                      f" ({detail['tail_task']})")
                for f in detail["failures"]:
                    print(f"   failed: {f['task']} ({f['reason']}"
                          f"{', known' if f['known'] else ''})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

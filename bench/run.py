"""Benchmark of the vstab engine on the fixed graph ladder.

Run from the root of a checkout:

    python3 bench/run.py --workload orbits --seed 1 --seconds 20 --trace 0

One run is one single-threaded, closed-loop process.  Set-up (importing
``vstab`` from ``src/`` and generating the seeded inputs) is repeated
``SETUP_REPS`` times and its median reported.  The timed phase then runs
passes over the workload's tasks back to back for ``--seconds``: the
first pass always runs to its end, and the pass running when the time is
up is cut at its next task boundary.  Times are CPU times in reference
seconds (see ``reference.py``): each is scaled by the speed of a fixed
kernel sampled within two seconds of it, because the box's own speed
swings by up to twice within minutes.  Each task's latency is the median
of its untraced repeats, and ``pass_s`` the sum of those medians: one
pass, drawn from the whole run.  A traced run makes one untraced pass and
then whole traced passes, as many as come nearest to ``--seconds``; its
spans are in wall-clock time.  Outputs of the first pass are checked
outside the timed region; later passes must reproduce them exactly.
Every whole pass counts the calls into each layer and their results.

The last line of stdout is the result: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics untraced, per-layer metrics
traced).  The line before it, also written to ``bench/results/``, holds
the environment, the failures by task, the exact counts and the trace
summary.  Exit code 2 means the program under test could not be loaded.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import expected  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 5
MODULES = ("errors", "graphs", "stability", "polarization", "posets", "sheaves",
           "limits", "graphenum", "serialize", "cli")

# span name -> per-layer metric "<name>_s"; bench.* spans are the harness
LAYER_SPANS = (
    "graphs.tables", "stability.validate", "stability.validate_via_union",
    "stability.degeneracy_set", "stability.extended_table", "polarization.ceiling",
    "polarization.is_classical", "posets.window_enum", "posets.orbit_enum",
    "posets.normal_form", "posets.deg_subsets", "posets.dominance",
    "posets.symmetry_classes", "posets.minimal_elements", "posets.hasse",
    "posets.qdeg_scan", "sheaves.enumerate_semistable", "sheaves.predicates",
    "sheaves.polystable_limit", "limits.esteves_limit", "limits.same_orbit",
    "graphenum.catalogue", "cli.main",
)
LAYER_COUNTS = (
    "graphs.graphs_built", "stability.validate_calls", "stability.invalid_found",
    "stability.extended_tables", "polarization.is_classical_calls",
    "polarization.classical_found", "posets.window_stabilities", "posets.orbits",
    "posets.normal_form_calls", "posets.deg_subsets", "posets.dominance_pairs",
    "posets.dominance_true", "posets.scanned_graphs", "posets.ranked", "posets.surjective",
    "sheaves.semistable_classes", "sheaves.polystable", "sheaves.stable",
    "sheaves.limits_changed", "limits.runs", "limits.twist_steps", "limits.fallback_runs",
    "limits.nontermination", "graphenum.graphs", "cli.calls", "cli.stdout_bytes",
)
# every count a pass records, untraced or traced
COUNT_NAMES = (*LAYER_COUNTS, "limits.lemma_steps")


class LoadError(Exception):
    pass


def load_vstab() -> SimpleNamespace:
    """Import ``vstab`` afresh from this checkout's ``src/``."""
    if not (SRC / "vstab" / "__init__.py").is_file():
        raise LoadError(f"no vstab package under {SRC}")
    for name in [m for m in sys.modules if m == "vstab" or m.startswith("vstab.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        pkg = importlib.import_module("vstab")
        mods = {name: importlib.import_module(f"vstab.{name}") for name in MODULES}
    except Exception as exc:
        raise LoadError(f"cannot import vstab: {exc!r}") from exc
    if Path(pkg.__file__).resolve().parent != (SRC / "vstab").resolve():
        raise LoadError(f"imported vstab from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(modules=[pkg, *mods.values()], **mods)


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "traced": bool(args.trace),
    }


def git_commit():
    """HEAD of the checkout if it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "vstab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def tail_stat(latency: dict[str, float]) -> tuple[float, float, str]:
    """(percentile, value, task): the highest nearest-rank percentile with
    at least ten tasks beyond it; the maximum when there are fewer tasks."""
    xs = sorted((v, k) for k, v in latency.items())
    n = len(xs)
    value, task = xs[-1] if n <= 10 else xs[n - 11]
    return (100.0 if n <= 10 else 100.0 * (n - 10) / n), value, task


class Outcome:
    """Per-task results across passes."""

    def __init__(self, workload, inputs, vs):
        self.workload, self.inputs, self.vs = workload, inputs, vs
        self.first: dict[str, object] = {}
        # per task, each untraced repeat as (CPU seconds, wall start, wall end)
        self.latency: dict[str, list[tuple[float, float, float]]] = {}
        self.failures: dict[str, dict] = {}
        self.check_s = 0.0

    def fail(self, key, reason, error=None):
        if key in self.failures:
            return
        entry = {"task": key, "reason": reason}
        if error is not None:
            entry["error"] = error
            known = expected.KNOWN_FAILURES.get(key)
            entry["known"] = known is not None and (error["type"], error["raised_in"]) == known
        else:
            entry["known"] = False
        self.failures[key] = entry

    def add_pass(self, tasks, untraced: bool, whole: bool):
        t0 = perf_counter()
        self._add_pass(tasks, untraced, whole)
        self.check_s += perf_counter() - t0

    def _add_pass(self, tasks, untraced: bool, whole: bool):
        first = not self.first
        summaries = {}
        for t in tasks:
            if untraced:
                self.latency.setdefault(t.key, []).append((t.seconds, t.start, t.end))
            if t.error is not None:
                self.fail(t.key, "raised", t.error)
                summaries[t.key] = None
                continue
            try:
                summary = self._summarize(t)
                if first:
                    reason = self._check(t)
                elif t.key not in self.first:
                    reason = "task missing from the first pass"
                else:
                    reason = None if summary == self.first[t.key] else "output differs from the first pass"
            except Exception as exc:  # a check that cannot run counts against the task
                summary, reason = None, f"check raised {exc!r}"
            summaries[t.key] = summary
            if reason is not None:
                self.fail(t.key, reason)
        if not whole:  # a cut pass has no whole-pass gate and lacks its last tasks
            return
        check_pass = getattr(self.workload, "check_pass", None)
        if check_pass is not None:
            reason = check_pass(self.inputs, tasks)
            if reason is not None:
                self.fail("gate", reason)
        if first:
            self.first = summaries
        else:
            for key in self.first.keys() - summaries.keys():
                self.fail(key, "task missing from a later pass")

    def _summarize(self, t):
        if t.key.startswith("probe/"):
            return t.out
        return self.workload.summarize(t.key, t.out)

    def _check(self, t):
        if t.key.startswith("probe/"):
            return workloads.check_probe(t)
        return self.workload.check(self.vs, self.inputs, t.key, t.out)


def per_layer(tr: tracing.Tracer, traced_walls: list[float], traced_counts: list[dict],
              untraced: float) -> dict:
    """Per traced pass: layer self times, counts, the share of the traced
    pass time that the layers account for, and the overhead of tracing
    against the mean untraced pass time ``untraced``."""
    self_times = tr.self_times()
    n_traced = len(traced_walls)
    trace_wall = sum(traced_walls) / n_traced
    out = {}
    for name in LAYER_SPANS:
        out[f"{name}_s"] = (self_times.get(name, 0.0) / n_traced, "s")
    harness = self_times.get("bench.pass", 0.0) + self_times.get("bench.task", 0.0)
    out["bench.harness_s"] = (harness / n_traced, "s")
    c = {name: sum(pc.get(name, 0) for pc in traced_counts) / n_traced for name in COUNT_NAMES}
    for name in LAYER_COUNTS:
        out[name] = (c[name], "count")
    runs, steps = c["limits.runs"], c["limits.twist_steps"]
    out["limits.fallback_frac"] = (c["limits.fallback_runs"] / runs if runs else 0.0, "fraction")
    out["limits.lemma_step_frac"] = (c["limits.lemma_steps"] / steps if steps else 1.0,
                                     "fraction")
    layer_total = sum(self_times.get(name, 0.0) for name in LAYER_SPANS) / n_traced
    out["trace.wall_s"] = (trace_wall, "s")
    out["trace.attributed_frac"] = (layer_total / trace_wall, "fraction")
    out["trace.overhead_frac"] = (trace_wall / untraced - 1.0, "fraction")
    return out


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="'small' is the reduced ladder used by the smoke test")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_before = os.getloadavg()
    workload = workloads.WORKLOADS[args.workload]()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as tmp:
        ref = reference.Reference()
        setup_reps = []  # (CPU seconds, wall start, wall end)
        try:
            for _ in range(SETUP_REPS):
                gc.collect()  # drop the previous repetition's modules and inputs
                ref.sample()
                start, c0 = perf_counter(), process_time()
                vs = load_vstab()
                rng = random.Random(f"{args.workload}:{args.seed}")
                inputs = workload.setup(vs, rng, args.size, Path(tmp))
                setup_reps.append((process_time() - c0, start, perf_counter()))
        except LoadError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        ref.sample()
        report = run_passes(args, workload, vs, inputs, ref)
    load_after = os.getloadavg()

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome, walls, cut_wall, traced_walls, pass_counts, tr, missing = report
    attempted = len(outcome.first)
    failed = len(outcome.failures)
    correct = all(f["known"] for f in outcome.failures.values())

    def scaled(reps):
        return statistics.median(cpu * ref.scale(start, end) for cpu, start, end in reps)

    median_latency = {k: scaled(v) for k, v in outcome.latency.items()}
    latency = {k: v for k, v in median_latency.items() if not k.startswith("probe/")}
    tail_pct, tail, tail_task = tail_stat(latency)

    end_to_end = {
        "setup_s": (scaled(setup_reps), "s"),
        "pass_s": (sum(median_latency.values()), "s"),
        "task_ms_p50": (statistics.median(latency.values()) * 1e3, "ms"),
        "task_ms_tail": (tail * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_frac": (1.0 - failed / attempted, "fraction"),
    }
    detail = {
        "env": {**environment(args), "loadavg_before": load_before, "loadavg_after": load_after},
        "reference": {"nominal_s": reference.NOMINAL_S, "samples": len(ref.samples),
                      "median_s": ref.median_s()},
        "setup_reps_cpu_s": [cpu for cpu, _, _ in setup_reps],
        "pass_cpu_s": sum(statistics.median(cpu for cpu, _, _ in v)
                          for v in outcome.latency.values()),
        "pass_walls_s": walls,
        "cut_pass_s": cut_wall,
        "repeats_per_task": [min(map(len, outcome.latency.values())),
                             max(map(len, outcome.latency.values()))],
        "check_s": outcome.check_s,
        "tasks": len(latency),
        "tail_percentile": tail_pct,
        "tail_task": tail_task,
        "failed_frac": failed / attempted,
        "failures": sorted(outcome.failures.values(), key=lambda f: f["task"]),
        "counts_per_pass": {name: pass_counts[0].get(name, 0) for name in COUNT_NAMES},
        "counts_repeat": all(pc == pass_counts[0] for pc in pass_counts),
        "missing_wrap_targets": missing,
        "end_to_end": {k: v[0] for k, v in end_to_end.items()},
    }
    if args.trace:
        untraced = statistics.mean(walls)
        metrics = per_layer(tr, traced_walls, pass_counts[len(walls):], untraced)
        traced_wall = metrics["trace.wall_s"][0]
        detail["trace"] = {
            "traced_pass_walls_s": traced_walls,
            "overhead_s": traced_wall - untraced,
            "overhead_frac": traced_wall / untraced - 1.0,
            "spans": len(tr.spans),
        }
    else:
        metrics = end_to_end
        detail["trace"] = {"overhead_s": None,
                           "note": "tracing overhead is measured by --trace 1 runs"}

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if args.trace:
        tr.write(results / f"{stem}-spans.jsonl")
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_passes(args, workload, vs, inputs, ref):
    """Untraced passes first, then (with --trace 1) traced ones; returns the
    outcome, the whole untraced pass times, the time of the cut pass (or
    None), the traced pass times, each whole pass's counts (in that
    order), the tracer and the wrap targets missing from ``vs``."""
    tr = tracing.Tracer()
    missing = tracing.instrument(tr, vs)
    outcome = Outcome(workload, inputs, vs)
    walls, traced_walls, pass_counts = [], [], []
    cut_wall = None
    measured = 0.0
    while True:
        traced = bool(args.trace) and bool(walls)
        # untraced passes after the first are cut when --seconds are measured
        cut_at = not args.trace and bool(walls)
        t0 = perf_counter()
        p = workloads.Pass(tr, deadline=t0 + args.seconds - measured if cut_at else None,
                           ref=None if args.trace else ref)
        tr.begin_pass(traced)
        whole = True
        with tr.span("bench.pass"):
            try:
                workload.run_pass(vs, inputs, p)
                workloads.probe(vs, p)
            except workloads.PassCut:
                whole = False
            wall = perf_counter() - t0
        counts = tr.end_pass()
        measured += wall
        outcome.add_pass(p.tasks, untraced=not traced, whole=whole)
        del p  # free this pass's outputs before the next pass allocates its own
        if not whole:
            cut_wall = wall
            break
        pass_counts.append(counts)
        (traced_walls if traced else walls).append(wall)
        if not args.trace:
            if measured >= args.seconds:
                break
            continue
        if not traced_walls:
            continue
        # a traced run stops at the whole number of passes nearest to --seconds
        if measured + statistics.median(walls + traced_walls) / 2 > args.seconds:
            break
    ref.sample()  # the last tasks' scale needs a sample after them
    return outcome, walls, cut_wall, traced_walls, pass_counts, tr, missing


if __name__ == "__main__":
    sys.exit(main())

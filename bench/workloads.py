"""The four benchmark workloads on the fixed graph ladder.

Each workload has these parts:

* ``setup`` generates the seeded inputs as plain data (edge lists, value
  tuples, rationals, multidegrees, fixture JSON files);
* ``run_pass`` is the timed phase: it rebuilds every ``DualGraph`` and
  ``VStability`` from that data, so per-graph tables start cold, and runs
  the tasks one after another through :meth:`Pass.run`;
* ``check`` verifies one task's output after the pass, outside the timed
  region, and ``summarize`` reduces it to a value that later passes must
  reproduce exactly.

A pass ends with :func:`probe`, one banana-sized call into every layer,
so that each layer has a measured time on every workload.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import traceback
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter, process_time

import expected


def _complete(n):
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def _cycle(n):
    return tuple(sorted((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)))


# all genera 0; "K4p2" is K4 on {0,1,2,3} plus the path 3-4-5
LADDER = {
    "banana": (2, ((0, 1), (0, 1))),
    "K4": (4, _complete(4)),
    "C5": (5, _cycle(5)),
    "K5": (5, _complete(5)),
    "C6": (6, _cycle(6)),
    "K4p2": (6, _complete(4) + ((3, 4), (4, 5))),
}


# -- timed-phase harness ------------------------------------------------------------


@dataclass
class Task:
    key: str
    seconds: float  # CPU time
    out: object
    error: dict | None
    start: float  # wall times, for the reference scale
    end: float


def _describe(exc: BaseException) -> dict:
    frames = traceback.extract_tb(exc.__traceback__)
    where = frames[-1] if frames else None
    return {
        "type": type(exc).__name__,
        "message": str(exc)[:200],
        "raised_in": where.name if where else None,
    }


class PassCut(Exception):
    """Raised by :meth:`Pass.run` when the pass's deadline has passed."""


class Pass:
    """One pass over a workload's tasks, run one after another.  With a
    ``deadline`` (a ``perf_counter`` time) the pass is cut at the first
    task boundary after it; with a ``ref`` (:class:`reference.Reference`)
    the reference kernel is sampled at task boundaries."""

    def __init__(self, tracer, deadline: float | None = None, ref=None):
        self.tr = tracer
        self.deadline = deadline
        self.ref = ref
        self.tasks: list[Task] = []

    def run(self, key: str, fn, *args):
        if self.deadline is not None and perf_counter() >= self.deadline:
            raise PassCut
        if self.ref is not None:
            self.ref.maybe_sample()
        self.tr.task = key
        error = out = None
        with self.tr.span("bench.task"):
            start, c0 = perf_counter(), process_time()
            try:
                out = fn(*args)
            except Exception as exc:  # every failure is recorded against the task
                error = _describe(exc)
            seconds = process_time() - c0
            end = perf_counter()
        self.tasks.append(Task(key, seconds, out, error, start, end))
        return out


def build_graph(vs, name):
    n, edges = LADDER[name]
    g = vs.graphs.DualGraph((0,) * n, edges)
    g.biconnected_subcurves  # every later call reads this table
    return g


def run_cli(vs, tr, argv, stdout=None):
    buf = stdout if stdout is not None else io.StringIO()
    if tr.counting:
        tr.counts["cli.calls"] += 1
    try:
        with tr.span("cli.main"), contextlib.redirect_stdout(buf):
            rc = vs.cli.main(argv)
    finally:
        if tr.counting:
            tr.counts["cli.stdout_bytes"] += buf.tell()
    return rc, (buf.getvalue() if stdout is None else None)


def spread(groups: dict) -> list:
    """All items of all groups, each group spread evenly over the list.

    The box's speed drifts over seconds, so a group run as one block would
    measure the box during that block only."""
    keyed = [((i + 0.5) / len(items), g, i, item)
             for g, items in enumerate(groups.values()) for i, item in enumerate(items)]
    return [item for *_, item in sorted(keyed, key=lambda k: k[:3])]


def interleave(main: list, extra: list) -> list:
    """``main`` in order, with ``extra`` (in order) spread evenly between its items."""
    out = []
    for i, item in enumerate(main):
        out.append(item)
        out += extra[i * len(extra) // len(main):(i + 1) * len(extra) // len(main)]
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _plain_sheaf(I):
    return (I.support, I.multidegree, tuple(sorted(I.nonfree)))


# -- probe: one small call into every layer -------------------------------------------


def probe(vs, p: Pass):
    g = build_graph(vs, "banana")
    s = vs.stability.VStability(g, 0, (0, 0))

    def stability():
        return (s.validate().ok, s.validate_via_union().ok,
                len(s.degeneracy_set()), len(s.extended_degeneracy))

    def polarization():
        w = vs.polarization.is_classical(s)
        return w is not None and w.induced_vstability() == s

    def posets():
        po = vs.posets
        degs = po.enumerate_degeneracy_subsets(g)
        diagram = po.hasse(degs, lambda a, b: a.members == b.members or po.deg_leq(b, a))
        return (len(po.enumerate_window_stabilities(g)), len(po.enumerate_orbits(g)),
                po.normal_form(s)[0].values, len(degs),
                len(po.deg_symmetry_classes(g, degs)[0]),
                len(po.minimal_elements(degs[-1])), len(diagram.covers),
                po.qdeg_scan(g)["n_orbits"])

    def sheaves():
        sh = vs.sheaves
        classes = sh.enumerate_semistable(g, s)
        return (len(classes), sum(sh.is_polystable(I, s) for I in classes),
                sum(sh.is_stable(I, s) for I in classes),
                sum(sh.polystable_limit(I, s) != I for I in classes))

    def limits():
        result, trace = vs.limits.esteves_limit((5, -5), s)
        return result, len(trace.steps), vs.limits.same_orbit(g, result, (5, -5))[0]

    def graphenum():
        return len(vs.graphenum.connected_multigraphs(2, 2))

    def cli():
        rc, out = run_cli(vs, p.tr, ["qdeg-scan", "--max-vertices", "2", "--max-edges", "2"])
        return rc, _sha(out)

    for name, fn in (("stability", stability), ("polarization", polarization),
                     ("posets", posets), ("sheaves", sheaves), ("limits", limits),
                     ("graphenum", graphenum), ("cli", cli)):
        p.run(f"probe/{name}", fn)


def check_probe(task: Task):
    want = expected.PROBE[task.key.split("/", 1)[1]]
    if task.out != want:
        return f"probe output {task.out!r}, expected {want!r}"
    return None


# -- orbits ------------------------------------------------------------------------------


ORBIT_GRAPHS = {"full": ("banana", "K4", "C5", "K5", "C6", "K4p2"), "small": ("banana", "K4", "C5")}
# classify inputs per graph: window stabilities, perturbations, ceilings.
# K5 gets most of them, so the median task is a K5 classify inside one
# cluster of latencies rather than on the edge between two graphs
ORBIT_SAMPLES = {"full": {"K5": (80, 20, 40), None: (6, 2, 2)}, "small": {None: (4, 2, 2)}}
CLI_COMMANDS = (
    ("enum-orbits", ["enum-orbits"]),
    ("enum-deg", ["enum-deg", "--mod-symmetry"]),
    ("poset", ["poset", "--kind", "deg", "--mod-symmetry"]),
)


class Orbits:
    """Enumerate and classify V-stabilities on the whole ladder."""

    def setup(self, vs, rng, size, workdir):
        graphs, items, fixtures = ORBIT_GRAPHS[size], {}, {}
        for name in graphs:
            samples = ORBIT_SAMPLES[size]
            n_window, n_perturb, n_ceil = samples.get(name, samples[None])
            n, edges = LADDER[name]
            path = workdir / f"{name}.json"
            path.write_text(json.dumps({"genera": [0] * n, "edges": [list(e) for e in edges]}))
            fixtures[name] = str(path)
            g = vs.graphs.DualGraph((0,) * n, edges)
            reps = vs.posets.enumerate_orbits(g)
            window = vs.posets.stability_window(g)
            bounds = [window[Y] for Y in g.biconnected_subcurves]
            windows = [self._window_stability(vs, rng, reps, bounds) for _ in range(n_window)]
            todo = [("window", v) for v in windows]
            for _ in range(n_perturb):
                values = list(rng.choice(windows))
                for i in rng.sample(range(len(values)), rng.choice((1, 2))):
                    values[i] += rng.choice((-1, 1))
                todo.append(("perturbed", tuple(values)))
            for _ in range(n_ceil):
                den = rng.choice((1, 2, 3, 4, 6))
                psi = [Fraction(rng.randint(-2 * den, 2 * den), den) for _ in range(n - 1)]
                todo.append(("ceiling", tuple(psi + [-sum(psi)])))
            # each item carries a translation for the normal-form check
            items[name] = [(kind, data, tuple(rng.randint(-2, 2) for _ in range(n)))
                           for kind, data in todo]
        return {"graphs": graphs, "items": items, "fixtures": fixtures}

    @staticmethod
    def _window_stability(vs, rng, reps, bounds):
        """A seeded orbit representative moved by a seeded zero-sum
        translation that keeps it inside the tree-valence window."""
        s = rng.choice(reps)
        n = s.graph.n
        for _ in range(20):
            tau = [rng.randint(-1, 1) for _ in range(n - 1)]
            t = vs.posets.translate(s, tau + [-sum(tau)])
            if all(lo <= v <= hi for v, (lo, hi) in zip(t.values, bounds)):
                return t.values
        return s.values

    def run_pass(self, vs, inputs, p: Pass):
        po = vs.posets
        graphs = {name: build_graph(vs, name) for name in inputs["graphs"]}
        degs = {}
        tasks, windows = [], []
        for name, g in graphs.items():
            for cmd, argv in CLI_COMMANDS:
                tasks.append((f"cli/{name}/{cmd}", run_cli, vs, p.tr,
                              argv + ["--graph", inputs["fixtures"][name]]))
            windows.append(
                (f"lib/{name}/window", lambda g=g: len(po.enumerate_window_stabilities(g))))
            tasks += [
                (f"lib/{name}/orbits", lambda g=g: len(po.enumerate_orbits(g))),
                (f"lib/{name}/deg-subsets", lambda name=name, g=g: degs.setdefault(
                    name, po.enumerate_degeneracy_subsets(g))),
                (f"lib/{name}/dominance", lambda name=name: sum(
                    po.deg_leq(a, b) for a in degs[name] for b in degs[name])),
            ]
        classify = spread({name: [(f"classify/{name}/{i}", self._classify, vs, g, item)
                                  for i, item in enumerate(inputs["items"][name])]
                           for name, g in graphs.items()})
        # the window enumerations (most of the pass on K5 and C6) come last,
        # so that a cut second pass repeats the mid-sized tasks that set the tail
        for task in interleave(tasks, classify) + windows:
            p.run(*task)

    @staticmethod
    def _classify(vs, g, item):
        kind, data, _ = item
        if kind == "ceiling":
            s = vs.polarization.NumericalPolarization(g, 0, data).induced_vstability()
        else:
            s = vs.stability.VStability(g, 0, data)
        r1, r2 = s.validate(), s.validate_via_union()
        if not r1.ok:
            return s, r1, r2, None, None, None
        return (s, r1, r2, s.degeneracy_set(), vs.polarization.is_classical(s),
                vs.posets.normal_form(s))

    def summarize(self, key, out):
        kind = key.split("/")[0]
        if kind == "cli":
            rc, text = out
            return rc, len(text.encode()), _sha(text)
        if kind == "lib":
            return len(out) if key.endswith("deg-subsets") else out
        s, r1, r2, D, w, nf = out
        return (r1.ok, r2.ok, None if D is None else len(D), w is not None,
                None if nf is None else nf[0].values)

    def check(self, vs, inputs, key, out):
        kind, name, what = key.split("/")
        if kind == "cli":
            rc, text = out
            want = expected.CLI_SHA256.get((name, what))
            if rc != 0:
                return f"exit code {rc}"
            if want is None:
                return self._check_unrecorded_cli(vs, build_graph(vs, name), what, text)
            return None if _sha(text) == want else "stdout digest differs from the recorded one"
        if kind == "lib":
            got = self.summarize(key, out)
            want = expected.ORBIT_COUNTS[what][name]
            return None if got == want else f"answer gate: {what} count {got}, expected {want}"
        return self._check_classify(vs, inputs["items"][name][int(what)], out)

    @staticmethod
    def _check_unrecorded_cli(vs, g, what, text):
        """Tasks that fail at the recorded commit have no digest; if they
        start to succeed, check the output's shape against the library."""
        doc = json.loads(text)
        reps, _ = vs.posets.deg_symmetry_classes(g, vs.posets.enumerate_degeneracy_subsets(g))
        got = len(doc["degeneracy_subsets"] if what == "enum-deg" else doc["elements"])
        return None if got == len(reps) else f"{got} classes printed, expected {len(reps)}"

    @staticmethod
    def _check_classify(vs, item, out):
        kind, _, shift = item
        s, r1, r2, D, w, nf = out
        if r1.ok != r2.ok:
            return "validate and validate_via_union disagree"
        if not r1.ok:
            return None if kind == "perturbed" else f"generated {kind} stability is invalid"
        g = s.graph
        if D.members != frozenset(Y for Y in g.biconnected_subcurves if s.is_degenerate(Y)):
            return "degeneracy set differs from the pair-sum test"
        if kind == "ceiling" and w is None:
            return "a ceiling was not found classical"
        if w is not None and w.induced_vstability() != s:
            return "classical witness does not re-ceil to s"
        rep, tau = nf
        if vs.posets.translate(s, tau) != rep:
            return "normal form is not a translate of s"
        if vs.posets.normal_form(vs.posets.translate(s, shift))[0] != rep:
            return "normal form changes under translation"
        return None


# -- sheaves -----------------------------------------------------------------------------


# symmetry classes of orbit representatives taken per graph: all, or one
# class per size of degeneracy set (the first in a fixed order)
SHEAF_CLASSES = {"full": {"banana": "all", "K4": "all", "C5": "by-degeneracy"},
                 "small": {"banana": "all"}}


class Sheaves:
    """Semistable censuses, predicates and polystable limits.

    The cost of a census varies tenfold between orbit representatives, so
    the representatives are drawn per automorphism class of the graph: a
    fixed set of classes, and the seed picks the member of each.  Members
    of one class differ only by relabelling, so every seed does the same
    amount of work on different inputs.
    """

    def setup(self, vs, rng, size, workdir):
        reps = {}
        for name, rule in SHEAF_CLASSES[size].items():
            n, edges = LADDER[name]
            g = vs.graphs.DualGraph((0,) * n, edges)
            classes = self._symmetry_classes(vs, g, vs.posets.enumerate_orbits(g))
            if rule == "by-degeneracy":
                first = {}
                for key, members in classes:
                    first.setdefault(len(members[0].degeneracy_set()), (key, members))
                classes = sorted(first.values())
            reps[name] = [rng.choice(members).values for _, members in classes]
        return reps

    @staticmethod
    def _symmetry_classes(vs, g, reps):
        """Orbit representatives grouped by graph automorphism, as sorted
        (key, members); the key is the least normal form of a relabelling."""
        bcon, index = g.biconnected_subcurves, g.bcon_index
        classes = {}
        for s in reps:
            key = None
            for perm in g.automorphisms:
                values = [0] * len(bcon)
                for Y, v in zip(bcon, s.values):
                    values[index[vs.graphs.permute_mask(Y, perm)]] = v
                nf = vs.posets.normal_form(vs.stability.VStability(g, s.chi, values))[0].values
                key = nf if key is None else min(key, nf)
            classes.setdefault(key, []).append(s)
        return sorted(classes.items())

    def run_pass(self, vs, inputs, p: Pass):
        sh = vs.sheaves
        for name, reps in inputs.items():
            g = build_graph(vs, name)
            for i, values in enumerate(reps):
                s = vs.stability.VStability(g, 0, values)
                classes = p.run(f"enum/{name}/{i}", sh.enumerate_semistable, g, s)
                for j, I in enumerate(classes or ()):
                    p.run(f"class/{name}/{i}/{j}", self._class_task, sh, I, s)

    @staticmethod
    def _class_task(sh, I, s):
        return I, s, sh.is_polystable(I, s), sh.is_stable(I, s), sh.polystable_limit(I, s)

    def summarize(self, key, out):
        if key.startswith("enum/"):
            return len(out), hash(tuple(_plain_sheaf(I) for I in out))
        I, s, poly, stable, L = out
        return _plain_sheaf(I), poly, stable, _plain_sheaf(L)

    def check(self, vs, inputs, key, out):
        if key.startswith("enum/"):
            _, name, i = key.split("/")
            want = expected.SHEAF_CENSUS[name, int(i)][0]
            return None if len(out) == want else f"answer gate: {len(out)} classes, expected {want}"
        sh = vs.sheaves
        I, s, poly, stable, L = out
        if not sh.is_semistable(I, s):
            return "enumerated class is not semistable"
        if poly != sh.is_polystable_via_extended(I, s):
            return "is_polystable disagrees with is_polystable_via_extended"
        if stable != sh.is_stable_via_extended(I, s):
            return "is_stable disagrees with is_stable_via_extended"
        if stable and not poly:
            return "stable but not polystable"
        if not sh.is_polystable(L, s):
            return "polystable limit is not polystable"
        if sh.polystable_limit(L, s) != L:
            return "polystable limit is not idempotent"
        if poly and L != I:
            return "polystable class moved by its limit"
        return None

    def check_pass(self, inputs, tasks):
        """Answer gate: polystable and stable classes per census."""
        got = {}
        for t in tasks:
            if t.key.startswith("class/") and t.error is None:
                _, name, i, _ = t.key.split("/")
                poly, stable = got.get((name, int(i)), (0, 0))
                got[name, int(i)] = (poly + t.out[2], stable + t.out[3])
        for name, reps in inputs.items():
            for i in range(len(reps)):
                want = expected.SHEAF_CENSUS[name, i][1:]
                if got.get((name, i), (0, 0)) != want:
                    return (f"answer gate: census {name}/{i} has (polystable, stable) "
                            f"{got.get((name, i), (0, 0))}, expected {want}")
        return None


# -- limits ------------------------------------------------------------------------------


# K5 (where the fallback never runs) has most pairs, so the median task is
# a lemma-step run inside one tight cluster; fallback runs on K4p2 make the
# tail, and K4p2's 450 pairs make it an order statistic of many of them,
# so that it moves little between seeds
LIMIT_SAMPLES = {"full": {"C5": 150, "C6": 150, "K4p2": 450, "K5": 900}, "small": {"C5": 12}}


class Limits:
    """One-parameter limits from the criterion-09 degree box.

    Whether the fallback runs, and how long a run takes, depends on the
    pair, so pairs drawn afresh for each seed moved ``pass_s`` and the
    tail by about a tenth between seeds.  The pairs are therefore a fixed
    pool per graph, and the seed relabels each pair by an automorphism of
    the graph: every seed gets different inputs of the same cost.
    """

    def setup(self, vs, rng, size, workdir):
        pairs = {}
        for name, k in LIMIT_SAMPLES[size].items():
            n, edges = LADDER[name]
            g = vs.graphs.DualGraph((0,) * n, edges)
            reps = vs.posets.enumerate_orbits(g)
            general = [s.values for s in reps if s.is_general()]
            degenerate = [s.values for s in reps if not s.is_general()]
            win = g.genus + 2
            need = len(edges) - n  # total degree for characteristic 0, genera 0
            pool = random.Random(f"limits-pool:{name}")
            pairs[name] = []
            for i in range(k):
                values = pool.choice((general, degenerate)[i % 2] or general or degenerate)
                while True:
                    d = [pool.randint(-win, win) for _ in range(n - 1)]
                    last = need - sum(d)
                    if -win <= last <= win:
                        break
                pairs[name].append(self._relabel(vs, g, rng.choice(g.automorphisms),
                                                 values, d + [last]))
        return pairs

    @staticmethod
    def _relabel(vs, g, perm, values, d):
        """The pair moved by the vertex permutation ``perm``."""
        moved = [0] * len(values)
        for Y, v in zip(g.biconnected_subcurves, values):
            moved[g.bcon_index[vs.graphs.permute_mask(Y, perm)]] = v
        degree = [0] * g.n
        for v, x in enumerate(d):
            degree[perm[v]] = x
        return tuple(moved), tuple(degree)

    def run_pass(self, vs, inputs, p: Pass):
        tasks = {}
        for name, pairs in inputs.items():
            g = build_graph(vs, name)
            tasks[name] = [(f"limit/{name}/{i}", self._limit_task, vs, g, values, d)
                           for i, (values, d) in enumerate(pairs)]
        for task in spread(tasks):
            p.run(*task)

    @staticmethod
    def _limit_task(vs, g, values, d):
        s = vs.stability.VStability(g, 0, values)
        result, trace = vs.limits.esteves_limit(d, s)
        same, _ = vs.limits.same_orbit(g, result, d)
        return s, d, result, trace, same

    def summarize(self, key, out):
        s, d, result, trace, same = out
        return (result, len(trace.steps), trace.used_fallback,
                sum(1 for st in trace.steps if st.lemma_step), same)

    def check(self, vs, inputs, key, out):
        s, d, result, trace, same = out
        g = s.graph
        if not same:
            return "limit is not in the chip-firing orbit of the start"
        if trace.start != d or trace.result != result:
            return "trace endpoints differ from the call"
        current = d
        for step in trace.steps:
            current = vs.limits.twist(g, current, step.subcurve)
            if current != step.multidegree:
                return "trace step does not replay as a twist"
        if current != result:
            return "trace does not end at the result"
        if any(vs.limits.beta(result, s, Z) < 0 for Z in g.biconnected_subcurves):
            return "beta is negative on a biconnected subcurve"
        return None


# -- scan --------------------------------------------------------------------------------


SCAN_ARGS = {"full": ("5", "7"), "small": ("3", "4")}


class _Stamped(io.TextIOBase):
    """stdout stand-in that times every completed line (CPU time since the
    previous one) and moves the tracer's task id on to the next report.
    Between lines it samples the reference kernel, outside the timing."""

    def __init__(self, tr, ref):
        self.tr, self.ref = tr, ref
        self.lines: list[str] = []
        self.times: list[tuple[float, float, float]] = []  # (CPU s, start, end)
        self.partial = ""
        self.size = 0
        self.mark()

    def mark(self):
        self.c0, self.w0 = process_time(), perf_counter()

    def tell(self):
        return self.size

    def write(self, text):
        self.size += len(text)
        self.partial += text
        while "\n" in self.partial:
            line, self.partial = self.partial.split("\n", 1)
            self.times.append((process_time() - self.c0, self.w0, perf_counter()))
            self.lines.append(line)
            self.tr.task = f"report/{len(self.lines)}"
            if self.ref is not None:
                self.ref.maybe_sample()
            self.mark()
        return len(text)


class Scan:
    """The qdeg-scan evidence scanner over the graph catalogue.  The input
    is fixed, so the seed is unused."""

    def setup(self, vs, rng, size, workdir):
        v, e = SCAN_ARGS[size]
        return {"size": size, "argv": ["qdeg-scan", "--max-vertices", v, "--max-edges", e]}

    def run_pass(self, vs, inputs, p: Pass):
        if p.ref is not None:
            p.ref.maybe_sample()
        out = _Stamped(p.tr, p.ref)
        p.tr.task = "report/0"
        try:
            rc, _ = run_cli(vs, p.tr, inputs["argv"], stdout=out)
            error = None if rc == 0 else {"type": "ExitCode", "message": str(rc), "raised_in": None}
        except Exception as exc:
            error = _describe(exc)
        for i, ((seconds, start, end), line) in enumerate(zip(out.times, out.lines)):
            p.tasks.append(Task(f"report/{i}", seconds, line, None, start, end))
        if error is not None or out.partial:
            p.tasks.append(Task("report/end", process_time() - out.c0, out.partial,
                                error or {"type": "Output", "message": "unterminated line",
                                          "raised_in": None}, out.w0, perf_counter()))

    def summarize(self, key, out):
        if key == "report/end":
            return out
        report = json.loads(out)
        return (_sha(out + "\n")[:16], bool(report["ranked"]),
                bool(report["degeneracy_map_surjective"]))

    def check(self, vs, inputs, key, out):
        want = expected.SCAN[inputs["size"]]["lines"]
        i = int(key.split("/")[1])
        if i >= len(want):
            return "more reports than recorded"
        return None if _sha(out + "\n")[:16] == want[i] else "report differs from the recorded one"

    def check_pass(self, inputs, tasks):
        """Answer gate on the whole output: report count and digest."""
        rec = expected.SCAN[inputs["size"]]
        lines = [t.out for t in tasks if t.key.startswith("report/") and t.key != "report/end"]
        if len(lines) != len(rec["lines"]):
            return f"{len(lines)} reports, expected {len(rec['lines'])}"
        if _sha("".join(line + "\n" for line in lines)) != rec["sha256"]:
            return "scan output digest differs from the recorded one"
        return None


WORKLOADS = {"orbits": Orbits, "sheaves": Sheaves, "limits": Limits, "scan": Scan}

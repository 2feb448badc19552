"""In-memory spans for the traced benchmark run.

A span is ``[name, start, end, parent, task]``; ``parent`` is the index of
the enclosing span (or -1) and ``task`` the id of the benchmark task that
was running.  The benchmark opens spans around its own calls into each
layer.  :func:`instrument` also wraps the public functions those calls
reach, by replacing module and class attributes of the loaded ``vstab``
package.  During every timed pass the wrappers count calls and results,
so untraced and traced runs report the same counts; in a traced pass they
also open spans, so nested layers get spans of their own.  A layer's self
time is its spans' duration minus the part covered by child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """Span and count recorder.  ``counting`` is true during a timed pass
    and ``active`` during a traced one; outside a pass (the checks, the
    set-up) nothing is recorded."""

    def __init__(self):
        self.active = False
        self.counting = False
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.task = None
        self.counts: Counter = Counter()
        self.seen: dict[int, object] = {}

    def begin_pass(self, traced: bool) -> None:
        """Start a timed pass with fresh counts."""
        self.counts = Counter()
        self.seen.clear()
        self.counting, self.active = True, traced

    def end_pass(self) -> dict:
        """Stop recording; returns the pass's counts."""
        self.counting = self.active = False
        self.task = None
        self.seen.clear()
        return dict(self.counts)

    def open(self, name: str) -> int:
        i = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.task])
        self.stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.spans[i][2] = perf_counter()
        self.stack.pop()

    def span(self, name: str):
        return _Span(self, name) if self.active else _NULL

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "task"]) + "\n")
            for sp in self.spans:
                fh.write(json.dumps(sp) + "\n")


class _Span:
    __slots__ = ("tr", "name", "i")

    def __init__(self, tr: Tracer, name: str):
        self.tr, self.name = tr, name

    def __enter__(self):
        self.i = self.tr.open(self.name)

    def __exit__(self, *exc):
        self.tr.close(self.i)


_NULL = contextlib.nullcontext()


def _wrap(tr: Tracer, name: str, fn, on_result=None, on_error=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tr.counting:
            return fn(*args, **kwargs)
        i = tr.open(name) if tr.active else None
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            if i is not None:
                tr.close(i)
            if on_error is not None:
                on_error(exc)
            raise
        if i is not None:
            tr.close(i)
        if on_result is not None:
            on_result(result, args)
        return result

    return wrapper


def instrument(tr: Tracer, vs) -> list[str]:
    """Wrap the public functions the benchmark's calls reach.

    ``vs`` holds the loaded ``vstab`` modules.  Every module attribute that
    is the original function (including ``from`` imports in other modules
    and the package re-exports) is replaced.  Targets missing from the
    loaded code are skipped and returned, so the run can report them.
    """
    missing = []
    modules = vs.modules

    def count(key, n=1):
        tr.counts[key] += n

    def patch_function(module, attr, name, on_result=None, on_error=None):
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module.__name__}.{attr}")
            return
        wrapped = _wrap(tr, name, fn, on_result, on_error)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, key, wrapped)

    def patch_method(cls, attr, name, on_result=None):
        fn = cls.__dict__.get(attr)
        if fn is None:
            missing.append(f"{cls.__name__}.{attr}")
            return
        if isinstance(fn, functools.cached_property):
            prop = functools.cached_property(_wrap(tr, name, fn.func, on_result))
            prop.__set_name__(cls, attr)
            setattr(cls, attr, prop)
        else:
            setattr(cls, attr, _wrap(tr, name, fn, on_result))

    graphs, stability, polarization = vs.graphs, vs.stability, vs.polarization
    posets, sheaves, limits, graphenum = vs.posets, vs.sheaves, vs.limits, vs.graphenum

    # graphs: construction and every lazily built table
    patch_method(graphs.DualGraph, "__post_init__", "graphs.tables",
                 lambda r, a: count("graphs.graphs_built"))
    for cls in (graphs.DualGraph, graphs.SpanningTree):
        for attr, value in list(vars(cls).items()):
            if isinstance(value, functools.cached_property):
                patch_method(cls, attr, "graphs.tables")

    # stability
    def on_validate(report, args):
        count("stability.validate_calls")
        if not report.ok:
            count("stability.invalid_found")

    patch_method(stability.VStability, "validate", "stability.validate", on_validate)
    patch_method(stability.VStability, "validate_via_union", "stability.validate_via_union")
    patch_method(stability.VStability, "degeneracy_set", "stability.degeneracy_set")
    patch_method(stability.VStability, "extended_degeneracy", "stability.extended_table",
                 lambda r, a: count("stability.extended_tables"))
    def on_table(table, args):
        # count tables built, not lookups of a table already built; the
        # reference kept until the pass ends stops a freed table's id
        # from being reused
        if id(table) not in tr.seen:
            tr.seen[id(table)] = table
            count("stability.extended_tables")

    patch_function(stability, "extended_value_table", "stability.extended_table", on_table)

    # polarization
    def on_classical(witness, args):
        count("polarization.is_classical_calls")
        if witness is not None:
            count("polarization.classical_found")

    patch_method(polarization.NumericalPolarization, "induced_vstability",
                 "polarization.ceiling")
    patch_function(polarization, "is_classical", "polarization.is_classical", on_classical)

    # posets
    def counter(key, size=False):
        return lambda r, a: count(key, len(r) if size else 1)

    def on_dominance(flag, args):
        count("posets.dominance_pairs")
        if flag:
            count("posets.dominance_true")

    def on_scan(report, args):
        count("posets.scanned_graphs")
        count("posets.ranked", bool(report.get("ranked")))
        count("posets.surjective", bool(report.get("degeneracy_map_surjective")))

    patch_function(posets, "enumerate_window_stabilities", "posets.window_enum",
                   counter("posets.window_stabilities", size=True))
    patch_function(posets, "enumerate_orbits", "posets.orbit_enum",
                   counter("posets.orbits", size=True))
    patch_function(posets, "normal_form", "posets.normal_form",
                   counter("posets.normal_form_calls"))
    patch_function(posets, "enumerate_degeneracy_subsets", "posets.deg_subsets",
                   counter("posets.deg_subsets", size=True))
    patch_function(posets, "deg_leq", "posets.dominance", on_dominance)
    patch_function(posets, "deg_symmetry_classes", "posets.symmetry_classes")
    patch_function(posets, "minimal_elements", "posets.minimal_elements")
    patch_function(posets, "hasse", "posets.hasse")
    patch_function(posets, "qdeg_scan", "posets.qdeg_scan", on_scan)

    # sheaves
    def on_polystable(flag, args):
        count("sheaves.polystable", bool(flag))

    def on_stable(flag, args):
        count("sheaves.stable", bool(flag))

    def on_limit(limit, args):
        count("sheaves.limits_changed", limit != args[0])

    patch_function(sheaves, "enumerate_semistable", "sheaves.enumerate_semistable",
                   counter("sheaves.semistable_classes", size=True))
    patch_function(sheaves, "is_semistable", "sheaves.predicates")
    patch_function(sheaves, "is_polystable", "sheaves.predicates", on_polystable)
    patch_function(sheaves, "is_stable", "sheaves.predicates", on_stable)
    patch_function(sheaves, "polystable_limit", "sheaves.polystable_limit", on_limit)
    patch_function(sheaves, "gr_specialize", "sheaves.polystable_limit")

    # limits
    def on_esteves(out, args):
        _, trace = out
        count("limits.runs")
        count("limits.twist_steps", len(trace.steps))
        count("limits.lemma_steps", sum(1 for st in trace.steps if st.lemma_step))
        count("limits.fallback_runs", bool(trace.used_fallback))

    def on_esteves_error(exc):
        if isinstance(exc, vs.errors.NonTermination):
            count("limits.nontermination")

    patch_function(limits, "esteves_limit", "limits.esteves_limit", on_esteves, on_esteves_error)
    patch_function(limits, "same_orbit", "limits.same_orbit")

    # graphenum
    patch_function(graphenum, "connected_multigraphs", "graphenum.catalogue",
                   counter("graphenum.graphs", size=True))
    return missing

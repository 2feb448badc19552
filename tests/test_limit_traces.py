"""Pinned limit traces on six components, and the memory of one long walk.

Criterion 09 pins every trace on graphs of at most five components.  The
samples here reach six, where the depth-first walk dead-ends in about a
third of the runs and the monotone expansion finishes them.
"""

import hashlib
import random
import tracemalloc

from vstab.limits import esteves_limit
from vstab.posets import enumerate_orbits

from conftest import cycle6, k4_plus_path2

# sha256 of repr((start, result, steps)) per run, steps as in criterion 09
SIX_VERTEX_TRACE_DIGEST = "25fdb913a78be273f761ccc33b2b2eb5148d7ef04d7f1a2382ad1f6400a3e0d6"
SAMPLES_PER_GRAPH = 500


def _sample(g, name):
    """Seeded (orbit, start) pairs from the criterion-09 degree box."""
    reps = enumerate_orbits(g)
    rng = random.Random(f"six-vertex:{name}")
    win = g.genus + 2
    need = len(g.edges) - g.n          # characteristic 0, genera 0
    for _ in range(SAMPLES_PER_GRAPH):
        s = rng.choice(reps)
        while True:
            head = [rng.randint(-win, win) for _ in range(g.n - 1)]
            if -win <= need - sum(head) <= win:
                break
        yield s, tuple(head) + (need - sum(head),)
    # one long walk per graph, finished by the monotone expansion
    if name == "C6":
        yield reps[541], (100, 0, 0, -100, 0, 0)
    else:
        yield reps[145], (100, 0, 0, 0, -100, 2)


def test_six_vertex_traces_are_pinned():
    digest = hashlib.sha256()
    runs = fallbacks = 0
    for name, make in (("C6", cycle6), ("K4p2", k4_plus_path2)):
        for s, d in _sample(make(), name):
            result, trace = esteves_limit(d, s)
            steps = tuple((st.subcurve, st.beta_min, st.multidegree, st.lemma_step)
                          for st in trace.steps)
            digest.update(repr((d, result, steps)).encode() + b"\n")
            runs += 1
            fallbacks += trace.used_fallback
    assert (runs, fallbacks) == (1002, 335)
    assert digest.hexdigest() == SIX_VERTEX_TRACE_DIGEST


def test_long_walk_memory():
    # the monotone expansion keeps (badness, subcurve) per candidate, not a
    # beta list of 2**n entries per queued multidegree
    g = k4_plus_path2()
    s = enumerate_orbits(g)[145]
    d = (100, 0, 0, 0, -100, 2)
    expected = esteves_limit(d, s)      # warms the graph and stability tables
    assert expected[1].used_fallback
    tracemalloc.start()
    try:
        assert esteves_limit(d, s) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000

"""The graph catalogue against two oracles.

``canonical_edge_form`` tries every relabelling and keeps the least sorted
edge tuple; ``oracle_catalogue`` keeps the first member met of each
isomorphism class, replaced by that form.  This is the n! catalogue that
orderly generation replaced.  ``walk_and_test_catalogue`` walks every
sorted edge multiset and keeps the connected canonical ones: the catalogue
that canonical augmentation replaced.
"""

import hashlib
import itertools
import json
import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from vstab import graphenum
from vstab.cli import MAX_SCAN_WALK
from vstab.graphenum import connected_multigraphs, is_canonical, walk_size


def canonical_edge_form(n: int, edges) -> tuple:
    """Lexicographically minimal relabelling of an edge multiset."""
    best = None
    for perm in itertools.permutations(range(n)):
        image = tuple(sorted(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges
        ))
        if best is None or image < best:
            best = image
    return best


def walk(max_vertices, max_edges):
    """(n, combo) for every edge multiset the catalogue walks, in order."""
    for n in range(1, max_vertices + 1):
        slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for m in range(n - 1, max_edges + 1):
            for combo in itertools.combinations_with_replacement(slots, m):
                yield n, combo


def connected(n, edges):
    """Union-find, independent of the package's bitmask search."""
    root = list(range(n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for u, v in edges:
        root[find(u)] = find(v)
    return len({find(x) for x in range(n)}) == 1


def oracle_catalogue(max_vertices, max_edges):
    out, seen = [], set()
    for n, combo in walk(max_vertices, max_edges):
        if not connected(n, combo):
            continue
        key = n, canonical_edge_form(n, combo)
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out


def walk_and_test_catalogue(max_vertices, max_edges):
    return [(n, combo) for n, combo in walk(max_vertices, max_edges)
            if connected(n, combo) and is_canonical(n, combo)]


def listing(graphs):
    return [(g.n, g.edges) for g in graphs]


def digest(graphs):
    doc = json.dumps([[g.n, [list(e) for e in g.edges]] for g in graphs])
    return hashlib.sha256(doc.encode()).hexdigest()


@pytest.mark.parametrize("max_vertices, max_edges", [
    *((v, e) for v in range(1, 5) for e in range(7)), (5, 6),
])
def test_catalogue_matches_the_brute_force_oracle(max_vertices, max_edges):
    assert listing(connected_multigraphs(max_vertices, max_edges)) == \
        oracle_catalogue(max_vertices, max_edges)


@pytest.mark.parametrize("max_vertices, max_edges", [(5, 8), (6, 7)])
def test_catalogue_matches_the_walk_and_test_oracle(max_vertices, max_edges):
    assert listing(connected_multigraphs(max_vertices, max_edges)) == \
        walk_and_test_catalogue(max_vertices, max_edges)


@st.composite
def edge_multisets(draw):
    n = draw(st.integers(1, 6))
    if n == 1:
        return n, ()
    slot = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]).map(lambda e: (min(e), max(e)))
    return n, tuple(sorted(draw(st.lists(slot, max_size=9))))


@settings(max_examples=300, deadline=None)
@given(edge_multisets())
def test_is_canonical_iff_least_relabelling(case):
    n, edges = case
    least = canonical_edge_form(n, edges)
    assert is_canonical(n, edges) == (edges == least)
    assert is_canonical(n, least)


@settings(max_examples=300, deadline=None)
@given(edge_multisets())
def test_every_prefix_of_a_canonical_tuple_is_canonical(case):
    n, edges = case
    least = canonical_edge_form(n, edges)
    assert all(is_canonical(n, least[:m]) for m in range(len(least)))


# (graph count, sha256 of the edge lists), recorded with the n! catalogue,
# and (7, 7) and (6, 9) with the walk-and-test catalogue
RECORDED = {
    (4, 6): (63, "b0cdc963a0062bdd9acc486bd2a73cec7451471de5e4bae9c1d424cec8507073"),
    (5, 7): (241, "9e130ff468b09bb5663f663662b240449a401ff21d99c0a6c6db08bf73d2f476"),
    (6, 6): (146, "29227ee7e44b92e08e1b46fee435b775f87a34ba63a00630f2a2951283f6a4f4"),
    (7, 7): (467, "aaac9025eda705a9ae0ca1f627b331db3741fa5b3136ff97774212d4e7988c3f"),
    (6, 9): (2470, "809a78ff509ac41b80816cdf0dd2cbd1e344c7a9b046f8ee164780fa31fabc5c"),
}


@pytest.mark.parametrize("bounds", sorted(RECORDED))
def test_recorded_counts_and_digests(bounds):
    graphs = connected_multigraphs(*bounds)
    assert (len(graphs), digest(graphs)) == RECORDED[bounds]


@pytest.mark.parametrize("bounds, calls", [((5, 7), 655), ((6, 9), 5771), ((7, 7), 1948)])
def test_no_canonicity_test_for_a_tuple_that_cannot_become_connected(
        monkeypatch, bounds, calls):
    # with every candidate tested: 811, 7 504 and 4 229 calls
    tested = []
    monkeypatch.setattr(graphenum, "is_canonical",
                        lambda n, t: tested.append(t) or is_canonical(n, t))
    connected_multigraphs(*bounds)
    assert len(tested) == calls


def test_six_nine_catalogue_builds_in_under_two_cpu_seconds():
    # the walk-and-test catalogue took 7-8 s here: 806 319 canonicity
    # tests against 7 504 by augmentation
    start = time.process_time()
    connected_multigraphs(6, 9)
    assert time.process_time() - start < 2


@pytest.mark.parametrize("max_vertices, max_edges", [
    (v, e) for v in range(1, 6) for e in range(8)
])
def test_walk_size_counts_the_walk(max_vertices, max_edges):
    assert walk_size(max_vertices, max_edges, math.inf) == \
        sum(len(combo) for _, combo in walk(max_vertices, max_edges))


def test_walk_size_of_the_scans():
    assert walk_size(5, 7, math.inf) == 133883
    assert walk_size(7, 9, math.inf) == 134410134
    assert walk_size(6, 9, math.inf) == 11812659
    assert walk_size(7, 7, math.inf) == 8836133
    assert walk_size(7, 8, math.inf) == 36464277
    assert max(walk_size(6, 9, math.inf), walk_size(7, 7, math.inf)) <= \
        MAX_SCAN_WALK < walk_size(7, 8, math.inf)


def test_walk_size_stops_above_the_cap():
    # n = 2 alone has 5.0e17 edges in its 10**9 + 1 multisets; the count
    # stops there
    assert walk_size(10 ** 9, 10 ** 9, 100) == 10 ** 9 * (10 ** 9 + 1) // 2

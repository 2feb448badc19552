"""Shared graph fixtures and independent brute-force oracles.

The oracles here deliberately avoid the package's bitmask machinery:
connectivity works on adjacency sets, component counts use union-find,
so the formulas under test are checked against independent computations.
"""

import pytest

from vstab import DualGraph
from vstab.graphs import vertices_of
from vstab.stability import ValidationReport, Violation


# -- named graphs --------------------------------------------------------------

def single_vertex():
    return DualGraph((0,), ())


def single_edge():
    return DualGraph((0, 0), ((0, 1),))


def banana():
    """Two rational components joined at two nodes."""
    return DualGraph((0, 0), ((0, 1), (0, 1)))


def triple_banana():
    return DualGraph((0, 0), ((0, 1), (0, 1), (0, 1)))


def path3():
    return DualGraph((0, 0, 0), ((0, 1), (1, 2)))


def triangle():
    return DualGraph((0, 0, 0), ((0, 1), (0, 2), (1, 2)))


def theta_plus_spur():
    return DualGraph((0, 0, 0), ((0, 1), (0, 1), (1, 2)))


def star4():
    return DualGraph((0, 0, 0, 0), ((0, 1), (0, 2), (0, 3)))


def path4():
    return DualGraph((0, 0, 0, 0), ((0, 1), (1, 2), (2, 3)))


def cycle4():
    return DualGraph((0, 0, 0, 0), ((0, 1), (1, 2), (2, 3), (0, 3)))


def k4():
    return DualGraph((0, 0, 0, 0), tuple(
        (i, j) for i in range(4) for j in range(i + 1, 4)
    ))


def cycle5():
    return DualGraph((0,) * 5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))


def k5():
    return DualGraph((0,) * 5, tuple(
        (i, j) for i in range(5) for j in range(i + 1, 5)
    ))


def cycle6():
    return DualGraph((0,) * 6, tuple((i, (i + 1) % 6) for i in range(6)))


def k4_plus_path2():
    """K4 on {0,1,2,3} plus the path 3-4-5."""
    return DualGraph((0,) * 6, k4().edges + ((3, 4), (4, 5)))


def genus_decorated():
    """Banana with genera and a loop, for chi bookkeeping."""
    return DualGraph((1, 2), ((0, 1), (0, 1), (1, 1)))


POOL_SMALL = [single_vertex, single_edge, banana, triple_banana, path3,
              triangle, theta_plus_spur]
POOL_N4 = POOL_SMALL + [star4, path4, cycle4, k4]
POOL_N5 = POOL_N4 + [cycle5]
# the graph ladder of the benchmark
LADDER = [banana, k4, cycle5, k5, cycle6, k4_plus_path2]


@pytest.fixture
def graphs_n4():
    return [f() for f in POOL_N4]


@pytest.fixture
def graphs_n5():
    return [f() for f in POOL_N5]


# -- independent oracles -----------------------------------------------------------


def oracle_connected(g: DualGraph, vertices: set) -> bool:
    """Set-based BFS, independent of the bitmask implementation."""
    if not vertices:
        raise ValueError("empty")
    adj = {v: set() for v in vertices}
    for u, v in g.edges:
        if u != v and u in adj and v in adj:
            adj[u].add(v)
            adj[v].add(u)
    start = next(iter(vertices))
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen == set(vertices)


def oracle_component_count(g: DualGraph, vertices: set) -> int:
    """Union-find component count on the induced multigraph."""
    root = {v: v for v in vertices}

    def find(a):
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    for u, v in g.edges:
        if u in root and v in root and u != v:
            ru, rv = find(u), find(v)
            if ru != rv:
                root[ru] = rv
    return len({find(v) for v in vertices})


def oracle_fibers(g: DualGraph, edge_indices) -> list[set]:
    """Vertex sets of the components of (V, edges), by union-find, in
    ascending order of their least vertex."""
    root = list(range(g.n))

    def find(a):
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    for i in edge_indices:
        ru, rv = find(g.edges[i][0]), find(g.edges[i][1])
        if ru != rv:
            root[max(ru, rv)] = min(ru, rv)
    fibers = {}
    for v in range(g.n):
        fibers.setdefault(find(v), set()).add(v)
    return [fibers[r] for r in sorted(fibers)]


def oracle_genus(g: DualGraph, vertices: set) -> int:
    """First-Betti bookkeeping: internal edges minus vertices plus
    components, plus the geometric genera."""
    if not vertices:
        return 0
    internal = sum(1 for u, v in g.edges if u in vertices and v in vertices)
    return (
        internal - len(vertices) + oracle_component_count(g, vertices)
        + sum(g.genera[v] for v in vertices)
    )


def oracle_biconnected(g: DualGraph) -> list[int]:
    full = set(range(g.n))
    out = []
    for mask in range(1, (1 << g.n) - 1):
        sub = set(vertices_of(mask))
        if oracle_connected(g, sub) and oracle_connected(g, full - sub):
            out.append(mask)
    return out


def all_subcurves(g: DualGraph):
    return range(1 << g.n)


def proper_nonempty(g: DualGraph):
    return range(1, g.full_mask)


def oracle_validate(s) -> ValidationReport:
    """The triple validator as written before the value tables: one
    ``value`` and ``is_degenerate`` method call per lookup."""
    g = s.graph
    out = []
    for Y, Yc in g.bcon_pairs:
        t = s.value(Y) + s.value(Yc) - s.chi
        if t not in (0, 1):
            out.append(Violation(
                "pair-sum", (Y, Yc),
                f"value sum minus chi is {t}, expected 0 or 1",
            ))
    for Y1, Y2, Y3 in g.covering_triples:
        dgs = [s.is_degenerate(Z) for Z in (Y1, Y2, Y3)]
        ndeg = sum(dgs)
        sigma = s.value(Y1) + s.value(Y2) + s.value(Y3) - s.chi
        if ndeg == 2:
            out.append(Violation(
                "triple-closure", (Y1, Y2, Y3),
                "two members degenerate but not the third",
            ))
            continue
        expected = {3: (0,), 1: (1,), 0: (1, 2)}[ndeg]
        if sigma not in expected:
            out.append(Violation(
                "triple-sum", (Y1, Y2, Y3),
                f"triple sum minus chi is {sigma}, expected one of {expected}",
            ))
    return ValidationReport(tuple(out))


def oracle_validate_via_union(s) -> ValidationReport:
    """The pair-union validator as written before the value tables."""
    g = s.graph
    out = []
    for Y, Yc in g.bcon_pairs:
        t = s.value(Y) + s.value(Yc) - s.chi
        if t not in (0, 1):
            out.append(Violation(
                "pair-sum", (Y, Yc),
                f"value sum minus chi is {t}, expected 0 or 1",
            ))
    for Y1, Y2, U in g.admissible_pairs:
        delta = s.value(U) - s.value(Y1) - s.value(Y2)
        d1, d2, dU = (s.is_degenerate(Z) for Z in (Y1, Y2, U))
        if d1 or d2:
            expected = (0,)
        elif dU:
            expected = (-1,)
        else:
            expected = (0, -1)
        if delta not in expected:
            out.append(Violation(
                "pair-union", (Y1, Y2, U),
                f"union defect is {delta}, expected one of {expected}",
            ))
    return ValidationReport(tuple(out))

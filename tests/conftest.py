"""Shared graph fixtures and independent brute-force oracles.

The oracles here deliberately avoid the package's bitmask machinery:
connectivity works on adjacency sets, component counts use union-find,
so the formulas under test are checked against independent computations.
"""

import contextlib
import itertools
import math
import signal
from fractions import Fraction
from math import gcd

import pytest

from vstab import DualGraph, SheafData
from vstab.graphs import permute_mask, solve_equalities, vertices_of
from vstab.limits import laplacian
from vstab.sheaves import is_semistable
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


def k33_minus_edge():
    """K_{3,3} on {0,4,5} and {1,2,3} without the edge 3-5: 16 of its 504
    general orbits are not classical."""
    return DualGraph((0,) * 6, ((0, 1), (0, 2), (0, 3), (1, 4), (1, 5),
                                (2, 4), (2, 5), (3, 4)))


def k24():
    """K_{2,4} on {0,5} and {1,2,3,4}: 220 of its 990 general orbits are
    not classical."""
    return DualGraph((0,) * 6, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 5),
                                (2, 5), (3, 5), (4, 5)))


# the first (in values order) general orbit of k33_minus_edge that is not
# classical, chi = 0, one value per biconnected subcurve in table order
K33_MINUS_EDGE_NONCLASSICAL = (
    -2, 0, -2, 1, -1, 1, -1, -2, 0, 1, 1, 2, 2, -1, 2, -1, 2, 0, 0,
    1, 1, -1, 2, -1, 2, -1, -1, 0, 0, 1, 3, 2, 0, 2, 0, 3, 1, 3,
)


def genus_decorated():
    """Banana with genera and a loop, for chi bookkeeping."""
    return DualGraph((1, 2), ((0, 1), (0, 1), (1, 1)))


def triangle_genus1():
    """The triangle with a genus-1 vertex."""
    return DualGraph((1, 0, 0), triangle().edges)


POOL_SMALL = [single_vertex, single_edge, banana, triple_banana, path3,
              triangle, theta_plus_spur]
POOL_N4 = POOL_SMALL + [star4, path4, cycle4, k4]
POOL_N5 = POOL_N4 + [cycle5]
# the graph ladder of the benchmark
LADDER = [banana, k4, cycle5, k5, cycle6, k4_plus_path2]
# the graphs whose subcurve tables are checked against the oracles
TABLE_POOL = list(dict.fromkeys(POOL_N4 + LADDER + [genus_decorated]))


@contextlib.contextmanager
def time_bound(seconds: float):
    """Fail a block that runs longer than ``seconds`` of wall time, rather
    than letting it hang: a SIGALRM timer raises TimeoutError in it."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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


def oracle_spanning_trees(g: DualGraph, deleted=()) -> int:
    """Spanning trees of g with the edge indices ``deleted`` removed,
    parallel edges counted apart: the sets of n - 1 remaining edges whose
    fibers are one component, by brute force; 0 when the remaining graph
    is disconnected."""
    kept = [e for e in range(len(g.edges)) if e not in deleted]
    return sum(
        len(oracle_fibers(g, tree)) == 1
        for tree in itertools.combinations(kept, g.n - 1)
    )


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


def oracle_twist_deltas(g: DualGraph) -> tuple[tuple[int, ...], ...]:
    """Per mask, the chip-firing degree change of the twist, counted edge
    by edge: a member gains its edges to the outside, a non-member loses
    its edges into the mask."""
    mult = g.multiplicity
    n = g.n
    out = []
    for Y in range(g.full_mask + 1):
        delta = [0] * n
        for v in range(n):
            if (Y >> v) & 1:
                delta[v] = sum(
                    mult[v][w] for w in range(n)
                    if w != v and not (Y >> w) & 1
                )
            else:
                delta[v] = -sum(
                    mult[v][w] for w in range(n)
                    if w != v and (Y >> w) & 1
                )
        out.append(tuple(delta))
    return tuple(out)


def oracle_line_chi_base(g: DualGraph) -> tuple[int, ...]:
    """Per mask, chi of the degree-0 line bundle: one minus the genus per
    component, minus the internal edges, summed mask by mask."""
    base = [0] * (g.full_mask + 1)
    for mask in range(1, g.full_mask + 1):
        base[mask] = sum(
            1 - g.genera[v] for v in vertices_of(mask)
        ) - len(g.internal_edges(mask))
    return tuple(base)


def oracle_is_degenerate(s, Y: int) -> bool:
    """The pair-sum test as written before ``VStability.degenerate``: two
    ``value`` lookups, s_Y + s_{Y^c} == chi."""
    return s.value(Y) + s.value(s.graph.complement(Y)) == s.chi


def oracle_extended_value(s, Y: int) -> int:
    """The extended V-function on a nonempty subcurve, by recursion over
    its connected pieces."""
    g = s.graph
    idx = g.bcon_index.get(Y)
    if idx is not None:
        return s.values[idx]
    if Y == g.full_mask:
        return s.chi
    pieces = g.connected_components(Y)
    if len(pieces) > 1:
        return sum(oracle_extended_value(s, W) for W in pieces)
    total = s.chi
    for Z in g.connected_components(g.complement(Y)):
        total -= s.value(Z)
        if not oracle_is_degenerate(s, Z):
            total += 1
    return total


def oracle_extended_degeneracy(s) -> frozenset[int]:
    """The extended degeneracy set by its definition: the whole curve and
    every connected subcurve whose complement's pieces are all degenerate,
    one component search per subcurve."""
    g = s.graph
    full = g.full_mask
    out = {full}
    for W in g.connected_subcurves:
        if W != full and all(
            oracle_is_degenerate(s, Z) for Z in g.connected_components(full ^ W)
        ):
            out.add(W)
    return frozenset(out)


def oracle_box_semistable(s, window: int, full_support_only: bool) -> list:
    """``enumerate_semistable`` with every degree in [-window, window] by
    the symmetric box it searched before narrowing the forced windows: per
    support with every piece in the extended degeneracy set, per non-free
    subset, every box vector of the forced degree sum in lexicographic
    order, kept when semistable."""
    g = s.graph
    dhat = s.extended_degeneracy
    out = []
    supports = [g.full_mask] if full_support_only else range(1, g.full_mask + 1)
    for supp in supports:
        comps = g.connected_components(supp)
        if not all(c in dhat for c in comps):
            continue
        verts = vertices_of(supp)
        target = sum(s.extended_value(c) for c in comps)
        internal = g.internal_edges(supp)
        for bits in range(1 << len(internal)):
            nonfree = frozenset(
                e for i, e in enumerate(internal) if (bits >> i) & 1
            )
            degsum = target - g.line_chi_base[supp] - len(nonfree)
            for degs in itertools.product(range(-window, window + 1),
                                          repeat=len(verts)):
                if sum(degs) != degsum:
                    continue
                d = [0] * g.n
                for v, dv in zip(verts, degs):
                    d[v] = dv
                I = SheafData(g, supp, tuple(d), nonfree)
                if is_semistable(I, s):
                    out.append(I)
    return out


def oracle_deg_symmetry_key(g: DualGraph, members) -> tuple[int, ...]:
    """Least sorted image of a degeneracy subset's members over the
    automorphisms, each image computed by ``permute_mask``."""
    best = None
    for perm in g.automorphisms:
        image = tuple(sorted(permute_mask(Y, perm) for Y in members))
        if best is None or image < best:
            best = image
    return best


def oracle_minimal_elements(D) -> frozenset[int]:
    """Members Y of a degeneracy subset with no other member W inside Y
    whose difference Y - W is biconnected, by comparing every pair."""
    bcon = set(D.graph.biconnected_subcurves)
    return frozenset(
        Y for Y in D.members
        if not any(
            W != Y and W & Y == W and (Y ^ W) in bcon
            for W in D.members
        )
    )


def oracle_maximal_chain_lengths(n: int, covers) -> set[int]:
    """The length of every maximal chain of a cover DAG on n nodes, by
    walking each path of covers from a node with none below it to a node
    with none above it."""
    ups = {v: [] for v in range(n)}
    has_lower = set()
    for lo, hi in covers:
        ups[lo].append(hi)
        has_lower.add(hi)
    lengths = set()
    stack = [(v, 0) for v in range(n) if v not in has_lower]
    while stack:
        v, length = stack.pop()
        if not ups[v]:
            lengths.add(length)
        stack.extend((w, length + 1) for w in ups[v])
    return lengths


def oracle_closure_from(g: DualGraph, generators) -> frozenset[int]:
    """Disjoint-union closure as a fixpoint: add the union of every
    admissible pair inside the set until nothing is added."""
    members = set(generators)
    grew = True
    while grew:
        grew = False
        for A, B, U in g.admissible_pairs:
            if A in members and B in members and U not in members:
                members.add(U)
                grew = True
    return frozenset(members)


def oracle_check_deg_witness(D1, D2, E) -> bool:
    """Whether E certifies D1 >= D2, with the pair rule and the triple rule
    checked by two separate double loops over D2 - D1."""
    if not D1.members <= D2.members:
        return False
    full = D1.graph.full_mask
    diff = D2.members - D1.members
    Ec = frozenset(full ^ Y for Y in E)
    if E | Ec != diff or E & Ec:
        return False
    for Z1 in diff:
        for Z2 in diff:
            if Z1 < Z2 and not Z1 & Z2 and (Z1 | Z2) in D1.members:
                if (Z1 in E) + (Z2 in E) != 1:
                    return False
    dlist = sorted(diff)
    for i, Z1 in enumerate(dlist):
        for j in range(i + 1, len(dlist)):
            Z2 = dlist[j]
            if Z1 & Z2:
                continue
            Z3 = full ^ (Z1 | Z2)
            if Z3 > Z2 and Z3 in diff:
                if (Z1 in E) + (Z2 in E) + (Z3 in E) not in (1, 2):
                    return False
    return True


def all_subcurves(g: DualGraph):
    return range(1 << g.n)


def proper_nonempty(g: DualGraph):
    return range(1, g.full_mask)


def oracle_validate(s) -> ValidationReport:
    """The triple validator as written before the value tables: one
    ``value`` call or pair-sum test per lookup."""
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
        dgs = [oracle_is_degenerate(s, Z) for Z in (Y1, Y2, Y3)]
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
        d1, d2, dU = (oracle_is_degenerate(s, Z) for Z in (Y1, Y2, U))
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


def oracle_ceiling(p) -> tuple[int, ...]:
    """The ceiling map as written before the integer tables: one
    ``math.ceil`` of a Fraction sum per biconnected subcurve."""
    return tuple(
        math.ceil(sum((p.psi[v] for v in vertices_of(Y)), Fraction(0)))
        for Y in p.graph.biconnected_subcurves
    )


def oracle_is_classical(s):
    """The classicality decider as written before the integer elimination,
    all in ``Fraction`` arithmetic: the witness psi tuple, or None."""
    g = s.graph
    n = g.n
    equalities = [([1] * n, Fraction(s.chi))]
    inequalities = []
    for Y in g.biconnected_subcurves:
        ind = [1 if (Y >> v) & 1 else 0 for v in range(n)]
        if oracle_is_degenerate(s, Y):
            equalities.append((ind, Fraction(s.value(Y))))
        else:
            inequalities.append((ind, Fraction(s.value(Y)), True))
            inequalities.append(([-c for c in ind], Fraction(1 - s.value(Y)), True))
    solved = _oracle_solve_equalities(equalities, n)
    if solved is None:
        return None
    pivots, free = solved
    reduced = [
        _oracle_substitute(coeffs, bound, pivots, free) + (strict,)
        for coeffs, bound, strict in inequalities
    ]
    assignment_free = oracle_fm_witness(reduced, len(free))
    if assignment_free is None:
        return None
    values = {free[i]: assignment_free[i] for i in range(len(free))}
    for var, (const, lin) in pivots.items():
        values[var] = const + sum(c * values[f] for f, c in lin.items())
    return tuple(values[v] for v in range(n))


def _oracle_solve_equalities(rows, n):
    mat = [[Fraction(c) for c in coeffs] + [Fraction(rhs)] for coeffs, rhs in rows]
    pivot_cols = []
    r = 0
    for col in range(n):
        sel = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        pv = mat[r][col]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivot_cols.append(col)
        r += 1
    if any(mat[i][n] != 0 for i in range(r, len(mat))):
        return None
    free = [c for c in range(n) if c not in pivot_cols]
    pivots = {}
    for i, col in enumerate(pivot_cols):
        lin = {f: -mat[i][f] for f in free if mat[i][f] != 0}
        pivots[col] = (mat[i][n], lin)
    return pivots, free


def _oracle_substitute(coeffs, bound, pivots, free):
    row = {f: Fraction(0) for f in free}
    rhs = Fraction(bound)
    for var, c in enumerate(coeffs):
        if c == 0:
            continue
        if var in pivots:
            const, lin = pivots[var]
            rhs -= c * const
            for f, lc in lin.items():
                row[f] += c * lc
        else:
            row[var] += c
    return tuple(row[f] for f in free), rhs


def _oracle_normalize(row, rhs):
    scale = 1
    for c in row:
        scale = scale * c.denominator // gcd(scale, c.denominator)
    ints = [int(c * scale) for c in row]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    if g == 0:
        return (0,) * len(ints), rhs * scale
    return tuple(c // g for c in ints), rhs * Fraction(scale, g)


def oracle_fm_witness(inequalities, nvars):
    """Fourier-Motzkin on Fraction rows ``(coeffs, bound, strict)``: a
    satisfying point (list of Fractions) or None."""
    def admit(live, row, rhs, strict):
        key, bound = _oracle_normalize(row, rhs)
        if not any(key):
            return bound > 0 if strict else bound >= 0
        live[key] = tighter(live.get(key), (bound, strict))
        return True

    def tighter(old, new):
        if old is None or new[0] < old[0]:
            return new
        if new[0] == old[0] and new[1] and not old[1]:
            return new
        return old

    live = {}
    for row, rhs, strict in inequalities:
        if not admit(live, tuple(Fraction(c) for c in row), Fraction(rhs), strict):
            return None
    stages = []
    current = [(k, b, st) for k, (b, st) in live.items()]
    for var in range(nvars):
        stages.append(current)
        uppers = [(k, b, st) for k, b, st in current if k[var] > 0]
        lowers = [(k, b, st) for k, b, st in current if k[var] < 0]
        live = {}
        for k, b, st in current:
            if k[var] == 0:
                live[k] = tighter(live.get(k), (b, st))
        for ku, bu, stu in uppers:
            for kl, bl, stl in lowers:
                a, c = ku[var], -kl[var]
                row = tuple(Fraction(c * ku[i] + a * kl[i]) for i in range(nvars))
                if not admit(live, row, c * bu + a * bl, stu or stl):
                    return None
        current = [(k, b, st) for k, (b, st) in live.items()]
    values = [Fraction(0)] * nvars
    for var in range(nvars - 1, -1, -1):
        lo = hi = None
        lo_strict = hi_strict = False
        for k, b, st in stages[var]:
            c = k[var]
            if c == 0:
                continue
            t = (b - sum(k[i] * values[i] for i in range(var + 1, nvars))) / c
            if c > 0:
                if hi is None or t < hi:
                    hi, hi_strict = t, st
                elif t == hi:
                    hi_strict = hi_strict or st
            else:
                if lo is None or t > lo:
                    lo, lo_strict = t, st
                elif t == lo:
                    lo_strict = lo_strict or st
        if lo is not None and hi is not None:
            values[var] = (lo + hi) / 2
        elif lo is not None:
            values[var] = lo + 1
        elif hi is not None:
            values[var] = hi - 1
    return values


def oracle_solve_integer(A, b):
    """One integer solution of A x = b, or None: the column-style Hermite
    reduction that decided chip-firing orbits before the shared fraction-free
    elimination.

    Columns are combined with unimodular operations until each row meets at
    most one new pivot column, then substituted forward with divisibility
    checks.  Columns beyond the pivots are reduced to zero, so free
    components may be taken zero.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    H = [row[:] for row in A]
    C = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_cols(i, j):
        for row in H:
            row[i], row[j] = row[j], row[i]
        for row in C:
            row[i], row[j] = row[j], row[i]

    def add_col(src, dst, f):
        for row in H:
            row[dst] += f * row[src]
        for row in C:
            row[dst] += f * row[src]

    col = 0
    pivot_of_row = {}
    for r in range(m):
        if col >= n:
            break
        while True:
            nz = [j for j in range(col, n) if H[r][j] != 0]
            if not nz:
                break
            j0 = min(nz, key=lambda j: (abs(H[r][j]), j))
            if j0 != col:
                swap_cols(col, j0)
            done = True
            for j in range(col + 1, n):
                if H[r][j]:
                    q = H[r][j] // H[r][col]
                    if q:
                        add_col(col, j, -q)
                    if H[r][j]:
                        done = False
            if done:
                break
        if col < n and H[r][col] != 0:
            pivot_of_row[r] = col
            col += 1

    w = [0] * n
    for r in range(m):
        residual = b[r] - sum(H[r][j] * w[j] for j in range(n) if H[r][j])
        p = pivot_of_row.get(r)
        if p is not None and w[p] == 0 and H[r][p] != 0:
            if residual % H[r][p] != 0:
                return None
            w[p] = residual // H[r][p]
        elif residual != 0:
            return None
    # re-check rows whose pivot was assigned later than first use
    for r in range(m):
        if sum(H[r][j] * w[j] for j in range(n)) != b[r]:
            return None
    return [sum(C[i][j] * w[j] for j in range(n)) for i in range(n)]


def oracle_same_orbit_elimination(g: DualGraph, d1, d2):
    """``same_orbit``'s (flag, witness) by the fraction-free elimination
    that decided chip-firing orbits before the per-graph inverse table:
    L x = d1 - d2 through ``graphs.solve_equalities``, the free variable
    (the last; the kernel is the constants) set to zero; an integer
    solution exists iff every pivot value r / D is an integer."""
    if sum(d1) != sum(d2):
        return False, None
    diff = [a - b for a, b in zip(d1, d2)]
    pivots, _ = solve_equalities(list(zip(laplacian(g), diff)), g.n)
    x = [0] * g.n
    for p, (D, _, r) in pivots.items():
        if r % D:
            return False, None
        x[p] = r // D
    return True, tuple(v - min(x) for v in x)

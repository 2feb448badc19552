"""One-parameter degeneration calculus for line-bundle multidegrees.

Twisting the family by a subcurve of the special fiber changes the
multidegree by chip-firing: the twisted subcurve gains one for every edge
to its complement, the outside loses correspondingly, and the total
degree is conserved.  The orbit of this action is the image of the graph
Laplacian lattice; membership is decided by exact Hermite reduction.

The limit algorithm repeatedly twists by the stabilized union of maximal
minimizers of the beta function (chi of the restriction minus the
extended stability value) until beta is nonnegative on every biconnected
subcurve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DomainMismatch, NonTermination
from .graphs import DualGraph, vertices_of
from .stability import VStability, extended_value_table

Multidegree = tuple[int, ...]


def twist(g: DualGraph, d, Y: int) -> Multidegree:
    """Chip-firing twist by a subcurve: degree rises on Y by its outward
    valence, falls outside accordingly.  Twisting by the whole curve or by
    nothing is the identity."""
    if len(d) != g.n:
        raise DomainMismatch("one degree per component required")
    delta = g.twist_deltas[Y]
    return tuple(int(a) + b for a, b in zip(d, delta))


def line_bundle_chi(g: DualGraph, d, Z: int) -> int:
    """chi of the restriction to Z of the line bundle with multidegree d."""
    return g.line_chi_base[Z] + sum(d[v] for v in vertices_of(Z))


def beta(d, s: VStability, Z: int) -> int:
    """chi of the restriction to Z minus the extended stability value;
    nonnegativity on all biconnected subcurves is semistability."""
    return line_bundle_chi(s.graph, d, Z) - s.extended_value(Z)


def _beta_all(g: DualGraph, d, ext) -> list[int]:
    """beta over every mask (index = mask); the empty subcurve gets 0."""
    full = g.full_mask
    base = g.line_chi_base
    dsum = [0] * (full + 1)
    out = [0] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & (-mask)
        dsum[mask] = dsum[mask ^ low] + d[low.bit_length() - 1]
        out[mask] = dsum[mask] + base[mask] - ext[mask]
    return out


def twisting_subcurve(d, s: VStability, start: int = None) -> int:
    """Stabilized union of beta minimizers grown from a starting minimizer.

    The default start is a maximal subcurve realizing the beta minimum
    (ties broken by lowest canonical mask among the inclusion-maximal
    minimizers).  The original multidegree twisted by the current union is
    re-measured, and the union grows by a minimizer not yet contained
    whenever the minimum has not risen above the original one.

    The set of minimizers need not be closed under union, so for an
    unstable multidegree the grown union can degenerate to the whole
    curve, where twisting is trivial; the limit iteration falls back to
    other starting minimizers in that case.
    """
    g = s.graph
    ext = extended_value_table(s)
    betas0 = _beta_all(g, d, ext)
    m0 = min(betas0)
    if start is None:
        start = _max_minimizer([Z for Z, b in enumerate(betas0) if b == m0])
    elif betas0[start] != m0:
        raise ValueError("the starting subcurve must realize the beta minimum")
    Y = start
    while True:
        dk = twist(g, d, Y)
        betas = _beta_all(g, dk, ext)
        mk = min(betas)
        if mk > m0:
            return Y
        growers = [Z for Z, b in enumerate(betas) if b == mk and Z & ~Y]
        if not growers:
            return Y
        Y |= _max_minimizer(growers)


def _max_minimizer(minimizers: list[int]) -> int:
    """Lowest-mask inclusion-maximal member."""
    maximal = [
        Z for Z in minimizers
        if not any(W != Z and W & Z == Z for W in minimizers)
    ]
    return min(maximal)


def _minimizer_starts(g: DualGraph, betas: list[int]) -> list[int]:
    """Starting candidates for the growth iteration: the default maximal
    choice first, then every other minimizer, small ones early."""
    m = min(betas)
    minimizers = [Z for Z, b in enumerate(betas) if b == m]
    first = _max_minimizer(minimizers)
    rest = sorted(
        (Z for Z in minimizers if Z != first),
        key=lambda Z: (bin(Z).count("1"), Z),
    )
    return [first] + rest


@dataclass(frozen=True)
class LimitStep:
    subcurve: int
    beta_min: int
    multidegree: Multidegree
    lemma_step: bool = True      # full post-twist inequality (strict off Y)


@dataclass(frozen=True)
class LimitTrace:
    start: Multidegree
    steps: tuple[LimitStep, ...]
    result: Multidegree

    @property
    def used_fallback(self) -> bool:
        return any(not st.lemma_step for st in self.steps)


def esteves_limit(d0, s: VStability) -> tuple[Multidegree, LimitTrace]:
    """Twist until beta is nonnegative on all biconnected subcurves;
    returns the semistable multidegree and the audit trace.

    The primary walk twists by stabilized minimizer unions.  Minimizers
    need not be closed under union, so a stabilized union can degenerate
    to the whole curve (a trivial twist); the walk therefore backtracks
    over the per-step choice of starting minimizer.  Steps on this walk
    satisfy the full post-twist inequality (beta after twisting dominates
    the previous minimum, strictly off the twisted subcurve), which is
    asserted.

    Sometimes every such walk dead-ends: no proper subcurve twist
    satisfies the strict inequality at some reachable multidegree.  This
    is not rare: it happened in about 18% of the runs of the benchmark's
    ``limits`` workload (C5, C6, K4 with a 2-path, K5), and on C5, over
    every orbit and the degree box of acceptance criterion 09, in 15% of
    the runs for general stabilities and 12% for degenerate ones.  The
    search then completes with a breadth-first walk over monotone twists
    (minimum beta never decreases), whose steps are flagged as
    non-lemma steps in the trace.  Expansion caps guard termination;
    exceeding them raises NonTermination and has never been observed.
    """
    g = s.graph
    d0 = tuple(int(x) for x in d0)
    if line_bundle_chi(g, d0, g.full_mask) != s.chi:
        raise DomainMismatch(
            "total degree inconsistent with the stability characteristic"
        )
    ext = extended_value_table(s)
    bcon = g.biconnected_subcurves
    full = g.full_mask
    betas0 = _beta_all(g, d0, ext)
    cap = (max(1, -min(betas0)) + 2) * (full + 2) * 8

    def semistable(betas):
        return all(betas[Z] >= 0 for Z in bcon)

    visited: set[Multidegree] = set()
    steps: list[LimitStep] = []

    def dfs(d, betas):
        if semistable(betas):
            return d
        if d in visited:
            return None
        visited.add(d)
        if len(visited) > cap:
            raise NonTermination("twist search exceeded its expansion bound")
        old_min = min(betas)
        tried = []
        for start in _minimizer_starts(g, betas):
            Y = twisting_subcurve(d, s, start=start)
            if Y == full or Y in tried:
                continue
            tried.append(Y)
            d2 = twist(g, d, Y)
            nb = _beta_all(g, d2, ext)
            if not _post_twist_holds(nb, old_min, Y):
                raise AssertionError("post-twist beta inequality violated")
            if sum(d2) != sum(d0):
                raise AssertionError("twist changed the total degree")
            steps.append(LimitStep(Y, old_min, d2))
            found = dfs(d2, nb)
            if found is not None:
                return found
            steps.pop()
        return None

    result = dfs(d0, betas0)
    if result is not None:
        return result, LimitTrace(d0, tuple(steps), result)
    return _monotone_completion(g, s, ext, d0, betas0, cap)


def _monotone_completion(g, s, ext, d0, betas0, cap):
    """Best-first walk of monotone twists (minimum beta non-decreasing) to
    a semistable multidegree; used when the stabilized-union walk
    dead-ends."""
    import heapq

    bcon = g.biconnected_subcurves
    full = g.full_mask
    shifts = g.subset_sum_shifts
    deltas = g.twist_deltas

    def badness(betas):
        return -sum(betas[Z] for Z in bcon if betas[Z] < 0)

    parent = {d0: None}
    counter = 0
    heap = [(badness(betas0), 0, d0, betas0)]
    goal = None
    while heap:
        bad, _, d, betas = heapq.heappop(heap)
        if bad == 0:
            goal = d
            break
        m = min(betas)
        for Y in range(1, full):
            d2 = tuple(a + b for a, b in zip(d, deltas[Y]))
            if d2 in parent:
                continue
            shift = shifts[Y]
            nb = [b + sh for b, sh in zip(betas, shift)]
            if min(nb) < m:
                continue
            parent[d2] = (d, Y, m)
            if len(parent) > cap:
                raise NonTermination("monotone completion exceeded its bound")
            counter += 1
            heapq.heappush(heap, (badness(nb), counter, d2, nb))
    if goal is None:
        raise NonTermination("no monotone twist path reached a semistable point")
    chain = []
    node = goal
    while parent[node] is not None:
        prev, Y, m = parent[node]
        lemma = _post_twist_holds(_beta_all(g, node, ext), m, Y)
        chain.append(LimitStep(Y, m, node, lemma))
        node = prev
    chain.reverse()
    return goal, LimitTrace(d0, tuple(chain), goal)


def _post_twist_holds(betas, old_min: int, Y: int) -> bool:
    """The lemma's post-twist inequality for the betas after twisting by Y:
    at least the previous minimum on every nonempty subcurve, strictly
    above it off Y."""
    return all(
        betas[Z] > old_min or (betas[Z] == old_min and not Z & ~Y)
        for Z in range(1, len(betas))
    )


# -- the chip-firing orbit ---------------------------------------------------------


def laplacian(g: DualGraph) -> list[list[int]]:
    """Graph Laplacian (valence minus adjacency); loops do not contribute."""
    n = g.n
    mult = g.multiplicity
    L = [[0] * n for _ in range(n)]
    for v in range(n):
        for w in range(n):
            if v != w:
                L[v][w] = -mult[v][w]
        L[v][v] = sum(mult[v][w] for w in range(n) if w != v)
    return L


def solve_integer(A: list[list[int]], b: list[int]) -> Optional[list[int]]:
    """One integer solution of A x = b, or None.

    Column-style Hermite reduction: combine columns with unimodular
    operations until each row meets at most one new pivot column, then
    substitute forward with divisibility checks.  Columns beyond the
    pivots are reduced to zero, so free components may be taken zero.
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


def same_orbit(g: DualGraph, d1, d2):
    """Whether two multidegrees differ by chip-firing twists.

    Twist vectors of single components span the image of the graph
    Laplacian (modulo the all-ones relation); membership is decided by
    exact integer elimination.  Returns (flag, witness) with the witness a
    twist multiplicity vector normalized to minimum entry zero.
    """
    d1 = tuple(int(x) for x in d1)
    d2 = tuple(int(x) for x in d2)
    if len(d1) != g.n or len(d2) != g.n:
        raise DomainMismatch("one degree per component required")
    if sum(d1) != sum(d2):
        return False, None
    diff = [a - b for a, b in zip(d1, d2)]
    x = solve_integer(laplacian(g), diff)
    if x is None:
        return False, None
    shift = min(x)
    witness = tuple(v - shift for v in x)
    applied = d2
    for v, times in enumerate(witness):
        for _ in range(times):
            applied = twist(g, applied, 1 << v)
    if applied != d1:
        raise AssertionError("orbit witness failed to reproduce the difference")
    return True, witness

"""Enumeration of small connected multigraphs up to isomorphism.

Used by the evidence scanner and by the exhaustive test sweeps.  All
genera default to zero; tests add genus labels where they matter.

The catalogue is built by orderly generation (Read 1978; McKay 1998) on
Read's prefix lemma: if a sorted loopless edge tuple is the least of its
relabellings (``is_canonical``), so is the tuple without its last edge.
Proof: if a relabelling made the prefix smaller, inserting the image of
the last edge into the sorted image could only lower each order
statistic, and the last edge is the largest entry of the tuple, so the
whole tuple's sorted image would be smaller too.  So for each vertex
count n, the level of m edges is every canonical extension t + (e,) of a
level m - 1 tuple t by a slot e >= t[-1], except the tuples whose
components the edges left before max_edges cannot join: their extensions
cannot be connected either.  Other disconnected tuples stay in the levels;
the connected ones with m >= n - 1 are the output.  Extending
in order keeps each level in lexicographic order, so the catalogue is
ordered by n, then m, then edge tuple.
"""

from __future__ import annotations

import math

from .graphs import DualGraph, adjacency_masks, component_of, components


def is_canonical(n: int, edges) -> bool:
    """Whether a sorted tuple of loopless edges (u, v), u < v, on vertices
    0..n-1 is the lexicographically least sorted edge tuple among all its
    relabellings.

    Among edge tuples of one length, a lexicographically smaller sorted
    tuple is a lexicographically larger multiplicity string, read row by
    row over the slots (0,1), (0,2), ..., (1,2), ....  So the question is
    whether some relabelling, image vertex k taken from old vertex
    sigma[k], gives a larger string.  Row 0 of the image is the old row of
    sigma[0] permuted, so it is at most that row sorted descending; the
    search tries as sigma[0] only the vertices whose sorted row ties row 0,
    and at each later position only the vertices with the multiplicity to
    sigma[0] that row 0 requires there.  Row 1 is compared entry by entry
    as the positions fill, and the remaining rows once sigma is complete;
    the search returns at the first relabelling with a larger string.
    """
    A = [[0] * n for _ in range(n)]
    for u, v in edges:
        A[u][v] += 1
        A[v][u] += 1
    row0 = A[0][1:]
    if any(row0[k] < row0[k + 1] for k in range(n - 2)):
        return False
    heads = []
    for v in range(n):
        row = sorted(A[v][:v] + A[v][v + 1:], reverse=True)
        if row > row0:
            return False
        if row == row0:
            heads.append(v)

    sigma = [0] * n
    for v in heads:
        sigma[0] = v
        if _larger(A, row0, sigma, 1, 1 << v):
            return False
    return True


def _larger(A, row0, sigma, l: int, used: int) -> bool:
    """Some completion of sigma[:l] gives a larger string than the
    multiplicity rows ``A`` (the search of ``is_canonical``)."""
    n = len(A)
    if l == n:
        for i in range(2, n):
            Ai, Bi = A[i], A[sigma[i]]
            for j in range(i + 1, n):
                if Bi[sigma[j]] != Ai[j]:
                    return Bi[sigma[j]] > Ai[j]
        return False
    head = A[sigma[0]]
    for w in range(n):
        if used >> w & 1 or head[w] != row0[l - 1]:
            continue
        if l >= 2:
            b, a = A[sigma[1]][w], A[1][l]
            if b < a:
                continue
            if b > a:
                return True
        sigma[l] = w
        if _larger(A, row0, sigma, l + 1, used | 1 << w):
            return True
    return False


def walk_size(max_vertices: int, max_edges: int, cap: int) -> int:
    """Number of edges in all the sorted edge multisets on n <= max_vertices
    vertices with n - 1 to max_edges edges, the sum over n and m of
    m * C(C(n,2)+m-1, m), or the first partial sum above ``cap``: a bound,
    taken without building anything, on the edges the catalogue can hold.

    Since m * C(k+m-1, m) = k * C(k+m-1, m-1), each n contributes
    k * (C(k+max_edges, k+1) - C(k+n-2, k+1)) for its k = C(n,2) slots (the
    hockey-stick sum over m), so the count takes one step per vertex count
    and stops as soon as it passes cap.
    """
    total = 0
    for n in range(2, min(max_vertices, max_edges + 1) + 1):
        k = n * (n - 1) // 2
        total += k * (math.comb(k + max_edges, k + 1) - math.comb(k + n - 2, k + 1))
        if total > cap:
            break
    return total


def connected_multigraphs(max_vertices: int, max_edges: int) -> list[DualGraph]:
    """All loopless connected multigraphs with at most the given vertices
    and edges, one representative per isomorphism class in its least
    relabelling, genera all zero.

    Loops are never generated: they are invisible to the subcurve
    combinatorics (connectivity, biconnectedness, stability) and only
    shift genus bookkeeping.  A vertex count stops at its first empty
    level, and none above max_edges + 1 is tried: such graphs cannot be
    connected.
    """
    out = []
    for n in range(1, min(max_vertices, max_edges + 1) + 1):
        slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
        full = (1 << n) - 1
        level = [()]
        for m in range(max_edges + 1):
            if m:
                # c components need c - 1 more edges to join, so a tuple
                # with more than spare + 1 cannot become connected, nor can
                # its extensions; it is dropped before its canonicity test
                spare = max_edges - m
                level = [u for t in level
                         for e in slots[slots.index(t[-1]) if t else 0:]
                         for u in [t + (e,)]
                         if (spare >= n - 1
                             or len(components(adjacency_masks(n, u), full)) <= spare + 1)
                         and is_canonical(n, u)]
                if not level:
                    break
            if m >= n - 1:
                out.extend(DualGraph((0,) * n, t) for t in level
                           if component_of(adjacency_masks(n, t), full, 1) == full)
    return out

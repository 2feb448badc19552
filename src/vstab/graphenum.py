"""Enumeration of small connected multigraphs up to isomorphism.

Used by the evidence scanner and by the exhaustive test sweeps.  All
genera default to zero; tests add genus labels where they matter.

The catalogue is built by orderly generation (Read 1978; McKay 1998,
"Isomorph-free exhaustive generation").  For each vertex count n and edge
count m, ``itertools.combinations_with_replacement`` yields the sorted
edge tuples in lexicographic order, so every isomorphism class is first
met at its lexicographically least member.  A combination is kept exactly
when it is connected and is that least member of its class
(``is_canonical``), so the catalogue holds one representative per class,
each in its least relabelling, in the order of those least members: the
same graphs in the same order as keeping the first member met of each
class and replacing it by its least relabelling.
"""

from __future__ import annotations

import itertools
import math

from .graphs import DualGraph, adjacency_masks, component_of


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
    """Number of edge multisets ``connected_multigraphs(max_vertices,
    max_edges)`` walks, the sum over n and m of C(C(n,2)+m-1, m), or the
    first partial sum above ``cap``.

    Each n contributes C(k+max_edges, k) - C(k+n-2, k) for its k = C(n,2)
    slots (the hockey-stick sum over m from n-1 to max_edges), so the count
    takes one step per vertex count and stops as soon as it passes cap.
    """
    total = 0
    for n in range(1, min(max_vertices, max_edges + 1) + 1):
        k = n * (n - 1) // 2
        total += math.comb(k + max_edges, k) - math.comb(k + n - 2, k) if k else 1
        if total > cap:
            break
    return total


def connected_multigraphs(max_vertices: int, max_edges: int) -> list[DualGraph]:
    """All loopless connected multigraphs with at most the given vertices
    and edges, one representative per isomorphism class in its least
    relabelling, genera all zero.

    Loops are never generated: they are invisible to the subcurve
    combinatorics (connectivity, biconnectedness, stability) and only
    shift genus bookkeeping.
    """
    out = []
    for n in range(1, max_vertices + 1):
        slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
        full = (1 << n) - 1
        for m in range(n - 1, max_edges + 1):
            for combo in itertools.combinations_with_replacement(slots, m):
                if (component_of(adjacency_masks(n, combo), full, 1) == full
                        and is_canonical(n, combo)):
                    out.append(DualGraph((0,) * n, combo))
    return out

"""Enumeration of small connected multigraphs up to isomorphism.

Used by the evidence scanner and by the exhaustive test sweeps.  All
genera default to zero; tests add genus labels where they matter.
"""

from __future__ import annotations

import itertools

from .graphs import DualGraph, adjacency_masks, component_of


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


def connected_multigraphs(max_vertices: int, max_edges: int) -> list[DualGraph]:
    """All loopless connected multigraphs with at most the given vertices
    and edges, one representative per isomorphism class, genera all zero.

    Loops are never generated: they are invisible to the subcurve
    combinatorics (connectivity, biconnectedness, stability) and only
    shift genus bookkeeping.
    """
    out = []
    for n in range(1, max_vertices + 1):
        slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
        full = (1 << n) - 1
        seen = set()
        for m in range(n - 1, max_edges + 1):
            for combo in itertools.combinations_with_replacement(slots, m):
                if component_of(adjacency_masks(n, combo), full, 1) != full:
                    continue
                key = canonical_edge_form(n, combo)
                if key in seen:
                    continue
                seen.add(key)
                out.append(DualGraph((0,) * n, key))
    return out

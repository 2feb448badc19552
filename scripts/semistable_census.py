#!/usr/bin/env python3
"""Count semistable line-bundle multidegrees per stability orbit.

For each small graph, enumerate the orbit representatives, count the
semistable multidegrees in one total-degree class for each, and report the
counts next to the number of spanning trees.  The count is observed to be
constant across general orbits and to match the spanning-tree number; this
script reports the data without asserting it.
"""

import argparse
import itertools

from vstab.graphenum import connected_multigraphs
from vstab.limits import _beta_all, laplacian
from vstab.posets import enumerate_orbits
from vstab.stability import extended_value_table


def spanning_tree_count(g):
    """Kirchhoff count via integer determinant of a reduced Laplacian."""
    L = laplacian(g)
    n = g.n
    if n == 1:
        return 1
    M = [[L[i][j] for j in range(1, n)] for i in range(1, n)]
    # fraction-free Gaussian elimination (Bareiss)
    prev = 1
    for k in range(n - 2):
        if M[k][k] == 0:
            swap = next(
                (i for i in range(k + 1, n - 1) if M[i][k] != 0), None
            )
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
        for i in range(k + 1, n - 1):
            for j in range(k + 1, n - 1):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return abs(M[n - 2][n - 2])


def census(g, window=4):
    need = -g.line_chi_base[g.full_mask]   # degree sum at characteristic 0
    vectors = [
        d for d in itertools.product(range(-window, window + 1), repeat=g.n)
        if sum(d) == need
    ]
    rows = []
    for s in enumerate_orbits(g):
        ext = extended_value_table(s)
        count = 0
        for d in vectors:
            betas = _beta_all(g, d, ext)
            if all(betas[Z] >= 0 for Z in g.biconnected_subcurves):
                count += 1
        rows.append((s.values, s.is_general(), count))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-vertices", type=int, default=4)
    parser.add_argument("--max-edges", type=int, default=5)
    parser.add_argument("--window", type=int, default=4)
    args = parser.parse_args()

    for g in connected_multigraphs(args.max_vertices, args.max_edges):
        rows = census(g, args.window)
        general_counts = sorted({c for _, gen, c in rows if gen})
        print(
            f"graph edges={list(g.edges)} spanning_trees={spanning_tree_count(g)} "
            f"orbits={len(rows)} general_semistable_counts={general_counts}"
        )
        for values, gen, count in rows:
            tag = "general" if gen else "degenerate"
            print(f"  {tag:10s} {count:4d}  values={list(values)}")


if __name__ == "__main__":
    main()

"""Dual graphs of connected nodal curves and subcurve combinatorics.

A curve is modelled by its dual graph: one vertex per irreducible component
(labelled with the geometric genus of that component), one edge per node.
Loops and parallel edges are allowed.  A subcurve is a union of components
and is encoded throughout as an ``int`` bitmask of width ``n``: bit ``v``
set means component ``v`` belongs to the subcurve.  Joins, meets and
complements are therefore ``|``, ``&`` and ``full_mask ^ Y``.

Loops are stored explicitly; they count towards genus and internal edges
but never towards connectivity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import DomainMismatch, EmptySubcurve, OverlappingSubcurves

MAX_VERTICES = 16

Edge = tuple[int, int]


def vertices_of(mask: int) -> list[int]:
    """Vertex indices contained in a subcurve mask, ascending; a negative
    mask has infinitely many bits and raises ValueError (the mask is not
    shown: a huge int has no decimal string)."""
    if mask < 0:
        raise ValueError("a subcurve mask is non-negative")
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return out


def exact_ints(values, what: str, error=TypeError) -> tuple[int, ...]:
    """``values`` as a tuple of exact integers: each entry an ``int`` itself,
    not a ``bool``, a float or any other type, which would be converted
    silently by ``int``.  Anything else raises ``error`` naming ``what``."""
    values = tuple(values)
    if not set(map(type, values)) <= {int}:
        bad = next(x for x in values if type(x) is not int)
        raise error(f"{what} must be an int, got {bad!r}")
    return values


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def subset_sums(weights) -> list[int]:
    """The sum of the per-vertex ``weights`` over every mask (index = mask),
    filled by lowest-bit recursion; the empty mask gets 0."""
    sums = [0] * (1 << len(weights))
    for mask in range(1, len(sums)):
        low = mask & (-mask)
        sums[mask] = sums[mask ^ low] + weights[low.bit_length() - 1]
    return sums


def solve_equalities(rows, n):
    """Fraction-free Gauss-Jordan elimination of integer rows
    ``(coeffs, rhs)``, each row kept primitive.  The pivot of a column is the
    first remaining row with a nonzero entry there.  Returns (pivots, free):
    ``pivots[p] = (D, a, r)`` with D != 0 means D*x_p + sum_i a[i]*x_free[i]
    = r; None when the system is inconsistent."""
    mat = [list(coeffs) + [rhs] for coeffs, rhs in rows]
    pivot_cols = []
    r = 0
    for col in range(n):
        sel = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        prow = mat[r]
        pv = prow[col]
        for i, row in enumerate(mat):
            f = row[col]
            if i != r and f:
                combined = [pv * x - f * y for x, y in zip(row, prow)]
                h = gcd(*combined)
                mat[i] = [x // h for x in combined] if h > 1 else combined
        pivot_cols.append(col)
        r += 1
    if any(row[n] for row in mat[r:]):
        return None
    free = [c for c in range(n) if c not in pivot_cols]
    pivots = {
        col: (row[col], tuple(row[f] for f in free), row[n])
        for row, col in zip(mat, pivot_cols)
    }
    return pivots, free


def adjacency_masks(n: int, edges) -> tuple[int, ...]:
    """Per vertex: the mask of its neighbours, loops ignored."""
    adj = [0] * n
    for u, v in edges:
        if u != v:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return tuple(adj)


def component_of(adj, mask: int, start: int) -> int:
    """The connected piece of ``mask`` containing the vertex bit ``start``,
    searched over the adjacency masks ``adj``."""
    seen = frontier = start
    while frontier:
        low = frontier & (-frontier)
        frontier ^= low
        new = adj[low.bit_length() - 1] & mask & ~seen
        seen |= new
        frontier |= new
    return seen


def components(adj, mask: int) -> list[int]:
    """Partition of ``mask`` into its connected pieces over ``adj``, in
    ascending order of their lowest vertex; the empty mask gives []."""
    out = []
    while mask:
        piece = component_of(adj, mask, mask & (-mask))
        out.append(piece)
        mask ^= piece
    return out


@dataclass(frozen=True)
class DualGraph:
    """Connected dual graph: per-component genera plus a node multiset.

    ``edges`` is kept canonically sorted (each pair ordered, list sorted
    lexicographically), so equal graphs compare and hash equal.
    """

    genera: tuple[int, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        genera = exact_ints(self.genera, "a genus")
        edges = tuple(sorted(
            (min(u, v), max(u, v))
            for u, v in (exact_ints(e, "an edge endpoint") for e in self.edges)
        ))
        object.__setattr__(self, "genera", genera)
        object.__setattr__(self, "edges", edges)
        n = len(genera)
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"number of components must be in 1..{MAX_VERTICES}")
        if any(g < 0 for g in genera):
            raise ValueError("genera must be non-negative")
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
        if not self.is_connected(self.full_mask):
            raise ValueError("underlying graph must be connected")

    # -- basic quantities -------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.genera)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def multiplicity(self) -> tuple[tuple[int, ...], ...]:
        """Edge multiplicities; loops counted on the diagonal."""
        m = [[0] * self.n for _ in range(self.n)]
        for u, v in self.edges:
            m[u][v] += 1
            if u != v:
                m[v][u] += 1
        return tuple(tuple(row) for row in m)

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        return adjacency_masks(self.n, self.edges)

    @cached_property
    def genus(self) -> int:
        """Arithmetic genus of the whole curve."""
        return self.subcurve_genus(self.full_mask)

    def complement(self, Y: int) -> int:
        return self.full_mask ^ Y

    def check_mask(self, Y: int, low: int = 0, what: str = "a subcurve") -> int:
        """Y, if it is an exact int (:func:`exact_ints`) and a subcurve mask
        in low..full_mask; else ``DomainMismatch``, whose message names the
        range and not the mask: a huge int has no decimal string."""
        if type(Y) is not int or not low <= Y <= self.full_mask:
            exact_ints((Y,), what, DomainMismatch)
            raise DomainMismatch(f"{what} is not a mask in {low}..{self.full_mask}")
        return Y

    # -- connectivity -----------------------------------------------------

    def is_connected(self, Y: int) -> bool:
        """Whether the induced multigraph on Y is connected (loops ignored)."""
        if Y == 0:
            raise EmptySubcurve("connectivity of the empty subcurve is undefined")
        return component_of(self.neighbor_masks, Y, Y & (-Y)) == Y

    def connected_components(self, Y: int) -> list[int]:
        """Partition of Y into maximal connected pieces; empty input gives []."""
        return components(self.neighbor_masks, Y)

    @cached_property
    def connected_subcurves(self) -> tuple[int, ...]:
        """All nonempty connected subcurve masks, ascending."""
        return tuple(Y for Y in range(1, self.full_mask + 1) if self.is_connected(Y))

    @cached_property
    def _connected_set(self) -> frozenset[int]:
        return frozenset(self.connected_subcurves)

    @cached_property
    def biconnected_subcurves(self) -> tuple[int, ...]:
        """Nonempty proper Y with Y and its complement connected, ascending."""
        full = self.full_mask
        con = self._connected_set
        return tuple(Y for Y in range(1, full) if Y in con and (full ^ Y) in con)

    @cached_property
    def bcon_index(self) -> dict[int, int]:
        return {Y: i for i, Y in enumerate(self.biconnected_subcurves)}

    @cached_property
    def bcon_pairs(self) -> tuple[tuple[int, int], ...]:
        """Complementary biconnected pairs (Y, Y^c) with Y < Y^c."""
        full = self.full_mask
        return tuple((Y, full ^ Y) for Y in self.biconnected_subcurves if Y < full ^ Y)

    @cached_property
    def covering_triples(self) -> tuple[tuple[int, int, int], ...]:
        """Unordered triples of pairwise-disjoint biconnected subcurves
        covering the whole curve, each sorted, in ascending order: each is
        met once, as Y1 < Y2 with the complement Y3 of their union above
        Y2, and the loop meets them in that order."""
        bcon = self.biconnected_subcurves
        index = self.bcon_index
        full = self.full_mask
        out = []
        for i, Y1 in enumerate(bcon):
            for Y2 in bcon[i + 1:]:
                Y3 = full ^ (Y1 | Y2)
                if not Y1 & Y2 and Y3 > Y2 and Y3 in index:
                    out.append((Y1, Y2, Y3))
        return tuple(out)

    @cached_property
    def admissible_pairs(self) -> tuple[tuple[int, int, int], ...]:
        """Unordered disjoint biconnected pairs whose union is biconnected,
        listed as (Y1, Y2, union)."""
        bcon = self.biconnected_subcurves
        index = self.bcon_index
        out = []
        for i, Y1 in enumerate(bcon):
            for Y2 in bcon[i + 1:]:
                if not Y1 & Y2 and Y1 | Y2 in index:
                    out.append((Y1, Y2, Y1 | Y2))
        return tuple(out)

    def biconnected_within(self, Y: int) -> tuple[int, ...]:
        """Biconnected subcurves of Y viewed as a curve in its own right:
        nonempty proper Z <= Y with Z and Y - Z connected, ascending."""
        con = self._connected_set
        out = []
        Z = (Y - 1) & Y
        while Z:
            if Z in con and Y ^ Z in con:
                out.append(Z)
            Z = (Z - 1) & Y
        out.reverse()
        return tuple(out)

    # -- edge counting ----------------------------------------------------

    def crossing_edges(self, A: int, B: int) -> tuple[int, ...]:
        """Indices of the edges joining disjoint A and B, ascending."""
        if A & B:
            raise OverlappingSubcurves(f"subcurves {A:b} and {B:b} overlap")
        return tuple(
            i for i, (u, v) in enumerate(self.edges)
            if ((A >> u) & 1 and (B >> v) & 1) or ((A >> v) & 1 and (B >> u) & 1)
        )

    def edges_between(self, A: int, B: int) -> int:
        """Number of edges joining disjoint A and B, with multiplicity."""
        return len(self.crossing_edges(A, B))

    def internal_edges(self, Y: int) -> tuple[int, ...]:
        """Indices of edges with both endpoints in Y; loops at Y included."""
        return tuple(
            i for i, (u, v) in enumerate(self.edges)
            if (Y >> u) & 1 and (Y >> v) & 1
        )

    def internal_edge_count(self, Y: int) -> int:
        return len(self.internal_edges(Y))

    @cached_property
    def twist_deltas(self) -> tuple[tuple[int, ...], ...]:
        """Per subcurve mask: the chip-firing degree change of a twist, the
        graph Laplacian applied to the mask's indicator.  Loops do not
        contribute, and the Laplacian is symmetric, so entry v is the
        subset sum of row v over the mask."""
        rows = []
        for v, mult in enumerate(self.multiplicity):
            row = [-m for m in mult]
            row[v] = sum(mult) - mult[v]
            rows.append(subset_sums(row))
        return tuple(zip(*rows))

    @cached_property
    def subset_sum_shifts(self) -> tuple[tuple[int, ...], ...]:
        """Per twist subcurve Y and per mask: the change of the degree sum
        over the mask under the twist by Y."""
        return tuple(tuple(subset_sums(delta)) for delta in self.twist_deltas)

    @cached_property
    def reduced_laplacian_inverse(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(k, A): the inverse of the Laplacian with its last row and column
        deleted is A / k, with A an integer matrix and k the least common
        denominator of its entries.  The reduced Laplacian of a connected
        graph is invertible, and its determinant, the number of spanning
        trees, is a multiple of k.  Its columns are solved one unit vector
        at a time by :func:`solve_equalities`; one component gives (1, ())."""
        m = self.n - 1
        rows = [self.twist_deltas[1 << v][:m] for v in range(m)]
        cols = []
        for j in range(m):
            pivots, _ = solve_equalities(
                [(row, int(i == j)) for i, row in enumerate(rows)], m
            )
            cols.append([Fraction(pivots[i][2], pivots[i][0]) for i in range(m)])
        k = lcm(*(x.denominator for col in cols for x in col))
        A = tuple(
            tuple(col[i].numerator * (k // col[i].denominator) for col in cols)
            for i in range(m)
        )
        return k, A

    @cached_property
    def line_chi_base(self) -> tuple[int, ...]:
        """Per mask: chi of the degree-0 line bundle on that subcurve
        (component terms minus internal edges); chi of any multidegree is
        this plus the degree sum."""
        return tuple(
            c - self.internal_edge_count(Y)
            for Y, c in enumerate(subset_sums([1 - x for x in self.genera]))
        )

    def subcurve_genus(self, Y: int) -> int:
        """Arithmetic genus of the subcurve Y (0 for the empty subcurve)."""
        if Y == 0:
            return 0
        pieces = self.connected_components(Y)
        return (
            self.internal_edge_count(Y)
            - Y.bit_count()
            + len(pieces)
            + sum(self.genera[v] for v in vertices_of(Y))
        )

    # -- spanning tree ----------------------------------------------------

    @cached_property
    def spanning_tree(self) -> "SpanningTree":
        """Deterministic spanning tree: BFS from vertex 0, neighbours in
        ascending index, edge multiplicity collapsed, edges oriented
        parent -> child."""
        parent = {0: None}
        order = [0]
        queue = [0]
        adj = self.neighbor_masks
        while queue:
            v = queue.pop(0)
            for w in vertices_of(adj[v]):
                if w not in parent:
                    parent[w] = v
                    order.append(w)
                    queue.append(w)
        tree_edges = tuple((parent[v], v) for v in order[1:])
        # subtree mask under each child, computed leaf-upward
        sub = {v: 1 << v for v in range(self.n)}
        for v in reversed(order[1:]):
            sub[parent[v]] |= sub[v]
        child_masks = tuple(sub[c] for _, c in tree_edges)
        return SpanningTree(self.n, tree_edges, child_masks)

    # -- contraction ------------------------------------------------------

    def contract(self, contracted: "tuple[int, ...] | list[int]") -> tuple["DualGraph", "Contraction"]:
        """Contract the given edge indices.

        Quotient vertices are the connected components of (V, contracted);
        each quotient genus is the arithmetic genus of its fiber computed
        with the contracted edges only, and surviving internal edges become
        loops, so the total arithmetic genus is preserved.
        """
        F = sorted(set(contracted))
        for i in F:
            if not 0 <= i < len(self.edges):
                raise ValueError(f"edge index {i} out of range")
        fibers = tuple(components(
            adjacency_masks(self.n, (self.edges[i] for i in F)), self.full_mask
        ))
        vertex_map = tuple(
            next(t for t, fib in enumerate(fibers) if fib >> v & 1)
            for v in range(self.n)
        )
        genera = []
        for fib in fibers:
            in_fiber = sum(
                1 for i in F
                if (fib >> self.edges[i][0]) & 1 and (fib >> self.edges[i][1]) & 1
            )
            genera.append(
                in_fiber - fib.bit_count() + 1
                + sum(self.genera[v] for v in vertices_of(fib))
            )
        Fset = set(F)
        new_edges = tuple(
            (vertex_map[u], vertex_map[v])
            for i, (u, v) in enumerate(self.edges) if i not in Fset
        )
        target = DualGraph(tuple(genera), new_edges)
        return target, Contraction(self, target, tuple(F), vertex_map, fibers)

    def induced(self, Y: int) -> tuple["DualGraph", list[int]]:
        """Induced subgraph on a nonempty connected subcurve.

        Returns the new graph and the list of original vertex labels, in
        the order they were renamed to 0..k-1.
        """
        if Y == 0:
            raise EmptySubcurve("cannot induce on the empty subcurve")
        verts = vertices_of(Y)
        if not self.is_connected(Y):
            raise ValueError("induced subgraph must be connected")
        renumber = {v: i for i, v in enumerate(verts)}
        genera = tuple(self.genera[v] for v in verts)
        edges = tuple(
            (renumber[u], renumber[v])
            for u, v in self.edges
            if (Y >> u) & 1 and (Y >> v) & 1
        )
        return DualGraph(genera, edges), verts

    # -- symmetries ---------------------------------------------------------

    @cached_property
    def automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """All vertex permutations preserving genera and the edge multiset.

        Brute force over permutations; fine up to the CLI's bound of n <= 8
        (``cli.MAX_SYMMETRY_VERTICES``).
        """
        out = []
        canonical = self.edges
        for perm in itertools.permutations(range(self.n)):
            if any(self.genera[v] != self.genera[perm[v]] for v in range(self.n)):
                continue
            mapped = tuple(sorted(
                (min(perm[u], perm[v]), max(perm[u], perm[v]))
                for u, v in self.edges
            ))
            if mapped == canonical:
                out.append(perm)
        return tuple(out)

    @cached_property
    def automorphism_images(self) -> tuple[dict[int, int], ...]:
        """Per automorphism (in the order of :attr:`automorphisms`), the
        image of every biconnected subcurve mask."""
        return tuple(
            {Y: permute_mask(Y, perm) for Y in self.biconnected_subcurves}
            for perm in self.automorphisms
        )


def permute_mask(mask: int, perm: tuple[int, ...]) -> int:
    out = 0
    for v in vertices_of(mask):
        out |= 1 << perm[v]
    return out


@dataclass(frozen=True)
class SpanningTree:
    """Canonical spanning tree with parent -> child orientation.

    ``child_masks[i]`` is the subtree under the child of ``edges[i]``; the
    parent side (the side containing vertex 0) is its complement.  It keeps
    the vertex count ``n`` rather than the graph, which caches the tree, so
    that a graph and its tree form no reference cycle.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    child_masks: tuple[int, ...]

    def valence(self, Y: int) -> int:
        """Number of tree edges joining Y and its complement."""
        return sum(
            1 for p, c in self.edges
            if ((Y >> p) & 1) != ((Y >> c) & 1)
        )

    def cut_pairs(self) -> tuple[tuple[int, int], ...]:
        """(parent_side, child_side) per tree edge."""
        full = (1 << self.n) - 1
        return tuple((full ^ m, m) for m in self.child_masks)

    @cached_property
    def children(self) -> dict[int, tuple[int, ...]]:
        kids: dict[int, list[int]] = {v: [] for v in range(self.n)}
        for p, c in self.edges:
            kids[p].append(c)
        return {v: tuple(ws) for v, ws in kids.items()}

    def from_subtree_totals(self, whole: int, per_child) -> list[int]:
        """The vertex vector with sum ``whole`` over the curve and the given
        sum over the subtree under each child (in edge order)."""
        subtree_total = {0: whole}
        subtree_total.update(zip((c for _, c in self.edges), per_child))
        return [
            subtree_total[v] - sum(subtree_total[c] for c in self.children[v])
            for v in range(self.n)
        ]


@dataclass(frozen=True)
class Contraction:
    """Edge contraction of a dual graph, modelling an etale specialization.

    The source carries the special (finer) curve, the target the generic
    (contracted) one.  ``vertex_map`` sends source vertices to quotient
    vertices; its fibers are the connected components of (V, contracted).
    """

    source: DualGraph
    target: DualGraph
    contracted_edges: tuple[int, ...]
    vertex_map: tuple[int, ...]
    fibers: tuple[int, ...]

    def pushforward(self, Y: int) -> int:
        """Degeneration of a subcurve of the target: the union of fibers.

        Preserves joins, meets and the number of connected components, and
        sends (bi)connected subcurves to (bi)connected subcurves.
        """
        if Y & ~self.target.full_mask:
            raise DomainMismatch("subcurve is not a mask over the target graph")
        out = 0
        for t in vertices_of(Y):
            out |= self.fibers[t]
        return out

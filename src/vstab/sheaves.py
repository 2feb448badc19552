"""Combinatorial rank-1 torsion-free sheaves on a nodal curve.

A sheaf class is the triple (support, multidegree, non-free node set):
the support subcurve, one integer per supported component, and the set of
internal nodes of the support at which the sheaf fails to be locally
free.  This is the coarsest data determining every quantity in scope;
continuous gluing moduli within a class are deliberately collapsed.

The Euler characteristic formula is the partial-normalization dictionary:
separating the non-free nodes leaves a line bundle of the given
multidegree on the partial normalization, so

    chi(I) = sum over supported v of (d_v + 1 - genus_v)
             - #(internal edges of the support that are free).

It is pinned by two identities checked in the test suite: the structure
sheaf has chi = 1 - g, and chi is additive across the restriction/subsheaf
exact sequence.

The semistable classes are enumerated by cubes: a class is semistable iff
every line bundle obtained by giving each non-free node's degree to one of
its endpoints is (the strata of a fine compactified Jacobian,
Melo-Viviani), so each support's classes are built level by level over
the non-free sets from its semistable line bundles.

A ``SheafData`` holds its four fields and nothing else; its support, like
every subcurve mask this module takes, passes ``DualGraph.check_mask``.
The classes the enumeration builds skip the constructor's checks, which
hold by construction: ``_sheaf`` builds them with ``SheafData._trusted``,
and no other function does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import (
    EmptySubcurve,
    DomainMismatch,
    InvalidPartition,
    NotPolystable,
    NotSemistable,
)
from .graphs import (DualGraph, adjacency_masks, component_of, components, exact_ints,
                     subset_sums, vertices_of)
from .stability import VStability


@dataclass(frozen=True, slots=True)
class SheafData:
    graph: DualGraph
    support: int
    multidegree: tuple[int, ...]     # full length n; zero outside the support
    nonfree: frozenset[int]          # edge indices, internal to the support

    def __post_init__(self):
        g = self.graph
        if g.check_mask(self.support, 0, "a support") == 0:
            raise EmptySubcurve("a sheaf needs a nonempty support")
        d = exact_ints(self.multidegree, "a multidegree entry")
        if len(d) != g.n:
            raise DomainMismatch("one degree entry per component required")
        if any(d[v] != 0 for v in range(g.n) if not (self.support >> v) & 1):
            raise ValueError("degrees outside the support must be zero")
        object.__setattr__(self, "multidegree", d)
        nonfree = frozenset(exact_ints(self.nonfree, "a nonfree edge index"))
        object.__setattr__(self, "nonfree", nonfree)
        internal = set(g.internal_edges(self.support))
        if not self.nonfree <= internal:
            raise ValueError("non-free nodes must be internal to the support")

    @classmethod
    def _trusted(cls, graph: DualGraph, support: int, multidegree: tuple[int, ...],
                 nonfree: frozenset[int]) -> "SheafData":
        """A class the enumeration built, with none of the checks of the
        public constructor; its one caller is ``_sheaf``, and a test keeps
        it so.

        Each removed check holds by construction there.  The support is a
        mask in 1..full_mask: ``enumerate_semistable`` takes it from that
        range and ``semistable_line_bundles`` passes it through
        ``check_mask``.  The multidegree is a tuple of n exact ints, zero
        off the support: ``_sheaf`` writes the degrees found for the
        support's vertices (ints from ``range`` and integer sums) into
        zeros.  The non-free nodes are edge indices taken from
        ``internal_edges(support)``."""
        I = object.__new__(cls)
        object.__setattr__(I, "graph", graph)
        object.__setattr__(I, "support", support)
        object.__setattr__(I, "multidegree", multidegree)
        object.__setattr__(I, "nonfree", nonfree)
        return I

    @classmethod
    def line_bundle(cls, graph: DualGraph, multidegree) -> "SheafData":
        return cls(graph, graph.full_mask, tuple(multidegree), frozenset())

    # -- Euler characteristics ------------------------------------------------

    def euler_char(self) -> int:
        # zero degrees off the support; separating a non-free node adds one
        g = self.graph
        return g.line_chi_base[self.support] + sum(self.multidegree) + len(self.nonfree)

    def euler_char_on(self, Y: int) -> int:
        """chi of the torsion-free restriction to Y (met with the support)."""
        return self.restrict(Y).euler_char()

    # -- the two restrictions ----------------------------------------------------

    def restrict(self, Y: int) -> "SheafData":
        """Torsion-free quotient supported on Y meet support; multidegree is
        kept, non-free nodes are intersected."""
        g = self.graph
        supp = g.check_mask(Y) & self.support
        if supp == 0:
            raise EmptySubcurve("restriction along a subcurve missing the support")
        internal = set(g.internal_edges(supp))
        d = tuple(
            self.multidegree[v] if (supp >> v) & 1 else 0 for v in range(g.n)
        )
        return SheafData(g, supp, d, self.nonfree & internal)

    def sub_part(self, Y: int) -> "SheafData":
        """Largest subsheaf supported on Y: the restriction twisted down by
        the free nodes joining Y to the rest of the support."""
        g = self.graph
        restricted = self.restrict(Y)
        inner = restricted.support
        d = list(restricted.multidegree)
        for e in g.crossing_edges(inner, self.support & ~inner):
            if e not in self.nonfree:
                u, v = g.edges[e]
                d[u if (inner >> u) & 1 else v] -= 1
        return SheafData(g, inner, tuple(d), restricted.nonfree)

    # -- splitting structure -------------------------------------------------------

    def splits_at(self, Y: int) -> bool:
        """Whether the sheaf is a direct sum along Y: every node joining Y
        to the complementary part of the support is non-free."""
        inner = self.graph.check_mask(Y) & self.support
        return self.nonfree.issuperset(
            self.graph.crossing_edges(inner, self.support & ~inner)
        )

    def canonical_decomposition(self) -> list["SheafData"]:
        """Indecomposable summands: restrictions to the connected components
        of the support with the non-free nodes removed."""
        g = self.graph
        free_adj = adjacency_masks(g.n, (
            g.edges[e] for e in g.internal_edges(self.support)
            if e not in self.nonfree
        ))
        return [self.restrict(p) for p in components(free_adj, self.support)]

    def aut_rank(self) -> int:
        """Rank of the automorphism torus: the number of indecomposable
        summands."""
        return len(self.canonical_decomposition())

    def is_simple(self) -> bool:
        return self.aut_rank() == 1


@dataclass(frozen=True)
class OrderedPartition:
    """Ordered list of pairwise-disjoint subcurves covering a support."""

    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", exact_ints(self.parts, "a partition part"))
        if any(p == 0 for p in self.parts):
            raise InvalidPartition("parts must be nonempty")
        for i, a in enumerate(self.parts):
            for b in self.parts[i + 1:]:
                if a & b:
                    raise InvalidPartition("parts must be pairwise disjoint")

    @property
    def union(self) -> int:
        out = 0
        for p in self.parts:
            out |= p
        return out


# -- semistability -----------------------------------------------------------------


def _component_data(I: SheafData, s: VStability):
    if I.graph != s.graph:
        raise DomainMismatch("sheaf and stability live on different graphs")
    return I.graph.connected_components(I.support)


def is_semistable(I: SheafData, s: VStability) -> bool:
    """Every connected component of the support is in the extended
    degeneracy set, carries the extended value as its chi, and dominates
    the restricted stability on biconnected pieces."""
    s._require_valid()
    dhat = s.extended_degeneracy
    for Yi in _component_data(I, s):
        if Yi not in dhat:
            return False
        if I.euler_char_on(Yi) != s.extended_value(Yi):
            return False
        for Z in I.graph.biconnected_within(Yi):
            if I.euler_char_on(Z) < s.extended_value(Z):
                return False
    return True


def is_polystable(I: SheafData, s: VStability) -> bool:
    """Semistable, with every tight degenerate piece split off."""
    return is_semistable(I, s) and next(_tight_unsplit(I, s), None) is None


def is_stable(I: SheafData, s: VStability) -> bool:
    """Semistable with strict inequality at every degenerate piece.

    A sheaf with disconnected support is a direct sum, hence never simple
    and never stable; the per-component inequalities are only tested on a
    connected support.
    """
    if len(_component_data(I, s)) != 1 or not is_semistable(I, s):
        return False
    return next(_tight_pieces(I, s), None) is None


def relative_extended_value(s: VStability, Y: int, W: int) -> int:
    """Extended V-function of the restriction of s to Y, evaluated at
    W <= Y, computed in ambient terms: the pieces of Y minus W are
    biconnected in Y, where the restricted stability agrees with the
    ambient extended function."""
    g = s.graph
    if W == Y:
        return s.extended_value(Y)
    pieces = g.connected_components(W)
    if len(pieces) > 1:
        return sum(relative_extended_value(s, Y, P) for P in pieces)
    dhat = s.extended_degeneracy
    total = s.extended_value(Y)
    for V in g.connected_components(Y & ~W):
        total -= s.extended_value(V)
        if V not in dhat:
            total += 1
    return total


def in_relative_dhat(s: VStability, Y: int, W: int) -> bool:
    """Membership of W in the extended degeneracy set of the restriction
    of s to Y: every piece of Y minus W lies in the ambient extended
    degeneracy set.  (Only an inclusion into the ambient set holds in
    general; the pieces of the complement within Y can be nondegenerate
    even when W is ambiently degenerate.)"""
    dhat = s.extended_degeneracy
    return all(V in dhat for V in s.graph.connected_components(Y & ~W))


def is_polystable_via_extended(I: SheafData, s: VStability) -> bool:
    """Characterization through the extended degeneracy set of the
    restricted stability: must agree with :func:`is_polystable`."""
    if not is_semistable(I, s):
        return False
    g = I.graph
    for Yi in _component_data(I, s):
        for Z in _connected_within(g, Yi):
            if Z == Yi or not in_relative_dhat(s, Yi, Z):
                continue
            tight = I.euler_char_on(Z) == relative_extended_value(s, Yi, Z)
            if tight and not I.splits_at(Z):
                return False
    return True


def is_stable_via_extended(I: SheafData, s: VStability) -> bool:
    """Characterization through the extended degeneracy set of the
    restricted stability: must agree with :func:`is_stable`."""
    comps = _component_data(I, s)
    if len(comps) != 1 or not is_semistable(I, s):
        return False
    g = I.graph
    for Yi in comps:
        for Z in _connected_within(g, Yi):
            if Z == Yi or not in_relative_dhat(s, Yi, Z):
                continue
            if I.euler_char_on(Z) == relative_extended_value(s, Yi, Z):
                return False
    return True


def _connected_within(g: DualGraph, Y: int) -> list[int]:
    """Nonempty connected subcurves of Y, as subcurves of the ambient graph
    (the restricted stability's extended degeneracy set is the ambient one
    met with these)."""
    return [Z for Z in g.connected_subcurves if not Z & ~Y]


# -- isotrivial specialization --------------------------------------------------------


def gr_specialize(I: SheafData, P: OrderedPartition) -> SheafData:
    """Associated graded of the filtration attached to an ordered partition
    of the support: the direct sum of (sub_part at the tail union)
    restricted to each part.  Chi is preserved; the trivial partition
    returns the sheaf unchanged."""
    if P.union != I.support:
        raise InvalidPartition("parts must partition the support")
    g = I.graph
    d = [0] * g.n
    nonfree = set()
    total = 0
    tail = I.support     # the union of this part and the later ones
    for Y in P.parts:
        piece = I.sub_part(tail).restrict(Y)
        total += piece.euler_char()
        for v in vertices_of(piece.support):
            d[v] = piece.multidegree[v]
        tail ^= Y
        # the nodes between this part and the later ones separate
        nonfree |= piece.nonfree | set(g.crossing_edges(Y, tail))
    out = SheafData(g, I.support, tuple(d), frozenset(nonfree))
    if out.euler_char() != I.euler_char() or total != I.euler_char():
        raise AssertionError("graded pieces do not preserve chi")
    return out


def polystable_limit(I: SheafData, s: VStability) -> SheafData:
    """The unique polystable isotrivial specialization of a semistable
    sheaf: repeatedly split off a tight degenerate piece until polystable.
    Polystable inputs are fixed points; the result is independent of the
    witness order (Jordan-Holder), which the test suite verifies by
    branching over witnesses."""
    if not is_semistable(I, s):
        raise NotSemistable("the limit is defined for semistable sheaves")
    current = I
    while True:
        Z = next(_tight_unsplit(current, s), None)
        if Z is None:
            return current
        rest = current.support & ~Z
        current = gr_specialize(current, OrderedPartition((Z, rest)))


def _tight_pieces(I: SheafData, s: VStability) -> Iterator[int]:
    """Degenerate biconnected pieces of the support components on which chi
    meets the extended value: the witnesses that the sheaf is not stable."""
    dhat = s.extended_degeneracy
    for Yi in _component_data(I, s):
        for Z in I.graph.biconnected_within(Yi):
            if Z in dhat and I.euler_char_on(Z) == s.extended_value(Z):
                yield Z


def _tight_unsplit(I: SheafData, s: VStability) -> Iterator[int]:
    """Tight pieces along which the sheaf does not split: the witnesses
    that it is not polystable."""
    return (Z for Z in _tight_pieces(I, s) if not I.splits_at(Z))


def tight_unsplit_witnesses(I: SheafData, s: VStability) -> list[int]:
    """All reduction witnesses available at this point; exposed so tests
    can branch over every reduction order."""
    return list(_tight_unsplit(I, s))


def stable_summands(I: SheafData, s: VStability) -> list[SheafData]:
    """Indecomposable summands of a polystable sheaf, each verified
    stable."""
    if not is_polystable(I, s):
        raise NotPolystable("stable summands exist for polystable sheaves")
    pieces = I.canonical_decomposition()
    for piece in pieces:
        if not is_stable(piece, s):
            raise AssertionError("summand of a polystable sheaf is not stable")
    return pieces


# -- gluing -------------------------------------------------------------------------


def extension_glue(J: SheafData, I: SheafData, free_boundary: frozenset[int]) -> SheafData:
    """Extension of J by I (quotient J, subsheaf I) with a prescribed
    free/non-free pattern on the boundary nodes.

    The result K restricts to J and has I as the subsheaf on the support
    of I, so the I-side degrees are raised by the chosen free boundary
    nodes.  When both are semistable for a stability and the union of
    their supports splits into extended-degenerate pieces, K is
    semistable too, which the test suite checks on every such pair.
    """
    g = J.graph
    if g != I.graph:
        raise DomainMismatch("summands live on different graphs")
    support = J.support | I.support
    boundary = set(g.crossing_edges(J.support, I.support))
    free_boundary = frozenset(exact_ints(free_boundary, "a free boundary node"))
    if not free_boundary <= boundary:
        raise ValueError("free boundary choice must consist of boundary nodes")
    d = [0] * g.n
    for v in vertices_of(J.support):
        d[v] = J.multidegree[v]
    for v in vertices_of(I.support):
        d[v] = I.multidegree[v]
    for e in free_boundary:
        u, v = g.edges[e]
        d[u if (I.support >> u) & 1 else v] += 1
    nonfree = J.nonfree | I.nonfree | (boundary - free_boundary)
    return SheafData(g, support, tuple(d), frozenset(nonfree))


# -- enumeration -------------------------------------------------------------------


def semistable_line_bundles(s: VStability, support: int) -> list[SheafData]:
    """The semistable sheaves on ``support`` with no non-free node, in
    lexicographic order of the degrees: level 0 of
    :func:`enumerate_semistable`."""
    s._require_valid()
    g = s.graph
    g.check_mask(support, 1, "a support")
    verts = vertices_of(support)
    return [_sheaf(g, support, verts, d, frozenset())
            for d in _line_bundles(s, support, None)]


def enumerate_semistable(
    g: DualGraph,
    s: VStability,
    *,
    full_support_only: bool = False,
    degree_window: Optional[int] = None,
) -> list[SheafData]:
    """All semistable sheaf classes of characteristic |s|: per support
    (ascending), per non-free set N (a bitmask over the positions in
    ``g.internal_edges(support)``, ascending), the degrees d in
    lexicographic order; ``degree_window`` W keeps those in [-W, W].

    Built by cubes from the support's line bundles.  A lift of (N, d) is
    the line bundle d plus 1 at one chosen endpoint of each e in N.  For Z
    inside the support, chi(I|_Z) = line_chi_base[Z] + d(Z) + |N meet
    E(Z)|; a lift has at least that chi on Z, with equality when each e in
    N crossing out of Z takes its endpoint outside Z.  So chi >= ext on
    every Z holds for (N, d) iff it holds for every lift; totals on the
    support components agree, and the other conditions do not depend on
    N.  Hence (N, d) is semistable iff all its lifts are, and, with e = uw
    the top edge of N, d - 1_u is kept for N iff d and d - 1_u + 1_w are
    kept for N - e.  Lifts raise d_v by at most k_v, the internal edges at
    v, so under W level 0 searches [-W, W + k_v] within the forced windows.
    """
    s._require_valid()
    if g != s.graph:
        raise DomainMismatch("sheaf and stability live on different graphs")
    W = degree_window
    if W is not None:
        (W,) = exact_ints((W,), "degree_window", ValueError)
        if W < 0:
            raise ValueError("degree_window must be non-negative")
    out = []
    supports = [g.full_mask] if full_support_only else range(1, g.full_mask + 1)
    for supp in supports:
        verts = vertices_of(supp)
        at = {v: i for i, v in enumerate(verts)}
        internal = g.internal_edges(supp)
        levels = [dict.fromkeys(_line_bundles(s, supp, W))]
        for bits in range(1, 1 << len(internal)):
            top = bits.bit_length() - 1
            below = levels[bits ^ (1 << top)]
            u, w = (at[x] for x in g.edges[internal[top]])
            level = {}
            for d in below:
                c = list(d)
                c[u] -= 1
                low = tuple(c)
                c[w] += 1
                if tuple(c) in below:
                    level[low] = None
            levels.append(level)
        for bits, level in enumerate(levels):
            nonfree = frozenset(e for i, e in enumerate(internal) if bits >> i & 1)
            out.extend(_sheaf(g, supp, verts, d, nonfree) for d in level
                       if W is None or all(-W <= x <= W for x in d))
    return out


def _line_bundles(s: VStability, supp: int, W: Optional[int]) -> list[tuple[int, ...]]:
    """Degrees on the support's vertices of its semistable line bundles:
    the forced windows (cut to [-W, W + k_v] under W), the sum the support's
    extended value asks, and one ``subset_sums`` table per candidate read
    on the support components (equal to ext) and their biconnected pieces
    (at least ext)."""
    g = s.graph
    comps = g.connected_components(supp)
    if not all(c in s.extended_degeneracy for c in comps):
        return []
    verts = vertices_of(supp)
    windows = [_degree_window_for(g, s, supp, v) for v in verts]
    if W is not None:
        edges = [g.edges[e] for e in g.internal_edges(supp)]
        windows = [(max(lo, -W), min(hi, W + sum(v in e for e in edges)))
                   for v, (lo, hi) in zip(verts, windows)]
    ext, base = s.extended_values, g.line_chi_base
    tight = [(Y, ext[Y] - base[Y]) for Y in comps]
    floors = [(Z, ext[Z] - base[Z]) for Y in comps for Z in g.biconnected_within(Y)]
    full = [0] * g.n
    out = []
    for d in _bounded_sums(windows, ext[supp] - base[supp]):
        for v, x in zip(verts, d):
            full[v] = x
        sums = subset_sums(full)
        if all(sums[Y] == t for Y, t in tight) and all(sums[Z] >= t for Z, t in floors):
            out.append(d)
    return out


def _sheaf(g: DualGraph, supp: int, verts, d, nonfree: frozenset) -> SheafData:
    """The class (supp, d on ``verts``, nonfree) the enumeration found,
    built by ``SheafData._trusted``: ``verts`` are the support's vertices
    and ``nonfree`` holds internal edges of the support.
    ``TestEnumeratedClassesPassTheChecks`` rebuilds each class through the
    public constructor."""
    full = [0] * g.n
    for v, x in zip(verts, d):
        full[v] = x
    return SheafData._trusted(g, supp, tuple(full), nonfree)


def _degree_window_for(g: DualGraph, s: VStability, supp: int, v: int) -> tuple[int, int]:
    """Window on d_v forced by semistability within the support component
    of v: chi on v is at least the restricted extended value, and at most
    the subsheaf bound plus the boundary valence; loops widen the
    translation to degrees by their count."""
    vmask = 1 << v
    comp = component_of(g.neighbor_masks, supp, vmask)
    rest = comp & ~vmask
    lo_chi = relative_extended_value(s, comp, vmask)
    if rest:
        hi_chi = (
            s.extended_value(comp)
            - relative_extended_value(s, comp, rest)
            + g.edges_between(vmask, rest)
        )
    else:
        hi_chi = lo_chi
    loops = g.internal_edge_count(vmask)
    return lo_chi + g.genera[v] - 1, hi_chi + g.genera[v] - 1 + loops


def _bounded_sums(windows, total) -> Iterator[tuple[int, ...]]:
    """Integer tuples within per-coordinate windows (at least one) with a
    fixed sum, in lexicographic order: every choice of the entries but the
    last, which is whatever the sum leaves, kept when in its window."""
    *head, (lo, hi) = windows
    for xs in itertools.product(*(range(a, b + 1) for a, b in head)):
        last = total - sum(xs)
        if lo <= last <= hi:
            yield xs + (last,)

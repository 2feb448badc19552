import itertools
import math

import pytest
from hypothesis import given, strategies as st

from vstab import DualGraph
from vstab.errors import EmptySubcurve, OverlappingSubcurves
from vstab.graphenum import connected_multigraphs
from vstab.graphs import vertices_of

from conftest import (
    LADDER,
    POOL_N4,
    TABLE_POOL,
    banana,
    genus_decorated,
    k4,
    oracle_biconnected,
    oracle_connected,
    oracle_component_count,
    oracle_fibers,
    oracle_genus,
    oracle_line_chi_base,
    oracle_spanning_trees,
    oracle_twist_deltas,
    path3,
    time_bound,
    triangle,
)


def test_rejects_disconnected():
    with pytest.raises(ValueError):
        DualGraph((0, 0), ())
    with pytest.raises(ValueError):
        DualGraph((0, 0, 0), ((0, 1),))


def test_loops_do_not_connect():
    with pytest.raises(ValueError):
        DualGraph((0, 0), ((0, 0), (1, 1)))


@pytest.mark.parametrize("genera, edges, field", [
    ((0.5, True), ((0, 1), (0, 1)), "genus"),
    ((0, 0), ((True, False), (0, 1)), "edge endpoint"),
])
def test_constructor_refuses_non_ints(genera, edges, field):
    # (0.5, True) was once read as the genera (0, 1), and bool endpoints kept
    with pytest.raises(TypeError, match=field):
        DualGraph(genera, edges)


def test_edges_canonically_sorted():
    g = DualGraph((0, 0, 0), ((2, 1), (1, 0)))
    assert g.edges == ((0, 1), (1, 2))


class TestConnectivity:
    def test_single_vertex_in_banana(self):
        assert banana().is_connected(0b01) is True

    def test_path_endpoints_disconnected(self):
        assert path3().is_connected(0b101) is False

    def test_full_set_connected(self):
        for make in POOL_N4:
            g = make()
            assert g.is_connected(g.full_mask)

    def test_empty_subcurve_rejected(self):
        with pytest.raises(EmptySubcurve):
            banana().is_connected(0)

    @pytest.mark.parametrize("mask", [-1, -6, pytest.param(-(1 << 10**6), id="huge")])
    def test_negative_mask_has_no_vertex_list(self, mask):
        # a negative mask has infinitely many bits; it once looped forever
        with time_bound(2), pytest.raises(ValueError, match="non-negative"):
            vertices_of(mask)

    def test_matches_oracle_exhaustively(self):
        for make in POOL_N4:
            g = make()
            for Y in range(1, g.full_mask + 1):
                assert g.is_connected(Y) == oracle_connected(
                    g, set(vertices_of(Y))
                ), (g.edges, Y)


class TestComponents:
    def test_path_split(self):
        assert path3().connected_components(0b101) == [0b001, 0b100]

    def test_single(self):
        assert banana().connected_components(0b01) == [0b01]

    def test_full(self):
        g = banana()
        assert g.connected_components(g.full_mask) == [g.full_mask]

    def test_empty(self):
        assert banana().connected_components(0) == []

    def test_counts_match_oracle(self):
        for make in POOL_N4:
            g = make()
            for Y in range(1, g.full_mask + 1):
                assert len(g.connected_components(Y)) == oracle_component_count(
                    g, set(vertices_of(Y))
                )


class TestBiconnected:
    def test_banana(self):
        assert banana().biconnected_subcurves == (0b01, 0b10)

    def test_triangle_all_proper(self):
        assert len(triangle().biconnected_subcurves) == 6

    def test_path3_frozen(self):
        # enumerate all 6 proper subsets, filter by connectivity of both sides
        assert path3().biconnected_subcurves == (0b001, 0b011, 0b100, 0b110)

    def test_matches_oracle(self):
        for make in POOL_N4:
            g = make()
            assert list(g.biconnected_subcurves) == oracle_biconnected(g)

    def test_complement_components_biconnected(self):
        # a connected subcurve's complement splits into biconnected pieces;
        # checked on the pool plus five- and six-component samples
        samples = [make() for make in POOL_N4] + [
            DualGraph((0,) * 5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))),
            DualGraph((0,) * 6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5))),
            DualGraph((0,) * 6, ((0, 1), (0, 2), (0, 3), (3, 4), (3, 5))),
            DualGraph((0,) * 6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
                                 (0, 5), (0, 3))),
        ]
        for g in samples:
            bset = set(g.biconnected_subcurves)
            for Y in g.connected_subcurves:
                if Y == g.full_mask:
                    continue
                for W in g.connected_components(g.complement(Y)):
                    assert W in bset


class TestEdgeCounts:
    def test_banana_between(self):
        assert banana().edges_between(0b01, 0b10) == 2

    def test_triangle_internal(self):
        assert triangle().internal_edge_count(0b011) == 1

    def test_overlap_rejected(self):
        with pytest.raises(OverlappingSubcurves):
            banana().edges_between(0b01, 0b01)

    def test_loops_internal_not_between(self):
        g = genus_decorated()
        assert g.edges_between(0b01, 0b10) == 2
        assert g.internal_edge_count(0b10) == 1

    def test_tree_cut_valence_one(self):
        for make in POOL_N4:
            g = make()
            tree = g.spanning_tree
            for _, child in zip(tree.edges, tree.child_masks):
                assert tree.valence(child) == 1


class TestSubcurveTables:
    """The subset-sum tables against the per-mask counts they replaced."""

    @pytest.mark.parametrize("make", TABLE_POOL, ids=lambda f: f.__name__)
    def test_tables_match_oracles(self, make):
        g = make()
        assert g.twist_deltas == oracle_twist_deltas(g)
        assert g.line_chi_base == oracle_line_chi_base(g)
        bcon = set(oracle_biconnected(g))
        for Y in range(1, g.full_mask + 1):
            assert g.biconnected_within(Y) == tuple(
                Z for Z in range(1, Y)
                if Z & Y == Z
                and oracle_connected(g, set(vertices_of(Z)))
                and oracle_connected(g, set(vertices_of(Y ^ Z)))
            )
        assert g.biconnected_within(g.full_mask) == tuple(sorted(bcon))

    @pytest.mark.parametrize("make", TABLE_POOL, ids=lambda f: f.__name__)
    def test_reduced_laplacian_inverse(self, make):
        # A L0 = k I exactly, with k the least common denominator
        g = make()
        k, A = g.reduced_laplacian_inverse
        m = g.n - 1
        L0 = [oracle_twist_deltas(g)[1 << v][:m] for v in range(m)]
        assert [
            [sum(A[i][t] * L0[t][j] for t in range(m)) for j in range(m)]
            for i in range(m)
        ] == [[k * (i == j) for j in range(m)] for i in range(m)]
        assert math.gcd(k, *(a for row in A for a in row)) == 1

    def test_inverse_denominator_divides_tree_count(self):
        # the reduced Laplacian's determinant is the number of spanning
        # trees (matrix-tree theorem), and k divides it
        pairs = [(g.reduced_laplacian_inverse[0], oracle_spanning_trees(g))
                 for g in (make() for make in LADDER)]
        assert pairs == [(2, 2), (4, 16), (5, 5), (5, 125), (6, 6), (4, 16)]
        assert all(count % k == 0 for k, count in pairs)

    @pytest.mark.parametrize("loops", [(), ((0, 0),)], ids=["bare", "loop"])
    def test_one_component_inverse(self, loops):
        assert DualGraph((1,), loops).reduced_laplacian_inverse == (1, ())

    def test_covering_triples_match_brute_force(self):
        for g in connected_multigraphs(5, 7):
            assert g.covering_triples == tuple(
                T for T in itertools.combinations(g.biconnected_subcurves, 3)
                if not T[0] & T[1] and not T[0] & T[2] and not T[1] & T[2]
                and T[0] | T[1] | T[2] == g.full_mask
            )


class TestGenus:
    def test_banana_full(self):
        assert banana().genus == 1

    def test_loop_plus_genus(self):
        g = DualGraph((2,), ((0, 0),))
        assert g.genus == 3  # 1 - 1 + 1 + 2

    def test_triangle_vertex(self):
        assert triangle().subcurve_genus(0b001) == 0

    def test_matches_first_betti_oracle(self):
        for make in POOL_N4 + [genus_decorated]:
            g = make()
            for Y in range(1, g.full_mask + 1):
                assert g.subcurve_genus(Y) == oracle_genus(
                    g, set(vertices_of(Y))
                )


class TestSpanningTree:
    def test_deterministic(self):
        g = k4()
        assert g.spanning_tree.edges == ((0, 1), (0, 2), (0, 3))

    def test_collapses_multiplicity(self):
        assert banana().spanning_tree.edges == ((0, 1),)

    def test_cut_pairs_are_biconnected(self):
        for make in POOL_N4:
            g = make()
            if g.n == 1:
                continue
            bset = set(g.biconnected_subcurves)
            for parent_side, child_side in g.spanning_tree.cut_pairs():
                assert parent_side in bset and child_side in bset
                assert parent_side & 1  # parent side holds the root


class TestContraction:
    def test_banana_one_edge(self):
        target, c = banana().contract((0,))
        assert target.genera == (0,)
        assert target.edges == ((0, 0),)
        assert target.genus == 1

    def test_identity(self):
        g = path3()
        target, c = g.contract(())
        assert target == g
        assert c.pushforward(0b001) == 0b001

    def test_arithmetic_genus_preserved(self):
        for make in POOL_N4 + [genus_decorated]:
            g = make()
            for F_bits in range(1 << len(g.edges)):
                F = tuple(i for i in range(len(g.edges)) if (F_bits >> i) & 1)
                target, _ = g.contract(F)
                assert target.genus == g.genus

    def test_pushforward_preserves_structure(self):
        # joins, meets, component counts, biconnectedness
        for make in POOL_N4:
            g = make()
            for F_bits in range(1 << len(g.edges)):
                F = tuple(i for i in range(len(g.edges)) if (F_bits >> i) & 1)
                target, c = g.contract(F)
                masks = range(target.full_mask + 1)
                for A in masks:
                    for B in masks:
                        assert c.pushforward(A | B) == c.pushforward(A) | c.pushforward(B)
                        assert c.pushforward(A & B) == c.pushforward(A) & c.pushforward(B)
                for A in range(1, target.full_mask + 1):
                    assert len(target.connected_components(A)) == len(
                        g.connected_components(c.pushforward(A))
                    )
                bset = set(g.biconnected_subcurves)
                for Y in target.biconnected_subcurves:
                    assert c.pushforward(Y) in bset

    def test_fibers_match_union_find(self):
        # every edge subset of every graph with at most 5 vertices and 6 edges
        checked = 0
        for g in connected_multigraphs(5, 6):
            for F_bits in range(1 << len(g.edges)):
                F = tuple(i for i in range(len(g.edges)) if (F_bits >> i) & 1)
                _, c = g.contract(F)
                fibers = oracle_fibers(g, F)
                assert [set(vertices_of(f)) for f in c.fibers] == fibers
                assert c.vertex_map == tuple(
                    next(t for t, fib in enumerate(fibers) if v in fib)
                    for v in range(g.n)
                )
                checked += 1
        assert checked == 5139


class TestInduced:
    def test_relabels(self):
        g = path3()
        sub, verts = g.induced(0b110)
        assert verts == [1, 2]
        assert sub.edges == ((0, 1),)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            path3().induced(0b101)


@given(st.integers(0, 15), st.integers(0, 15))
def test_subcurve_lattice_laws(a, b):
    g = k4()
    full = g.full_mask
    assert full ^ (full ^ a) == a
    assert a | a == a and a & a == a
    assert a | b == b | a and a & b == b & a


@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
def test_subcurve_associativity(a, b, c):
    assert (a | b) | c == a | (b | c)
    assert (a & b) & c == a & (b & c)


def test_automorphisms_k4():
    assert len(k4().automorphisms) == 24


def test_automorphisms_respect_genera():
    g = DualGraph((0, 1), ((0, 1),))
    assert g.automorphisms == ((0, 1),)

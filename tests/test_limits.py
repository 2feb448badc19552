import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from vstab import DualGraph, SheafData, VStability
from vstab.errors import DomainMismatch, InvalidStability
from vstab.graphenum import connected_multigraphs
from vstab.limits import (
    _beta_all,
    beta,
    beta_deficit,
    esteves_limit,
    laplacian,
    line_bundle_chi,
    same_orbit,
    twist,
    twisting_subcurve,
)
from vstab.posets import enumerate_orbits
from vstab.sheaves import enumerate_semistable, is_semistable, polystable_limit
from vstab.stability import extended_value_table

from conftest import (
    LADDER, TABLE_POOL, banana, cycle5, genus_decorated, k4, k4_plus_path2,
    oracle_same_orbit_elimination, oracle_solve_integer, oracle_spanning_trees, path3,
    time_bound, triangle,
)


def s_banana_zero():
    return VStability.from_dict(banana(), 0, {1: 0, 2: 0})


class TestTwist:
    def test_by_whole_curve_is_identity(self):
        g = banana()
        assert twist(g, (5, -5), g.full_mask) == (5, -5)
        assert twist(g, (5, -5), 0) == (5, -5)

    def test_two_cycle(self):
        assert twist(banana(), (5, -5), 0b10) == (3, -3)

    def test_degree_conserved(self):
        for g in [banana(), triangle(), genus_decorated()]:
            for Y in range(g.full_mask + 1):
                d = tuple(range(g.n))
                assert sum(twist(g, d, Y)) == sum(d)

    @given(st.integers(0, 7), st.integers(0, 7),
           st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)))
    @settings(max_examples=60, deadline=None)
    def test_commutes(self, Y, Z, d):
        g = triangle()
        assert twist(g, twist(g, d, Y), Z) == twist(g, twist(g, d, Z), Y)

    def test_loops_do_not_fire(self):
        g = genus_decorated()  # loop at vertex 1
        assert twist(g, (0, 0), 0b10) == (-2, 2)


class TestBeta:
    def test_two_cycle_values(self):
        s = s_banana_zero()
        assert beta((5, -5), s, 0b10) == -4
        assert beta((5, -5), s, 0b01) == 6

    def test_whole_curve_zero_when_consistent(self):
        s = s_banana_zero()
        for d in [(0, 0), (5, -5), (2, -2)]:
            assert beta(d, s, s.graph.full_mask) == 0

    def test_semistability_criterion(self):
        s = s_banana_zero()
        g = s.graph
        for d in itertools.product(range(-4, 5), repeat=2):
            if sum(d) != 0:
                continue
            by_beta = all(beta(d, s, Z) >= 0 for Z in g.biconnected_subcurves)
            assert by_beta == is_semistable(SheafData.line_bundle(g, d), s)

    @pytest.mark.parametrize("make", LADDER + [genus_decorated],
                             ids=lambda f: f.__name__)
    def test_twist_adds_the_shift_row(self, make):
        # beta is linear in the multidegree, whatever the extended table,
        # so the limit walk moves it by subset_sum_shifts[Y]
        g = make()
        rng = random.Random(f"shift:{make.__name__}")
        ext = [0] + [rng.randint(-9, 9) for _ in range(g.full_mask)]
        for Y in range(g.full_mask + 1):
            d = tuple(rng.randint(-6, 6) for _ in range(g.n))
            assert _beta_all(g, twist(g, d, Y), ext) == [
                b + sh for b, sh in zip(_beta_all(g, d, ext), g.subset_sum_shifts[Y])
            ]

    def test_deficit(self):
        s = s_banana_zero()
        assert beta_deficit((5, -5), s) == 4
        assert beta_deficit((1, -1), s) == 0
        with pytest.raises(DomainMismatch):
            beta_deficit((0,), s)

    def test_deficit_follows_translation(self):
        # translating the stability by (k, -k) moves betas as the degrees
        # (-k, k) do, so small entries can start a long walk
        k = 10 ** 9
        t = VStability.from_dict(banana(), 0, {1: k, 2: -k})
        assert t.is_valid
        assert beta_deficit((0, 0), t) == beta_deficit((-k, k), s_banana_zero()) == k - 1

    def test_no_limit_step_exceeds_the_start_deficit(self):
        # the termination argument of esteves_limit, on both searches
        fallbacks = 0
        for s in enumerate_orbits(cycle5())[::25]:
            g = s.graph
            total = s.chi - g.line_chi_base[g.full_mask]
            for head in itertools.product(range(-2, 3), repeat=g.n - 1):
                d0 = head + (total - sum(head),)
                _, trace = esteves_limit(d0, s)
                fallbacks += trace.used_fallback
                start = beta_deficit(d0, s)
                assert all(beta_deficit(st.multidegree, s) <= start for st in trace.steps)
        assert fallbacks


class TestTwistingSubcurve:
    def test_semistable_gives_whole_curve(self):
        s = s_banana_zero()
        assert twisting_subcurve((0, 0), s) == s.graph.full_mask

    def test_two_cycle_unstable(self):
        s = s_banana_zero()
        assert twisting_subcurve((5, -5), s) == 0b10

    def test_growth_union_on_k4(self):
        # the unique maximal minimizer can absorb an off-side minimizer and
        # degenerate to the whole curve; pinned from a concrete run
        g = DualGraph((0,) * 4, tuple(
            (i, j) for i in range(4) for j in range(i + 1, 4)
        ))
        vals = dict(zip(g.biconnected_subcurves,
                        (-2, 1, -1, 1, -1, 2, 0, 1, -1, 2, 0, 2, 0, 2)))
        s = VStability.from_dict(g, 0, vals)
        assert s.is_valid
        assert twisting_subcurve((-3, 0, 2, 3), s) == g.full_mask
        assert twisting_subcurve((-3, 0, 2, 3), s, start=0b0011) == 0b0011

    @pytest.mark.parametrize("start", [
        -1, 0, 7, True, 1.0, pytest.param(1 << 10**6, id="huge"),
    ])
    def test_start_outside_the_masks_is_refused(self, start):
        # -1 once came back as the "subcurve" -1, 7 raised IndexError, and a
        # mask past 4300 decimal digits raised ValueError from the message
        with time_bound(2), pytest.raises(DomainMismatch, match="starting subcurve"):
            twisting_subcurve((1, -1), s_banana_zero(), start=start)

    def test_start_off_the_minimum_is_refused(self):
        with pytest.raises(ValueError, match="beta minimum"):
            twisting_subcurve((5, -5), s_banana_zero(), start=0b01)


class TestLimit:
    def test_semistable_input_zero_steps(self):
        s = s_banana_zero()
        d, trace = esteves_limit((1, -1), s)
        assert d == (1, -1) and trace.steps == ()

    def test_semistable_start_leaves_the_shift_table_unbuilt(self):
        g = banana()
        esteves_limit((1, -1), VStability.from_dict(g, 0, {1: 0, 2: 0}))
        assert "subset_sum_shifts" not in g.__dict__
        esteves_limit((5, -5), VStability.from_dict(g, 0, {1: 0, 2: 0}))
        assert "subset_sum_shifts" in g.__dict__

    def test_two_cycle_worked_trace(self):
        s = s_banana_zero()
        d, trace = esteves_limit((5, -5), s)
        assert d == (1, -1)
        assert [
            (st.subcurve, st.beta_min, st.multidegree) for st in trace.steps
        ] == [(0b10, -4, (3, -3)), (0b10, -2, (1, -1))]
        assert all(st.lemma_step for st in trace.steps)

    def test_degree_mismatch_rejected(self):
        s = s_banana_zero()
        with pytest.raises(DomainMismatch):
            esteves_limit((1, 0), s)

    @pytest.mark.parametrize("call", [esteves_limit, beta_deficit, twisting_subcurve],
                             ids=lambda f: f.__name__)
    def test_invalid_stability_refused(self, call):
        # values (5, 5) break the pair-sum rule; the walk used to exhaust both
        # candidate orders from (3, -3) and raise NonTermination
        s = VStability.from_dict(banana(), 0, {1: 5, 2: 5})
        with pytest.raises(InvalidStability):
            call((3, -3), s)

    @pytest.mark.parametrize("d0", [(1, -1, 5), (0,)], ids=["long", "short"])
    def test_wrong_length_rejected(self, d0):
        with pytest.raises(DomainMismatch, match="one degree per component"):
            esteves_limit(d0, s_banana_zero())

    def test_small_sweep_semistable_and_in_orbit(self):
        for g in [banana(), triangle(), path3()]:
            for s in enumerate_orbits(g):
                need = s.chi - (g.n - sum(g.genera)) + len(g.edges)
                win = g.genus + 2
                for d in itertools.product(range(-win, win + 1), repeat=g.n):
                    if sum(d) != need:
                        continue
                    dd, trace = esteves_limit(d, s)
                    assert is_semistable(SheafData.line_bundle(g, dd), s)
                    ok, _ = same_orbit(g, dd, d)
                    assert ok
                    assert sum(dd) == sum(d)

    def test_post_twist_inequality_recheck(self):
        # re-verify the per-step invariant from the recorded trace
        g = triangle()
        for s in enumerate_orbits(g)[:8]:
            ext = extended_value_table(s)
            need = s.chi - (g.n - sum(g.genera)) + len(g.edges)
            for d in itertools.product(range(-3, 4), repeat=3):
                if sum(d) != need:
                    continue
                _, trace = esteves_limit(d, s)
                for step in trace.steps:
                    nb = _beta_all(g, step.multidegree, ext)
                    for Z in range(1, g.full_mask + 1):
                        assert nb[Z] >= step.beta_min
                        if nb[Z] == step.beta_min and step.lemma_step:
                            assert Z & ~step.subcurve == 0


class TestLimitUpToSEquivalence:
    def test_polystable_limit_is_a_function_of_the_class(self):
        # for a degenerate stability a chip-firing class may hold several
        # semistable line bundles, but they share one polystable limit, so
        # the limit is unique up to S-equivalence; the class key is the
        # reduced Laplacian's inverse applied to the degrees, mod k
        runs = crowded = 0
        for g in [banana(), triangle(), k4()]:
            k, A = g.reduced_laplacian_inverse

            def key(d):
                return tuple(sum(a * x for a, x in zip(row, d)) % k for row in A)

            for s in enumerate_orbits(g):
                if s.is_general():
                    continue
                point_of = {
                    I.multidegree: polystable_limit(I, s)
                    for I in enumerate_semistable(g, s, full_support_only=True)
                    if not I.nonfree
                }
                by_class = {}
                for d, point in point_of.items():
                    by_class.setdefault(key(d), []).append(point)
                crowded += sum(len(points) > 1 for points in by_class.values())
                class_point = {}
                for c, points in by_class.items():
                    assert points.count(points[0]) == len(points)
                    class_point[c] = points[0]
                # every start of criterion 09's box
                win = g.genus + 2
                need = s.chi - (g.n - sum(g.genera)) + len(g.edges)
                for d in itertools.product(range(-win, win + 1), repeat=g.n):
                    if sum(d) != need:
                        continue
                    result, _ = esteves_limit(d, s)
                    assert point_of[result] == class_point[key(d)]
                    runs += 1
        assert (runs, crowded) == (29055, 103)

    def test_general_limit_is_the_semistable_point_of_the_class(self):
        # a general stability has one semistable line bundle per class, so
        # every start of criterion 09's box walks to the one of its class
        runs = 0
        for g in [banana(), triangle(), k4(), cycle5()]:
            k, A = g.reduced_laplacian_inverse

            def key(d):
                return tuple(sum(a * x for a, x in zip(row, d)) % k for row in A)

            for s in enumerate_orbits(g):
                if not s.is_general():
                    continue
                point = {}
                for I in enumerate_semistable(g, s, full_support_only=True):
                    if not I.nonfree:
                        c = key(I.multidegree)
                        assert c not in point
                        point[c] = I.multidegree
                win = g.genus + 2
                need = s.chi - (g.n - sum(g.genera)) + len(g.edges)
                for d in itertools.product(range(-win, win + 1), repeat=g.n):
                    if sum(d) != need:
                        continue
                    result, _ = esteves_limit(d, s)
                    assert result == point[key(d)]
                    runs += 1
        assert runs == 43405


class TestSubcurveRange:
    """A subcurve mask outside 0..full_mask raises DomainMismatch.  On the
    banana, -1 once made line_bundle_chi and beta loop forever and twist
    wrap round to the whole curve, 4 raised a bare IndexError, and a mask
    past 4300 decimal digits raised ValueError from the message."""

    @pytest.mark.parametrize("Y", [-1, -2, 4, 7, pytest.param(1 << 10**6, id="huge")])
    @pytest.mark.parametrize("call", [
        lambda s, Y: twist(s.graph, (1, -1), Y),
        lambda s, Y: line_bundle_chi(s.graph, (1, -1), Y),
        lambda s, Y: beta((1, -1), s, Y),
    ], ids=["twist", "line-bundle-chi", "beta"])
    def test_out_of_range(self, call, Y):
        with time_bound(2), pytest.raises(DomainMismatch, match="not a mask"):
            call(s_banana_zero(), Y)

    # True once twisted by subcurve 1, and 1.5 raised a bare TypeError
    @pytest.mark.parametrize("Y", [True, 1.5])
    @pytest.mark.parametrize("call", [
        lambda s, Y: twist(s.graph, (1, -1), Y),
        lambda s, Y: line_bundle_chi(s.graph, (1, -1), Y),
        lambda s, Y: beta((1, -1), s, Y),
    ], ids=["twist", "line-bundle-chi", "beta"])
    def test_not_an_int(self, call, Y):
        with pytest.raises(DomainMismatch, match="a subcurve must be an int"):
            call(s_banana_zero(), Y)

    def test_range_ends_are_subcurves(self):
        s = s_banana_zero()
        g = s.graph
        assert twist(g, (1, -1), 0) == twist(g, (1, -1), 3) == (1, -1)
        assert line_bundle_chi(g, (1, -1), 0) == 0
        assert beta((1, -1), s, 3) == line_bundle_chi(g, (1, -1), 3) - s.chi


class TestOrbit:
    def test_twist_is_in_orbit(self):
        g = banana()
        d = (3, -3)
        ok, witness = same_orbit(g, twist(g, d, 0b01), d)
        assert ok and witness == (1, 0)

    def test_two_cycle_lattice(self):
        g = banana()
        assert same_orbit(g, (1, -1), (-1, 1))[0]
        assert not same_orbit(g, (1, -1), (0, 0))[0]

    def test_degree_mismatch(self):
        assert same_orbit(banana(), (1, 0), (0, 0)) == (False, None)

    def test_huge_witness_checked_in_one_product(self):
        # the witness is checked as d2 + L w == d1, not replayed as 10**9
        # single-component twists
        start = time.process_time()
        assert same_orbit(banana(), (2 * 10**9, -2 * 10**9), (0, 0)) == (True, (10**9, 0))
        assert time.process_time() - start < 1

    @pytest.mark.parametrize("edges", [(), ((0, 0),)], ids=["bare", "loop"])
    def test_one_component(self, edges):
        g = DualGraph((1,), edges)
        assert same_orbit(g, (4,), (4,)) == (True, (0,))
        assert same_orbit(g, (4,), (3,)) == (False, None)

    @pytest.mark.parametrize("make", TABLE_POOL, ids=lambda f: f.__name__)
    def test_matches_the_elimination(self, make):
        # the inverse table against the elimination it replaced, on one-
        # orbit pairs (a random twist sequence apart) and random pairs
        g = make()
        rng = random.Random(f"elimination:{make.__name__}")
        for k in range(40):
            d2 = tuple(rng.randint(-5, 5) for _ in range(g.n))
            if k % 2:
                d1 = d2
                for _ in range(rng.randint(1, 6)):
                    d1 = twist(g, d1, rng.randint(0, g.full_mask))
            else:
                d1 = tuple(rng.randint(-5, 5) for _ in range(g.n - 1))
                d1 += (sum(d2) - sum(d1),)
            assert same_orbit(g, d1, d2) == oracle_same_orbit_elimination(g, d1, d2)

    def test_orbit_counts_banana(self):
        # the two-cycle lattice has index 2 at each total degree
        g = banana()
        classes = set()
        for d0 in itertools.product(range(-2, 3), repeat=2):
            if sum(d0) != 0:
                continue
            rep = min(
                dd for dd in itertools.product(range(-2, 3), repeat=2)
                if sum(dd) == 0 and same_orbit(g, d0, dd)[0]
            )
            classes.add(rep)
        assert len(classes) == 2

    def test_in_orbit_transitively(self):
        g = triangle()
        d0 = (0, 0, 0)
        d1 = twist(g, twist(g, d0, 0b011), 0b001)
        ok, w = same_orbit(g, d1, d0)
        assert ok
        applied = d0
        for v, times in enumerate(w):
            for _ in range(times):
                applied = twist(g, applied, 1 << v)
        assert applied == d1


class TestOrbitAgainstHermite:
    """``same_orbit`` against the column-style Hermite reduction of
    ``oracle_solve_integer``: the flag and the normalized witness (unique,
    since the kernel is the constants) agree on seeded pairs that are in
    one orbit (a random twist sequence apart) and on random pairs of equal
    total degree, over the benchmark ladder and the loop graph."""

    @pytest.mark.parametrize("make", LADDER + [genus_decorated],
                             ids=lambda f: f.__name__)
    def test_flag_and_witness(self, make):
        g = make()
        L = laplacian(g)
        rng = random.Random(f"orbit:{make.__name__}")
        hits = 0
        for k in range(60):
            d2 = tuple(rng.randint(-5, 5) for _ in range(g.n))
            if k % 2:
                d1 = d2
                for _ in range(rng.randint(1, 6)):
                    d1 = twist(g, d1, rng.randint(1, g.full_mask - 1))
            else:
                d1 = tuple(rng.randint(-5, 5) for _ in range(g.n - 1))
                d1 += (sum(d2) - sum(d1),)
            x = oracle_solve_integer(L, [a - b for a, b in zip(d1, d2)])
            expected = (False, None) if x is None else (
                True, tuple(v - min(x) for v in x))
            assert same_orbit(g, d1, d2) == expected
            hits += expected[0]
        assert 30 <= hits < 60


class TestIntegerSolve:
    def test_laplacian_solve(self):
        g = triangle()
        L = laplacian(g)
        b = [sum(L[i][j] * [2, -1, 0][j] for j in range(3)) for i in range(3)]
        x = oracle_solve_integer(L, b)
        assert x is not None
        for i in range(3):
            assert sum(L[i][j] * x[j] for j in range(3)) == b[i]

    def test_unsolvable(self):
        assert oracle_solve_integer([[2]], [1]) is None

    def test_free_column(self):
        # 2x + 3y = 1 is solvable over the integers
        x = oracle_solve_integer([[2, 3]], [1])
        assert x is not None and 2 * x[0] + 3 * x[1] == 1

    def test_inconsistent_rows(self):
        assert oracle_solve_integer([[1, 1], [1, 1]], [0, 1]) is None


class TestSemistableCounts:
    def test_general_census_equals_spanning_trees(self):
        # a general stability has exactly one semistable multidegree in
        # each chip-firing class, and the classes are as many as the
        # spanning trees (Oda-Seshadri); the census runs over the derived
        # degree windows of enumerate_semistable, not a fixed box
        graphs = [banana(), k4(), cycle5(), k4_plus_path2()]
        assert [oracle_spanning_trees(g) for g in graphs] == [2, 16, 5, 16]
        for g in graphs:
            general = [s for s in enumerate_orbits(g) if s.is_general()]
            assert general
            for s in general:
                degrees = [
                    I.multidegree
                    for I in enumerate_semistable(g, s, full_support_only=True)
                    if not I.nonfree
                ]
                assert len(degrees) == oracle_spanning_trees(g)
                for i, d in enumerate(degrees):
                    for e in degrees[i + 1:]:
                        assert not same_orbit(g, d, e)[0]

    @pytest.mark.parametrize("graphs", ["ladder", "catalogue-5-6"])
    def test_general_census_by_nonfree_set(self, graphs):
        # for a general stability the full-support semistable classes with
        # non-free set N are the stable line bundles of G - N, one per
        # spanning tree of G - N and none when it is disconnected: the
        # strata of a fine compactified Jacobian (Melo-Viviani); summed
        # over N they number tau(G) 2**b1
        pool = (
            [banana(), triangle(), k4(), cycle5(), k4_plus_path2()]
            if graphs == "ladder" else connected_multigraphs(5, 6)
        )
        orbits = 0
        for g in pool:
            subsets = [
                frozenset(N) for r in range(len(g.edges) + 1)
                for N in itertools.combinations(range(len(g.edges)), r)
            ]
            trees = {N: oracle_spanning_trees(g, N) for N in subsets}
            b1 = len(g.edges) - g.n + 1
            for s in enumerate_orbits(g):
                if not s.is_general():
                    continue
                count = dict.fromkeys(subsets, 0)
                for I in enumerate_semistable(g, s, full_support_only=True):
                    count[I.nonfree] += 1
                assert count == trees
                assert sum(count.values()) == trees[frozenset()] * 2 ** b1
                orbits += 1
        assert orbits == {"ladder": 47, "catalogue-5-6": 330}[graphs]


class TestExactIntegers:
    """Floats, bools and other non-int entries are refused, not truncated."""

    @pytest.mark.parametrize("call", [
        lambda s: esteves_limit((3.0, -3), s),
        lambda s: esteves_limit((True, -1), s),
        lambda s: beta_deficit((0.5, -0.5), s),
        lambda s: twist(s.graph, (1.5, -1.5), 1),
        lambda s: same_orbit(s.graph, (1, -1), (False, 0)),
        lambda s: line_bundle_chi(s.graph, (1.5, -1.5), 1),
        lambda s: line_bundle_chi(s.graph, (True, 0), 1),
        lambda s: beta((0.5, -0.5), s, 1),
    ], ids=["limit-float", "limit-bool", "deficit", "twist", "same-orbit",
            "line-bundle-chi-float", "line-bundle-chi-bool", "beta"])
    def test_multidegree(self, call):
        # line_bundle_chi once returned 2.5 and 2 on the float and bool
        with pytest.raises(TypeError, match="multidegree entry"):
            call(s_banana_zero())

    @pytest.mark.parametrize("call", [
        lambda s: line_bundle_chi(s.graph, (1, -1, 7), 1),
        lambda s: line_bundle_chi(s.graph, (1,), 1),
        lambda s: beta((1, -1, 7), s, 3),
        lambda s: twist(s.graph, (1,), 1),
    ], ids=["line-bundle-chi-long", "line-bundle-chi-short", "beta", "twist"])
    def test_multidegree_length(self, call):
        # line_bundle_chi once dropped the 7 and raised a bare IndexError on (1,)
        with pytest.raises(DomainMismatch, match="one degree per component"):
            call(s_banana_zero())

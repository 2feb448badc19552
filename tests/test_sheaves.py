import functools
import itertools

import pytest

from vstab import OrderedPartition, SheafData, VStability
from vstab.errors import (
    DomainMismatch,
    EmptySubcurve,
    InvalidPartition,
    NotSemistable,
)
from vstab.posets import enumerate_orbits, translate, vstab_leq
from vstab.sheaves import (
    enumerate_semistable,
    extension_glue,
    gr_specialize,
    is_polystable,
    is_polystable_via_extended,
    is_semistable,
    is_stable,
    is_stable_via_extended,
    polystable_limit,
    semistable_line_bundles,
    stable_summands,
    tight_unsplit_witnesses,
)

from conftest import (
    banana, cycle4, cycle5, genus_decorated, k4, oracle_box_semistable, oracle_euler_char_on,
    oracle_semistable, path3, triangle, triangle_genus1,
)

# the curves of the cube-rule tests: multi-edges, a genus-1 vertex, a
# loop (genus_decorated), and K4; the oracle comparison adds C5
CUBE_GRAPHS = [banana, triangle, triangle_genus1, genus_decorated, k4]


def s_banana_zero():
    return VStability.from_dict(banana(), 0, {1: 0, 2: 0})


def all_sheaves(g, supports=None, window=2):
    """Every sheaf class with degrees in a box; small graphs only."""
    out = []
    for supp in supports or range(1, g.full_mask + 1):
        verts = [v for v in range(g.n) if (supp >> v) & 1]
        internal = g.internal_edges(supp)
        for nf_bits in range(1 << len(internal)):
            nonfree = frozenset(
                internal[i] for i in range(len(internal)) if (nf_bits >> i) & 1
            )
            for degs in itertools.product(range(-window, window + 1), repeat=len(verts)):
                d = [0] * g.n
                for v, dv in zip(verts, degs):
                    d[v] = dv
                out.append(SheafData(g, supp, tuple(d), nonfree))
    return out


@functools.cache
def census(make, W):
    """(s, the semistable classes with degrees in [-W, W] by generate-and-test)
    per orbit; W is None for all of them."""
    return [(s, oracle_semistable(s, degree_window=W)) for s in enumerate_orbits(make())]


def lifts(I):
    """The line bundles d + (1 at a chosen endpoint of e, each e in N), one
    per choice of endpoints; a loop has one choice."""
    g = I.graph
    out = set()
    for ends in itertools.product(*(g.edges[e] for e in I.nonfree)):
        d = list(I.multidegree)
        for v in ends:
            d[v] += 1
        out.add(SheafData(g, I.support, tuple(d), frozenset()))
    return out


class TestExactIntegers:
    @pytest.mark.parametrize("multidegree, nonfree, field", [
        ((1.9, -0.5), (), "multidegree entry"),
        ((True, 0), (), "multidegree entry"),
        ((1, 0), (0.0,), "nonfree edge index"),
    ])
    def test_constructor_refuses_non_ints(self, multidegree, nonfree, field):
        # (1.9, -0.5) was once truncated to the multidegree (1, 0)
        with pytest.raises(TypeError, match=field):
            SheafData(banana(), 3, multidegree, nonfree)

    def test_partition_refuses_non_ints(self):
        # (1.9, 2) was once truncated to the parts (1, 2)
        with pytest.raises(TypeError, match="partition part"):
            OrderedPartition((1.9, 2))

    def test_free_boundary_refuses_non_ints(self):
        g = banana()
        J = SheafData(g, 0b10, (0, -1), frozenset())
        I = SheafData(g, 0b01, (-1, 0), frozenset())
        with pytest.raises(TypeError, match="free boundary node"):
            extension_glue(J, I, frozenset({0.0}))


class TestSupportMask:
    @pytest.mark.parametrize("support", [-1, 1.5, True, 0b100],
                             ids=["-1", "1.5", "True", "full+1"])
    def test_refused(self, support):
        # True was once taken as the support 0b01, and 1.5 raised a bare
        # TypeError from the support's own range test
        with pytest.raises(DomainMismatch, match="a support"):
            SheafData(banana(), support, (0, 0), frozenset())

    def test_empty_support(self):
        with pytest.raises(EmptySubcurve):
            SheafData(banana(), 0, (0, 0), frozenset())


class TestEulerChar:
    @pytest.mark.parametrize("make", [banana, triangle, cycle4, k4], ids=lambda f: f.__name__)
    def test_restricted_chi_matches_the_formula(self, make):
        # chi on Z of every class of every orbit, through the restriction,
        # against line_chi_base + degrees + non-free nodes on Z meet support
        g = make()
        for s in enumerate_orbits(g):
            for I in enumerate_semistable(g, s):
                for Z in range(1, g.full_mask + 1):
                    if Z & I.support:
                        assert I.euler_char_on(Z) == oracle_euler_char_on(I, Z), (I, Z)

    def test_structure_sheaf(self):
        for g in [banana(), triangle(), path3(), genus_decorated()]:
            I = SheafData.line_bundle(g, (0,) * g.n)
            assert I.euler_char() == 1 - g.genus

    def test_split_degree_minus_one(self):
        g = banana()
        I = SheafData(g, 0b11, (-1, -1), frozenset({0, 1}))
        assert I.euler_char() == 0

    def test_line_bundle_degree_formula(self):
        for g in [banana(), triangle(), genus_decorated()]:
            for d in itertools.product(range(-2, 3), repeat=g.n):
                I = SheafData.line_bundle(g, d)
                assert I.euler_char() == sum(d) + 1 - g.genus

    def test_additivity_exhaustive(self):
        # chi(I) = chi(I restricted to Y) + chi(subsheaf on the complement)
        for g in [banana(), triangle(), path3()]:
            for I in all_sheaves(g, supports=[g.full_mask], window=2):
                for Y in range(1, g.full_mask):
                    left = I.restrict(Y).euler_char()
                    right = I.sub_part(g.complement(Y)).euler_char()
                    assert left + right == I.euler_char()


class TestRestrictions:
    def test_restrict_to_support_is_identity(self):
        g = banana()
        I = SheafData(g, 0b11, (0, -1), frozenset({0}))
        assert I.restrict(0b11) == I

    def test_two_cycle_line_bundle(self):
        g = banana()
        I = SheafData.line_bundle(g, (2, -1))
        R = I.restrict(0b01)
        assert R.multidegree == (2, 0) and R.euler_char() == 3
        S = I.sub_part(0b01)
        assert S.multidegree == (0, 0) and S.euler_char() == 1

    def test_nonfree_boundary_means_equal(self):
        g = banana()
        I = SheafData(g, 0b11, (1, 0), frozenset({0, 1}))
        assert I.restrict(0b01) == I.sub_part(0b01)

    def test_empty_meet_rejected(self):
        g = banana()
        I = SheafData(g, 0b01, (1, 0), frozenset())
        with pytest.raises(EmptySubcurve):
            I.restrict(0b10)

    def test_transitive(self):
        for g in [triangle(), path3()]:
            for I in all_sheaves(g, supports=[g.full_mask], window=1):
                for Z in range(1, g.full_mask + 1):
                    for Y in range(1, g.full_mask + 1):
                        if Y & Z == Y and Y & I.support:
                            assert I.restrict(Z).restrict(Y) == I.restrict(Y)


    @pytest.mark.parametrize("method", ["restrict", "euler_char_on", "splits_at", "sub_part"])
    @pytest.mark.parametrize("Y", [-1, 1.5, True, 0b100], ids=["-1", "1.5", "True", "full+1"])
    def test_mask_out_of_range_refused(self, method, Y):
        # restrict(-1) once gave the whole support, so euler_char_on(-1) was
        # the support's chi and splits_at(-1) True
        I = SheafData(banana(), 0b11, (0, -1), frozenset({0}))
        with pytest.raises(DomainMismatch):
            getattr(I, method)(Y)


class TestSplitting:
    def test_line_bundle_is_simple(self):
        I = SheafData.line_bundle(banana(), (3, -1))
        assert I.aut_rank() == 1 and I.is_simple()

    def test_fully_nonfree_splits(self):
        g = banana()
        I = SheafData(g, 0b11, (-1, -1), frozenset({0, 1}))
        assert I.splits_at(0b01)
        assert I.aut_rank() == 2

    def test_pieces_chi_sums(self):
        for g in [banana(), triangle()]:
            for I in all_sheaves(g, window=1):
                pieces = I.canonical_decomposition()
                assert sum(p.euler_char() for p in pieces) == I.euler_char()
                assert I.aut_rank() == len(pieces)


class TestSemistable:
    def test_line_bundles_two_cycle(self):
        s = s_banana_zero()
        g = s.graph
        semi = [
            d for d in itertools.product(range(-3, 4), repeat=2)
            if sum(d) == 0 and is_semistable(SheafData.line_bundle(g, d), s)
        ]
        assert semi == [(-1, 1), (0, 0), (1, -1)]

    def test_split_polystable(self):
        s = s_banana_zero()
        I = SheafData(s.graph, 0b11, (-1, -1), frozenset({0, 1}))
        assert is_polystable(I, s)
        pieces = stable_summands(I, s)
        assert len(pieces) == 2
        assert all(is_stable(p, s) for p in pieces)

    def test_half_split_not_polystable(self):
        s = s_banana_zero()
        I = SheafData(s.graph, 0b11, (0, -1), frozenset({0}))
        assert is_semistable(I, s) and not is_polystable(I, s)

    def test_definitions_agree_with_extended_characterization(self):
        g = triangle()
        for s in enumerate_orbits(g):
            for I in all_sheaves(g, window=2):
                assert is_polystable(I, s) == is_polystable_via_extended(I, s)
                assert is_stable(I, s) == is_stable_via_extended(I, s)

    def test_stable_iff_polystable_and_simple(self):
        g = banana()
        for s in enumerate_orbits(g):
            for I in all_sheaves(g, window=2):
                expected = is_polystable(I, s) and I.is_simple()
                assert is_stable(I, s) == expected

    def test_general_collapses_all_three(self):
        g = banana()
        s = VStability.from_dict(g, 0, {1: 0, 2: 1})
        assert s.is_general()
        for I in all_sheaves(g, window=2):
            semi = is_semistable(I, s)
            assert is_polystable(I, s) == semi
            assert is_stable(I, s) == semi

    def test_monotone_under_domination(self):
        g = banana()
        s = VStability.from_dict(g, 0, {1: 0, 2: 1})   # general
        t = VStability.from_dict(g, 0, {1: 0, 2: 0})   # degenerate
        assert vstab_leq(s, t)
        for I in all_sheaves(g, window=2):
            if is_semistable(I, s):
                assert is_semistable(I, t)


class TestRestrictionEquivalences:
    def test_four_way(self):
        # restriction semistable <=> components degenerate with tight chi
        # <=> complement subsheaf semistable <=> complement condition
        g = triangle()
        for s in enumerate_orbits(g):
            dhat = s.extended_degeneracy
            for I in all_sheaves(g, supports=[g.full_mask], window=2):
                if not is_semistable(I, s):
                    continue
                for Y in range(1, g.full_mask):
                    Yc = g.complement(Y)
                    c1 = is_semistable(I.restrict(Y), s)
                    c2 = all(
                        W in dhat and I.restrict(W).euler_char() == s.extended_value(W)
                        for W in g.connected_components(Y)
                    )
                    c3 = is_semistable(I.sub_part(Yc), s)
                    c4 = all(
                        W in dhat and I.sub_part(W).euler_char() == s.extended_value(W)
                        for W in g.connected_components(Yc)
                    )
                    assert c1 == c2 == c3 == c4


class TestDerivedBounds:
    def test_subsheaf_chi_bounds(self):
        # for semistable I: chi of the subsheaf on W is at most the value,
        # minus one on nondegenerate biconnected W; and the sandwich
        # chi(I_W) >= value >= chi - value(complement) >= chi(sub part)
        g = triangle()
        for s in enumerate_orbits(g):
            D = s.degeneracy_set().members
            for I in all_sheaves(g, supports=[g.full_mask], window=2):
                if not is_semistable(I, s):
                    continue
                for W in g.biconnected_subcurves:
                    bound = s.value(W) - (0 if W in D else 1)
                    assert I.sub_part(W).euler_char() <= bound
                for W in g.connected_subcurves:
                    ext = s.extended_value(W)
                    comp = (
                        0 if W == g.full_mask
                        else s.extended_value(g.complement(W))
                    )
                    assert I.restrict(W).euler_char() >= ext
                    assert ext >= s.chi - comp if W != g.full_mask else True
                    assert s.chi - comp <= I.restrict(W).euler_char()


class TestGrSpecialize:
    def test_trivial_partition(self):
        g = banana()
        I = SheafData.line_bundle(g, (1, -1))
        assert gr_specialize(I, OrderedPartition((0b11,))) == I

    def test_two_cycle_example(self):
        g = banana()
        I = SheafData.line_bundle(g, (0, 0))
        G = gr_specialize(I, OrderedPartition((0b10, 0b01)))
        assert G.multidegree == (-2, 0)
        assert G.nonfree == frozenset({0, 1})
        assert G.euler_char() == I.euler_char() == 0

    def test_not_a_partition_rejected(self):
        g = banana()
        I = SheafData.line_bundle(g, (0, 0))
        with pytest.raises(InvalidPartition):
            gr_specialize(I, OrderedPartition((0b01,)))
        with pytest.raises(InvalidPartition):
            OrderedPartition((0b01, 0b11))

    def test_identity_iff_split_at_cross_edges(self):
        g = triangle()
        for I in all_sheaves(g, supports=[g.full_mask], window=1):
            for Y in range(1, g.full_mask):
                P = OrderedPartition((Y, g.complement(Y)))
                unchanged = gr_specialize(I, P) == I
                assert unchanged == I.splits_at(Y)

    def test_chi_preserved_all_partitions(self):
        g = path3()
        I = SheafData.line_bundle(g, (1, 0, -1))
        masks = [0b001, 0b010, 0b100]
        for perm in itertools.permutations(masks):
            G = gr_specialize(I, OrderedPartition(perm))
            assert G.euler_char() == I.euler_char()

    def test_gr_two_step_semistability_criterion(self):
        # the two-part graded object stays semistable exactly when the
        # pieces of the front part are degenerate with tight chi
        g = triangle()
        for s in enumerate_orbits(g):
            dhat = s.extended_degeneracy
            for I in all_sheaves(g, supports=[g.full_mask], window=2):
                if not is_semistable(I, s):
                    continue
                for Y in range(1, g.full_mask):
                    G = gr_specialize(I, OrderedPartition((Y, g.complement(Y))))
                    expected = all(
                        W in dhat and I.restrict(W).euler_char() == s.extended_value(W)
                        for W in g.connected_components(Y)
                    )
                    assert is_semistable(G, s) == expected


class TestPolystableLimit:
    def test_stable_fixed(self):
        s = s_banana_zero()
        I = SheafData(s.graph, 0b11, (-1, -1), frozenset({0, 1}))
        assert polystable_limit(I, s) == I

    def test_half_split_reduces(self):
        s = s_banana_zero()
        I = SheafData(s.graph, 0b11, (0, -1), frozenset({0}))
        out = polystable_limit(I, s)
        assert out.multidegree == (-1, -1)
        assert out.nonfree == frozenset({0, 1})
        assert is_polystable(out, s)

    def test_rejects_unstable(self):
        s = s_banana_zero()
        I = SheafData.line_bundle(s.graph, (2, -2))
        with pytest.raises(NotSemistable):
            polystable_limit(I, s)

    def test_order_independence(self):
        # branch over every reduction witness at every step
        g = triangle()
        for s in enumerate_orbits(g):
            for I in all_sheaves(g, supports=[g.full_mask], window=2):
                if not is_semistable(I, s):
                    continue
                results = set()

                def explore(J):
                    ws = tight_unsplit_witnesses(J, s)
                    if not ws:
                        results.add(J)
                        return
                    for Z in ws:
                        explore(gr_specialize(
                            J, OrderedPartition((Z, J.support & ~Z))
                        ))

                explore(I)
                assert results == {polystable_limit(I, s)}

    def test_idempotent(self):
        g = triangle()
        for s in enumerate_orbits(g):
            for I in all_sheaves(g, supports=[g.full_mask], window=2):
                if is_semistable(I, s):
                    out = polystable_limit(I, s)
                    assert polystable_limit(out, s) == out


class TestEnumerate:
    def test_two_cycle_full_support(self):
        s = s_banana_zero()
        classes = enumerate_semistable(s.graph, s, full_support_only=True)
        line_bundles = {I.multidegree for I in classes if not I.nonfree}
        assert line_bundles == {(-1, 1), (0, 0), (1, -1)}
        split = [I for I in classes if len(I.nonfree) == 2]
        assert [I.multidegree for I in split] == [(-1, -1)]
        half = {(I.multidegree, tuple(sorted(I.nonfree))) for I in classes
                if len(I.nonfree) == 1}
        assert half == {
            ((0, -1), (0,)), ((0, -1), (1,)), ((-1, 0), (0,)), ((-1, 0), (1,)),
        }

    def test_matches_brute_force(self):
        g = triangle()
        for s in enumerate_orbits(g)[:6]:
            fast = set(enumerate_semistable(g, s))
            slow = {
                I for I in all_sheaves(g, window=3)
                if is_semistable(I, s)
                and I.euler_char() == sum(
                    s.extended_value(c)
                    for c in g.connected_components(I.support)
                )
            }
            assert fast == slow

    def test_window_override(self):
        s = s_banana_zero()
        wide = enumerate_semistable(s.graph, s, full_support_only=True,
                                    degree_window=5)
        tight = enumerate_semistable(s.graph, s, full_support_only=True)
        assert set(tight) == set(wide)

    # (graph, orbits tried, largest window): every orbit of the small
    # graphs; on K4 and C5 the first orbit and the first general one, to
    # keep the box search of the oracle within seconds
    @pytest.mark.parametrize("make, every_orbit, top", [
        (banana, True, 3), (triangle, True, 3), (triangle_genus1, True, 3),
        (genus_decorated, True, 3), (k4, False, 2), (cycle5, False, 2),
    ], ids=lambda x: getattr(x, "__name__", None))
    def test_window_narrows_the_forced_windows_like_the_box(self, make, every_orbit, top):
        # --window W meets each forced window with [-W, W]; the forced
        # windows are complete, so this lists what the symmetric box search
        # found, in the same order, on orbits translated off characteristic 0
        g = make()
        orbits = enumerate_orbits(g)
        if not every_orbit:
            orbits = [orbits[0], next(s for s in orbits if s.is_general())]
        for s0 in orbits:
            for t in (0, 2, -3):
                s = translate(s0, (t,) + (0,) * (g.n - 1))
                for W in range(top + 1):
                    for full in (True, False):
                        assert enumerate_semistable(
                            g, s, full_support_only=full, degree_window=W
                        ) == oracle_box_semistable(s, W, full)

    @pytest.mark.parametrize("W", [-1, True, 1.5], ids=["negative", "bool", "float"])
    def test_degree_window_is_an_exact_non_negative_int(self, W):
        # -1 once returned [], True was read as 1 and 1.5 raised from range
        g = triangle()
        with pytest.raises(ValueError, match="degree_window"):
            enumerate_semistable(g, enumerate_orbits(g)[0], degree_window=W)

    @pytest.mark.parametrize("W", [None, 0, 1, 2])
    @pytest.mark.parametrize("make", CUBE_GRAPHS + [cycle5], ids=lambda f: f.__name__)
    def test_matches_generate_and_test(self, make, W):
        # the build by cubes lists what testing every candidate of the
        # forced windows lists, in the same order, on every orbit
        g = make()
        for s, want in census(make, W):
            assert enumerate_semistable(g, s, degree_window=W) == want
            assert enumerate_semistable(g, s, full_support_only=True, degree_window=W) == [
                I for I in want if I.support == g.full_mask
            ]

    @pytest.mark.parametrize("make", CUBE_GRAPHS + [cycle5], ids=lambda f: f.__name__)
    def test_line_bundles_are_the_classes_with_no_nonfree_node(self, make):
        g = make()
        for s, every in census(make, None):
            for supp in range(1, g.full_mask + 1):
                assert semistable_line_bundles(s, supp) == [
                    I for I in every if I.support == supp and not I.nonfree
                ]


class TestEnumeratedClassesPassTheChecks:
    """The checks ``SheafData._trusted`` skips, asserted over every class
    ``enumerate_semistable`` (all supports) and ``semistable_line_bundles``
    build for every orbit of these graphs: each, rebuilt through the
    public constructor, equals the class built."""

    @pytest.mark.parametrize("make", [banana, triangle, cycle4, k4], ids=lambda f: f.__name__)
    def test_rebuilt_through_the_public_constructor(self, make):
        g = make()
        checked = 0
        for s in enumerate_orbits(g):
            built = enumerate_semistable(g, s)
            for supp in range(1, g.full_mask + 1):
                built += semistable_line_bundles(s, supp)
            for I in built:
                assert SheafData(g, I.support, I.multidegree, I.nonfree) == I
            checked += len(built)
        assert checked > 0


class TestCubeRule:
    """(N, d) against its lifts, by is_semistable and is_stable alone."""

    @pytest.mark.parametrize("make", CUBE_GRAPHS, ids=lambda f: f.__name__)
    def test_semistable_iff_every_lift_is(self, make):
        # the candidates per (support, N) are the semistable classes and
        # each semistable line bundle lowered at the first endpoint of every
        # e in N; a class outside them is not semistable, and neither is
        # that lift of it, so the equivalence holds everywhere
        g = make()
        for s, every in census(make, None):
            memo = {}

            def semistable(I):
                if I not in memo:
                    memo[I] = is_semistable(I, s)
                return memo[I]

            classes = {}
            for I in every:
                classes.setdefault((I.support, I.nonfree), set()).add(I)
            for supp in {I.support for I in every}:
                internal = g.internal_edges(supp)
                for r in range(len(internal) + 1):
                    for N in map(frozenset, itertools.combinations(internal, r)):
                        candidates = set(classes.get((supp, N), ()))
                        for d in (I.multidegree for I in classes.get((supp, frozenset()), ())):
                            low = list(d)
                            for e in N:
                                low[g.edges[e][0]] -= 1
                            candidates.add(SheafData(g, supp, tuple(low), N))
                        for I in candidates:
                            assert semistable(I) == all(map(semistable, lifts(I)))

    @pytest.mark.parametrize("make", CUBE_GRAPHS, ids=lambda f: f.__name__)
    def test_one_edge_lifts_keep_semistable_and_stable(self, make):
        g = make()
        for s, every in census(make, None):
            for I in every:
                stable = is_stable(I, s)
                for e in I.nonfree:
                    for v in g.edges[e]:
                        d = list(I.multidegree)
                        d[v] += 1
                        J = SheafData(g, I.support, tuple(d), I.nonfree - {e})
                        assert is_semistable(J, s)
                        assert is_stable(J, s) or not stable


class TestExtensionGlue:
    def test_two_cycle_reassembly(self):
        s = s_banana_zero()
        g = s.graph
        J = SheafData(g, 0b10, (0, -1), frozenset())
        I = SheafData(g, 0b01, (-1, 0), frozenset())
        K = extension_glue(J, I, frozenset({1}))
        assert K.multidegree == (0, -1)
        assert K.nonfree == frozenset({0})
        assert is_semistable(K, s)

    def test_restriction_recovers_inputs(self):
        s = s_banana_zero()
        g = s.graph
        J = SheafData(g, 0b10, (0, -1), frozenset())
        I = SheafData(g, 0b01, (-1, 0), frozenset())
        for free in [frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})]:
            K = extension_glue(J, I, free)
            assert K.restrict(0b10) == J
            assert K.sub_part(0b01) == I

    def test_closure_under_extension(self):
        # gluing semistable pieces along extended-degenerate supports stays
        # semistable for every free-boundary pattern
        g = triangle()
        for s in enumerate_orbits(g):
            dhat = s.extended_degeneracy
            pieces = [
                I for I in all_sheaves(g, window=2)
                if is_semistable(I, s)
            ]
            for J in pieces:
                for I in pieces:
                    if J.support & I.support:
                        continue
                    union = J.support | I.support
                    if not all(
                        c in dhat for c in g.connected_components(union)
                    ):
                        continue
                    boundary = [
                        e for e in g.internal_edges(union)
                        if e not in g.internal_edges(J.support)
                        and e not in g.internal_edges(I.support)
                    ]
                    for bits in range(1 << len(boundary)):
                        free = frozenset(
                            boundary[i] for i in range(len(boundary))
                            if (bits >> i) & 1
                        )
                        K = extension_glue(J, I, free)
                        assert is_semistable(K, s)

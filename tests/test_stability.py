import random

import pytest
from hypothesis import given, settings, strategies as st

from vstab import DualGraph, VStability, pullback
from vstab.errors import DomainMismatch, EmptySubcurve, InvalidStability, NotDegenerate
from vstab.graphenum import connected_multigraphs
from vstab.graphs import vertices_of
from vstab.posets import enumerate_orbits, enumerate_window_stabilities, translate
from vstab.stability import DegeneracySet

from conftest import (
    LADDER,
    POOL_N5,
    TABLE_POOL,
    banana,
    genus_decorated,
    k4,
    oracle_extended_degeneracy,
    oracle_extended_value,
    oracle_is_degenerate,
    oracle_validate,
    oracle_validate_via_union,
    path3,
    time_bound,
    triangle,
    triangle_genus1,
)


def make(graph, chi, mapping):
    return VStability.from_dict(graph, chi, mapping)


class TestExactIntegers:
    """Floats, bools and other non-int entries are refused, not truncated."""

    @pytest.mark.parametrize("chi, values, field", [
        (0, (0.7, 0.2), "stability value"),
        (0, (True, False), "stability value"),
        (0.0, (0, 0), "chi"),
    ])
    def test_constructor(self, chi, values, field):
        with pytest.raises(TypeError, match=field):
            VStability(banana(), chi, values)

    def test_translation(self):
        with pytest.raises(TypeError, match="translation entry"):
            translate(VStability(banana(), 0, (0, 0)), (0.5, 0))

    # a float subcurve once failed formatting the message, and True read
    # subcurve 1 (it is equal to 1 and hashes like it)
    @pytest.mark.parametrize("call, Y", [
        ("value", 1.5),
        ("is_degenerate", 1.5),
        ("value", True),
        ("is_degenerate", True),
        ("extended_value", True),
        ("extended_value", 1.5),
        ("extended_value", 0.0),
    ])
    def test_subcurve_argument(self, call, Y):
        s = VStability(banana(), 0, (0, 0))
        with pytest.raises(DomainMismatch, match="a subcurve must be an int"):
            getattr(s, call)(Y)

    @pytest.mark.parametrize("members", [{True, 2}, {1.0, 2}, {1, 2.0}])
    def test_degeneracy_set_members(self, members):
        with pytest.raises(DomainMismatch, match="a member must be an int"):
            DegeneracySet(banana(), members)


class TestValidate:
    def test_banana_degenerate_ok(self):
        s = make(banana(), 0, {1: 0, 2: 0})
        assert s.validate().ok
        assert s.degeneracy_set().members == frozenset({1, 2})

    def test_banana_pair_sum_violation(self):
        s = make(banana(), 0, {1: 0, 2: 2})
        report = s.validate()
        assert not report.ok
        assert any(v.kind == "pair-sum" and 1 in v.subcurves for v in report.violations)

    def test_triangle_all_zero(self):
        g = triangle()
        s = make(g, 0, {Y: 0 for Y in g.biconnected_subcurves})
        assert s.validate().ok
        assert len(s.degeneracy_set().members) == 6

    def test_missing_key_rejected(self):
        with pytest.raises(DomainMismatch):
            make(banana(), 0, {1: 0})

    def test_all_violations_reported(self):
        g = triangle()
        vals = {Y: 5 for Y in g.biconnected_subcurves}
        report = make(g, 0, vals).validate()
        assert len(report.violations) >= 3


class TestValidatorAgreement:
    def test_frozen_examples(self):
        cases = [
            (banana(), 0, {1: 0, 2: 0}),
            (banana(), 0, {1: 0, 2: 2}),
            (banana(), 0, {1: 0, 2: 1}),
        ]
        g = triangle()
        cases.append((g, 0, {Y: 0 for Y in g.biconnected_subcurves}))
        for graph, chi, vals in cases:
            s = make(graph, chi, vals)
            assert s.validate().ok == s.validate_via_union().ok

    def test_exhaustive_small(self, graphs_n4):
        # cross-oracle over the candidate window (both verdict directions
        # are covered: valids from the pruned search, plus perturbations)
        for g in graphs_n4:
            for s in enumerate_window_stabilities(g):
                assert s.validate_via_union().ok

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_perturbation_fuzz(self, data):
        g = data.draw(st.sampled_from([banana(), triangle(), path3(), k4()]))
        stabs = enumerate_window_stabilities(g)
        s = data.draw(st.sampled_from(stabs))
        idx = data.draw(st.integers(0, len(s.values) - 1))
        bump = data.draw(st.sampled_from([-2, -1, 1, 2]))
        values = list(s.values)
        values[idx] += bump
        t = VStability(g, s.chi, tuple(values))
        assert t.validate().ok == t.validate_via_union().ok


def _perturbed(s, rng):
    """s with one to three entries moved by +-1 or +-2."""
    values = list(s.values)
    for i in rng.sample(range(len(values)), rng.randint(1, min(3, len(values)))):
        values[i] += rng.choice((-2, -1, 1, 2))
    return VStability(s.graph, s.chi, tuple(values))


def _translated(s, rng):
    """s moved by a seeded translation of nonzero total, so chi != 0."""
    tau = [rng.randint(-3, 3) for _ in range(s.graph.n)]
    tau[0] += 1 if sum(tau) == 0 else 0
    return translate(s, tau)


class TestValidatorsMatchOracles:
    """The table-driven validators against their method-call originals:
    equal reports, so the same violations in the same order with the
    same messages."""

    @staticmethod
    def check(s):
        assert s.validate() == oracle_validate(s)
        assert s.validate_via_union() == oracle_validate_via_union(s)

    @pytest.mark.parametrize("make", LADDER, ids=lambda f: f.__name__)
    def test_window_stabilities_of_ladder(self, make):
        for s in enumerate_window_stabilities(make()):
            self.check(s)

    @pytest.mark.parametrize("make", LADDER, ids=lambda f: f.__name__)
    def test_perturbations_and_translates_of_ladder(self, make):
        rng = random.Random(make.__name__)
        stabs = enumerate_window_stabilities(make())
        invalid = 0
        for s in rng.sample(stabs, min(150, len(stabs))):
            self.check(_translated(s, rng))
            for _ in range(4):
                t = _perturbed(s, rng)
                self.check(t)
                self.check(_translated(t, rng))
                invalid += not t.is_valid
        assert invalid > 0

    def test_catalogue(self):
        rng = random.Random(46)
        checked = 0
        for g in connected_multigraphs(4, 6):
            for s in enumerate_window_stabilities(g):
                cases = [s, _translated(s, rng)]
                if s.values:    # the catalogue includes single vertices
                    cases.append(_perturbed(s, rng))
                for t in cases:
                    self.check(t)
                    checked += 1
        assert checked > 1000


class TestDegeneracy:
    def test_general_banana(self):
        s = make(banana(), 0, {1: 0, 2: 1})
        assert s.is_general()
        assert s.degeneracy_set().members == frozenset()

    def test_invalid_rejected(self):
        s = make(banana(), 0, {1: 0, 2: 2})
        with pytest.raises(InvalidStability):
            s.degeneracy_set()

    def test_degeneracy_set_invariants(self, graphs_n4):
        for g in graphs_n4:
            for s in enumerate_window_stabilities(g):
                DegeneracySet(g, s.degeneracy_set().members)  # closure enforced

    @pytest.mark.parametrize("make", LADDER, ids=lambda f: f.__name__)
    def test_degenerate_set_needs_no_validity(self, make):
        # perturbed window stabilities: the pair-sum set and is_degenerate
        # are read before any validation, while degeneracy_set and
        # is_general still refuse an invalid stability
        rng = random.Random(make.__name__)
        g = make()
        stabs = enumerate_window_stabilities(g)
        invalid = 0
        for s in rng.sample(stabs, min(150, len(stabs))):
            t = _perturbed(s, rng)
            oracle = [oracle_is_degenerate(t, Y) for Y in g.biconnected_subcurves]
            assert [t.is_degenerate(Y) for Y in g.biconnected_subcurves] == oracle
            assert t.degenerate == frozenset(
                Y for Y, d in zip(g.biconnected_subcurves, oracle) if d
            )
            if t.is_valid:
                assert t.degeneracy_set().members == t.degenerate
                assert t.is_general() == (not t.degenerate)
                continue
            invalid += 1
            with pytest.raises(InvalidStability):
                t.degeneracy_set()
            with pytest.raises(InvalidStability):
                t.is_general()
        assert invalid > 0

    @pytest.mark.parametrize("Y", [0, 3, 4, -1])
    def test_is_degenerate_off_biconnected(self, Y):
        s = make(banana(), 0, {1: 0, 2: 0})
        with pytest.raises(DomainMismatch, match="not biconnected"):
            s.is_degenerate(Y)


class TestExtended:
    def test_whole_curve(self):
        s = make(banana(), 0, {1: 0, 2: 0})
        assert s.extended_value(0b11) == 0

    def test_stored_on_biconnected(self, graphs_n4):
        for g in graphs_n4:
            for s in enumerate_window_stabilities(g):
                for Y in g.biconnected_subcurves:
                    assert s.extended_value(Y) == s.value(Y)

    def test_disconnected_sum(self):
        g = path3()
        s = make(g, 0, {0b001: 0, 0b011: 0, 0b100: 1, 0b110: 0})
        assert s.is_valid
        assert s.extended_value(0b101) == s.value(0b001) + s.value(0b100)

    def test_empty_rejected(self):
        s = make(banana(), 0, {1: 0, 2: 0})
        with pytest.raises(EmptySubcurve):
            s.extended_value(0)

    @pytest.mark.parametrize("Y", [-1, -3, 4, 5, pytest.param(1 << 10**6, id="huge")])
    def test_mask_out_of_range_rejected(self, Y):
        # -1 once read the whole curve's value and 4 raised a bare IndexError;
        # a mask past 4300 decimal digits raised ValueError from the message
        s = make(banana(), 0, {1: 0, 2: 0})
        with time_bound(2), pytest.raises(DomainMismatch, match="not a mask"):
            s.extended_value(Y)

    @pytest.mark.parametrize("make", TABLE_POOL, ids=lambda f: f.__name__)
    def test_table_matches_recursive_oracle(self, make):
        # every window stability, and one invalid stability wherever there
        # is a biconnected subcurve to carry it
        g = make()
        stabs = enumerate_window_stabilities(g)
        if g.biconnected_subcurves:
            bad = VStability(g, 0, tuple(range(1, len(g.biconnected_subcurves) + 1)))
            assert not bad.is_valid
            stabs.append(bad)
        for s in stabs:
            assert s.extended_values[0] == 0
            assert s.extended_values[1:] == [
                oracle_extended_value(s, Y) for Y in range(1, g.full_mask + 1)
            ]

    def test_extended_degeneracy_banana(self):
        s = make(banana(), 0, {1: 0, 2: 0})
        assert s.extended_degeneracy == frozenset({0b01, 0b10, 0b11})
        t = make(banana(), 0, {1: 0, 2: 1})
        assert t.extended_degeneracy == frozenset({0b11})

    def test_extended_degeneracy_triangle_all_zero(self):
        g = triangle()
        s = make(g, 0, {Y: 0 for Y in g.biconnected_subcurves})
        assert s.extended_degeneracy == frozenset(g.connected_subcurves)

    def test_extended_degeneracy_matches_the_component_search(self):
        # D-hat read off the extended table against the component search it
        # replaced, on every orbit of the ladder, the n <= 5 pool, two
        # genus/loop graphs and the (5, 6) catalogue, each also translated
        # by +3 on vertex 0
        graphs = [f() for f in dict.fromkeys(LADDER + POOL_N5)] + [
            genus_decorated(), triangle_genus1(),
        ] + list(connected_multigraphs(5, 6))
        checked = 0
        for g in graphs:
            for s0 in enumerate_orbits(g):
                for s in (s0, translate(s0, (3,) + (0,) * (g.n - 1))):
                    assert s.extended_degeneracy == oracle_extended_degeneracy(s)
                    checked += 1
        assert (len(graphs), checked) == (128, 10012)

    def test_meets_bcon_is_degeneracy_set(self, graphs_n4):
        for g in graphs_n4:
            bset = set(g.biconnected_subcurves)
            for s in enumerate_window_stabilities(g):
                assert s.extended_degeneracy & bset == s.degeneracy_set().members


class TestRestrict:
    def test_whole_curve_is_identity(self):
        s = make(banana(), 0, {1: 0, 2: 0})
        r = s.restrict(0b11)
        assert r.chi == s.chi and r.values == s.values

    def test_single_component(self):
        s = make(banana(), 0, {1: 0, 2: 0})
        r = s.restrict(0b01)
        assert r.graph.n == 1 and r.chi == 0 and r.values == ()

    def test_not_degenerate_rejected(self):
        s = make(banana(), 0, {1: 0, 2: 1})
        with pytest.raises(NotDegenerate):
            s.restrict(0b01)

    def test_restrictions_valid_with_matching_degeneracy(self, graphs_n4):
        # the restriction is valid, has the extended value as its
        # characteristic, agrees with the ambient extended degeneracy on
        # biconnected pieces, and its extended degeneracy embeds into the
        # ambient one
        for g in graphs_n4:
            for s in enumerate_window_stabilities(g):
                for Y in sorted(s.extended_degeneracy):
                    r = s.restrict(Y)
                    assert r.is_valid
                    assert r.chi == s.extended_value(Y)
                    _, verts = g.induced(Y)
                    embed = {i: 1 << v for i, v in enumerate(verts)}

                    def lift_mask(m):
                        out = 0
                        for i in vertices_of(m):
                            out |= embed[i]
                        return out

                    lifted_dhat = {lift_mask(W) for W in r.extended_degeneracy}
                    assert lifted_dhat <= s.extended_degeneracy
                    lifted_deg = {lift_mask(W) for W in r.degeneracy_set().members}
                    bset = set(r.graph.biconnected_subcurves)
                    expected_deg = {
                        lift_mask(W) for W in bset
                        if lift_mask(W) in s.extended_degeneracy
                    }
                    assert lifted_deg == expected_deg

    def test_extended_degeneracy_restriction_gap(self):
        # pinned counterexample: on the 4-cycle the restricted extended
        # degeneracy set can be strictly smaller than the ambient one met
        # with the connected subcurves, because a component can be
        # ambiently degenerate while its complement WITHIN the restriction
        # splits into nondegenerate pieces
        g = DualGraph((0, 0, 0, 0), ((0, 1), (0, 3), (1, 2), (2, 3)))
        vals = dict(zip(g.biconnected_subcurves,
                        (-1, 1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 1)))
        s = VStability.from_dict(g, 0, vals)
        assert s.is_valid
        Y = 0b1011
        assert Y in s.extended_degeneracy
        assert 0b0001 in s.extended_degeneracy
        r = s.restrict(Y)         # induced labels: 0->0, 1->1, 3->2
        assert 0b001 not in r.extended_degeneracy


class TestPullback:
    def test_identity(self):
        g = banana()
        s = make(g, 0, {1: 0, 2: 0})
        _, c = g.contract(())
        assert pullback(s, c).values == s.values

    def test_to_point(self):
        g = banana()
        s = make(g, 3, {1: 1, 2: 2})
        _, c = g.contract((0, 1))
        t = pullback(s, c)
        assert t.graph.n == 1 and t.chi == 3 and t.values == ()

    def test_graph_mismatch(self):
        g = banana()
        s = make(g, 0, {1: 0, 2: 0})
        _, c = path3().contract(())
        with pytest.raises(DomainMismatch):
            pullback(s, c)

    def test_exhaustive_validity_and_degeneracy(self, graphs_n4):
        for g in graphs_n4:
            reps = enumerate_window_stabilities(g, tree_cut_pattern=True)
            for F_bits in range(1 << len(g.edges)):
                F = tuple(i for i in range(len(g.edges)) if (F_bits >> i) & 1)
                target, c = g.contract(F)
                for s in reps:
                    t = pullback(s, c)
                    assert t.is_valid
                    D = s.degeneracy_set().members
                    expected = frozenset(
                        Y for Y in target.biconnected_subcurves
                        if c.pushforward(Y) in D
                    )
                    assert t.degeneracy_set().members == expected

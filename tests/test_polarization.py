import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from vstab import (
    NumericalPolarization,
    from_ample,
    from_slopes,
    is_classical,
    translate_polarization,
)
from vstab.errors import DomainMismatch, InvalidPolarization, InvalidStability
from vstab.graphenum import connected_multigraphs
from vstab.polarization import _fm_witness
from vstab.posets import enumerate_orbits, translate
from vstab.stability import VStability

from conftest import (
    K33_MINUS_EDGE_NONCLASSICAL,
    LADDER,
    banana,
    cycle4,
    cycle5,
    k4,
    k24,
    k33_minus_edge,
    oracle_ceiling,
    oracle_fm_witness,
    oracle_is_classical,
    path3,
    time_bound,
    triangle,
)


def rational_polarization(g, rng, denominator_bound=12, spread=4):
    """Random exact-rational polarization with a common bounded denominator."""
    q = rng.randint(1, denominator_bound)
    chi = rng.randint(-3, 3)
    nums = [rng.randint(-spread * q, spread * q) for _ in range(g.n - 1)]
    nums.append(chi * q - sum(nums))
    return NumericalPolarization(g, chi, tuple(Fraction(k, q) for k in nums))


class TestValueOn:
    def test_triangle_pair(self):
        p = NumericalPolarization(triangle(), 1, (Fraction(1, 3),) * 3)
        assert p.value_on(0b011) == Fraction(2, 3)

    def test_empty_and_full(self):
        p = NumericalPolarization(triangle(), 1, (Fraction(1, 3),) * 3)
        assert p.value_on(0) == 0
        assert p.value_on(0b111) == 1

    def test_mask_out_of_range(self):
        # 8 once raised a bare IndexError and -1 a ValueError; a mask of a
        # million bits was walked bit by bit before failing
        p = NumericalPolarization(triangle(), 1, (Fraction(1, 3),) * 3)
        with time_bound(5):
            for Y in (8, -1, 1 << 10**6):
                with pytest.raises(DomainMismatch, match=r"0\.\.7"):
                    p.value_on(Y)

    def test_total_mismatch_rejected(self):
        with pytest.raises(InvalidPolarization):
            NumericalPolarization(banana(), 1, (Fraction(1), Fraction(1)))


class TestExactInputs:
    # floats and bools were once read as rationals: 0.1 became
    # 3602879701896397/36028797018963968 and True became 1

    def test_ints_and_fractions_accepted(self):
        p = NumericalPolarization(banana(), 1, (Fraction(1, 2), Fraction(1, 2)))
        q = NumericalPolarization(banana(), 1, (2, -1))
        assert p.psi == (Fraction(1, 2),) * 2 and q.psi == (Fraction(2), Fraction(-1))

    def test_float_psi_rejected(self):
        with pytest.raises(InvalidPolarization, match="psi entry"):
            NumericalPolarization(banana(), 0, (0.1, -0.1))

    def test_bool_psi_rejected(self):
        with pytest.raises(InvalidPolarization, match="psi entry"):
            NumericalPolarization(banana(), 1, (True, 0))

    def test_string_psi_rejected(self):
        with pytest.raises(InvalidPolarization, match="psi entry"):
            NumericalPolarization(banana(), 0, ("1/2", "-1/2"))

    def test_bool_chi_rejected(self):
        with pytest.raises(InvalidPolarization, match="chi"):
            NumericalPolarization(banana(), True, (1, 0))

    def test_float_slope_rejected(self):
        with pytest.raises(InvalidPolarization, match="slope"):
            from_slopes(banana(), (0.5, -0.5))

    def test_bool_slope_rejected(self):
        with pytest.raises(InvalidPolarization, match="slope"):
            from_slopes(banana(), (True, False))

    def test_float_degree_rejected(self):
        with pytest.raises(InvalidPolarization, match="degree"):
            from_ample(banana(), (1.5, 1), 1)

    def test_bool_degree_rejected(self):
        with pytest.raises(InvalidPolarization, match="degree"):
            from_ample(banana(), (True, True), 1)

    def test_float_translation_rejected(self):
        p = from_ample(banana(), (1, 1), 1)
        with pytest.raises(InvalidPolarization, match="translation"):
            translate_polarization(p, (0.5, 0))


class TestCeiling:
    def test_triangle_thirds(self):
        p = NumericalPolarization(triangle(), 1, (Fraction(1, 3),) * 3)
        s = p.induced_vstability()
        assert set(s.values) == {1}
        assert s.is_valid and s.is_general()

    def test_banana_integral(self):
        p = NumericalPolarization(banana(), 0, (Fraction(0), Fraction(0)))
        s = p.induced_vstability()
        assert s.values == (0, 0)
        assert s.degeneracy_set().members == frozenset({1, 2})

    @given(st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_random_rational_always_valid(self, seed):
        rng = random.Random(seed)
        g = rng.choice([banana(), triangle(), path3(), cycle4(), cycle5()])
        p = rational_polarization(g, rng)
        s = p.induced_vstability()
        assert s.is_valid
        integral = frozenset(
            Y for Y in g.biconnected_subcurves
            if p.value_on(Y).denominator == 1
        )
        assert s.degeneracy_set().members == integral


class TestClassicalDetection:
    def test_banana_degenerate_forced(self):
        s = VStability.from_dict(banana(), 0, {1: 0, 2: 0})
        w = is_classical(s)
        assert w is not None and w.psi == (Fraction(0), Fraction(0))

    def test_invalid_rejected(self):
        s = VStability.from_dict(banana(), 0, {1: 0, 2: 2})
        with pytest.raises(InvalidStability):
            is_classical(s)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, seed):
        rng = random.Random(seed)
        g = rng.choice([banana(), triangle(), path3(), cycle4()])
        p = rational_polarization(g, rng)
        s = p.induced_vstability()
        w = is_classical(s)
        assert w is not None
        assert w.induced_vstability() == s

    def test_all_small_representatives_classical(self):
        # empirical finding pinned here: every valid stability on these
        # small graphs is a ceiling image, so the decision procedure must
        # return a witness for each representative
        for g in [cycle4(), k4()]:
            for s in enumerate_orbits(g):
                w = is_classical(s)
                assert w is not None
                assert w.induced_vstability() == s


class TestClassicalExceptions:
    """Two graphs of six components and eight edges whose general orbits
    are not all classical; the classical counts equal the regions of the
    toric arrangement of their biconnected characters."""

    @pytest.mark.parametrize("make, general, classical", [
        (k33_minus_edge, 504, 488),
        (k24, 990, 770),
    ], ids=["k33_minus_edge", "k24"])
    def test_counts(self, make, general, classical):
        orbits = [s for s in enumerate_orbits(make()) if s.is_general()]
        found = sum(is_classical(s) is not None for s in orbits)
        assert (len(orbits), found) == (general, classical)

    def test_matches_oracle(self):
        # the oracle takes about 7 ms a stability here, so the 16
        # non-classical general orbits and a seeded sample of the rest
        orbits = enumerate_orbits(k33_minus_edge())
        refused = [s for s in orbits if s.is_general() and is_classical(s) is None]
        assert len(refused) == 16
        assert refused[0].values == K33_MINUS_EDGE_NONCLASSICAL
        rest = [s for s in orbits if not any(s is r for r in refused)]
        for s in refused + random.Random(18).sample(rest, 50):
            TestMatchesOracles.check(s)


class TestLadderWitnesses:
    # sha256 of repr of the witness of every orbit of the ladder, in
    # enumeration order: psi as (numerator, denominator) strings, None when
    # not classical; recorded with one row set per biconnected subcurve,
    # before the rows were taken one complementary pair at a time
    def test_witness_digest(self):
        with time_bound(20):
            witnesses = []
            for make in LADDER:
                for s in enumerate_orbits(make()):
                    w = is_classical(s)
                    witnesses.append(None if w is None else [
                        (str(x.numerator), str(x.denominator)) for x in w.psi
                    ])
        assert len(witnesses) == 2554
        assert hashlib.sha256(repr(witnesses).encode()).hexdigest() == (
            "154b91b1bbeda97b7d13f0be7a872d0cfbce0e5864227f60d0ca1276f60d2b64"
        )


class TestEliminationCore:
    # the infeasible branch never fires on valid small-graph stabilities
    # (TestClassicalExceptions has the first graphs where it does), so the
    # elimination engine is pinned directly

    def test_strict_cycle_infeasible(self):
        from vstab.polarization import _fm_witness
        # x < 0 and -x < 0 cannot hold together
        assert _fm_witness([((1,), Fraction(0), True), ((-1,), Fraction(0), True)], 1) is None

    def test_weak_cycle_feasible_at_point(self):
        from vstab.polarization import _fm_witness
        out = _fm_witness([((1,), Fraction(0), False), ((-1,), Fraction(0), False)], 1)
        assert out == [Fraction(0)]

    def test_strictness_distinguishes(self):
        from vstab.polarization import _fm_witness
        # x <= 0, -x < 0 infeasible; x <= 0, -x <= 0 feasible
        assert _fm_witness([((1,), Fraction(0), False), ((-1,), Fraction(0), True)], 1) is None
        assert _fm_witness([((1,), Fraction(0), False), ((-1,), Fraction(0), False)], 1) is not None

    def test_two_variable_strict_box(self):
        from vstab.polarization import _fm_witness
        ineqs = [
            ((1, 0), Fraction(1), True), ((-1, 0), Fraction(0), True),
            ((0, 1), Fraction(1), True), ((0, -1), Fraction(0), True),
            ((1, 1), Fraction(1), True),
        ]
        out = _fm_witness(ineqs, 2)
        assert out is not None
        x, y = out
        assert 0 < x < 1 and 0 < y < 1 and x + y < 1

    def test_midpoint_extraction(self):
        from vstab.polarization import _fm_witness
        out = _fm_witness(
            [((1,), Fraction(3), True), ((-1,), Fraction(-1), True)], 1
        )
        assert out == [Fraction(2)]


class TestStandardConstructions:
    def test_from_ample_unit(self):
        p = from_ample(banana(), (1, 1), 1)
        assert p.psi == (Fraction(1, 2), Fraction(1, 2))

    def test_from_ample_integral(self):
        p = from_ample(banana(), (2, 1), 3)
        assert p.psi == (Fraction(2), Fraction(1))
        s = p.induced_vstability()
        assert s.degeneracy_set().members == frozenset({1, 2})

    def test_from_ample_nonpositive_rejected(self):
        with pytest.raises(InvalidPolarization):
            from_ample(banana(), (0, 0), 1)

    def test_from_ample_not_ample_rejected(self):
        # positive total, but not positive on every component: this once
        # returned psi (3/2, -1/2)
        with pytest.raises(InvalidPolarization, match="ample"):
            from_ample(banana(), (3, -1), 1)
        with pytest.raises(InvalidPolarization, match="ample"):
            from_ample(triangle(), (2, 0, 1), 1)

    def test_from_slopes_characteristic(self):
        p = from_slopes(banana(), (Fraction(-3, 2), Fraction(-3, 2)))
        assert p.chi == 3 and p.psi == (Fraction(3, 2), Fraction(3, 2))

    def test_from_slopes_nonintegral_total_rejected(self):
        with pytest.raises(InvalidPolarization):
            from_slopes(banana(), (Fraction(1, 2), Fraction(0)))

    def test_ample_equals_trivial_plus_dual_bundle(self):
        # the ample-class polarization agrees with the slope polarization
        # of the bundle with deg(L) - 1 trivial summands and one L^(-chi)
        for g in [banana(), triangle(), path3()]:
            for chi in (-2, 0, 1, 3):
                degrees = tuple(range(1, g.n + 1))
                total = sum(degrees)
                p1 = from_ample(g, degrees, chi)
                slopes = tuple(
                    Fraction(-chi * d, total) for d in degrees
                )
                p2 = from_slopes(g, slopes)
                assert p1.psi == p2.psi and p1.chi == p2.chi


class TestTranslation:
    def test_zero_is_identity(self):
        p = from_ample(banana(), (1, 1), 1)
        assert translate_polarization(p, (0, 0)) == p

    def test_total_shifts(self):
        p = from_ample(banana(), (1, 1), 1)
        q = translate_polarization(p, (2, -1))
        assert q.chi == 2 and q.value_on(q.graph.full_mask) == 2

    @given(st.integers(0, 10**6), st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)))
    @settings(max_examples=50, deadline=None)
    def test_ceiling_equivariance(self, seed, tau):
        rng = random.Random(seed)
        g = triangle()
        p = rational_polarization(g, rng)
        shifted = translate_polarization(p, tau)
        assert shifted.induced_vstability() == translate(
            p.induced_vstability(), tau
        )


def _translated(s, rng):
    """s moved by a seeded translation of nonzero total, so chi != 0."""
    tau = [rng.randint(-3, 3) for _ in range(s.graph.n)]
    tau[0] += 1 if sum(tau) == 0 else 0
    return translate(s, tau)


class TestMatchesOracles:
    """The integer elimination and ceiling map against their Fraction
    originals in conftest: the same witness psi, entry for entry."""

    @staticmethod
    def check(s):
        w = is_classical(s)
        assert (None if w is None else w.psi) == oracle_is_classical(s)

    @pytest.mark.parametrize("make", LADDER, ids=lambda f: f.__name__)
    def test_orbits_of_ladder(self, make):
        rng = random.Random(make.__name__)
        for s in enumerate_orbits(make()):
            self.check(s)
            self.check(_translated(s, rng))

    def test_orbits_of_catalogue(self):
        rng = random.Random(46)
        for g in connected_multigraphs(4, 6):
            for s in enumerate_orbits(g):
                self.check(s)
                self.check(_translated(s, rng))

    @given(st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_ceiling(self, seed):
        rng = random.Random(seed)
        g = rng.choice(LADDER)()
        p = rational_polarization(g, rng)
        if p.chi == 0:
            p = translate_polarization(p, (1,) + (0,) * (g.n - 1))
        assert p.induced_vstability().values == oracle_ceiling(p)


# few distinct bounds, so that rows with one key often meet at one bound
# and the strict-over-weak rule is exercised
_ROWS = st.lists(
    st.tuples(
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
        st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3))),
        st.booleans(),
    ),
    max_size=8,
)


@given(st.integers(1, 3), _ROWS)
@example(1, [([1, 0, 0], Fraction(0), False), ([2, 0, 0], Fraction(0), True),
             ([-1, 0, 0], Fraction(0), False)])
@example(1, [([1, 0, 0], Fraction(0), True), ([2, 0, 0], Fraction(0), False),
             ([-1, 0, 0], Fraction(0), False)])
@settings(max_examples=300, deadline=None)
def test_fm_witness_matches_oracle(nvars, rows):
    system = [(tuple(coeffs[:nvars]), bound, strict) for coeffs, bound, strict in rows]
    out = _fm_witness(system, nvars)
    assert out == oracle_fm_witness(system, nvars)
    if out is not None:
        for coeffs, bound, strict in system:
            lhs = sum(c * x for c, x in zip(coeffs, out))
            assert lhs < bound if strict else lhs <= bound


# four or five variables with bounds over denominators up to 7, so that the
# back-substitution's common denominator is rescaled at several stages (in
# about two thirds of the examples); more rows let the elimination blow up
_WIDE_ROWS = st.lists(
    st.tuples(
        st.lists(st.integers(-3, 3), min_size=5, max_size=5),
        st.builds(Fraction, st.integers(-12, 12), st.integers(1, 7)),
        st.booleans(),
    ),
    min_size=4,
    max_size=7,
)


@given(st.integers(4, 5), _WIDE_ROWS)
# the witness (1/14, 1/10, 1/6, 1/3) takes a new denominator at every stage
@example(4, [((1, 0, 0, 0, 0), Fraction(1, 7), True), ((-1, 0, 0, 0, 0), Fraction(0), True),
             ((0, 1, 0, 0, 0), Fraction(1, 5), True), ((0, -1, 0, 0, 0), Fraction(0), True),
             ((0, 0, 1, 1, 0), Fraction(2, 3), True), ((0, 0, -1, 0, 0), Fraction(0), True),
             ((0, 0, 0, -1, 0), Fraction(0), True)])
@settings(max_examples=200, deadline=None)
def test_fm_witness_rescales_common_denominator(nvars, rows):
    system = [(tuple(coeffs[:nvars]), bound, strict) for coeffs, bound, strict in rows]
    out = _fm_witness(system, nvars)
    assert out == oracle_fm_witness(system, nvars)
    if out is not None:
        assert all(isinstance(x, Fraction) for x in out)
        for coeffs, bound, strict in system:
            lhs = sum(c * x for c, x in zip(coeffs, out))
            assert lhs < bound if strict else lhs <= bound

import gc
import hashlib
import itertools
import random
import weakref
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from vstab import DualGraph, VStability
from vstab.errors import DomainMismatch, MoveNotApplicable, NotAPartialOrder
from vstab.graphenum import connected_multigraphs
from vstab.graphs import mask_of, vertices_of
from vstab.posets import (
    _all_maximal_chains_equal,
    _closure_from,
    _count_decompositions,
    _pair_search,
    check_deg_witness,
    deg_leq,
    deg_symmetry_classes,
    deg_witness,
    deg_witnesses,
    dominance_rows,
    dominating_stabilities,
    enumerate_degeneracy_subsets,
    enumerate_orbits,
    enumerate_window_stabilities,
    hasse,
    hasse_from_rows,
    is_maximal,
    is_submaximal,
    lift,
    minimal_elements,
    move_I,
    move_II,
    normal_form,
    orbit_equal,
    qdeg_scan,
    translate,
    translation_witness,
    transpose_rows,
    vstab_leq,
)
from vstab.stability import DegeneracySet

from conftest import (
    LADDER,
    banana,
    cycle5,
    cycle6,
    k4,
    k4_plus_path2,
    k5,
    k24,
    k33_minus_edge,
    oracle_check_deg_witness,
    oracle_closure_from,
    oracle_deg_symmetry_key,
    oracle_maximal_chain_lengths,
    oracle_minimal_elements,
    oracle_pair_search_witnesses,
    path3,
    single_vertex,
    triangle,
)


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def oracle_degeneracy_subsets(g):
    """Every subset of the complementary pairs, kept iff closed under the
    admissible pair unions, sorted like the library's output."""
    pairs = g.bcon_pairs
    out = []
    for bits in range(1 << len(pairs)):
        members = set()
        for i, (Y, Yc) in enumerate(pairs):
            if (bits >> i) & 1:
                members.add(Y)
                members.add(Yc)
        if all(U in members for A, B, U in g.admissible_pairs
               if A in members and B in members):
            out.append(sorted(members))
    out.sort(key=lambda m: (len(m), m))
    return out


def oracle_witnesses(D1, D2):
    """Side choices on the pairs of D2 - D1 in product order that
    check_deg_witness accepts."""
    full = D1.graph.full_mask
    pairs = sorted({(min(Y, full ^ Y), max(Y, full ^ Y)) for Y in D2.members - D1.members})
    choices = (
        frozenset(pair[side] for pair, side in zip(pairs, sides))
        for sides in itertools.product((0, 1), repeat=len(pairs))
    )
    return [E for E in choices if check_deg_witness(D1, D2, E)]


class TestDegEnumeration:
    def test_banana(self):
        degs = enumerate_degeneracy_subsets(banana())
        assert [sorted(d.members) for d in degs] == [[], [1, 2]]

    def test_k4_count_and_classes(self):
        g = k4()
        degs = enumerate_degeneracy_subsets(g)
        assert len(degs) == 19
        reps, _ = deg_symmetry_classes(g, degs)
        assert len(reps) == 7

    def test_difference_closure(self):
        # nested members with biconnected difference keep the difference
        for g in [banana(), triangle(), k4(), path3()]:
            bset = set(g.biconnected_subcurves)
            for d in enumerate_degeneracy_subsets(g):
                for W1 in d.members:
                    for W2 in d.members:
                        if W1 != W2 and W1 & W2 == W1 and (W2 ^ W1) in bset:
                            assert (W2 ^ W1) in d.members


class TestPairSearch:
    @pytest.mark.parametrize("make", LADDER, ids=lambda f: f.__name__)
    def test_degeneracy_subsets_match_brute_force_on_ladder(self, make):
        g = make()
        got = [sorted(d.members) for d in enumerate_degeneracy_subsets(g)]
        assert got == oracle_degeneracy_subsets(g)

    def test_degeneracy_subsets_match_brute_force_on_catalogue(self):
        for g in connected_multigraphs(4, 6):
            got = [sorted(d.members) for d in enumerate_degeneracy_subsets(g)]
            assert got == oracle_degeneracy_subsets(g)

    def test_witnesses_match_checked_choices(self):
        # every included pair with at most six complementary pairs between
        checked = 0
        for g in [k4(), cycle5()] + connected_multigraphs(4, 5):
            degs = enumerate_degeneracy_subsets(g)
            for D1 in degs:
                for D2 in degs:
                    if D1.members <= D2.members and len(D2.members - D1.members) <= 12:
                        assert list(deg_witnesses(D1, D2)) == oracle_witnesses(D1, D2)
                        checked += 1
        assert checked == 1144

    def test_witness_check_matches_the_double_loops(self):
        # every side choice E on every included pair with at most six
        # complementary pairs between
        checked = 0
        for g in [k4(), cycle5()] + connected_multigraphs(4, 6):
            full = g.full_mask
            degs = enumerate_degeneracy_subsets(g)
            for D1 in degs:
                for D2 in degs:
                    diff = D2.members - D1.members
                    if not D1.members <= D2.members or len(diff) > 12:
                        continue
                    pairs = sorted(Y for Y in diff if Y < full ^ Y)
                    for sides in itertools.product((0, full), repeat=len(pairs)):
                        E = frozenset(map(int.__xor__, pairs, sides))
                        assert check_deg_witness(D1, D2, E) == oracle_check_deg_witness(D1, D2, E)
                        checked += 1
        assert checked == 11896

    # sha256 of the outputs, recorded with the brute-force subset walk and
    # the per-function searches the pair search replaced
    def test_degeneracy_subset_digests(self):
        for make, count, digest in [
            (k5, 137, "d7d538e0dcedadbb75ee58bee3efa4265aad88d431924c9611e759c7e72713cc"),
            (cycle6, 203, "247b0100a6d42adbfeabb27d0050e2223f9c2af5901c218b5d279532ac7dd80c"),
        ]:
            degs = enumerate_degeneracy_subsets(make())
            assert len(degs) == count
            assert _sha([sorted(d.members) for d in degs]) == digest

    def test_k5_dominance_matrix_digest(self):
        degs = enumerate_degeneracy_subsets(k5())
        matrix = "".join("1" if deg_leq(a, b) else "0" for a in degs for b in degs)
        assert matrix.count("1") == 1263
        assert hashlib.sha256(matrix.encode()).hexdigest() == (
            "22f57218b256b08f37a601d23bafd6157e8fe4768d67dfdcfe7a6cd4f0c58498"
        )

    def test_c6_dominance_matrix_digest(self):
        # differences of up to all 30 members, past the oracle check above;
        # recorded with the constraints built per call from D2 - D1
        degs = enumerate_degeneracy_subsets(cycle6())
        matrix = "".join("1" if deg_leq(a, b) else "0" for a in degs for b in degs)
        assert matrix.count("1") == 2471
        assert hashlib.sha256(matrix.encode()).hexdigest() == (
            "c80791cadce65109a9e569fb5a4bab19d833c2ce68b544869073e8d733a1a559"
        )

    @pytest.mark.parametrize("make, count, digest", [
        (banana, 2, "ebe4dac8e77eb5e4ec2af768e53fbf6bf02c0f42f365880b0c970f65276cb2b7"),
        (triangle, 28, "973a5c40c028f65a1bef9cbc9c32e3c093cd917818735c22537c2821562c6757"),
        (path3, 16, "32374198bee8dd7648d86abedb9466d5395c5b44ad0d5ca28f214e2106986817"),
        (k4, 1178, "120089cbaa287dff1a3bcec068c197869bcac6d52686a0e587fe6c6564e977fe"),
        (cycle5, 10396, "81d0fe44abd347ed113e37aed34e89eb6d33b7738c52fc299d36aab6026083a0"),
        (k4_plus_path2, 34106, "664b54c2fded5db45a0f6fdc0b73a6eb4b43946418734410d5cd295f9b1e3a38"),
    ], ids=["banana", "triangle", "path3", "k4", "cycle5", "k4_plus_path2"])
    def test_dominating_stabilities_order(self, make, count, digest):
        doms = [
            [t.values for t in dominating_stabilities(s)]
            for s in enumerate_window_stabilities(make())
        ]
        assert sum(map(len, doms)) == count
        assert _sha(doms) == digest


    # sha256 of the values in output order of the full window and the
    # orbits, recorded before the value tables
    @pytest.mark.parametrize("make, counts, digests", [
        (banana, (3, 2), (
            "ed293429f50edc2904dfbf36a2a9f1a44cd0391fa441b26070690821ce76c041",
            "6eb681965c5b82a90cca16c8bdf17656f2924a055ac074ea7f4c45a594d0b76a")),
        (k4, (291, 44), (
            "5e2498589aeb26f25f4d79fd5f76c923c9fa6af5aa657a3d1242584cce9e4110",
            "454d1636d15ad7f825ea7e7dacab31692d8b853868dc6b440f127644c4ad5013")),
        (cycle5, (1697, 150), (
            "3613729b2ce5700b3e3e9fe99ae12a6cb607ce7914e73ac6402906442dc92015",
            "373d2bfa076f935949d3669a89456226b25f4f19bd9942e0ac3798f7fbfa52f3")),
        (k5, (16321, 1100), (
            "df828311f45643454b83c07e5dbc6cf30e2f1c9cb1781b275eb3a6da67000d44",
            "9379669be11b83e6c8058e82b094586355fe8c6a6d5d18cc56cd719aadb4389d")),
        (cycle6, (24483, 1082), (
            "323b95ae46d622b9026afbff4fb1f74ec22ddad4db7f0af97ff111b7c0b93998",
            "5d1de073f5b8ca43ddc3d31fb25aeda6fee5d8613549fd311fc78a5030bfa951")),
        (k4_plus_path2, (2619, 176), (
            "050fdd03aad1b29ec3d50f825ea55f1ff2c5c6e1bc48afc04eb5f98dee6ddaec",
            "a973570ac657f75978b55bda1c54af412f11d6091bd21a259a2b8e75b0d01c99")),
    ], ids=[f.__name__ for f in LADDER])
    def test_window_and_orbit_digests(self, make, counts, digests):
        g = make()
        outputs = (enumerate_window_stabilities(g), enumerate_orbits(g))
        for out, count, digest in zip(outputs, counts, digests):
            assert len(out) == count
            assert _sha([s.values for s in out]) == digest


class TestSearchedStabilitiesPassTheChecks:
    """The checks ``VStability._trusted`` skips, asserted over the pinned
    families: every stability of the window, the orbit enumeration and
    ``dominating_stabilities`` of each degenerate orbit, rebuilt through the
    public constructor, equals the searched one and passes both validators.
    ``is_valid`` is not asked, since the search sets it."""

    @staticmethod
    def searched(g):
        yield from enumerate_window_stabilities(g)
        orbits = enumerate_orbits(g)
        yield from orbits
        for s in orbits:
            if s.degenerate:
                yield from dominating_stabilities(s)

    @classmethod
    def check(cls, g):
        checked = 0
        for s in cls.searched(g):
            t = VStability(g, s.chi, s.values)
            assert t == s
            assert t.validate().ok and t.validate_via_union().ok, s.values
            checked += 1
        return checked

    @pytest.mark.parametrize("make", LADDER, ids=lambda f: f.__name__)
    def test_ladder(self, make):
        assert self.check(make()) > 0

    def test_catalogue(self):
        assert sum(map(self.check, connected_multigraphs(5, 7))) > 0


class TestEnumeratedSubsetsPassTheChecks:
    """The checks ``DegeneracySet._trusted`` skips: every degeneracy subset
    of the ladder and of the (5, 7) catalogue, rebuilt through the public
    constructor, passes its checks and equals the enumerated one."""

    @staticmethod
    def check(g):
        degs = enumerate_degeneracy_subsets(g)
        for d in degs:
            assert DegeneracySet(g, set(d.members)) == d
            assert type(d.members) is frozenset
        return len(degs)

    def test_ladder(self):
        assert [self.check(make()) for make in LADDER] == [2, 19, 52, 137, 203, 76]

    def test_catalogue(self):
        assert sum(map(self.check, connected_multigraphs(5, 7))) == 4206


class TestWitnessKernelMatchesPairSearch:
    """The parity-class witness kernel against the general pair search it
    replaced, kept as ``oracle_pair_search_witnesses``."""

    def test_enumeration(self):
        checked = 0
        for g in [k4(), cycle5()] + connected_multigraphs(4, 6):
            degs = enumerate_degeneracy_subsets(g)
            for D1, D2 in itertools.product(degs, repeat=2):
                if D1.members <= D2.members:
                    assert list(deg_witnesses(D1, D2)) == list(oracle_pair_search_witnesses(D1, D2))
                    checked += 1
        assert checked == 2126

    def test_dominates_top_on_catalogue(self):
        checked = dominant = 0
        for g in connected_multigraphs(5, 7):
            top = DegeneracySet(g, frozenset(g.biconnected_subcurves))
            for d in enumerate_degeneracy_subsets(g):
                found = next(oracle_pair_search_witnesses(d, top), None) is not None
                assert d.dominates_top == found
                checked += 1
                dominant += found
        assert checked == 4206 and 0 < dominant < checked

    @pytest.mark.parametrize("make, true", [(k5, 1263), (cycle6, 2471)], ids=["k5", "cycle6"])
    def test_dominance_matrix(self, make, true):
        degs = enumerate_degeneracy_subsets(make())
        dominant = 0
        for a, b in itertools.product(degs, repeat=2):
            found = next(oracle_pair_search_witnesses(a, b), None) is not None
            assert deg_leq(a, b) == found
            dominant += found
        assert dominant == true


@st.composite
def pair_search_inputs(draw):
    """Up to six pairs (2i, 2i + 1) with 0-4 options each, and distinct
    constraints over 1-3 of the pairs, each judged by a drawn lookup table
    of the values of its subcurves."""
    n = draw(st.integers(0, 6))
    pairs = [(2 * i, 2 * i + 1) for i in range(n)]
    options = [
        draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=4))
        for _ in pairs
    ]
    seen = {}
    for (Y, Yc), opts in zip(pairs, options):
        seen[Y] = sorted({a for a, _ in opts})
        seen[Yc] = sorted({b for _, b in opts})
    one_constraint = st.lists(
        st.integers(0, n - 1), min_size=1, max_size=3, unique=True,
    ).flatmap(lambda picked: st.tuples(*(
        st.sampled_from([(Y,), (Yc,), (Y, Yc)]) for Y, Yc in (pairs[i] for i in picked)
    ))).map(lambda sides: sum(sides, ()))
    constraints = draw(st.lists(one_constraint, max_size=5, unique=True)) if n else []
    table = {}
    for c in constraints:
        keys = list(itertools.product(*(seen[Z] for Z in c)))
        verdicts = draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))
        table[c] = dict(zip(keys, verdicts))
    return pairs, options, constraints, table


class TestCompiledPairSearch:
    @given(pair_search_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_product_filter(self, inputs):
        pairs, options, constraints, table = inputs

        def holds(c, values):
            return table[c][tuple(values[Z] for Z in c)]

        expected = []
        for choice in itertools.product(*options):
            values = {}
            for (Y, Yc), (a, b) in zip(pairs, choice):
                values[Y], values[Yc] = a, b
            if all(holds(c, values) for c in constraints):
                expected.append(values)
        got = [dict(values) for values in _pair_search(pairs, options, constraints, holds)]
        assert got == expected

    def test_no_pairs_yields_one_empty_assignment(self):
        assert [dict(v) for v in _pair_search([], [], [], None)] == [{}]

    def test_constraint_over_four_pairs_raises(self):
        pairs = [(2 * i, 2 * i + 1) for i in range(4)]
        with pytest.raises(ValueError, match="three pairs"):
            next(_pair_search(pairs, [((0, 0),)] * 4, [(0, 2, 4, 6)], None))

    def test_yields_one_live_assignment(self):
        pairs = [(0, 1), (2, 3)]
        found = list(_pair_search(pairs, [((0, 1), (1, 0))] * 2, [], None))
        assert len(found) == 4 and all(v is found[0] for v in found)


class TestMinimalElements:
    def test_banana_full(self):
        d = DegeneracySet(banana(), frozenset({1, 2}))
        assert minimal_elements(d) == frozenset({1, 2})

    def test_empty(self):
        d = DegeneracySet(banana(), frozenset())
        assert minimal_elements(d) == frozenset()

    def test_k4_four_cycle_class(self):
        g = k4()
        members = frozenset({0b0011, 0b1100, 0b0101, 0b1010})
        d = DegeneracySet(g, members)
        assert minimal_elements(d) == members

    def test_matches_pairwise_oracle(self):
        checked = 0
        for g in [make() for make in LADDER] + connected_multigraphs(5, 6):
            for d in enumerate_degeneracy_subsets(g):
                expected = oracle_minimal_elements(d)
                if all(_count_decompositions(Y, sorted(expected)) for Y in d.members):
                    assert minimal_elements(d) == expected
                else:
                    with pytest.raises(AssertionError):
                        minimal_elements(d)
                checked += 1
        assert checked == 2054

    def test_every_member_decomposes_on_ladder(self):
        for make in LADDER:
            for d in enumerate_degeneracy_subsets(make()):
                mins = minimal_elements(d)
                for Y in d.members:
                    assert _count_decompositions(Y, sorted(mins)) >= 1


# {1,2,3,4} is {1,2} + {3,4} and {1,3} + {2,4}
K5_TWO_DECOMPOSITIONS = [
    (0,), (1, 2), (0, 1, 2), (1, 3), (0, 1, 3),
    (2, 4), (0, 2, 4), (3, 4), (0, 3, 4), (1, 2, 3, 4),
]


@pytest.mark.xfail(
    strict=True,
    reason="pinned counterexample to unique decomposition: in a degeneracy "
    "subset of K5 realized by a stability orbit, a member is a disjoint "
    "union of minimal elements in two ways; only existence holds",
)
def test_minimal_decomposition_unique_as_stated():
    g = k5()
    d = DegeneracySet(g, frozenset(mask_of(Y) for Y in K5_TWO_DECOMPOSITIONS))
    assert d.members in {s.degeneracy_set().members for s in enumerate_orbits(g)}
    mins = sorted(minimal_elements(d))
    for Y in d.members:
        assert _count_decompositions(Y, mins) == 1   # fails on {1,2,3,4}


class TestDegOrder:
    def test_reflexive_with_empty_witness(self):
        for g in [banana(), triangle()]:
            for d in enumerate_degeneracy_subsets(g):
                assert deg_witness(d, d) == frozenset()

    def test_k4_exceptional_cover(self):
        g = k4()
        D1 = DegeneracySet(g, frozenset({0b0011, 0b1100, 0b0101, 0b1010}))
        D2 = DegeneracySet(g, frozenset(g.biconnected_subcurves))
        assert deg_leq(D1, D2)
        il = mask_of((0, 3))
        diff = D2.members - D1.members
        E = frozenset(S for S in diff if S & ~il == 0 or il & ~S == 0)
        assert check_deg_witness(D1, D2, E)

    def test_k4_containment_without_domination(self):
        g = k4()
        six = DegeneracySet(g, frozenset(
            Y for Y in g.biconnected_subcurves if bin(Y).count("1") == 2
        ))
        full = DegeneracySet(g, frozenset(g.biconnected_subcurves))
        assert six.members < full.members
        assert not deg_leq(six, full)

    def test_restriction_of_a_witness_is_a_witness(self):
        # the restriction lemma deg_leq's shortcut rests on, by the search
        # and the independent checker: if E witnesses D1 >= D2, then
        # E & (D' - D1) witnesses D1 >= D' for every D' from D1 to D2
        checked = 0
        for g in [k4(), cycle5()] + connected_multigraphs(4, 6):
            degs = enumerate_degeneracy_subsets(g)
            for D1 in degs:
                above = [D for D in degs if D1.members <= D.members]
                for D2 in above:
                    E = deg_witness(D1, D2)
                    if E is None:
                        continue
                    for D in above:
                        if D.members <= D2.members:
                            assert check_deg_witness(D1, D, E & (D.members - D1.members))
                            checked += 1
        assert checked == 5567

    def test_dominance_matches_the_search(self):
        # deg_leq, with its inclusion test and top-dominance shortcut,
        # against one witness search per ordered pair
        for graphs, pairs, true in [
            (connected_multigraphs(5, 7), 112610, 22623),
            ([k5()], 137 ** 2, 1263),
            ([cycle6()], 203 ** 2, 2471),
        ]:
            seen = dominant = 0
            for g in graphs:
                degs = enumerate_degeneracy_subsets(g)
                for a, b in itertools.product(degs, repeat=2):
                    found = deg_witness(a, b) is not None
                    assert deg_leq(a, b) == found
                    seen += 1
                    dominant += found
            assert (seen, dominant) == (pairs, true)

    def test_stronger_than_inclusion(self):
        # dominance implies inclusion by construction
        g = k4()
        degs = enumerate_degeneracy_subsets(g)
        for a in degs:
            for b in degs:
                if deg_leq(a, b):
                    assert a.members <= b.members


class TestMoves:
    def test_move_one_banana(self):
        d = DegeneracySet(banana(), frozenset({1, 2}))
        out = move_I(d, 1)
        assert out.members == frozenset()

    def test_move_one_requires_minimal_pair(self):
        d = DegeneracySet(banana(), frozenset())
        with pytest.raises(MoveNotApplicable):
            move_I(d, 1)

    @pytest.mark.parametrize("Y1, Y2", [(True, 0b0010), (0b0010, True)])
    def test_move_two_refuses_a_bool(self, Y1, Y2):
        # True was once merged as the mask 0b0001
        g = k4()
        full = DegeneracySet(g, frozenset(g.biconnected_subcurves))
        with pytest.raises(DomainMismatch):
            move_II(full, Y1, Y2)

    def test_move_one_refuses_a_bool(self):
        d = DegeneracySet(banana(), frozenset({0b01, 0b10}))
        with pytest.raises(DomainMismatch):
            move_I(d, True)

    def test_move_two_k4(self):
        g = k4()
        full = DegeneracySet(g, frozenset(g.biconnected_subcurves))
        out = move_II(full, 0b0100, 0b1000)
        assert minimal_elements(out) == frozenset({0b0001, 0b0010, 0b1100})
        assert deg_leq(out, full)

    def test_moves_dominate_exhaustively(self):
        for g in [banana(), triangle(), path3(), k4()]:
            for d in enumerate_degeneracy_subsets(g):
                mins = minimal_elements(d)
                for Y in mins:
                    if g.complement(Y) in mins:
                        out = move_I(d, Y)
                        assert deg_leq(out, d)
                bset = set(g.biconnected_subcurves)
                for Y1 in mins:
                    for Y2 in mins:
                        if Y1 < Y2 and not Y1 & Y2 and (Y1 | Y2) in bset:
                            out = move_II(d, Y1, Y2)
                            assert deg_leq(out, d)

    def test_merge_with_a_closure_open_under_complement(self):
        # K_{2,3}: the closure of the merged generators keeps {4} but not
        # its complement, so it is no degeneracy subset
        g = DualGraph((0,) * 5, ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)))
        d = DegeneracySet(g, frozenset({1, 2, 3, 13, 15, 16, 18, 28, 29, 30}))
        with pytest.raises(MoveNotApplicable, match="not closed under complement"):
            move_II(d, 1, 2)

    def test_moves_dominate_or_refuse_on_the_catalogue(self):
        # every move I and II on minimal elements of every degeneracy subset
        # of the (5, 6) catalogue returns a dominated subset or refuses
        refused_closures = 0
        for g in connected_multigraphs(5, 6):
            for d in enumerate_degeneracy_subsets(g):
                mins = minimal_elements(d)
                moves = [partial(move_I, d, Y) for Y in mins] + [
                    partial(move_II, d, Y1, Y2) for Y1 in mins for Y2 in mins if Y1 < Y2
                ]
                for move in moves:
                    try:
                        out = move()
                    except MoveNotApplicable as exc:
                        refused_closures += "closure" in str(exc)
                        continue
                    assert deg_leq(out, d)
        assert refused_closures == 24

    @pytest.mark.parametrize("make", LADDER, ids=lambda f: f.__name__)
    def test_closure_matches_the_fixpoint(self, make):
        g = make()
        rng = random.Random(g.n)
        bcon = g.biconnected_subcurves
        for _ in range(200):
            gens = rng.sample(bcon, rng.randint(0, len(bcon)))
            assert _closure_from(g, gens) == oracle_closure_from(g, gens)


class TestVStabOrder:
    def test_lift_identity(self):
        g = banana()
        s = VStability.from_dict(g, 0, {1: 0, 2: 0})
        d = s.degeneracy_set()
        assert lift(d, d, s) == s

    def test_lift_banana(self):
        g = banana()
        s = VStability.from_dict(g, 0, {1: 0, 2: 0})
        d2 = s.degeneracy_set()
        d1 = DegeneracySet(g, frozenset())
        t = lift(d1, d2, s)
        assert t.is_valid and vstab_leq(t, s)
        assert t.degeneracy_set().members == frozenset()
        assert sorted(t.values) == [0, 1]

    def test_degeneracy_map_order_preserving(self):
        # comparable stabilities have dominance-comparable degeneracy sets
        for g in [banana(), triangle(), path3()]:
            stabs = enumerate_window_stabilities(g)
            for s in stabs:
                for t in stabs:
                    if s != t and vstab_leq(s, t):
                        assert deg_leq(s.degeneracy_set(), t.degeneracy_set())

    def test_upper_lifting_exhaustive(self):
        for g in [banana(), triangle(), path3()]:
            degs = enumerate_degeneracy_subsets(g)
            stabs = enumerate_window_stabilities(g)
            by_deg = {}
            for s in stabs:
                by_deg.setdefault(s.degeneracy_set().members, []).append(s)
            for d1 in degs:
                for d2 in degs:
                    if d1.members != d2.members and deg_leq(d1, d2):
                        for s2 in by_deg.get(d2.members, []):
                            s1 = lift(d1, d2, s2)
                            assert vstab_leq(s1, s2)
                            assert s1.degeneracy_set().members == d1.members

    def test_maximal_iff_general(self):
        for g in [banana(), triangle(), path3()]:
            for s in enumerate_window_stabilities(g):
                assert is_maximal(s) == s.is_general()

    def test_submaximal_iff_one_pair(self):
        for g in [banana(), triangle(), path3()]:
            for s in enumerate_window_stabilities(g):
                expected = len(s.degeneracy_set().members) == 2
                assert is_submaximal(s) == expected

    def test_value_dichotomy_for_comparable(self):
        # where s > t: values agree off the degenerate locus of t, and on
        # each newly-degenerate pair exactly one side is bumped by one
        for g in [banana(), triangle()]:
            stabs = enumerate_window_stabilities(g)
            for t in stabs:
                Dt = t.degeneracy_set().members
                for s in stabs:
                    if s == t or not vstab_leq(s, t):
                        continue
                    Ds = s.degeneracy_set().members
                    for Y, Yc in g.bcon_pairs:
                        sv = (s.value(Y), s.value(Yc))
                        tv = (t.value(Y), t.value(Yc))
                        if Y in Ds or Y not in Dt:
                            assert sv == tv
                        else:
                            assert sv in ((tv[0] + 1, tv[1]), (tv[0], tv[1] + 1))


class TestTranslation:
    def test_normal_form_worked_example(self):
        g = banana()
        s = VStability.from_dict(g, 0, {1: 3, 2: -2})
        nf, tau = normal_form(s)
        assert nf.values == (0, 1)
        assert tau == (-3, 3)
        assert translate(s, tau) == nf

    def test_translate_matches_vertex_sums(self):
        rng = random.Random(6)
        for make in LADDER:
            g = make()
            for s in enumerate_orbits(g)[:25]:
                tau = [rng.randint(-5, 5) for _ in range(g.n)]
                t = translate(s, tau)
                assert t.chi == s.chi + sum(tau)
                assert t.values == tuple(
                    v + sum(tau[x] for x in vertices_of(Y))
                    for v, Y in zip(s.values, g.biconnected_subcurves)
                )

    def test_normal_form_computed_once(self):
        s = translate(enumerate_orbits(k4())[5], (1, -2, 0, 3))
        assert normal_form(s) is normal_form(s)
        assert orbit_equal(s, normal_form(s)[0])

    def test_zero_translation(self):
        g = triangle()
        s = enumerate_window_stabilities(g)[0]
        assert translate(s, (0, 0, 0)) == s

    @given(st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
    @settings(max_examples=40, deadline=None)
    def test_orbit_equal_after_translation(self, tau):
        g = banana()
        s = VStability.from_dict(g, 0, {1: 0, 2: 1})
        assert orbit_equal(s, translate(s, tau))

    def test_translation_preserves_validity_and_degeneracy(self):
        g = triangle()
        for s in enumerate_window_stabilities(g):
            t = translate(s, (2, -1, 3))
            assert t.is_valid
            assert t.degeneracy_set().members == s.degeneracy_set().members

    def test_translation_preserves_order(self):
        g = banana()
        stabs = enumerate_window_stabilities(g)
        for s in stabs:
            for t in stabs:
                if vstab_leq(s, t):
                    assert vstab_leq(translate(s, (1, -2)), translate(t, (1, -2)))

    def test_normal_form_idempotent(self):
        for g in [banana(), triangle(), path3()]:
            for s in enumerate_window_stabilities(g):
                nf, _ = normal_form(s)
                nf2, tau2 = normal_form(nf)
                assert nf2 == nf and set(tau2) == {0}

    def test_witness_search_matches_orbit_equal(self):
        for g in [banana(), path3()]:
            stabs = enumerate_window_stabilities(g)
            for s in stabs:
                for t in stabs:
                    w = translation_witness(s, t)
                    assert (w is not None) == orbit_equal(s, t)
                    if w is not None:
                        assert translate(s, w) == t


class TestOrbits:
    def test_single_vertex(self):
        assert len(enumerate_orbits(single_vertex())) == 1

    def test_banana_two_orbits(self):
        # the window holds three valid assignments but two of them differ
        # by the translation (1, -1), so exactly two orbits remain
        reps = enumerate_orbits(banana())
        assert [r.values for r in reps] == [(0, 0), (0, 1)]
        window = enumerate_window_stabilities(banana())
        assert len(window) == 3

    def test_representatives_are_normal_forms(self):
        for g in [banana(), triangle(), path3(), k4()]:
            for s in enumerate_orbits(g):
                nf, tau = normal_form(s)
                assert nf == s and set(tau) == {0}

    def test_window_covers_every_orbit(self):
        # every valid window stability normalizes onto a listed representative
        for g in [banana(), triangle(), path3(), k4()]:
            reps = enumerate_orbits(g)
            for s in enumerate_window_stabilities(g):
                nf, _ = normal_form(s)
                assert nf in reps

    @pytest.mark.parametrize("graphs", ["ladder", "catalogue-5-6"])
    def test_zero_shift_is_own_normal_form(self, graphs):
        # every tree-cut candidate has shift zero and is its own normal
        # form, which is why enumerate_orbits keeps them all unfiltered
        pool = [f() for f in LADDER] if graphs == "ladder" else connected_multigraphs(5, 6)
        for g in pool:
            for s in enumerate_orbits(g):
                nf, tau = normal_form(s)
                assert nf == s and not any(tau)

    def test_zero_shift_is_own_normal_form_on_the_window(self):
        # on the whole window, where shifts need not be zero, a stability
        # is its own normal form iff its shift is zero
        seen = set()
        for g in connected_multigraphs(5, 6):
            for s in enumerate_window_stabilities(g):
                nf, tau = normal_form(s)
                own = not any(tau)
                assert own == (nf == s)
                seen.add(own)
        assert seen == {True, False}

    def test_distinct_orbits(self):
        for g in [banana(), triangle(), path3()]:
            reps = enumerate_orbits(g)
            for i, s in enumerate(reps):
                for t in reps[i + 1:]:
                    assert not orbit_equal(s, t)

    def test_tree_cut_window_is_the_filtered_full_window(self):
        # an oracle free of search order: the full window is searched pair
        # by pair in bcon_pairs order, the orbits pinned pairs first
        orbits = 0
        for g in connected_multigraphs(5, 7):
            cuts = g.spanning_tree.cut_pairs()
            pinned = [
                s.values for s in enumerate_window_stabilities(g)
                if all(s.value(parent) == 0 and s.value(child) in (0, 1)
                       for parent, child in cuts)
            ]
            assert [s.values for s in enumerate_orbits(g)] == sorted(pinned)
            orbits += len(pinned)
        assert orbits == 7197


class TestHasse:
    def test_chain(self):
        h = hasse([1, 2, 3], lambda a, b: a <= b)
        assert h.covers == ((0, 1), (1, 2))

    def test_not_partial_order(self):
        with pytest.raises(NotAPartialOrder):
            hasse([1, 2], lambda a, b: True)

    def test_rows_not_antisymmetric(self):
        with pytest.raises(NotAPartialOrder, match="antisymmetric"):
            hasse_from_rows([0b10, 0b01], ("a", "b"))

    def test_rows_not_transitive(self):
        # 0 < 1 < 2 without 0 < 2
        with pytest.raises(NotAPartialOrder, match="transitive"):
            hasse_from_rows([0b010, 0b100, 0], ("a", "b", "c"))

    @pytest.mark.parametrize("graphs, count", [("catalogue", 9722), ("k5_c6", 1396)])
    def test_dominance_rows_match_the_predicate_diagram(self, graphs, count):
        # the scan's diagram (rows i below j) and, on K5 and C6, the poset
        # command's (rows transposed) against one predicate call per pair
        pool = connected_multigraphs(5, 7) if graphs == "catalogue" else [k5(), cycle6()]
        covers = 0
        for g in pool:
            degs = enumerate_degeneracy_subsets(g)
            rows = dominance_rows(degs)
            blank = ("",) * len(degs)
            scan = hasse_from_rows(rows, blank)
            assert scan == hasse(
                degs, lambda a, b: a.members <= b.members and deg_leq(a, b), label=lambda d: ""
            )
            covers += len(scan.covers)
            if graphs == "k5_c6":
                assert hasse_from_rows(transpose_rows(rows), blank) == hasse(
                    degs, lambda a, b: deg_leq(b, a), label=lambda d: ""
                )
        assert covers == count

    def test_k4_class_diagram(self):
        g = k4()
        degs = enumerate_degeneracy_subsets(g)
        reps, assignment = deg_symmetry_classes(g, degs)
        members = [[] for _ in reps]
        for d, k in zip(degs, assignment):
            members[k].append(d)
        keyed = {id(r): i for i, r in enumerate(reps)}

        def class_leq(a, b):
            ka, kb = keyed[id(a)], keyed[id(b)]
            if ka == kb:
                return True
            return any(deg_leq(m, a) for m in members[kb])

        h = hasse(reps, class_leq, label=lambda d: str(sorted(d.members)))
        assert len(h.labels) == 7
        assert len(h.covers) == 8


@pytest.mark.parametrize("make", LADDER + [k33_minus_edge, k24], ids=lambda f: f.__name__)
def test_symmetry_classes_group_by_the_oracle_key(make):
    # grouping by the least sorted image, classes numbered in order of
    # first occurrence, gives the representatives and the assignment, on
    # the enumerated list and on that list reversed
    g = make()
    listed = enumerate_degeneracy_subsets(g)
    for degs in (listed, listed[::-1]):
        classes, reps, assignment = {}, [], []
        for d in degs:
            key = oracle_deg_symmetry_key(g, d.members)
            if key not in classes:
                classes[key] = len(reps)
                reps.append(d)
            assignment.append(classes[key])
        got_reps, got_assignment = deg_symmetry_classes(g, degs)
        assert [id(d) for d in got_reps] == [id(d) for d in reps]
        assert got_assignment == assignment


class TestChainSweeps:
    def test_boolean_lattice_is_ranked(self):
        # subsets of {a, b, c} by size: 0 is the empty set, 1-3 the
        # singletons, 4-6 the pairs ab, ac, bc, 7 the whole set
        covers = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 4), (2, 6),
                  (3, 5), (3, 6), (4, 7), (5, 7), (6, 7)]
        assert _all_maximal_chains_equal(8, covers) == (True, 3)

    def test_pentagon_is_not_ranked(self):
        # 0 < 1 < 2 < 4 and 0 < 3 < 4: maximal chains of 3 and 2 covers
        covers = [(0, 1), (0, 3), (1, 2), (2, 4), (3, 4)]
        assert _all_maximal_chains_equal(5, covers) == (False, None)

    def test_chains_of_different_lengths_are_not_ranked(self):
        # each component is a chain, one of 1 cover and one of 2
        assert _all_maximal_chains_equal(5, [(0, 1), (2, 3), (3, 4)]) == (False, None)

    def test_downward_cover_refused(self):
        with pytest.raises(ValueError):
            _all_maximal_chains_equal(2, [(1, 0)])

    def test_scan_catalogue_matches_every_maximal_chain(self):
        ranked = 0
        for g in connected_multigraphs(5, 7):
            degs = enumerate_degeneracy_subsets(g)
            covers = hasse(
                degs, lambda a, b: a.members <= b.members and deg_leq(a, b), label=lambda d: ""
            ).covers
            got = _all_maximal_chains_equal(len(degs), covers)
            assert got == _chains_verdict(len(degs), covers)
            ranked += got[0]
        assert ranked == 241     # every poset of the catalogue is ranked

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_up_going_dags_match_every_maximal_chain(self, data):
        n = data.draw(st.integers(0, 8))
        candidates = list(itertools.combinations(range(n), 2))
        keep = data.draw(st.lists(st.booleans(), min_size=len(candidates),
                                  max_size=len(candidates)))
        covers = list(itertools.compress(candidates, keep))
        assert _all_maximal_chains_equal(n, covers) == _chains_verdict(n, covers)


def _chains_verdict(n, covers):
    """(ranked, common length) read off the length of every maximal chain."""
    lengths = oracle_maximal_chain_lengths(n, covers)
    return (True, lengths.pop()) if len(lengths) == 1 else (False, None)


class TestScan:
    def test_banana_report(self):
        report = qdeg_scan(banana())
        assert report["ranked"] is True
        assert report["rank"] == 1
        assert report["degeneracy_map_surjective"] is True
        assert report["n_orbits"] == 2

    def test_scanned_graphs_leave_no_garbage(self):
        # a graph, its tables and its spanning tree hold no reference
        # cycle, so with the cyclic collector off they are freed as soon as
        # the last name goes
        gc.collect()
        gc.disable()
        try:
            graphs = connected_multigraphs(5, 6)
            for g in graphs:
                qdeg_scan(g)
            last = weakref.ref(graphs[-1])
            del g, graphs
            assert last() is None
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_triangle_report(self):
        report = qdeg_scan(triangle())
        assert report["is_partial_order"] is True
        assert report["degeneracy_map_surjective"] is True

"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print.  Two companion tests marked ``_as_stated`` check statements
that are contradicted by pinned counterexamples (see notes/decisions.md
outside the package); they fail by design and document the defect.
"""

import hashlib
import itertools
import json
import time

import pytest

from vstab import DualGraph, SheafData, VStability
from vstab.cli import main
from vstab.graphenum import connected_multigraphs
from vstab.graphs import mask_of, vertices_of
from vstab.limits import _beta_all, esteves_limit, same_orbit, twist, twisting_subcurve
from vstab.polarization import NumericalPolarization, is_classical, translate_polarization
from vstab.posets import (
    check_deg_witness,
    deg_leq,
    dominating_stabilities,
    enumerate_degeneracy_subsets,
    enumerate_orbits,
    enumerate_window_stabilities,
    is_maximal,
    is_submaximal,
    lift,
    minimal_elements,
    move_I,
    move_II,
    normal_form,
    orbit_equal,
    qdeg_scan,
    stability_window,
    translate,
    translation_witness,
    vstab_leq,
)
from vstab.sheaves import (
    OrderedPartition,
    polystable_limit,
    extension_glue,
    gr_specialize,
    is_polystable,
    is_polystable_via_extended,
    is_semistable,
    is_stable,
    is_stable_via_extended,
    relative_extended_value,
    tight_unsplit_witnesses,
)
from vstab.stability import DegeneracySet, extended_value_table

from fractions import Fraction
import random


def _report(number, detail=""):
    print(f"PASS criterion {number}" + (f": {detail}" if detail else ""))


def _k4():
    return DualGraph((0,) * 4, tuple(
        (i, j) for i in range(4) for j in range(i + 1, 4)
    ))


N4_FAMILY = None


def graphs_up_to_4():
    global N4_FAMILY
    if N4_FAMILY is None:
        N4_FAMILY = connected_multigraphs(4, 6)
    return N4_FAMILY


SHEAF_FAMILY_4 = [
    DualGraph((0, 0), ((0, 1),)),
    DualGraph((0, 0), ((0, 1), (0, 1))),
    DualGraph((0, 0), ((0, 1),) * 3),
    DualGraph((0, 0, 0), ((0, 1), (1, 2))),
    DualGraph((0, 0, 0), ((0, 1), (0, 2), (1, 2))),
    DualGraph((0, 0, 0), ((0, 1), (0, 1), (1, 2))),
    DualGraph((1, 2), ((0, 1), (0, 1), (1, 1))),
    DualGraph((0, 0, 0, 0), ((0, 1), (0, 2), (0, 3))),
    DualGraph((0, 0, 0, 0), ((0, 1), (1, 2), (2, 3))),
    DualGraph((0, 0, 0, 0), ((0, 1), (1, 2), (2, 3), (0, 3))),
    _k4(),
]


def sheaf_classes_by_support(g, window):
    """Sheaf classes in a symmetric degree box, grouped by support."""
    groups = {}
    for supp in range(1, g.full_mask + 1):
        verts = [v for v in range(g.n) if (supp >> v) & 1]
        internal = g.internal_edges(supp)
        block = []
        for nf_bits in range(1 << len(internal)):
            nonfree = frozenset(
                internal[i] for i in range(len(internal)) if (nf_bits >> i) & 1
            )
            for degs in itertools.product(
                range(-window, window + 1), repeat=len(verts)
            ):
                d = [0] * g.n
                for v, dv in zip(verts, degs):
                    d[v] = dv
                block.append(SheafData(g, supp, tuple(d), nonfree))
        groups[supp] = block
    return groups


def semistable_in_groups(g, s, groups):
    dhat = s.extended_degeneracy
    out = []
    for supp, block in groups.items():
        comps = g.connected_components(supp)
        if not all(c in dhat for c in comps):
            continue
        target = sum(s.extended_value(c) for c in comps)
        for I in block:
            if I.euler_char() == target and is_semistable(I, s):
                out.append(I)
    return out


# ---------------------------------------------------------------------------
# criterion 1: the four-component worked example
# ---------------------------------------------------------------------------


def test_criterion_01_k4_golden(tmp_path, capsys):
    t0 = time.time()
    g = _k4()
    graph_file = tmp_path / "k4.json"
    graph_file.write_text(json.dumps(
        {"genera": [0, 0, 0, 0], "edges": [list(e) for e in g.edges]}
    ))

    assert main(["enum-deg", "--graph", str(graph_file), "--mod-symmetry"]) == 0
    doc = json.loads(capsys.readouterr().out)
    # six nonempty classes plus the empty one reproduce the diagram nodes
    assert len(doc["degeneracy_subsets"]) == 7
    minimal_shapes = {
        tuple(tuple(m) for m in d["minimal"]) for d in doc["degeneracy_subsets"]
    }
    assert ((0,), (1, 2, 3)) in minimal_shapes
    assert ((0, 1), (2, 3)) in minimal_shapes

    assert main(["poset", "--graph", str(graph_file), "--kind", "deg",
                 "--mod-symmetry"]) == 0
    poset_doc = json.loads(capsys.readouterr().out)
    assert len(poset_doc["elements"]) == 7
    assert len(poset_doc["covers"]) == 8

    # the labelled cover relations of the diagram, built from the minimal
    # generators of the seven classes
    from vstab.cli import _deg_label
    from vstab.posets import _closure_from

    def node(*gen_vertex_sets):
        gens = [mask_of(vs) for vs in gen_vertex_sets]
        return _deg_label(DegeneracySet(g, _closure_from(g, gens)))

    empty = node()
    one_three = node((0,), (1, 2, 3))
    pair_pair = node((0, 1), (2, 3))
    pair_sing = node((0,), (1,), (2, 3))
    four_cycle = node((0, 1), (2, 3), (0, 2), (1, 3))
    all_sing = node((0,), (1,), (2,), (3,))
    six_pairs = node((0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2))

    labels = poset_doc["elements"]
    covers = {(labels[lo], labels[hi]) for lo, hi in poset_doc["covers"]}
    expected = {
        (one_three, empty),
        (pair_pair, empty),
        (pair_sing, one_three),
        (pair_sing, pair_pair),
        (four_cycle, pair_pair),
        (all_sing, pair_sing),
        (all_sing, four_cycle),
        (six_pairs, four_cycle),
    }
    assert covers == expected

    # feature 1: containment without domination
    six = DegeneracySet(g, frozenset(
        Y for Y in g.biconnected_subcurves if bin(Y).count("1") == 2
    ))
    full = DegeneracySet(g, frozenset(g.biconnected_subcurves))
    assert six.members < full.members and not deg_leq(six, full)

    # feature 2: the exceptional cover and its quoted witness
    D1 = DegeneracySet(g, frozenset({0b0011, 0b1100, 0b0101, 0b1010}))
    assert deg_leq(D1, full)
    il = mask_of((0, 3))
    diff = full.members - D1.members
    E = frozenset(S for S in diff if S & ~il == 0 or il & ~S == 0)
    assert check_deg_witness(D1, full, E)
    # ... and it is exceptional: neither elementary move produces it
    mins = minimal_elements(full)
    move_results = []
    for Y in mins:
        if g.complement(Y) in mins:
            move_results.append(move_I(full, Y).members)
    bset = set(g.biconnected_subcurves)
    for Y1 in mins:
        for Y2 in mins:
            if Y1 < Y2 and not Y1 & Y2 and (Y1 | Y2) in bset:
                move_results.append(move_II(full, Y1, Y2).members)
    assert D1.members not in move_results

    elapsed = time.time() - t0
    assert elapsed < 10
    _report(1, f"7 diagram classes (6 nonempty), 8 covers, both features, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: validator equivalence over the candidate window
# ---------------------------------------------------------------------------


def _window_assignments(g, prune):
    """All characteristic-0 window assignments surviving one validator,
    enumerated pair-by-pair with that validator's constraints as pruning.

    ``prune`` is "triples" (pair-sum plus the covering-triple conditions)
    or "unions" (pair-sum plus the pair-union condition).  Constraints are
    only applied once all their subcurves are assigned, so each run is an
    exhaustive filter of the full product space.
    """
    pairs = g.bcon_pairs
    window = stability_window(g)
    full = g.full_mask
    options = []
    for Y, Yc in pairs:
        lo1, hi1 = window[Y]
        lo2, hi2 = window[Yc]
        opts = []
        for a in range(lo1, hi1 + 1):
            for b in (-a, 1 - a):
                if lo2 <= b <= hi2:
                    opts.append((a, b))
        options.append(opts)
    pair_of = {}
    for i, (Y, Yc) in enumerate(pairs):
        pair_of[Y] = i
        pair_of[Yc] = i

    if prune == "unions":
        cons = [[] for _ in pairs]
        for A, B, U in g.admissible_pairs:
            cons[max(pair_of[A], pair_of[B], pair_of[U])].append((A, B, U))
    else:
        cons = [[] for _ in pairs]
        for T in g.covering_triples:
            cons[max(pair_of[Z] for Z in T)].append(T)

    values = {}
    out = set()

    def deg(Y):
        return values[Y] + values[full ^ Y] == 0

    def ok(depth):
        if prune == "unions":
            for A, B, U in cons[depth]:
                delta = values[U] - values[A] - values[B]
                if deg(A) or deg(B):
                    if delta != 0:
                        return False
                elif deg(U):
                    if delta != -1:
                        return False
                elif delta not in (0, -1):
                    return False
        else:
            for T in cons[depth]:
                flags = [deg(Z) for Z in T]
                sigma = sum(values[Z] for Z in T)
                nd = sum(flags)
                if nd == 2:
                    return False
                if sigma not in {3: (0,), 1: (1,), 0: (1, 2)}[nd]:
                    return False
        return True

    def walk(depth):
        if depth == len(pairs):
            out.add(tuple(values[Y] for Y in g.biconnected_subcurves))
            return
        Y, Yc = pairs[depth]
        for a, b in options[depth]:
            values[Y] = a
            values[Yc] = b
            if ok(depth):
                walk(depth + 1)

    walk(0)
    return out


def test_criterion_02_validator_equivalence():
    t0 = time.time()
    total = 0
    rng = random.Random(2)
    for g in graphs_up_to_4():
        by_triples = _window_assignments(g, "triples")
        by_unions = _window_assignments(g, "unions")
        assert by_triples == by_unions, g.edges
        total += len(by_triples)
        # survivors agree under both full validators too
        for values in by_triples:
            s = VStability(g, 0, values)
            assert s.validate().ok and s.validate_via_union().ok
        # spot-check rejected assignments on both validators
        for values in list(by_triples)[:5]:
            if not values:
                continue
            for _ in range(4):
                mutated = list(values)
                mutated[rng.randrange(len(mutated))] += rng.choice([-2, -1, 1, 2])
                t = VStability(g, 0, tuple(mutated))
                assert t.validate().ok == t.validate_via_union().ok
    elapsed = time.time() - t0
    assert elapsed < 300
    _report(2, f"{len(graphs_up_to_4())} graphs, {total} window stabilities, "
               f"zero disagreements, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: the lemma suite
# ---------------------------------------------------------------------------


def _lemma_suite(g, stabilities):
    full = g.full_mask
    con = set(g.connected_subcurves)
    bset = set(g.biconnected_subcurves)
    for s in stabilities:
        D = s.degeneracy_set()
        DegeneracySet(g, D.members)          # complement/union closures
        dhat = s.extended_degeneracy
        ext = extended_value_table(s)

        # pairwise-union trichotomy holds verbatim on valid stabilities
        assert s.validate_via_union().ok

        # extended-function bounds for disjoint connected pieces with
        # connected union
        for Y in g.connected_subcurves:
            for Z in g.connected_subcurves:
                if Y & Z or (Y | Z) not in con:
                    continue
                U = Y | Z
                rest = full ^ U
                a_set, b_set, c_set = [], [], []
                for W in g.connected_components(rest):
                    meets_y = g.edges_between(W, Y) > 0
                    meets_z = g.edges_between(W, Z) > 0
                    if meets_y and meets_z:
                        b_set.append(W)
                    elif meets_y:
                        a_set.append(W)
                    else:
                        c_set.append(W)
                Yp = Y
                for W in a_set:
                    Yp |= W
                Zp = Z
                for W in c_set:
                    Zp |= W
                assert Yp in bset and Zp in bset
                diff = ext[U] - ext[Y] - ext[Z]
                if (
                    Yp in D.members and Zp in D.members
                    and all(W in D.members for W in b_set)
                ):
                    assert diff == 0, (g.edges, s.values, Y, Z)
                else:
                    lo = 1 - sum(1 for M in (Yp, Zp) if M not in D.members)
                    hi = sum(1 for W in b_set if W not in D.members) - 1
                    assert lo <= diff <= hi, (g.edges, s.values, Y, Z)

        # additivity on the extended degeneracy set
        for W1 in dhat:
            for W2 in dhat:
                if W1 & W2 or (W1 | W2) not in dhat:
                    continue
                assert ext[W1 | W2] == ext[W1] + ext[W2]

        # complement components degenerate together whenever one side is
        # connected (the general both-sides-disconnected claim fails; see
        # the companion as-stated test and the decisions ledger)
        for Y in range(1, full):
            if not (g.is_connected(Y) or g.is_connected(full ^ Y)):
                continue
            left = all(W in dhat for W in g.connected_components(Y))
            right = all(
                W in dhat for W in g.connected_components(full ^ Y)
            )
            assert left == right

        # restricted extended function dominates the ambient one
        for Y in dhat:
            W = Y
            while W:
                if g.is_connected(W):
                    rel = relative_extended_value(s, Y, W)
                    assert rel >= ext[W]
                    rest = Y & ~W
                    rel_rest = (
                        relative_extended_value(s, Y, rest) if rest else 0
                    )
                    amb_rest = ext[full ^ W] if W != full else 0
                    assert ext[Y] - rel_rest <= s.chi - amb_rest
                W = (W - 1) & Y

        # restriction validity, characteristic, and degeneracy behaviour
        for Y in dhat:
            r = s.restrict(Y)
            assert r.is_valid
            assert r.chi == ext[Y]
            _, verts = g.induced(Y)
            lift_bit = {i: 1 << v for i, v in enumerate(verts)}

            def lift_mask(m):
                out = 0
                for i in vertices_of(m):
                    out |= lift_bit[i]
                return out

            # degeneracy of the restriction = ambient extended degeneracy
            # met with the relatively biconnected subcurves of Y
            assert {
                lift_mask(W) for W in r.degeneracy_set().members
            } == {
                W for W in dhat
                if W & Y == W and W != Y
                and g.is_connected(W) and g.is_connected(Y ^ W)
            }
            assert {lift_mask(W) for W in r.extended_degeneracy} <= dhat


def test_criterion_03_lemma_suite():
    t0 = time.time()
    count = 0
    for g in graphs_up_to_4():
        stabs = enumerate_window_stabilities(g)
        _lemma_suite(g, stabs)
        count += len(stabs)
    # spot samples at five components
    c5 = DualGraph((0,) * 5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
    tree5 = DualGraph((0,) * 5, ((0, 1), (0, 2), (0, 3), (3, 4)))
    for g in (c5, tree5):
        _lemma_suite(g, enumerate_orbits(g)[:40])

    # order preservation and upper lifting of the degeneracy map
    for g in graphs_up_to_4():
        stabs = enumerate_window_stabilities(g)
        for s in stabs:
            for t in dominating_stabilities(s):
                assert deg_leq(t.degeneracy_set(), s.degeneracy_set())
        degs = enumerate_degeneracy_subsets(g)
        by_deg = {}
        for s in stabs:
            by_deg.setdefault(s.degeneracy_set().members, []).append(s)
        for d1 in degs:
            for d2 in degs:
                if d1.members != d2.members and deg_leq(d1, d2):
                    for s2 in by_deg.get(d2.members, [])[:8]:
                        s1 = lift(d1, d2, s2)
                        assert vstab_leq(s1, s2)
                        assert s1.degeneracy_set().members == d1.members
        # maximal and submaximal characterization
        for s in stabs:
            assert is_maximal(s) == s.is_general()
            assert is_submaximal(s) == (len(s.degeneracy_set().members) == 2)

    elapsed = time.time() - t0
    _report(3, f"{count} stabilities over {len(graphs_up_to_4())} graphs, "
               f"zero violations, {elapsed:.1f}s")


@pytest.mark.xfail(
    strict=True,
    reason="pinned counterexample to the stronger identity: the extended "
    "degeneracy set of a restriction can be strictly smaller than the ambient extended "
    "degeneracy set met with the connected subcurves (see decisions ledger); "
    "only the inclusion and the biconnected-level identity hold",
)
def test_criterion_03_restriction_dhat_identity_as_stated():
    g = DualGraph((0, 0, 0, 0), ((0, 1), (0, 3), (1, 2), (2, 3)))
    vals = dict(zip(g.biconnected_subcurves,
                    (-1, 1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 1)))
    s = VStability.from_dict(g, 0, vals)
    assert s.is_valid
    Y = 0b1011
    r = s.restrict(Y)
    _, verts = g.induced(Y)
    lift_bit = {i: 1 << v for i, v in enumerate(verts)}

    def lift_mask(m):
        out = 0
        for i in vertices_of(m):
            out |= lift_bit[i]
        return out

    lifted = {lift_mask(W) for W in r.extended_degeneracy}
    expected = {
        W for W in s.extended_degeneracy
        if W & Y == W and g.is_connected(W)
    }
    assert lifted == expected   # fails: 0b0001 is ambient-degenerate only


@pytest.mark.xfail(
    strict=True,
    reason="pinned counterexample to the unrestricted claim: when both a subcurve "
    "and its complement are disconnected, their components need not be "
    "extended-degenerate together (the claim's proof routes through the "
    "defective restriction identity); the connected-side case, which is "
    "what the semistability theory uses, holds and is asserted in the "
    "lemma suite (see decisions ledger)",
)
def test_criterion_03_complement_degeneracy_as_stated():
    g = DualGraph((0, 0, 0, 0), ((0, 1), (0, 2), (1, 3), (2, 3)))
    vals = dict(zip(g.biconnected_subcurves,
                    (-1, 1, 0, 1, 0, 0, 0, 1, 0, 1, 0, 1)))
    s = VStability.from_dict(g, 0, vals)
    assert s.is_valid
    dhat = s.extended_degeneracy
    Y = 0b0110                      # components {1}, {2}
    left = all(W in dhat for W in g.connected_components(Y))
    right = all(
        W in dhat for W in g.connected_components(g.full_mask ^ Y)
    )
    assert left == right            # fails: {0},{3} degenerate, {1},{2} not


# ---------------------------------------------------------------------------
# criterion 4: ceiling-map suite
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_04_ceiling_suite():
    t0 = time.time()
    rng = random.Random(4)
    pool = [
        DualGraph((0, 0), ((0, 1), (0, 1))),
        DualGraph((0, 0, 0), ((0, 1), (1, 2))),
        DualGraph((0, 0, 0), ((0, 1), (0, 2), (1, 2))),
        DualGraph((0, 0, 0, 0), ((0, 1), (1, 2), (2, 3), (0, 3))),
        _k4(),
        DualGraph((0,) * 5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))),
    ]
    per_graph = 10_000
    for g in pool:
        for _ in range(per_graph):
            q = rng.randint(1, 12)
            chi = rng.randint(-3, 3)
            nums = [rng.randint(-3 * q, 3 * q) for _ in range(g.n - 1)]
            nums.append(chi * q - sum(nums))
            p = NumericalPolarization(
                g, chi, tuple(Fraction(k, q) for k in nums)
            )
            s = p.induced_vstability()
            assert s.is_valid
            integral = frozenset(
                Y for Y in g.biconnected_subcurves
                if p.value_on(Y).denominator == 1
            )
            assert s.degeneracy_set().members == integral
            tau = tuple(rng.randint(-3, 3) for _ in range(g.n))
            assert translate_polarization(p, tau).induced_vstability() == \
                translate(s, tau)
            w = is_classical(s)
            assert w is not None
            assert w.induced_vstability() == s
    elapsed = time.time() - t0
    _report(4, f"{per_graph} polarizations x {len(pool)} graphs, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 5: classical detection vs sampling oracle
# ---------------------------------------------------------------------------


def test_criterion_05_classical_detection():
    t0 = time.time()
    rng = random.Random(5)
    bound = 60
    mismatches = 0
    reps_total = 0
    for g in graphs_up_to_4():
        reps = enumerate_orbits(g)
        reps_total += len(reps)
        rep_index = {s.values: s for s in reps}
        oracle_classical = set()
        for _ in range(250):
            q = rng.randint(1, bound)
            nums = [rng.randint(-2 * q, 2 * q) for _ in range(g.n - 1)]
            nums.append(-sum(nums))     # characteristic zero samples
            p = NumericalPolarization(
                g, 0, tuple(Fraction(k, q) for k in nums)
            )
            s = p.induced_vstability()
            nf, _ = normal_form(s)
            if nf.values in rep_index:
                oracle_classical.add(nf.values)
        for s in reps:
            w = is_classical(s)
            if s.values in oracle_classical and w is None:
                mismatches += 1   # oracle found a witness the solver missed
            if w is not None and w.induced_vstability() != s:
                mismatches += 1   # witness fails to re-ceil
    assert mismatches == 0
    elapsed = time.time() - t0
    _report(5, f"{reps_total} representatives, denominator bound {bound}, "
               f"zero mismatches, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 6: normal form and finiteness
# ---------------------------------------------------------------------------


def test_criterion_06_normal_form():
    t0 = time.time()
    lines = []
    for g in graphs_up_to_4():
        tree = g.spanning_tree
        window = stability_window(g)
        cut_pattern = tree.cut_pairs()
        stabs = enumerate_window_stabilities(g)
        reps = enumerate_orbits(g)
        for s in stabs:
            nf, tau = normal_form(s)
            assert nf.chi == 0
            # tree-cut pattern of the normalized representative
            for parent_side, child_side in cut_pattern:
                assert nf.value(parent_side) == 0
                assert nf.value(child_side) in (0, 1)
            # tree-valence window bounds
            for Y in g.biconnected_subcurves:
                lo, hi = window[Y]
                assert lo <= nf.value(Y) <= hi
            assert nf in reps
        # orbit equality is an equivalence relation consistent with an
        # explicit translation-witness search
        for s in stabs:
            assert orbit_equal(s, s)
            for t in stabs:
                w = translation_witness(s, t, bound=6)
                assert (w is not None) == orbit_equal(s, t)
                assert orbit_equal(s, t) == orbit_equal(t, s)
                if w is not None:
                    assert translate(s, w) == t
        lines.append(f"{len(g.edges)}e/{g.n}v:{len(reps)}")
    elapsed = time.time() - t0
    print("orbit counts per graph:", " ".join(lines))
    _report(6, f"window normalization + witness search, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 7: semistability suite
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_07_semistability_suite():
    t0 = time.time()
    checked = 0
    for g in SHEAF_FAMILY_4:
        groups = sheaf_classes_by_support(g, 3)
        reps = enumerate_orbits(g)
        full = g.full_mask
        for s in reps:
            dhat = s.extended_degeneracy
            ext = extended_value_table(s)
            semis = semistable_in_groups(g, s, groups)
            checked += len(semis)
            general = s.is_general()
            for I in semis:
                poly = is_polystable(I, s)
                stab = is_stable(I, s)
                # definition vs extended-level characterization
                assert poly == is_polystable_via_extended(I, s)
                assert stab == is_stable_via_extended(I, s)
                # polystable iff every canonical piece is stable
                pieces = I.canonical_decomposition()
                assert poly == all(is_stable(p, s) for p in pieces)
                # stable iff polystable and simple
                assert stab == (poly and I.is_simple())
                # the three notions collapse for general stabilities
                if general:
                    assert poly and stab
                # four-way restriction equivalence
                for Y in range(1, full + 1):
                    inner = Y & I.support
                    if inner == 0 or inner == I.support:
                        continue
                    outer = I.support & ~inner
                    c1 = is_semistable(I.restrict(inner), s)
                    c2 = all(
                        W in dhat
                        and I.restrict(W).euler_char() == ext[W]
                        for W in g.connected_components(inner)
                    )
                    c3 = is_semistable(I.sub_part(outer), s)
                    c4 = all(
                        W in dhat
                        and I.sub_part(W).euler_char() == ext[W]
                        for W in g.connected_components(outer)
                    )
                    assert c1 == c2 == c3 == c4
            # extension closure on disjoint-support semistable pairs
            for J in semis:
                for I in semis:
                    if J.support & I.support:
                        continue
                    union = J.support | I.support
                    if not all(
                        c in dhat for c in g.connected_components(union)
                    ):
                        continue
                    boundary = [
                        e for e in g.internal_edges(union)
                        if not (
                            e in g.internal_edges(J.support)
                            or e in g.internal_edges(I.support)
                        )
                    ]
                    for bits in range(1 << len(boundary)):
                        free = frozenset(
                            boundary[i] for i in range(len(boundary))
                            if (bits >> i) & 1
                        )
                        K = extension_glue(J, I, free)
                        assert is_semistable(K, s)
        # monotonicity: dominating stabilities have smaller semistable sets
        window_stabs = enumerate_window_stabilities(g)
        betas = {}
        need = -(g.n - sum(g.genera)) + len(g.edges)
        degree_vectors = [
            d for d in itertools.product(range(-3, 4), repeat=g.n)
            if sum(d) == need
        ]
        for s in window_stabs:
            ext = extended_value_table(s)
            betas[s.values] = {
                d for d in degree_vectors
                if all(
                    _beta_all(g, d, ext)[Z] >= 0
                    for Z in g.biconnected_subcurves
                )
            }
        for s in window_stabs:
            for t in window_stabs:
                if s.values != t.values and vstab_leq(s, t):
                    assert betas[s.values] <= betas[t.values]
    elapsed = time.time() - t0
    assert elapsed < 1800
    _report(7, f"{checked} semistable classes across {len(SHEAF_FAMILY_4)} graphs, "
               f"zero violations, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 8: unique polystable limits
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_08_jordan_holder():
    t0 = time.time()
    checked = 0
    for g in SHEAF_FAMILY_4:
        groups = sheaf_classes_by_support(g, 3)
        for s in enumerate_orbits(g):
            memo = {}

            def finals(I):
                got = memo.get(I)
                if got is not None:
                    return got
                ws = tight_unsplit_witnesses(I, s)
                if not ws:
                    out = frozenset([I])
                else:
                    acc = set()
                    for Z in ws:
                        step = gr_specialize(
                            I, OrderedPartition((Z, I.support & ~Z))
                        )
                        acc |= finals(step)
                    out = frozenset(acc)
                memo[I] = out
                return out

            for I in semistable_in_groups(g, s, groups):
                limit = polystable_limit(I, s)
                assert is_polystable(limit, s)
                assert limit.euler_char() == I.euler_char()
                assert finals(I) == frozenset([limit])
                assert polystable_limit(limit, s) == limit
                checked += 1
    elapsed = time.time() - t0
    _report(8, f"{checked} semistable classes, order-independent and "
               f"idempotent, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 9: the limit algorithm
# ---------------------------------------------------------------------------


LIMIT_FAMILY_5 = SHEAF_FAMILY_4 + [
    DualGraph((0,) * 5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))),
    DualGraph((0,) * 5, ((0, 1), (0, 2), (0, 3), (3, 4))),
    DualGraph((1, 0, 0), ((0, 1), (0, 2), (1, 2))),
]

# sha256 over every run of criterion 9, in its order, of
# repr((start, result, steps)) + newline, each step as
# (subcurve, beta_min, multidegree, lemma_step): a rewrite of the limit
# search that changes any result or any step of any trace fails here
LIMIT_TRACE_DIGEST = "b6f911030c3440b58056c9050835422bb1da4145c5d5e99fd40a4c3e4b2c02c4"


@pytest.mark.slow
def test_criterion_09_limit_algorithm():
    t0 = time.time()
    runs = 0
    completions = 0
    digest = hashlib.sha256()
    for g in LIMIT_FAMILY_5:
        win = g.genus + 2
        for s in enumerate_orbits(g):
            ext = extended_value_table(s)
            need = s.chi - (g.n - sum(g.genera)) + len(g.edges)
            for d in itertools.product(range(-win, win + 1), repeat=g.n):
                if sum(d) != need:
                    continue
                result, trace = esteves_limit(d, s)
                runs += 1
                steps = tuple((st.subcurve, st.beta_min, st.multidegree, st.lemma_step)
                              for st in trace.steps)
                digest.update(repr((d, result, steps)).encode() + b"\n")
                final = _beta_all(g, result, ext)
                assert all(
                    final[Z] >= 0 for Z in g.biconnected_subcurves
                )
                assert same_orbit(g, result, d)[0]
                if trace.used_fallback:
                    completions += 1
                # re-assert the post-twist inequality along the trace
                for step in trace.steps:
                    nb = _beta_all(g, step.multidegree, ext)
                    for Z in range(1, g.full_mask + 1):
                        assert nb[Z] >= step.beta_min
                        if step.lemma_step and nb[Z] == step.beta_min:
                            assert Z & ~step.subcurve == 0
    assert runs == 269038
    assert digest.hexdigest() == LIMIT_TRACE_DIGEST

    # the worked two-component trace
    banana = DualGraph((0, 0), ((0, 1), (0, 1)))
    s = VStability.from_dict(banana, 0, {1: 0, 2: 0})
    result, trace = esteves_limit((5, -5), s)
    assert result == (1, -1)
    assert [(st.subcurve, st.beta_min, st.multidegree) for st in trace.steps] \
        == [(2, -4, (3, -3)), (2, -2, (1, -1))]

    elapsed = time.time() - t0
    _report(9, f"{runs} limit runs, {completions} needed the monotone "
               f"expansion, {elapsed:.1f}s")


@pytest.mark.xfail(
    strict=True,
    reason="pinned instance where the non-backtracking iteration stalls: it can "
    "stall because every minimizer start stabilizes to the whole curve, "
    "where twisting is trivial, and at the stuck multidegree no proper "
    "twist satisfies the strict post-twist inequality (see decisions "
    "ledger); the shipped algorithm completes with monotone twists instead",
)
def test_criterion_09_literal_iteration_as_stated():
    g = DualGraph((0,) * 5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
    vals = dict(zip(
        g.biconnected_subcurves,
        (-1, 0, -1, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0, 0, 1, 0, 0, 1, 0, 1),
    ))
    s = VStability.from_dict(g, 0, vals)
    assert s.is_valid
    ext = extended_value_table(s)
    d = (-1, -2, 1, 0, 2)         # reachable from (-3, -3, 0, 3, 3)
    betas = _beta_all(g, d, ext)
    m0 = min(betas)
    assert m0 < 0
    # the stabilized-union construction yields only the whole curve here ...
    minimizers = [Z for Z, b in enumerate(betas) if b == m0]
    stabilized = {twisting_subcurve(d, s, start=Z) for Z in minimizers}
    # ... so the literal iteration cannot leave d; for the criterion's
    # per-step inequality, some proper twist would have to satisfy it:
    def full_inequality(Y):
        nb = _beta_all(g, twist(g, d, Y), ext)
        return all(
            nb[Z] > m0 or (nb[Z] == m0 and not Z & ~Y)
            for Z in range(1, g.full_mask + 1)
        )

    assert any(Y != g.full_mask for Y in stabilized) and any(
        full_inequality(Y) for Y in range(1, g.full_mask)
    )


# ---------------------------------------------------------------------------
# criterion 10: pullback suite
# ---------------------------------------------------------------------------


def test_criterion_10_pullback_suite():
    from vstab import pullback

    t0 = time.time()
    checked = 0
    for g in graphs_up_to_4():
        reps = enumerate_orbits(g)
        for bits in range(1 << len(g.edges)):
            F = tuple(i for i in range(len(g.edges)) if (bits >> i) & 1)
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
                checked += 1
    elapsed = time.time() - t0
    _report(10, f"{checked} pullbacks, zero violations, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 11: evidence scan
# ---------------------------------------------------------------------------


def test_criterion_11_qdeg_scan():
    t0 = time.time()
    graphs = connected_multigraphs(5, 7)
    ranked = surjective = 0
    for g in graphs:
        report = qdeg_scan(g)
        assert report["is_partial_order"]
        if report["ranked"]:
            ranked += 1
            assert report["rank"] == report["expected_rank"]
        if report["degeneracy_map_surjective"]:
            surjective += 1
    elapsed = time.time() - t0
    assert elapsed < 3600
    _report(11, f"{len(graphs)} graphs scanned: ranked {ranked}/{len(graphs)}, "
                f"surjective {surjective}/{len(graphs)}, {elapsed:.1f}s")

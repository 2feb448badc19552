"""Posets of degeneracy subsets and of V-stabilities, normal forms under
translation, orbit enumeration, and the evidence scanner.

Degeneracy subsets, window stabilities and the stabilities dominating a
given one are choices on the complementary pairs (Y, Y^c) of biconnected
subcurves, and one depth-first search, ``_pair_search``, finds them: each
pair takes its options in order, and each constraint (a pair union that
must stay inside or obey the pair-union rule) is judged at the depth where
its last pair is set.  There it is a row, the bitmask of that depth's
options for which it holds, computed once for each choice of options on
its earlier pairs and kept; a node ANDs its rows and tries the surviving
options in order, so the output order is that of the plain nested loop.
The walk is iterative and yields one live assignment, which callers read
at once.  Window stabilities, orbit representatives and the stabilities
dominating a given one come from one search under the pair-union rule,
each stability built in search order by the trusted constructor: the
search enforces every condition ``validate`` checks, so none is run
again.  The tree-valence window is stated once, by ``stability_window``.
Orbit enumeration searches the window stabilities with the tree-cut
pattern, each its own normal form, with the pinned tree-cut pairs first,
and sorts them once by value.

Dominance witnesses have their own kernel, ``stability._witness_sides``
beside ``DegeneracySet``, on the bitmasks of the pairs two subsets hold
(``DualGraph.witness_rules``): a witness takes one side of each pair
between them, the pair rule is a parity equation on those sides, merged
by union-find, and the triple rule is "not all equal", searched over the
class roots.  Dominance is downward closed in its upper argument (the
restriction lemma in ``deg_leq``), so a set that dominates the top
subset, decided once per set, dominates every set containing it; any
other included pair is decided by its first witness.  A Hasse diagram is built from rows, one bitmask per element of
the elements above it: ``hasse`` fills them with one predicate call per
ordered pair, and ``dominance_rows`` fills the dominance order's from the
proper supersets of each set (inclusion is necessary for dominance), kept
whole for a set that dominates the top subset and otherwise filtered by
witness.  The evidence scanner reads the covers of those rows and decides
rankedness by one ascending sweep of ranks over them.  The subcurves a
move takes pass ``DualGraph.check_mask``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional

from .errors import (
    LiftImpossible,
    MoveNotApplicable,
    NotAPartialOrder,
)
from .graphs import DualGraph, vertices_of
from .stability import DegeneracySet, VStability, _witness_sides, translate

# -- the pair search -------------------------------------------------------------


def _pair_search(pairs, options, constraints, holds) -> Iterator[dict[int, object]]:
    """Depth-first search over complementary pairs (Y, Y^c).

    Pair i takes each of its ``options[i]`` (value on Y, value on Y^c) in
    order.  Each constraint, a tuple of subcurves from at most three pairs,
    is filed at the depth where its last pair is set; ``holds(constraint,
    values)`` judges it on the values set so far.  At that depth the
    constraint is a row: the bitmask of the depth's options for which it
    holds.  A row depends only on the options chosen at the constraint's
    earlier pairs, so it is computed the first time those choices are met
    and kept, one table per depth and set of earlier pairs (the AND of the
    rows of the constraints filed there).  A node ANDs its rows and tries
    the surviving options from low bit to high, which is option order, so
    the output order is that of a plain nested loop with every constraint
    checked.

    The walk is iterative.  It yields one live dict from subcurve to value
    for every complete assignment; the dict changes as the walk goes on,
    so a caller reads each assignment before asking for the next.  With no
    pairs it yields the empty assignment once.
    """
    values: dict[int, object] = {}
    n = len(pairs)
    if not n:
        yield values
        return
    depth_of = {}
    for i, (Y, Yc) in enumerate(pairs):
        depth_of[Y] = depth_of[Yc] = i
    # rows[d]: per set of earlier pairs (e1, e2) of the constraints filed at
    # depth d, the memo table of rows indexed by the options chosen there;
    # an absent earlier pair is the extra slot chosen[n], which stays 0
    width = [len(opts) for opts in options] + [1]
    rows: list[list] = [[] for _ in pairs]
    groups = {}
    for c in constraints:
        *earlier, last = sorted({depth_of[Y] for Y in c})
        if len(earlier) > 2:
            raise ValueError(f"constraint {c} spans more than three pairs")
        key = (n, n, *earlier, last)[-3:]
        group = groups.get(key)
        if group is None:
            e1, e2, _ = key
            group = groups[key] = ([None] * (width[e1] * width[e2]), e1, width[e2], e2, [])
            rows[last].append(group)
        group[4].append(c)
    chosen = [0] * (n + 1)
    live = [-1] * n     # per depth: options still to try, -1 before the rows
    depth = 0
    while depth >= 0:
        bits = live[depth]
        Y, Yc = pairs[depth]
        opts = options[depth]
        if bits < 0:
            bits = (1 << len(opts)) - 1
            for table, e1, stride, e2, cs in rows[depth]:
                at = chosen[e1] * stride + chosen[e2]
                row = table[at]
                if row is None:
                    row = 0
                    for k, (values[Y], values[Yc]) in enumerate(opts):
                        for c in cs:
                            if not holds(c, values):
                                break
                        else:
                            row |= 1 << k
                    table[at] = row
                bits &= row
                if not bits:
                    break
        if not bits:
            depth -= 1
            continue
        low = bits & -bits
        live[depth] = bits ^ low
        k = low.bit_length() - 1
        chosen[depth] = k
        values[Y], values[Yc] = opts[k]
        if depth == n - 1:
            yield values
        else:
            depth += 1
            live[depth] = -1


def _pair_union_rule(full, chi, constraint, values) -> bool:
    """The pair-union rule of ``validate_via_union`` on an admissible
    (A, B, A + B), with degeneracy read off the pair sums: the union defect
    is 0 if A or B is degenerate, -1 if only the union is, and 0 or -1 if
    none is."""
    A, B, U = constraint
    delta = values[U] - values[A] - values[B]
    if delta == 0:
        return not (values[U] + values[full ^ U] == chi
                    and values[A] + values[full ^ A] != chi
                    and values[B] + values[full ^ B] != chi)
    return (delta == -1
            and values[A] + values[full ^ A] != chi
            and values[B] + values[full ^ B] != chi)


def _searched_stabilities(g: DualGraph, chi: int, pairs, options) -> Iterator[VStability]:
    """The stabilities of characteristic ``chi`` found by ``_pair_search``
    on ``pairs`` and their ``options`` under the pair-union rule, in search
    order, built by ``VStability._trusted`` with no check run again.

    ``pairs`` must be every pair of ``bcon_pairs`` once, each option a pair
    of exact ints with sum chi or chi + 1: then every stability is valid,
    since the pair sums come from the options and the search enforces the
    pair-union rule of ``validate_via_union`` on every admissible pair.
    ``TestSearchedStabilitiesPassTheChecks`` rebuilds each output through
    the public constructor and asserts both validators' verdicts."""
    bcon = g.biconnected_subcurves
    # an itemgetter of two or more keys returns a tuple; the biconnected
    # subcurves come in complementary pairs, so there are none or two or more
    read = itemgetter(*bcon) if bcon else lambda values: ()
    for values in _pair_search(
        pairs, options, g.admissible_pairs, partial(_pair_union_rule, g.full_mask, chi),
    ):
        yield VStability._trusted(g, chi, read(values))


# -- degeneracy subsets ---------------------------------------------------------


def _union_closed(constraint, inside) -> bool:
    """An admissible pair (A, B, A + B) with A and B inside has its union
    inside."""
    A, B, U = constraint
    return inside[U] or not (inside[A] and inside[B])


def enumerate_degeneracy_subsets(g: DualGraph) -> list[DegeneracySet]:
    """All subsets of the biconnected subcurves closed under complement and
    disjoint-union-into-biconnected, smallest first, each built by
    ``DegeneracySet._trusted``: the search takes both sides of a pair or
    neither and keeps only the union-closed choices, so the public
    constructor's checks hold.  ``TestEnumeratedSubsetsPassTheChecks``
    rebuilds each output through that constructor."""
    pairs = g.bcon_pairs
    out = [
        DegeneracySet._trusted(g, frozenset(Y for Y, inside in chosen.items() if inside))
        for chosen in _pair_search(
            pairs, [((False, False), (True, True))] * len(pairs),
            g.admissible_pairs, _union_closed,
        )
    ]
    out.sort(key=lambda d: (len(d.members), sorted(d.members)))
    return out


def minimal_elements(D: DegeneracySet) -> frozenset[int]:
    """Members admitting no proper difference-decomposition within D: a
    member is not minimal iff it is the union of an admissible pair with a
    part in D.

    Every member must be a disjoint union of minimal elements; that
    existence is verified here.  The decomposition need not be unique: in
    degeneracy subsets of K5 realized by stabilities, {1,2,3,4} is both
    {1,2} + {3,4} and {1,3} + {2,4}.
    """
    members = D.members
    mins = members - {
        U for A, B, U in D.graph.admissible_pairs
        if U in members and (A in members or B in members)
    }
    for Y in members:
        if _count_decompositions(Y, sorted(mins)) == 0:
            raise AssertionError(f"member {Y:b} is no disjoint union of minimal elements")
    return mins


def _count_decompositions(Y: int, mins: list[int]) -> int:
    if Y == 0:
        return 1
    low = Y & (-Y)
    total = 0
    for m in mins:
        if m & low and m & Y == m:
            total += _count_decompositions(Y ^ m, mins)
    return total


def deg_witnesses(D1: DegeneracySet, D2: DegeneracySet) -> Iterator[frozenset[int]]:
    """Witness subsets E certifying D1 >= D2, in a deterministic order.

    E picks one member of each complementary pair of D2 - D1; every
    disjoint pair in D2 - D1 whose union lies in D1 must meet E exactly
    once, and every pairwise-disjoint covering triple in D2 - D1 must meet
    E once or twice.  They come from :func:`_witness_sides`, in product
    order over the pairs of D2 - D1 in ``bcon_pairs`` order, the smaller
    side first.
    """
    if D1.graph != D2.graph or not D1.members <= D2.members:
        return
    pairs = D1.graph.bcon_pairs
    diff = vertices_of(D2.pair_mask & ~D1.pair_mask)
    for X in _witness_sides(D1.graph, D1.pair_mask, D2.pair_mask):
        yield frozenset(pairs[p][X >> p & 1] for p in diff)


def deg_leq(D1: DegeneracySet, D2: DegeneracySet) -> bool:
    """Dominance D1 >= D2 (strictly stronger than inclusion D1 <= D2).

    Dominance is downward closed in D2 (the restriction lemma): if E
    witnesses D1 >= D2 and D1 <= D' <= D2, then E & (D' - D1) witnesses
    D1 >= D'.  Proof: it picks one side of each complementary pair of
    D' - D1, since D1 and D' are closed under complement; and every pair or
    covering triple inside D' - D1 lies inside D2 - D1, where E meets it
    as required, on members that E & (D' - D1) keeps.  So a D1 that
    dominates the top subset (:attr:`DegeneracySet.dominates_top`, one
    search per set) dominates every D2 containing it, and only the other
    included pairs are searched."""
    if not D1.members <= D2.members or D1.graph != D2.graph:
        return False
    return D1.dominates_top or _dominates(D1, D2)


def _dominates(D1: DegeneracySet, D2: DegeneracySet) -> bool:
    """Whether D1 >= D2 has a witness, for D1 <= D2 on one graph."""
    return next(_witness_sides(D1.graph, D1.pair_mask, D2.pair_mask), None) is not None


def deg_witness(D1: DegeneracySet, D2: DegeneracySet) -> Optional[frozenset[int]]:
    return next(deg_witnesses(D1, D2), None)


def check_deg_witness(D1: DegeneracySet, D2: DegeneracySet, E: frozenset[int]) -> bool:
    """Whether a specific E certifies D1 >= D2.

    The constraints are derived from D2 - D1 alone, not from the graph's
    tables, so this stays an independent check of ``deg_witnesses``: one
    pass over the pairs Z1 < Z2 of disjoint members of D2 - D1 applies the
    pair rule (union in D1) and the triple rule (complement of the union
    in D2 - D1 and above Z2, so each triple is met once)."""
    if not D1.members <= D2.members:
        return False
    full = D1.graph.full_mask
    diff = D2.members - D1.members
    Ec = frozenset(full ^ Y for Y in E)
    if E | Ec != diff or E & Ec:
        return False
    for Z1, Z2 in itertools.combinations(sorted(diff), 2):
        if Z1 & Z2:
            continue
        if (Z1 | Z2) in D1.members and (Z1 in E) + (Z2 in E) != 1:
            return False
        Z3 = full ^ (Z1 | Z2)
        if Z3 > Z2 and Z3 in diff and (Z1 in E) + (Z2 in E) + (Z3 in E) not in (1, 2):
            return False
    return True


# -- elementary moves -----------------------------------------------------------


def _closure_from(g: DualGraph, generators: Iterable[int]) -> frozenset[int]:
    """Disjoint-union closure of a set of biconnected subcurves, in one pass
    over the admissible pairs by ascending union: both parts of a pair are
    smaller masks than its union, so their membership is final when the
    pair is met."""
    members = set(generators)
    for A, B, U in sorted(g.admissible_pairs, key=itemgetter(2)):
        if A in members and B in members:
            members.add(U)
    return frozenset(members)


def move_drop_pair(D: DegeneracySet, Y: int) -> DegeneracySet:
    """Move I: delete a complementary pair of minimal elements."""
    g = D.graph
    Yc = g.complement(Y)
    mins = minimal_elements(D)
    if Y not in mins or Yc not in mins:
        raise MoveNotApplicable("both halves of the pair must be minimal")
    return _move_result(D, set(mins) - {Y, Yc})


def move_merge_pair(D: DegeneracySet, Y1: int, Y2: int) -> DegeneracySet:
    """Move II: replace two disjoint minimal elements by their biconnected
    union."""
    g = D.graph
    mins = minimal_elements(D)
    if not {g.check_mask(Y1), g.check_mask(Y2)} <= mins or Y1 & Y2:
        raise MoveNotApplicable("arguments must be disjoint minimal elements")
    U = Y1 | Y2
    if U not in g.bcon_index:
        raise MoveNotApplicable("the union must be biconnected")
    return _move_result(D, (set(mins) - {Y1, Y2}) | {U})


def _move_result(D: DegeneracySet, gens) -> DegeneracySet:
    """The disjoint-union closure of a move's new generators, which must be
    a degeneracy subset dominating D."""
    members = _closure_from(D.graph, gens)
    try:
        result = DegeneracySet(D.graph, members)
    except ValueError as exc:   # the closure is not closed under complement
        raise MoveNotApplicable(f"the move's closure is not a degeneracy subset: {exc}") from exc
    if not deg_leq(result, D):
        raise AssertionError("move result does not dominate its input")
    return result


move_I = move_drop_pair
move_II = move_merge_pair


# -- the poset of V-stabilities ---------------------------------------------------


def vstab_leq(s: VStability, t: VStability) -> bool:
    """Order on V-stabilities: s >= t iff same characteristic and every
    stored value of s dominates the one of t."""
    if s.graph != t.graph or s.chi != t.chi:
        return False
    return all(a >= b for a, b in zip(s.values, t.values))


def lift(D1: DegeneracySet, D2: DegeneracySet, s2: VStability) -> VStability:
    """Upper lift: a stability s1 >= s2 with degeneracy set D1, for
    D1 >= D2 = degeneracy set of s2.  Bumps s2 by one on a witness E."""
    if s2.degeneracy_set().members != D2.members:
        raise ValueError("s2 must have degeneracy set D2")
    found_witness = False
    for E in deg_witnesses(D1, D2):
        found_witness = True
        mapping = s2.as_dict()
        for Y in E:
            mapping[Y] += 1
        s1 = VStability.from_dict(s2.graph, s2.chi, mapping)
        if s1.is_valid and s1.degeneracy_set().members == D1.members:
            return s1
    if not found_witness:
        raise ValueError("lift requires D1 >= D2 in the dominance order")
    raise LiftImpossible("no witness produced a valid lift")


def dominating_stabilities(s: VStability) -> Iterator[VStability]:
    """All valid t > s, in product order over the degenerate pairs.  The
    pair-sum constraint confines candidates to bumping one side of each
    degenerate pair by one; the pair-union rule prunes the bumps."""
    s._require_valid()
    g = s.graph
    options = []
    for Y, Yc in g.bcon_pairs:
        a, b = s.value(Y), s.value(Yc)
        options.append(((a, b), (a + 1, b), (a, b + 1)) if Y in s.degenerate else ((a, b),))
    # the first assignment bumps nothing, which gives s itself
    return itertools.islice(_searched_stabilities(g, s.chi, g.bcon_pairs, options), 1, None)


def is_maximal(s: VStability) -> bool:
    return next(dominating_stabilities(s), None) is None


def is_submaximal(s: VStability) -> bool:
    """Not maximal, and dominated only by maximal elements."""
    doms = list(dominating_stabilities(s))
    return bool(doms) and all(is_maximal(t) for t in doms)


# -- translation action -----------------------------------------------------------


def normal_form(s: VStability) -> tuple[VStability, tuple[int, ...]]:
    """Translation-orbit representative with characteristic 0 and the
    tree-cut pattern: value 0 on every parent side, 0 or 1 on the child
    side depending on degeneracy.  Returns (representative, tau) with
    representative == translate(s, tau); each stability computes it once."""
    return s.tree_cut_normal_form


def orbit_equal(s: VStability, t: VStability) -> bool:
    """Equivalence by translation, decided by comparing normal forms."""
    if s.graph != t.graph:
        return False
    return normal_form(s)[0] == normal_form(t)[0]


def translation_witness(s: VStability, t: VStability):
    """Integer vector tau with t == translate(s, tau), or None.

    Solved through the tree-cut coordinates, then verified on every
    biconnected subcurve.
    """
    if s.graph != t.graph:
        return None
    tau = s.graph.spanning_tree.from_subtree_totals(t.chi - s.chi, [
        t.value(child) - s.value(child)
        for child in s.graph.spanning_tree.child_masks
    ])
    if translate(s, tau) != t:
        return None
    return tuple(tau)


# -- orbit enumeration -------------------------------------------------------------


def stability_window(g: DualGraph) -> dict[int, tuple[int, int]]:
    """Per-subcurve value window for characteristic-0 representatives:
    1 - tree valence <= value <= tree valence."""
    out = {}
    for Y in g.biconnected_subcurves:
        val = g.tree_valence(Y)
        out[Y] = (1 - val, val)
    return out


def _window_options(g: DualGraph) -> list[tuple[tuple[int, int], ...]]:
    """Per pair (Y, Y^c) of ``bcon_pairs``, its window values ascending:
    Y and Y^c share their tree valence v, so both values lie in the one
    window lo..hi = 1 - v..v of :func:`stability_window`, and they sum to 0
    or 1, which leaves 4v - 1 options."""
    window = stability_window(g)
    out = []
    for Y, _ in g.bcon_pairs:
        lo, hi = window[Y]
        out.append(tuple(
            (a, b) for a in range(lo, hi + 1) for b in (-a, 1 - a) if lo <= b <= hi
        ))
    return out


def enumerate_window_stabilities(g: DualGraph) -> list[VStability]:
    """All valid characteristic-0 stabilities inside the tree-valence
    window, by a pruned pair-by-pair search in ``bcon_pairs`` order.

    The output is in nested-loop order: lexicographic in the values read
    pair by pair (Y, then Y^c) in ``bcon_pairs`` order, each pair's options
    ascending.  Ordering the pairs by option count instead made C6 slower
    and K4 with a 2-path take more steps.
    """
    return list(_searched_stabilities(g, 0, g.bcon_pairs, _window_options(g)))


def enumerate_orbits(g: DualGraph) -> list[VStability]:
    """Complete, duplicate-free translation-orbit representatives at
    characteristic 0, sorted by value: the window stabilities with the
    tree-cut pattern.

    Each such candidate is its own normal form.  Its characteristic is 0,
    and on each tree cut the parent side has value 0 and the child side 0
    or 1.  The child side is degenerate exactly when its value is 0, so the
    normal form's target tau-sum over each child subtree, -value + (0 if
    degenerate else 1), is 0 for both values; with total 0 as well, the
    shift tau is zero, and distinct candidates lie in distinct orbits.

    The search is fail first (Haralick-Elliott 1980), pairs with fewer
    options first and ties in ``bcon_pairs`` order.  The pinned pairs, two
    options each, come first: every other pair has tree valence v >= 2 and
    4v - 1 >= 7 options.  On the (5, 7) catalogue this cuts the search's
    steps from 164 406 to 32 748, and on K5 from 38 763 to 13 905.
    """
    pairs = g.bcon_pairs
    options = _window_options(g)
    cut_child = {min(cut): cut[1] for cut in g.spanning_tree.cut_pairs()}
    for i, (Y, Yc) in enumerate(pairs):
        if Y in cut_child:
            # 0 on the parent side, 0 or 1 on the child side
            options[i] = ((0, 0), (0, 1) if cut_child[Y] == Yc else (1, 0))
    order = sorted(range(len(pairs)), key=lambda i: len(options[i]))
    return sorted(
        _searched_stabilities(g, 0, [pairs[i] for i in order], [options[i] for i in order]),
        key=lambda s: s.values,
    )


# -- Hasse diagrams ------------------------------------------------------------------


@dataclass(frozen=True)
class HasseDiagram:
    """Transitive reduction of a finite poset; covers go (lower, upper)."""

    labels: tuple[str, ...]
    covers: tuple[tuple[int, int], ...]


def hasse(elements: list, leq: Callable, label: Callable = str) -> HasseDiagram:
    """Hasse diagram of a finite poset given by a leq predicate, which is
    asked once for every ordered pair of distinct elements."""
    n = len(elements)
    above = [0] * n     # bit j set in above[i] iff leq(elements[i], elements[j])
    for i in range(n):
        for j in range(n):
            if i != j and leq(elements[i], elements[j]):
                above[i] |= 1 << j
    return hasse_from_rows(above, tuple(label(e) for e in elements))


def transpose_rows(rows: list[int]) -> list[int]:
    """The transpose of a relation given by rows: bit i of the result's row
    j is bit j of ``rows[i]``."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in vertices_of(row):
            out[j] |= 1 << i
    return out


def hasse_from_rows(above: list[int], labels: tuple[str, ...]) -> HasseDiagram:
    """Hasse diagram of a strict order on ``len(above)`` elements given by
    rows: bit j of ``above[i]`` (j != i) is set iff element i lies below
    element j.  The relation must be antisymmetric and transitive; the
    covers come out ordered by (lower, upper)."""
    below = transpose_rows(above)
    if any(map(int.__and__, above, below)):
        raise NotAPartialOrder("relation is not antisymmetric")
    covers = []
    for i, row in enumerate(above):
        for j in vertices_of(row):
            if above[j] & ~row:
                raise NotAPartialOrder("relation is not transitive")
            if not row & below[j]:
                covers.append((i, j))
    return HasseDiagram(labels, tuple(covers))


def dominance_rows(degs: list[DegeneracySet]) -> list[int]:
    """The dominance order on degeneracy subsets of one graph as rows: bit j
    of row i is set iff ``deg_leq(degs[i], degs[j])`` for j != i.

    A row starts as the proper supersets of its set, which is what
    inclusion (necessary for dominance) leaves: the AND, over the set's
    members, of the bitmask of the sets holding each member.  It stays whole
    when the set dominates the top subset (the restriction lemma in
    ``deg_leq``; the flag is asked only when the row is not empty), and
    otherwise keeps the supersets with a witness.  These are the searches
    ``deg_leq`` runs on the included pairs, with no predicate call per
    ordered pair."""
    holders: dict[int, int] = {}   # per member, the bitmask of the sets holding it
    for j, d in enumerate(degs):
        for Y in d.members:
            holders[Y] = holders.get(Y, 0) | (1 << j)
    everyone = (1 << len(degs)) - 1
    rows = []
    for i, d in enumerate(degs):
        row = everyone ^ (1 << i)
        for Y in d.members:
            row &= holders[Y]
        if row and not d.dominates_top:
            row = sum(1 << j for j in vertices_of(row) if _dominates(d, degs[j]))
        rows.append(row)
    return rows


# -- symmetry reduction ---------------------------------------------------------------


def deg_symmetry_classes(g: DualGraph, degs: list[DegeneracySet]):
    """Group degeneracy subsets into automorphism classes; returns
    (representatives, class index per input).  One sweep: a set with no
    class yet is a representative, and its class goes to all its images."""
    classes: dict[frozenset[int], int] = {}
    reps: list[DegeneracySet] = []
    assignment = []
    for d in degs:
        k = classes.get(d.members)
        if k is None:
            k = len(reps)
            reps.append(d)
            for img in g.automorphism_images:
                classes[frozenset(map(img.__getitem__, d.members))] = k
        assignment.append(k)
    return reps, assignment


# -- evidence scanner -------------------------------------------------------------------


def _all_maximal_chains_equal(n: int, covers: list[tuple[int, int]]):
    """(ranked, common length) for the DAG of cover relations, each cover
    (lo, hi) going from a lower to a higher node index.

    ``qdeg_scan`` lists the degeneracy subsets by size, and a cover's lower
    set is a proper subset of its upper set, so its covers go upward in
    index.  One ascending sweep then gives each node the rank one above its
    lower covers (0 for a minimal node).  Every maximal chain has the same
    length iff no node gets two ranks and every maximal node gets the same
    one, which is that length.
    """
    downs = [[] for _ in range(n)]   # covers below each node
    maximal = [True] * n
    for lo, hi in covers:
        if lo >= hi:
            raise ValueError(f"cover ({lo}, {hi}) does not go up in index")
        downs[hi].append(lo)
        maximal[lo] = False
    rank = [0] * n
    for v in range(n):
        ranks = {rank[w] + 1 for w in downs[v]} or {0}
        if len(ranks) > 1:
            return False, None
        (rank[v],) = ranks
    tops = {rank[v] for v in range(n) if maximal[v]}
    if len(tops) != 1:
        return False, None
    return True, tops.pop()


def qdeg_scan(g: DualGraph) -> dict:
    """Evidence report for one graph: is the dominance poset of degeneracy
    subsets ranked (and of what rank), and is the degeneracy map from
    stability orbits onto it surjective?"""
    degs = enumerate_degeneracy_subsets(g)
    k = len(degs)
    try:
        # the scan reads only the covers, so the labels are left empty
        diagram = hasse_from_rows(dominance_rows(degs), ("",) * k)
    except NotAPartialOrder:
        is_po, ranked, rank = False, None, None
    else:
        is_po = True
        ranked, rank = _all_maximal_chains_equal(k, diagram.covers)
    reps = enumerate_orbits(g)
    realized = {s.degenerate for s in reps}
    surjective = {d.members for d in degs} <= realized
    return {
        "genera": list(g.genera),
        "edges": [list(e) for e in g.edges],
        "n_biconnected": len(g.biconnected_subcurves),
        "n_degeneracy_subsets": k,
        "is_partial_order": is_po,
        "ranked": ranked,
        "rank": rank,
        "expected_rank": g.n - 1,
        "degeneracy_map_surjective": surjective,
        "n_orbits": len(reps),
    }

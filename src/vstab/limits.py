"""One-parameter degeneration calculus for line-bundle multidegrees.

Twisting the family by a subcurve of the special fiber changes the
multidegree by chip-firing: the twisted subcurve gains one for every edge
to its complement, the outside loses correspondingly, and the total
degree is conserved.  The orbit of this action is the image of the graph
Laplacian lattice; membership is decided by the inverse of the reduced
Laplacian, tabulated once per graph.

The limit algorithm repeatedly twists by the stabilized union of maximal
minimizers of the beta function (chi of the restriction minus the
extended stability value) until beta is nonnegative on every biconnected
subcurve.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, itemgetter, mul, sub

from .errors import DomainMismatch, NonTermination
from .graphs import DualGraph, exact_ints, subset_sums, vertices_of
from .stability import VStability, extended_value_table

Multidegree = tuple[int, ...]


def _multidegree(g: DualGraph, d) -> Multidegree:
    """d as a tuple of exact ints (:func:`vstab.graphs.exact_ints`), one
    per component of g."""
    d = exact_ints(d, "a multidegree entry")
    if len(d) != g.n:
        raise DomainMismatch("one degree per component required")
    return d


def twist(g: DualGraph, d, Y: int) -> Multidegree:
    """Chip-firing twist by a subcurve: degree rises on Y by its outward
    valence, falls outside accordingly.  Twisting by the whole curve or by
    nothing is the identity."""
    return tuple(map(add, _multidegree(g, d), g.twist_deltas[g.check_mask(Y)]))


def line_bundle_chi(g: DualGraph, d, Z: int) -> int:
    """chi of the restriction to Z of the line bundle with multidegree d."""
    d = _multidegree(g, d)
    return g.line_chi_base[g.check_mask(Z)] + sum(d[v] for v in vertices_of(Z))


def beta(d, s: VStability, Z: int) -> int:
    """chi of the restriction to Z minus the extended stability value;
    nonnegativity on all biconnected subcurves is semistability."""
    return line_bundle_chi(s.graph, d, Z) - s.extended_value(Z)


def beta_deficit(d, s: VStability) -> int:
    """Minus the least beta over all subcurves (the empty one's is 0): both
    candidate orders of ``esteves_limit`` from d keep every beta at least
    minus it."""
    d = _multidegree(s.graph, d)
    s._require_valid()
    return -min(_beta_all(s.graph, d, extended_value_table(s)))


def _beta_all(g: DualGraph, d, ext) -> list[int]:
    """beta over every mask (index = mask); the empty subcurve gets 0."""
    return [a + b - e for a, b, e in zip(subset_sums(d), g.line_chi_base, ext)]


def twisting_subcurve(d, s: VStability, start: int = None) -> int:
    """Stabilized union of beta minimizers grown from a starting minimizer.

    The default start is a maximal subcurve realizing the beta minimum
    (ties broken by lowest canonical mask among the inclusion-maximal
    minimizers).  The original multidegree twisted by the current union is
    re-measured, and the union grows by a minimizer not yet contained
    whenever the minimum has not risen above the original one.

    The set of minimizers need not be closed under union, so for an
    unstable multidegree the grown union can degenerate to the whole
    curve, where twisting is trivial; the limit iteration falls back to
    other starting minimizers in that case.  A given ``start`` must be a
    nonempty subcurve mask of the graph (``DomainMismatch`` otherwise).
    """
    g = s.graph
    d = _multidegree(g, d)
    s._require_valid()
    if start is not None:
        g.check_mask(start, 1, "the starting subcurve")
    betas0 = _beta_all(g, d, extended_value_table(s))
    m0 = min(betas0)
    if start is None:
        start = _max_minimizer(_minimizers(betas0, m0))
    elif betas0[start] != m0:
        raise ValueError("the starting subcurve must realize the beta minimum")
    return _grow(g, betas0, m0, start)[0]


def _grow(g: DualGraph, betas0, m0: int, Y: int):
    """The growth iteration of ``twisting_subcurve`` from the minimizer Y of
    the betas ``betas0`` of a multidegree d (minimum m0); returns the union
    and the betas of d twisted by it.  Beta is linear in the multidegree,
    so twisting by Y adds the row ``subset_sum_shifts[Y]``."""
    shifts = g.subset_sum_shifts
    while True:
        betas = list(map(add, betas0, shifts[Y]))
        mk = min(betas)
        if mk > m0:
            return Y, betas
        growers = [Z for Z in _minimizers(betas, mk) if Z & ~Y]
        if not growers:
            return Y, betas
        Y |= _max_minimizer(growers)


def _minimizers(betas, m: int) -> list[int]:
    """The subcurves whose beta equals m, ascending; found by the list's own
    search, since there are few of them."""
    out = []
    Z = -1
    for _ in range(betas.count(m)):
        Z = betas.index(m, Z + 1)
        out.append(Z)
    return out


def _max_minimizer(minimizers: list[int]) -> int:
    """Lowest-mask inclusion-maximal member."""
    maximal = [
        Z for Z in minimizers
        if not any(W != Z and W & Z == Z for W in minimizers)
    ]
    return min(maximal)


def _minimizer_starts(betas: list[int]) -> list[int]:
    """Starting candidates for the growth iteration: the default maximal
    choice first, then every other minimizer, small ones early."""
    minimizers = _minimizers(betas, min(betas))
    first = _max_minimizer(minimizers)
    rest = sorted(
        (Z for Z in minimizers if Z != first),
        key=lambda Z: (Z.bit_count(), Z),
    )
    return [first] + rest


@dataclass(frozen=True, slots=True)
class LimitStep:
    subcurve: int
    beta_min: int
    multidegree: Multidegree
    lemma_step: bool = True      # full post-twist inequality (strict off Y)


@dataclass(frozen=True, slots=True)
class LimitTrace:
    start: Multidegree
    steps: tuple[LimitStep, ...]
    result: Multidegree

    @property
    def used_fallback(self) -> bool:
        return any(not st.lemma_step for st in self.steps)


def esteves_limit(d0, s: VStability) -> tuple[Multidegree, LimitTrace]:
    """Twist until beta is nonnegative on all biconnected subcurves;
    returns the semistable multidegree and the audit trace.

    One depth-first walk, run with two candidate orders, each time from d0
    with nothing visited; it backtracks over a node's candidates and never
    enters a multidegree twice.

    The first order is the lemma's: one twist per distinct stabilized
    minimizer union, in the order of the starting minimizers (minimizers
    need not be closed under union, so a stabilized union can degenerate
    to the whole curve, a trivial twist, and the other starts are the
    alternatives).  Its steps satisfy the full post-twist inequality
    (beta after twisting dominates the previous minimum, strictly off the
    twisted subcurve), which is asserted.

    Sometimes this walk dead-ends: no proper subcurve twist satisfies the
    strict inequality at some reachable multidegree.  This is not rare: it
    happened in about 18% of the runs of the benchmark's ``limits``
    workload (C5, C6, K4 with a 2-path, K5), and on C5, over every orbit
    and the degree box of acceptance criterion 09, in 15% of the runs for
    general stabilities and 12% for degenerate ones.  The walk then runs
    again with the second order, the monotone expansion: every proper
    twist that keeps the minimum beta, least badness first (minus the sum
    of the negative betas on biconnected subcurves), ties by subcurve.
    Its steps are flagged in the trace by whether they satisfy the
    inequality.

    Both walks terminate.  Every multidegree either reaches has minimum
    beta at least m0 = -beta_deficit(d0, s): the asserted inequality gives
    this in the first order, and the second admits no twist that lowers
    the minimum.  Beta on a single component v is d_v plus a constant of
    v, so d_v is bounded below, and the total degree is fixed, so d_v is
    bounded above too.  Each walk therefore ranges over a finite set of
    multidegrees and enters none twice.  NonTermination is raised only
    when the monotone walk exhausts that set without a semistable point,
    which has never been observed.  The argument needs a valid stability,
    so an invalid one raises InvalidStability before the walk.

    Beta is tabulated over every subcurve once, at d0.  It is linear in
    the multidegree, so each later node's betas are its parent's plus the
    row ``subset_sum_shifts[Y]`` of the twist.  Both orders read that
    table, so every walk builds it: 4^n entries, 4096 at n = 6, which
    ``cli.MAX_LIMIT_WORK`` charges for through D * 4^n.  A semistable d0
    returns before the walk, and leaves the table unbuilt.
    """
    g = s.graph
    d0 = _multidegree(g, d0)
    s._require_valid()
    if line_bundle_chi(g, d0, g.full_mask) != s.chi:
        raise DomainMismatch(
            "total degree inconsistent with the stability characteristic"
        )
    bcon = g.biconnected_subcurves
    full = g.full_mask
    deltas = g.twist_deltas
    total = sum(d0)

    def lemma_twists(d, betas):
        """One twist per distinct stabilized union, in the order of the
        starting minimizers."""
        m = min(betas)
        tried = set()
        for start in _minimizer_starts(betas):
            Y, nb = _grow(g, betas, m, start)
            if Y != full and Y not in tried:
                tried.add(Y)
                yield Y, m, tuple(map(add, d, deltas[Y])), nb

    def monotone_twists(d, betas):
        """Every proper twist keeping the minimum beta, by (badness, Y);
        only the key is kept, the betas are rebuilt when yielded."""
        m = min(betas)
        minimizers = _minimizers(betas, m)
        on_bcon = bcon_entries(betas)
        order = []
        for Y in range(1, full):
            row = shifts[Y]
            # lowering beta on a minimizer lowers the minimum: the cheap test
            if min(map(row.__getitem__, minimizers)) < 0:
                continue
            if min(map(add, betas, row)) < m:
                continue
            nb = map(add, on_bcon, bcon_entries(row))
            order.append((-sum([b for b in nb if b < 0]), Y))
        order.sort()
        for _, Y in order:
            yield Y, m, tuple(map(add, d, deltas[Y])), list(map(add, betas, shifts[Y]))

    def semistable(betas):
        return all(betas[Z] >= 0 for Z in bcon)

    betas0 = _beta_all(g, d0, extended_value_table(s))
    if semistable(betas0):
        return d0, LimitTrace(d0, (), d0)
    shifts = g.subset_sum_shifts
    # an unstable start has biconnected subcurves, at least two, as they
    # come in complementary pairs, so this returns the tuple of entries there
    bcon_entries = itemgetter(*bcon)
    for twists in (lemma_twists, monotone_twists):
        visited = {d0}
        # the walk from d0: per node, the step into it and its candidates
        path = [(None, twists(d0, betas0))]
        while path:
            twisted = next(path[-1][1], None)
            if twisted is None:
                path.pop()
                continue
            Y, old_min, d2, nb = twisted
            lemma = _post_twist_holds(nb, old_min, Y)
            if twists is lemma_twists and not lemma:
                raise AssertionError("post-twist beta inequality violated")
            if sum(d2) != total:
                raise AssertionError("twist changed the total degree")
            step = LimitStep(Y, old_min, d2, lemma)
            if semistable(nb):
                steps = tuple(st for st, _ in path[1:]) + (step,)
                return d2, LimitTrace(d0, steps, d2)
            if d2 not in visited:
                visited.add(d2)
                path.append((step, twists(d2, nb)))
    raise NonTermination("no monotone twist path reached a semistable point")


def _post_twist_holds(betas, old_min: int, Y: int) -> bool:
    """The lemma's post-twist inequality for the betas after twisting by Y:
    at least the previous minimum on every nonempty subcurve, strictly
    above it off Y.  The empty subcurve's beta is 0, at least any previous
    minimum, and lies inside Y, so it may be tested with the rest."""
    return min(betas) >= old_min and not any(
        Z & ~Y for Z in _minimizers(betas, old_min)
    )


# -- the chip-firing orbit ---------------------------------------------------------


def laplacian(g: DualGraph) -> list[list[int]]:
    """Graph Laplacian (valence minus adjacency); loops do not contribute.
    It is symmetric, and its column v is the twist by component v."""
    return [list(g.twist_deltas[1 << v]) for v in range(g.n)]


def same_orbit(g: DualGraph, d1, d2):
    """Whether two multidegrees differ by chip-firing twists.

    Twist vectors of single components span the image of the graph
    Laplacian (modulo the all-ones relation).  The difference sums to zero,
    and the kernel of a connected Laplacian is the constants, so its one
    solution x with x_last = 0 is the reduced Laplacian's inverse A / k
    (``DualGraph.reduced_laplacian_inverse``) applied to the difference;
    an integer solution exists iff A times the difference is 0 mod k.
    Returns (flag, witness) with the witness x shifted to minimum entry
    zero; it is checked as d2 + L w == d1, so the check does not grow with
    w.
    """
    d1 = _multidegree(g, d1)
    d2 = _multidegree(g, d2)
    if sum(d1) != sum(d2):
        return False, None
    diff = tuple(map(sub, d1, d2))
    k, A = g.reduced_laplacian_inverse
    x = [sum(map(mul, row, diff)) for row in A]
    if any(v % k for v in x):
        return False, None
    x = [v // k for v in x] + [0]
    shift = min(x)
    witness = tuple(v - shift for v in x)
    applied = tuple(
        b + sum(map(mul, row, witness)) for b, row in zip(d2, laplacian(g))
    )
    if applied != d1:
        raise AssertionError("orbit witness failed to reproduce the difference")
    return True, witness

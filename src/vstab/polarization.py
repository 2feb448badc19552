"""Exact numerical polarizations and classical detection.

A numerical polarization of characteristic chi stores one rational per
component, summing to chi; its value on a subcurve is the sum over the
components (additivity is structural).  The ceiling map produces a
V-stability, and :func:`is_classical` decides, by exact Fourier-Motzkin
elimination, whether a given V-stability arises this way, returning a
witness polarization when it does.

The decision works on integers throughout: the equalities are solved by
fraction-free Gauss-Jordan elimination, the eliminated inequalities are
primitive integer rows whose bounds are reduced (numerator, denominator)
pairs, and the witness is back-substituted as integer numerators over one
common denominator.  Rationals (``fractions.Fraction``) are built only for
the entries of the returned polarization.  Exactness is non-negotiable for
the strict-inequality feasibility decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional

from .errors import InvalidPolarization, InvalidStability
from .graphs import DualGraph, exact_ints, solve_equalities, subset_sums, vertices_of
from .stability import VStability


def _integer(x, what: str) -> int:
    """An exact integer input (see :func:`vstab.graphs.exact_ints`)."""
    return exact_ints((x,), what, InvalidPolarization)[0]


def _rational(x, what: str) -> Fraction:
    """An exact rational input: an ``int`` that is not a ``bool``, or a
    ``Fraction``; floats and strings are refused, never converted."""
    if isinstance(x, Fraction):
        return x
    return Fraction(_integer(x, what))


@dataclass(frozen=True)
class NumericalPolarization:
    graph: DualGraph
    chi: int
    psi: tuple[Fraction, ...]

    def __post_init__(self):
        _integer(self.chi, "chi")
        psi = tuple(_rational(x, "a psi entry") for x in self.psi)
        object.__setattr__(self, "psi", psi)
        if len(psi) != self.graph.n:
            raise InvalidPolarization("one rational per component required")
        if sum(psi) != self.chi:
            raise InvalidPolarization(
                f"component values sum to {sum(psi)}, expected chi = {self.chi}"
            )

    def value_on(self, Y: int) -> Fraction:
        """psi_Y, the sum over the components of the mask Y; 0 on the empty
        mask, and ``DomainMismatch`` outside 0..full_mask."""
        Y = self.graph.check_mask(Y)
        return sum((self.psi[v] for v in vertices_of(Y)), Fraction(0))

    def induced_vstability(self) -> VStability:
        """Ceiling map: the V-stability with value ceil(psi_Y) on each
        biconnected Y.  Its degeneracy set is exactly the integrality locus.

        Over the common denominator M of the entries, psi_Y is S_Y / M with
        S_Y an integer subset sum, and its ceiling is -((-S_Y) // M)."""
        g = self.graph
        M = lcm(*(x.denominator for x in self.psi))
        sums = subset_sums([x.numerator * (M // x.denominator) for x in self.psi])
        values = tuple(-((-sums[Y]) // M) for Y in g.biconnected_subcurves)
        return VStability(g, self.chi, values)

    def translated(self, tau) -> "NumericalPolarization":
        tau = exact_ints(tau, "a translation entry", InvalidPolarization)
        psi = tuple(p + t for p, t in zip(self.psi, tau))
        return NumericalPolarization(self.graph, self.chi + sum(tau), psi)


def translate_polarization(p: NumericalPolarization, tau) -> NumericalPolarization:
    """Shift by an integer vector; the ceiling map is equivariant for this."""
    return p.translated(tau)


def from_ample(graph: DualGraph, degrees, chi: int) -> NumericalPolarization:
    """Slope polarization of an ample class: psi_v = deg_v * chi / total.
    An ample class has positive degree on every component."""
    chi = _integer(chi, "chi")
    degrees = exact_ints(degrees, "a degree", InvalidPolarization)
    if len(degrees) != graph.n:
        raise InvalidPolarization("one degree per component required")
    if any(d <= 0 for d in degrees):
        raise InvalidPolarization(
            f"an ample class has positive degree on every component, got {degrees}"
        )
    total = sum(degrees)
    psi = tuple(Fraction(d * chi, total) for d in degrees)
    return NumericalPolarization(graph, chi, psi)


def from_slopes(graph: DualGraph, slopes) -> NumericalPolarization:
    """Polarization attached to per-component slopes of a vector bundle:
    psi_v = -slope_v, with characteristic the negated (integral) total."""
    slopes = tuple(_rational(x, "a slope") for x in slopes)
    if len(slopes) != graph.n:
        raise InvalidPolarization("one slope per component required")
    total = sum(slopes)
    if total.denominator != 1:
        raise InvalidPolarization("total slope must be an integer")
    chi = -int(total)
    return NumericalPolarization(graph, chi, tuple(-x for x in slopes))


# -- classical detection -------------------------------------------------------


def is_classical(s: VStability) -> Optional[NumericalPolarization]:
    """Witness polarization with ceiling s, or None if none exists.

    Feasibility system in the per-component values: one equality for the
    total, and one row set per complementary pair (Y, Y^c) of
    ``bcon_pairs``: the equality psi_Y = s_Y when the pair is degenerate
    (:attr:`VStability.degenerate`), else the strict bounds
    s_Y - 1 < psi_Y < s_Y.  The complement's rows would repeat these: its
    equality is the total minus Y's, and s_{Y^c} = chi + 1 - s_Y turns its
    bounds into Y's, so the solved forms and the eliminated row set, and
    with them the witness, are the same without them.  The equalities are
    solved by fraction-free Gauss-Jordan elimination; the bounds, rewritten
    in the free variables, are integer rows, decided by exact
    Fourier-Motzkin elimination tracking strict vs. weak inequalities.
    Integers throughout: the witness takes interval midpoints, found as
    integer numerators over one common denominator M, and the pivot
    variables follow on the same M, so one ``Fraction`` is built per entry.
    """
    if not s.is_valid:
        raise InvalidStability("classical detection requires a valid V-stability")
    g = s.graph
    n = g.n

    equalities = [((1,) * n, s.chi)]
    bounds = []  # (Y, s_Y) for each nondegenerate pair
    for Y, _ in g.bcon_pairs:
        if Y in s.degenerate:
            equalities.append((tuple((Y >> v) & 1 for v in range(n)), s.value(Y)))
        else:
            bounds.append((Y, s.value(Y)))

    solved = solve_equalities(equalities, n)
    if solved is None:
        return None
    pivots, free = solved

    # scale * x_v = const + coeffs . (free variables), for every variable v,
    # kept as the vector (const, *coeffs) and summed over every mask by one
    # subset_sums table per coordinate
    scale = lcm(*(D for D, _, _ in pivots.values()))
    forms = []
    for v in range(n):
        if v in pivots:
            D, a, r = pivots[v]
            m = scale // D
            forms.append((m * r,) + tuple(-m * c for c in a))
        else:
            forms.append((0,) + tuple(scale if f == v else 0 for f in free))
    tables = [subset_sums(column) for column in zip(*forms)]
    sums = zip(*([t[Y] for Y, _ in bounds] for t in tables))

    reduced = []  # the strict bounds times scale, as integer rows
    for (const, *row), (_, v) in zip(sums, bounds):
        reduced.append((row, scale * v - const, True))
        reduced.append(([-x for x in row], const - scale * (v - 1), True))

    point = _fm_point(reduced, len(free))
    if point is None:
        return None
    nums, M = point

    psi = [None] * n
    for f, x in zip(free, nums):
        psi[f] = Fraction(x, M)
    for p, (D, a, r) in pivots.items():
        psi[p] = Fraction(r * M - sum(map(mul, a, nums)), D * M)
    witness = NumericalPolarization(g, s.chi, tuple(psi))
    if witness.induced_vstability() != s:
        raise AssertionError("feasible system produced a non-witness; elimination bug")
    return witness


def _fm_witness(inequalities, nvars):
    """Feasibility of a system of strict/weak linear inequalities by
    Fourier-Motzkin elimination; returns a satisfying point (Fractions) or
    None.

    Each row ``(coeffs, bound, strict)`` means coeffs . x < bound, or <= when
    not strict, with integer coefficients and an int or Fraction bound.
    The work is :func:`_fm_point`'s, in integers; the Fractions are built
    only from its numerators and common denominator.
    """
    point = _fm_point(inequalities, nvars)
    if point is None:
        return None
    nums, M = point
    return [Fraction(x, M) for x in nums]


def _fm_point(inequalities, nvars):
    """The point of :func:`_fm_witness` as ``(numerators, M)``: entry i is
    numerators[i] / M; None when the system is infeasible.

    Rows are kept as primitive integer keys, each with the tightest bound
    seen as a reduced (num, den) pair.  Variables are eliminated in index
    order; at each stage the live inequality set is recorded so the witness
    can be back-substituted with interval midpoints.  The back-substitution
    runs on one common denominator M: with the later variables known as
    numerators N_i, a row's bound on its variable is
    (num*M - den*sum k_i*N_i) / (den*M*c), compared with the others by
    cross-multiplication.  M grows by the reduced denominator of a new value
    only when that does not divide it, so M stays the least common
    denominator of the values found.
    """
    live = {}
    for row, rhs, strict in inequalities:
        if not _admit(live, row, rhs.numerator, rhs.denominator, strict):
            return None

    stages = []
    current = list(live.items())
    for var in range(nvars):
        stages.append(current)
        uppers, lowers, live = [], [], {}
        for k, b in current:
            if k[var] > 0:
                uppers.append((k, b))
            elif k[var] < 0:
                lowers.append((k, b))
            else:
                live[k] = b
        for ku, (nu, du, stu) in uppers:
            a = ku[var]
            for kl, (nl, dl, stl) in lowers:
                c = -kl[var]
                row = [c * x + a * y for x, y in zip(ku, kl)]
                if not _admit(live, row, c * nu * dl + a * nl * du, du * dl, stu or stl):
                    return None
        current = list(live.items())

    # the values are nums / M; the unassigned entries (this variable and
    # the earlier ones) are 0, so a row's full dot product with nums is the
    # sum over the later variables
    nums = [0] * nvars
    M = 1
    for var in range(nvars - 1, -1, -1):
        # a bound t = p / (q * M) with q > 0, kept as the pair (p, q)
        lo_p = lo_q = hi_p = hi_q = None
        lo_strict = hi_strict = False
        for k, (num, den, st) in stages[var]:
            c = k[var]
            if c == 0:
                continue
            p = num * M - den * sum(map(mul, k, nums))
            if c > 0:
                q = den * c
                if hi_q is None or p * hi_q < hi_p * q:
                    hi_p, hi_q, hi_strict = p, q, st
                elif p * hi_q == hi_p * q:
                    hi_strict = hi_strict or st
            else:
                p, q = -p, -den * c
                if lo_q is None or p * lo_q > lo_p * q:
                    lo_p, lo_q, lo_strict = p, q, st
                elif p * lo_q == lo_p * q:
                    lo_strict = lo_strict or st
        if lo_q is not None and hi_q is not None:
            lo_x, hi_x = lo_p * hi_q, hi_p * lo_q
            if lo_x > hi_x or (lo_x == hi_x and (lo_strict or hi_strict)):
                raise AssertionError("empty interval after elimination; FM bug")
            p, q = lo_x + hi_x, 2 * lo_q * hi_q   # the midpoint
        elif lo_q is not None:
            p, q = lo_p + lo_q * M, lo_q           # lo + 1
        elif hi_q is not None:
            p, q = hi_p - hi_q * M, hi_q           # hi - 1
        else:
            continue                               # 0
        h = gcd(p, q)
        if h != q:
            q //= h
            M *= q
            nums = [x * q for x in nums]
        nums[var] = p // h
    return nums, M


def _admit(live, row, num, den, strict) -> bool:
    """Put the row ``row . x < num/den`` (den > 0; <= when not strict) into
    ``live`` under its primitive key, keeping the tighter bound, and a
    strict one over a weak one at the same bound.  A row with no variables
    is checked instead; False means it is violated, so the system is
    infeasible."""
    g = gcd(*row)
    if not g:
        return num > 0 if strict else num >= 0
    if g > 1:
        row = [x // g for x in row]
        den *= g
    h = gcd(num, den)
    if h > 1:
        num //= h
        den //= h
    key = tuple(row)
    old = live.get(key)
    if old is None:
        live[key] = (num, den, strict)
    else:
        lhs, rhs = num * old[1], old[0] * den
        if lhs < rhs or (lhs == rhs and strict and not old[2]):
            live[key] = (num, den, strict)
    return True

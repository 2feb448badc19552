"""Exact numerical polarizations and classical detection.

A numerical polarization of characteristic chi stores one rational per
component, summing to chi; its value on a subcurve is the sum over the
components (additivity is structural).  The ceiling map produces a
V-stability, and :func:`is_classical` decides, by exact Fourier-Motzkin
elimination, whether a given V-stability arises this way, returning a
witness polarization when it does.

The decision works on integer rows: the equalities are solved by
fraction-free Gauss-Jordan elimination, and the eliminated inequalities are
primitive integer rows whose bounds are reduced (numerator, denominator)
pairs.  Rationals (``fractions.Fraction``) appear only at the
back-substitution of the witness.  Exactness is non-negotiable for the
strict-inequality feasibility decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
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
    total, an equality psi_Y = s_Y for each degenerate Y, and strict bounds
    s_Y - 1 < psi_Y < s_Y for each nondegenerate Y.  The equalities are
    solved by fraction-free Gauss-Jordan elimination; the bounds, rewritten
    in the free variables, are integer rows, decided by exact
    Fourier-Motzkin elimination tracking strict vs. weak inequalities.
    Integer rows throughout, rationals only at back-substitution: the
    witness takes interval midpoints.
    """
    if not s.is_valid:
        raise InvalidStability("classical detection requires a valid V-stability")
    g = s.graph
    n = g.n
    value = s.as_dict()

    equalities = [((1,) * n, s.chi)]
    bounds = []  # (Y, s_Y) for each nondegenerate Y
    for Y in g.biconnected_subcurves:
        if value[Y] + value[g.complement(Y)] == s.chi:
            equalities.append((tuple((Y >> v) & 1 for v in range(n)), value[Y]))
        else:
            bounds.append((Y, value[Y]))

    solved = solve_equalities(equalities, n)
    if solved is None:
        return None
    pivots, free = solved

    # scale * x_v = const + coeffs . (free variables), for every variable v
    scale = lcm(*(D for D, _, _ in pivots.values()))
    forms = []
    for v in range(n):
        if v in pivots:
            D, a, r = pivots[v]
            m = scale // D
            forms.append((tuple(-m * c for c in a), m * r))
        else:
            forms.append((tuple(scale if f == v else 0 for f in free), 0))

    reduced = []  # the strict bounds times scale, as integer rows
    for Y, v in bounds:
        row = [0] * len(free)
        const = 0
        for u in vertices_of(Y):
            coeffs, k = forms[u]
            row = [x + y for x, y in zip(row, coeffs)]
            const += k
        reduced.append((row, scale * v - const, True))
        reduced.append(([-x for x in row], const - scale * (v - 1), True))

    assignment_free = _fm_witness(reduced, len(free))
    if assignment_free is None:
        return None

    values = dict(zip(free, assignment_free))
    for p, (D, a, r) in pivots.items():
        values[p] = Fraction(r - sum(c * values[f] for f, c in zip(free, a))) / D
    psi = tuple(values[v] for v in range(n))
    witness = NumericalPolarization(g, s.chi, psi)
    if witness.induced_vstability() != s:
        raise AssertionError("feasible system produced a non-witness; elimination bug")
    return witness


def _fm_witness(inequalities, nvars):
    """Feasibility of a system of strict/weak linear inequalities by
    Fourier-Motzkin elimination; returns a satisfying point (Fractions) or
    None.

    Each row ``(coeffs, bound, strict)`` means coeffs . x < bound, or <= when
    not strict, with integer coefficients and an int or Fraction bound.
    Rows are kept as primitive integer keys, each with the tightest bound
    seen as a reduced (num, den) pair.  Variables are eliminated in index
    order; at each stage the live inequality set is recorded so the witness
    can be back-substituted with interval midpoints.
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

    values = [Fraction(0)] * nvars
    for var in range(nvars - 1, -1, -1):
        lo = hi = None
        lo_strict = hi_strict = False
        for k, (num, den, st) in stages[var]:
            c = k[var]
            if c == 0:
                continue
            t = (Fraction(num, den) - sum(k[i] * values[i] for i in range(var + 1, nvars))) / c
            if c > 0:
                if hi is None or t < hi:
                    hi, hi_strict = t, st
                elif t == hi:
                    hi_strict = hi_strict or st
            else:
                if lo is None or t > lo:
                    lo, lo_strict = t, st
                elif t == lo:
                    lo_strict = lo_strict or st
        if lo is not None and hi is not None:
            if lo > hi or (lo == hi and (lo_strict or hi_strict)):
                raise AssertionError("empty interval after elimination; FM bug")
            values[var] = (lo + hi) / 2
        elif lo is not None:
            values[var] = lo + 1
        elif hi is not None:
            values[var] = hi - 1
        else:
            values[var] = Fraction(0)
    return values


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

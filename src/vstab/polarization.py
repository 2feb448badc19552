"""Exact-rational numerical polarizations and classical detection.

A numerical polarization of characteristic chi stores one rational per
component, summing to chi; its value on a subcurve is the sum over the
components (additivity is structural).  The ceiling map produces a
V-stability, and :func:`is_classical` decides, by exact Fourier-Motzkin
elimination over the rationals, whether a given V-stability arises this
way, returning a witness polarization when it does.

Rationals are ``fractions.Fraction`` (arbitrary-precision); exactness is
non-negotiable for the strict-inequality feasibility decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

from .errors import InvalidPolarization, InvalidStability
from .graphs import DualGraph, vertices_of
from .stability import VStability


@dataclass(frozen=True)
class NumericalPolarization:
    graph: DualGraph
    chi: int
    psi: tuple[Fraction, ...]

    def __post_init__(self):
        psi = tuple(Fraction(x) for x in self.psi)
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
        biconnected Y.  Its degeneracy set is exactly the integrality locus."""
        g = self.graph
        values = tuple(math.ceil(self.value_on(Y)) for Y in g.biconnected_subcurves)
        return VStability(g, self.chi, values)

    def translated(self, tau) -> "NumericalPolarization":
        tau = tuple(int(t) for t in tau)
        psi = tuple(p + t for p, t in zip(self.psi, tau))
        return NumericalPolarization(self.graph, self.chi + sum(tau), psi)


def translate_polarization(p: NumericalPolarization, tau) -> NumericalPolarization:
    """Shift by an integer vector; the ceiling map is equivariant for this."""
    return p.translated(tau)


def from_ample(graph: DualGraph, degrees, chi: int) -> NumericalPolarization:
    """Slope polarization of an ample class: psi_v = deg_v * chi / total."""
    degrees = tuple(int(d) for d in degrees)
    if len(degrees) != graph.n:
        raise InvalidPolarization("one degree per component required")
    total = sum(degrees)
    if total <= 0:
        raise InvalidPolarization("total degree must be positive")
    psi = tuple(Fraction(d * chi, total) for d in degrees)
    return NumericalPolarization(graph, chi, psi)


def from_slopes(graph: DualGraph, slopes) -> NumericalPolarization:
    """Polarization attached to per-component slopes of a vector bundle:
    psi_v = -slope_v, with characteristic the negated (integral) total."""
    slopes = tuple(Fraction(x) for x in slopes)
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

    Feasibility system over the rationals in the per-component values:
    one equality for the total, an equality psi_Y = s_Y for each degenerate
    Y, and strict bounds s_Y - 1 < psi_Y < s_Y for each nondegenerate Y.
    Decided by exact Fourier-Motzkin elimination tracking strict vs. weak
    inequalities; the witness is extracted by back-substitution taking
    interval midpoints.
    """
    if not s.is_valid:
        raise InvalidStability("classical detection requires a valid V-stability")
    g = s.graph
    n = g.n

    equalities = [([1] * n, Fraction(s.chi))]
    inequalities = []  # (coeffs over all vars, bound, strict) meaning coeffs . x < / <= bound
    for Y in g.biconnected_subcurves:
        ind = [1 if (Y >> v) & 1 else 0 for v in range(n)]
        if s.is_degenerate(Y):
            equalities.append((ind, Fraction(s.value(Y))))
        else:
            inequalities.append((ind, Fraction(s.value(Y)), True))
            inequalities.append(
                ([-c for c in ind], Fraction(1 - s.value(Y)), True)
            )

    solved = _solve_equalities(equalities, n)
    if solved is None:
        return None
    pivots, free = solved

    reduced = []
    for coeffs, bound, strict in inequalities:
        row, rhs = _substitute(coeffs, bound, pivots, free)
        reduced.append((row, rhs, strict))

    assignment_free = _fm_witness(reduced, len(free))
    if assignment_free is None:
        return None

    values = {free[i]: assignment_free[i] for i in range(len(free))}
    for var, (const, lin) in pivots.items():
        values[var] = const + sum(c * values[f] for f, c in lin.items())
    psi = tuple(values[v] for v in range(n))
    witness = NumericalPolarization(g, s.chi, psi)
    if witness.induced_vstability() != s:
        raise AssertionError("feasible system produced a non-witness; elimination bug")
    return witness


def _solve_equalities(rows, n):
    """Exact RREF.  Returns (pivots, free_vars) with each pivot variable
    expressed as const + sum over free vars, or None when inconsistent."""
    mat = [[Fraction(c) for c in coeffs] + [Fraction(rhs)] for coeffs, rhs in rows]
    pivot_cols = []
    r = 0
    for col in range(n):
        sel = None
        for i in range(r, len(mat)):
            if mat[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        pv = mat[r][col]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivot_cols.append(col)
        r += 1
    for i in range(r, len(mat)):
        if mat[i][n] != 0:
            return None
    free = [c for c in range(n) if c not in pivot_cols]
    pivots = {}
    for i, col in enumerate(pivot_cols):
        lin = {f: -mat[i][f] for f in free if mat[i][f] != 0}
        pivots[col] = (mat[i][n], lin)
    return pivots, free


def _substitute(coeffs, bound, pivots, free):
    """Rewrite coeffs . x < bound in terms of the free variables."""
    row = {f: Fraction(0) for f in free}
    rhs = Fraction(bound)
    for var, c in enumerate(coeffs):
        if c == 0:
            continue
        if var in pivots:
            const, lin = pivots[var]
            rhs -= c * const
            for f, lc in lin.items():
                row[f] += c * lc
        else:
            row[var] += c
    return tuple(row[f] for f in free), rhs


def _normalize(row, rhs):
    """Scale to a primitive integer left-hand side for deduplication."""
    denoms = [c.denominator for c in row] or [1]
    scale = 1
    for d in denoms:
        scale = scale * d // gcd(scale, d)
    ints = [int(c * scale) for c in row]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    if g == 0:
        return (0,) * len(ints), rhs * scale
    return tuple(c // g for c in ints), rhs * Fraction(scale, g)


def _fm_witness(inequalities, nvars):
    """Feasibility of a system of strict/weak linear inequalities by
    Fourier-Motzkin elimination; returns a satisfying point or None.

    Variables are eliminated in index order; at each stage the live
    inequality set is recorded so the witness can be back-substituted with
    interval midpoints.
    """
    live = {}
    for row, rhs, strict in inequalities:
        if not _admit(live, row, rhs, strict):
            return None

    stages = []
    current = [(k, b, st) for k, (b, st) in live.items()]
    for var in range(nvars):
        stages.append(current)
        uppers = [(k, b, st) for k, b, st in current if k[var] > 0]
        lowers = [(k, b, st) for k, b, st in current if k[var] < 0]
        rest = [(k, b, st) for k, b, st in current if k[var] == 0]
        live = {}
        for k, b, st in rest:
            live[k] = _tighter(live.get(k), (b, st))
        for ku, bu, stu in uppers:
            for kl, bl, stl in lowers:
                a, c = ku[var], -kl[var]
                row = tuple(
                    Fraction(c * ku[i] + a * kl[i]) for i in range(nvars)
                )
                if not _admit(live, row, c * bu + a * bl, stu or stl):
                    return None
        current = [(k, b, st) for k, (b, st) in live.items()]

    values = [Fraction(0)] * nvars
    for var in range(nvars - 1, -1, -1):
        lo = hi = None
        lo_strict = hi_strict = False
        for k, b, st in stages[var]:
            c = k[var]
            if c == 0:
                continue
            t = (b - sum(k[i] * values[i] for i in range(var + 1, nvars))) / c
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


def _admit(live, row, rhs, strict) -> bool:
    """Normalise a row into ``live``, keeping the tighter bound per
    left-hand side; a row with no variables is checked instead, and False
    means it is violated, so the system is infeasible."""
    key, bound = _normalize(row, rhs)
    if not any(key):
        return bound > 0 if strict else bound >= 0
    live[key] = _tighter(live.get(key), (bound, strict))
    return True


def _tighter(old, new):
    """Keep the tighter of two (bound, strict) upper constraints."""
    if old is None:
        return new
    if new[0] < old[0]:
        return new
    if new[0] == old[0] and new[1] and not old[1]:
        return new
    return old

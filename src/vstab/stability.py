"""V-stability conditions on a dual graph.

A V-stability condition of characteristic chi assigns an integer to every
biconnected subcurve, subject to the pair-sum constraint (the value on Y
plus the value on its complement minus chi lies in {0,1}) and constraints
on every triple of pairwise-disjoint biconnected subcurves covering the
curve.  Both the triple-based validator and the equivalent pair-union
validator are implemented; they are cross-checked in the test suite.
The translation action lives here too, so that each stability computes
its tree-cut normal form once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count

from .errors import DomainMismatch, EmptySubcurve, InvalidStability, NotDegenerate
from .graphs import Contraction, DualGraph, exact_ints, permute_mask, subset_sums


# allowed triple sums minus chi, by the number of degenerate members
_TRIPLE_SUMS = {3: (0,), 1: (1,), 0: (1, 2)}


@dataclass(frozen=True)
class Violation:
    kind: str                     # "pair-sum" | "triple-closure" | "triple-sum" | "pair-union"
    subcurves: tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _refuse_subcurve(Y):
    """``DomainMismatch`` for a subcurve that is not an exact int (``True``
    would pass for 1 as a dict key) or not biconnected."""
    exact_ints((Y,), "a subcurve", DomainMismatch)
    raise DomainMismatch(f"subcurve {Y:b} is not biconnected")


@dataclass(frozen=True)
class VStability:
    """Integer assignment on biconnected subcurves, of characteristic chi.

    ``values`` is aligned with ``graph.biconnected_subcurves``.  Unset keys
    are a hard error in :meth:`from_dict`, never defaulted.
    """

    graph: DualGraph
    chi: int
    values: tuple[int, ...]

    def __post_init__(self):
        exact_ints((self.chi,), "chi")
        values = exact_ints(self.values, "a stability value")
        if len(values) != len(self.graph.biconnected_subcurves):
            raise DomainMismatch(
                "values must be aligned with the biconnected subcurves"
            )
        object.__setattr__(self, "values", values)

    @classmethod
    def from_dict(cls, graph: DualGraph, chi: int, mapping: dict[int, int]) -> "VStability":
        bcon = graph.biconnected_subcurves
        if set(mapping) != set(bcon):
            missing = sorted(set(bcon) - set(mapping))
            extra = sorted(set(mapping) - set(bcon))
            raise DomainMismatch(
                f"values must be keyed exactly by the biconnected subcurves "
                f"(missing {missing}, extra {extra})"
            )
        return cls(graph, chi, tuple(mapping[Y] for Y in bcon))

    def as_dict(self) -> dict[int, int]:
        return dict(zip(self.graph.biconnected_subcurves, self.values))

    def value(self, Y: int) -> int:
        idx = self.graph.bcon_index.get(Y)
        if idx is None or type(Y) is not int:
            _refuse_subcurve(Y)
        return self.values[idx]

    def is_degenerate(self, Y: int) -> bool:
        """Membership in :attr:`degenerate`; ``DomainMismatch`` off the
        biconnected subcurves."""
        if Y not in self.graph.bcon_index or type(Y) is not int:
            _refuse_subcurve(Y)
        return Y in self.degenerate

    @cached_property
    def degenerate(self) -> frozenset[int]:
        """The biconnected Y with s_Y + s_{Y^c} = chi, read off the pair-sum
        table of :meth:`_value_tables`; validity is not required."""
        return frozenset(compress(count(), self._value_tables()[1]))

    # -- validation ---------------------------------------------------------

    def _value_tables(self) -> tuple[list[int], list[bool]]:
        """Per-call tables indexed by subcurve mask: the stored value, and
        the pair-sum test for degeneracy (0 and False off the biconnected
        subcurves).  This is the one place a stability's pair sums are
        compared with chi."""
        g = self.graph
        full = g.full_mask
        value = [0] * (full + 1)
        for Y, v in zip(g.biconnected_subcurves, self.values):
            value[Y] = v
        degenerate = [False] * (full + 1)
        for Y, Yc in g.bcon_pairs:
            degenerate[Y] = degenerate[Yc] = value[Y] + value[Yc] == self.chi
        return value, degenerate

    def validate(self) -> ValidationReport:
        """Check the pair-sum constraint and both triple constraints.

        All violations are reported, not just the first.
        """
        g = self.graph
        chi = self.chi
        value, degenerate = self._value_tables()
        out: list[Violation] = []
        for Y, Yc in g.bcon_pairs:
            t = value[Y] + value[Yc] - chi
            if t not in (0, 1):
                out.append(Violation(
                    "pair-sum", (Y, Yc),
                    f"value sum minus chi is {t}, expected 0 or 1",
                ))
        for Y1, Y2, Y3 in g.covering_triples:
            ndeg = degenerate[Y1] + degenerate[Y2] + degenerate[Y3]
            if ndeg == 2:
                out.append(Violation(
                    "triple-closure", (Y1, Y2, Y3),
                    "two members degenerate but not the third",
                ))
                continue
            sigma = value[Y1] + value[Y2] + value[Y3] - chi
            expected = _TRIPLE_SUMS[ndeg]
            if sigma not in expected:
                out.append(Violation(
                    "triple-sum", (Y1, Y2, Y3),
                    f"triple sum minus chi is {sigma}, expected one of {expected}",
                ))
        return ValidationReport(tuple(out))

    def validate_via_union(self) -> ValidationReport:
        """Equivalent validation via the pair-union constraint.

        Must agree with :meth:`validate` on every input; the agreement is
        asserted wholesale in the test suite.
        """
        g = self.graph
        value, degenerate = self._value_tables()
        out: list[Violation] = []
        for Y, Yc in g.bcon_pairs:
            t = value[Y] + value[Yc] - self.chi
            if t not in (0, 1):
                out.append(Violation(
                    "pair-sum", (Y, Yc),
                    f"value sum minus chi is {t}, expected 0 or 1",
                ))
        for Y1, Y2, U in g.admissible_pairs:
            delta = value[U] - value[Y1] - value[Y2]
            if degenerate[Y1] or degenerate[Y2]:
                expected = (0,)
            elif degenerate[U]:
                expected = (-1,)
            else:
                expected = (0, -1)
            if delta not in expected:
                out.append(Violation(
                    "pair-union", (Y1, Y2, U),
                    f"union defect is {delta}, expected one of {expected}",
                ))
        return ValidationReport(tuple(out))

    @cached_property
    def is_valid(self) -> bool:
        return self.validate().ok

    def _require_valid(self):
        if not self.is_valid:
            raise InvalidStability("operation requires a valid V-stability")

    @cached_property
    def tree_cut_normal_form(self) -> tuple["VStability", tuple[int, ...]]:
        """(representative, tau), computed once per stability; tau moves it
        onto characteristic 0, value 0 on every parent side and 0 or 1 on
        the child side, by degeneracy.  See :func:`vstab.posets.normal_form`,
        the public entry point."""
        self._require_valid()
        tree = self.graph.spanning_tree
        # target tau-sum over each child subtree; a child side is degenerate
        # with its parent side
        tau = tuple(tree.from_subtree_totals(-self.chi, [
            -self.value(child) + (0 if child in self.degenerate else 1)
            for child in tree.child_masks
        ]))
        return translate(self, tau), tau

    # -- degeneracy ----------------------------------------------------------

    def degeneracy_set(self) -> "DegeneracySet":
        self._require_valid()
        return DegeneracySet(self.graph, self.degenerate)

    def is_general(self) -> bool:
        self._require_valid()
        return not self.degenerate

    @cached_property
    def extended_degeneracy(self) -> frozenset[int]:
        """Connected subcurves whose complement components are all degenerate,
        plus the whole curve: on a connected W, ext[W] + ext[W^c] is chi plus
        the number of non-degenerate (biconnected) pieces of W^c."""
        self._require_valid()
        g = self.graph
        full = g.full_mask
        ext = self.extended_values
        return frozenset(
            W for W in g.connected_subcurves if ext[W] + ext[full ^ W] == self.chi
        )

    @cached_property
    def extended_values(self) -> list[int]:
        """The extended V-function per subcurve mask (index = mask; 0 on
        the empty subcurve), filled in one pass in ascending mask order; see
        :func:`extended_value_table`.

        A biconnected subcurve keeps its stored value and the whole curve
        gets chi.  Any other connected Y gets chi minus, over each piece Z
        of its complement, the value of Z less one unless Z is degenerate.
        Each such Z is biconnected: its complement is Y with the other
        pieces, and each piece meets Y because the curve is connected.  A
        disconnected Y gets the sum over its pieces, smaller masks that are
        already filled.
        """
        g = self.graph
        full = g.full_mask
        table, degenerate = self._value_tables()
        bcon = g.bcon_index
        con = g._connected_set
        for Y in range(1, full + 1):
            if Y in bcon:
                continue
            if Y == full:
                table[Y] = self.chi
            elif Y in con:
                table[Y] = self.chi - sum(
                    table[Z] - 1 + degenerate[Z]
                    for Z in g.connected_components(full ^ Y)
                )
            else:
                table[Y] = sum(table[W] for W in g.connected_components(Y))
        return table

    def extended_value(self, Y: int) -> int:
        """Value of the extended V-function on any nonempty subcurve, read
        from :attr:`extended_values`; validity is not required."""
        table = self.extended_values
        if type(Y) is int and 0 < Y < len(table):
            return table[Y]
        if Y == 0 and type(Y) is int:
            raise EmptySubcurve("the extended V-function needs a nonempty subcurve")
        self.graph.check_mask(Y, 1)   # Y is not an int or out of range, so this raises

    # -- restriction and pullback ---------------------------------------------

    def restrict(self, Y: int) -> "VStability":
        """Restriction to a subcurve of the extended degeneracy set, as a
        V-stability on the induced graph of Y."""
        self._require_valid()
        if Y not in self.extended_degeneracy:
            raise NotDegenerate(
                f"subcurve {Y:b} is not in the extended degeneracy set"
            )
        sub, verts = self.graph.induced(Y)
        values = tuple(
            self.extended_value(permute_mask(W, verts)) for W in sub.biconnected_subcurves
        )
        return VStability(sub, self.extended_value(Y), values)


def translate(s: VStability, tau) -> VStability:
    """Shift by an integer vector: adds the tau-sum over each subcurve and
    moves the characteristic by the total."""
    g = s.graph
    tau = exact_ints(tau, "a translation entry")
    if len(tau) != g.n:
        raise ValueError("one integer per component required")
    sums = subset_sums(tau)
    values = tuple(v + sums[Y] for v, Y in zip(s.values, g.biconnected_subcurves))
    return VStability(g, s.chi + sums[-1], values)


def pullback(s: VStability, c: Contraction) -> VStability:
    """Pullback of a V-stability along a contraction.

    The input lives on the contraction source (the finer graph); the result
    lives on the contracted graph, with each value read off at the
    degeneration (union of fibers) of the subcurve.  The degeneracy set of
    the result is the preimage of the degeneracy set of the input under
    that map.
    """
    if s.graph != c.source:
        raise DomainMismatch("stability is not defined on the contraction source")
    target = c.target
    values = tuple(s.value(c.pushforward(Y)) for Y in target.biconnected_subcurves)
    return VStability(target, s.chi, values)


@dataclass(frozen=True)
class DegeneracySet:
    """Subset of the biconnected subcurves closed under complement and under
    disjoint union when the union is again biconnected."""

    graph: DualGraph
    members: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        exact_ints(self.members, "a member", DomainMismatch)
        if not self.members <= self.graph.bcon_index.keys():
            raise DomainMismatch("members must be biconnected subcurves")
        full = self.graph.full_mask
        for Y in self.members:
            if full ^ Y not in self.members:
                raise ValueError(f"not closed under complement at {Y:b}")
        for A, B, U in self.graph.admissible_pairs:
            if A in self.members and B in self.members and U not in self.members:
                raise ValueError(
                    f"not closed under disjoint union at {A:b}, {B:b}"
                )

    def __contains__(self, Y: int) -> bool:
        return Y in self.members

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def dominates_top(self) -> bool:
        """Whether this set dominates the top degeneracy subset, the set of
        all biconnected subcurves, decided once by one witness search.  By
        the restriction lemma (:func:`vstab.posets.deg_leq`) it then
        dominates every degeneracy subset that contains it."""
        from .posets import deg_witness   # posets imports this module

        top = DegeneracySet(self.graph, frozenset(self.graph.biconnected_subcurves))
        return deg_witness(self, top) is not None


def extended_value_table(s: VStability) -> list[int]:
    """Extended V-function tabulated over every subcurve mask (index =
    mask), built once per stability for hot loops; the empty subcurve is
    mapped to 0 for the callers' convenience."""
    return s.extended_values

"""V-stability conditions on a dual graph.

A V-stability condition of characteristic chi assigns an integer to every
biconnected subcurve, subject to the pair-sum constraint (the value on Y
plus the value on its complement minus chi lies in {0,1}) and constraints
on every triple of pairwise-disjoint biconnected subcurves covering the
curve.  Both the triple-based validator and the equivalent pair-union
validator are implemented; they are cross-checked in the test suite.
The translation action lives here too, so that each stability computes
its tree-cut normal form once.  The public constructor checks every
field; the pair search's outputs, valid by construction, skip both those
checks and validation through ``VStability._trusted``, and the degeneracy
subsets it enumerates skip their checks through ``DegeneracySet._trusted``.
The dominance-witness kernel, ``_witness_sides``, reads a degeneracy
subset's ``pair_mask`` and lives beside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count
from typing import Iterator

from .errors import DomainMismatch, EmptySubcurve, InvalidStability, NotDegenerate
from .graphs import Contraction, DualGraph, exact_ints, permute_mask, subset_sums, vertices_of


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
    def _trusted(cls, graph: DualGraph, chi: int, values: tuple[int, ...]) -> "VStability":
        """A stability the pair search built, with none of the checks of
        the public constructor and ``is_valid`` already True; its one
        caller is ``posets._searched_stabilities``, and a test keeps it so.

        Each removed check holds by construction there.  ``chi`` is 0 or
        the characteristic of a valid stability, and each value is an
        exact int: an entry of a window option, built from ``range``, or a
        value of a valid stability plus 0 or 1.  ``values`` reads one
        value per biconnected subcurve, in ``biconnected_subcurves`` order.
        Validity: every pair (Y, Y^c) takes one of its options, whose sum
        minus chi is 0 or 1, and the search keeps only assignments meeting
        the pair-union rule on every admissible pair, so ``validate_via_union``
        finds nothing, and it agrees with ``validate`` on every input."""
        s = object.__new__(cls)
        object.__setattr__(s, "graph", graph)
        object.__setattr__(s, "chi", chi)
        object.__setattr__(s, "values", values)
        # an instance attribute shadows the cached_property; unlike the
        # property's own store, it materializes no per-instance dict
        object.__setattr__(s, "is_valid", True)
        return s

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
        if self.graph.check_mask(Y) == 0:
            raise EmptySubcurve("the extended V-function needs a nonempty subcurve")
        return self.extended_values[Y]

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

    @classmethod
    def _trusted(cls, graph: DualGraph, members: frozenset[int]) -> "DegeneracySet":
        """A degeneracy subset the library's search built, with none of the
        checks of the public constructor; its one caller is
        ``posets.enumerate_degeneracy_subsets``, and a test keeps it so.

        Each removed check holds by construction there: ``members`` is a
        frozenset holding both sides of each chosen pair of
        ``bcon_pairs``, so its members are biconnected subcurves, exact
        ints, and closed under complement, and the search keeps only the
        choices under which every admissible pair with both parts inside
        has its union inside."""
        d = object.__new__(cls)
        object.__setattr__(d, "graph", graph)
        object.__setattr__(d, "members", members)
        return d

    @cached_property
    def pair_mask(self) -> int:
        """The pairs of ``graph.bcon_pairs`` this set holds, as a bitmask
        of their indices."""
        side = self.graph.witness_rules[0]
        out = 0
        for Y in self.members:
            out |= 1 << side[Y][0]
        return out

    @cached_property
    def dominates_top(self) -> bool:
        """Whether this set dominates the top degeneracy subset, the set of
        all biconnected subcurves, decided once by one witness search.  By
        the restriction lemma (:func:`vstab.posets.deg_leq`) it then
        dominates every degeneracy subset that contains it."""
        top = (1 << len(self.graph.bcon_pairs)) - 1
        return next(_witness_sides(self.graph, self.pair_mask, top), None) is not None


def _witness_sides(g: DualGraph, inner: int, outer: int) -> Iterator[int]:
    """The witnesses of D1 >= D2 for degeneracy subsets D1 <= D2 of ``g``,
    given by the bitmasks ``inner`` and ``outer`` of their pairs (bit p for
    pair p of ``bcon_pairs``), as side bitmasks: bit p of a witness, for p
    in ``outer & ~inner``, is the side of pair p it takes (0 the smaller).
    They come in the product order of those sides, pairs ascending, side 0
    first.

    With x_p the side taken on pair p, Z lies in E iff x_p = s_Z, the side
    Z is.  A disjoint pair (A, B) of D2 - D1 whose union lies in D1 must
    meet E exactly once, [A in E] xor [B in E] = 1, which is the parity
    equation x_a xor x_b = 1 xor s_A xor s_B.  Union-find merges these
    equations, each class rooted at its lowest pair and every other pair p
    bound as x_p = x_root xor q_p; an odd cycle leaves no witness.  A
    covering triple of D2 - D1 must meet E once or twice: its three values
    x_p xor s_Z must not be all equal, which on the roots reads
    x_r xor (s_Z xor q_p).  Two of them on one root with different
    constants always differ; otherwise the triple forbids, at its latest
    root, the side that would make them all 0 or all 1.  A depth-first
    search over the pairs ascending tries each root's sides, 0 first,
    judging its triples there, and gives every other pair the one side its
    parent, a lower pair, forces.  So two witnesses first differ at a root,
    and the search's order is the product order over every pair.
    """
    _, pair_rules, triple_rules = g.witness_rules
    diff = outer & ~inner
    up = list(range(len(g.bcon_pairs)))   # union-find parent, below its child
    q = [0] * len(up)                     # x_p xor x_up[p]
    for m, a, b, u, parity in pair_rules:
        if m & diff == m and inner >> u & 1:
            while up[a] != a:
                parity ^= q[a]
                a = up[a]
            while up[b] != b:
                parity ^= q[b]
                b = up[b]
            if a == b:
                if parity:
                    return
            elif a < b:
                up[b], q[b] = a, parity
            else:
                up[a], q[a] = b, parity
    # per root, its triples as (mask, values, s): on the earlier roots in
    # mask, x equal to values makes side s of the root give all values 0,
    # and x equal to values ^ mask makes side 1 - s give all 1
    filed: dict[int, list] = {}
    for m, literals in triple_rules:
        if m & diff != m:
            continue
        want = {}
        for p, s in literals:
            while up[p] != p:
                s ^= q[p]
                p = up[p]
            if want.setdefault(p, s) != s:
                break
        else:
            last = max(want)
            s = want.pop(last)
            filed.setdefault(last, []).append(
                (sum(1 << r for r in want), sum(v << r for r, v in want.items()), s))
    pairs = vertices_of(diff)
    if not pairs:
        yield 0
        return
    top = len(pairs) - 1
    todo = [-1] * len(pairs)   # per depth, the sides still to try; -1 before they are judged
    x = depth = 0
    while depth >= 0:
        bits = todo[depth]
        p = pairs[depth]
        if bits < 0:
            if up[p] != p:
                bits = 1 << ((x >> up[p] & 1) ^ q[p])
            else:
                bits = 3
                for mask, values, s in filed.get(p, ()):
                    y = x & mask
                    if y == values:
                        bits &= 2 >> s
                    if y == values ^ mask:
                        bits &= 1 << s
        if not bits:
            depth -= 1
            continue
        if bits & 1:
            x &= ~(1 << p)
            todo[depth] = bits & 2
        else:
            x |= 1 << p
            todo[depth] = 0
        if depth < top:
            depth += 1
            todo[depth] = -1
        else:
            yield x


def extended_value_table(s: VStability) -> list[int]:
    """Extended V-function tabulated over every subcurve mask (index =
    mask), built once per stability for hot loops; the empty subcurve is
    mapped to 0 for the callers' convenience."""
    return s.extended_values

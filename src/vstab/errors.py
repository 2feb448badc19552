"""Exception types shared across the package."""


class VstabError(Exception):
    """Base class for all domain errors."""


class EmptySubcurve(VstabError):
    """An operation that needs a nonempty subcurve received the empty mask."""


class OverlappingSubcurves(VstabError):
    """Two subcurves required to be disjoint share a component."""


class DomainMismatch(VstabError):
    """Data is keyed by the wrong graph or the wrong subcurve collection."""


class InvalidStability(VstabError):
    """A V-stability failing validation was passed where a valid one is required."""


class NotDegenerate(VstabError):
    """Restriction requested along a subcurve outside the extended degeneracy set."""


class InvalidPolarization(VstabError):
    """Polarization data with inconsistent totals or non-positive ample degree."""


class MoveNotApplicable(VstabError):
    """Preconditions of an elementary poset move are not met."""


class LiftImpossible(VstabError):
    """No witness produced a valid lift; internal-error class."""


class NotSemistable(VstabError):
    """A semistable sheaf was required."""


class NotPolystable(VstabError):
    """A polystable sheaf was required."""


class InvalidPartition(VstabError):
    """Parts do not form an ordered partition of the support."""


class NotAPartialOrder(VstabError):
    """The comparison predicate handed to hasse() is not a partial order."""


class NonTermination(VstabError):
    """A limit walk exhausted its finite search without a semistable point;
    internal-error class."""

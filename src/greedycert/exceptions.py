"""Exception types raised by the package."""


class GreedycertError(Exception):
    """Base class for all package errors."""


class NotNormalizedError(GreedycertError):
    """A dictionary column does not have unit Euclidean norm."""


class RankDeficientError(GreedycertError):
    """A column subset that must be independent is (numerically) dependent."""


class DegenerateAtomError(GreedycertError):
    """Attempt to extend an active set by an atom already in its span."""


class TooLargeError(GreedycertError):
    """A combinatorial enumeration exceeds its budget."""


class DimensionTooLargeError(GreedycertError):
    """A null-space search beyond the supported dimension was requested.

    The l1 certificates decide every null-space dimension and no longer
    raise it; it stays for callers that catch it."""


class ConstructionFailedError(GreedycertError):
    """An input construction could not be verified at any feasible step size."""


class FormMismatchError(GreedycertError):
    """Two mathematically equal evaluation routes disagree numerically."""


class EmptyAtomError(GreedycertError):
    """A generated atom is identically zero and cannot be normalized."""

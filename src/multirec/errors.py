"""Exception types shared across the package."""


class MultirecError(Exception):
    """Base class for all package-specific errors."""


class DegenerateDirection(MultirecError):
    """Raised when a direction vector is all zeros."""


class DimensionError(MultirecError):
    """Raised when positions, sizes or words disagree on dimension."""


class NotProlongable(MultirecError):
    """Raised when a fixed point is requested for a letter the morphism
    does not prolong (image letter at the origin differs)."""


class ConstructionBug(MultirecError):
    """Raised if an iterative filling ever assigns a cell twice with
    different letters.  Must never happen; indicates a broken schedule."""


class NotCoprime(MultirecError):
    """Raised when a residue vector expected to have coprime coordinates
    does not."""


class OnLine(MultirecError):
    """Raised when an offset expected to lie off the line N*q lies on it."""


class CompositeSize(MultirecError):
    """Raised by checks that require a prime expansion size."""


class InvalidInput(MultirecError):
    """Raised on precondition violations not covered by a dedicated type."""


class NotApplicable(MultirecError):
    """Raised when a witness is requested for an object that has none."""


class EmptyVisit(MultirecError):
    """Raised when an orbit never visits the target set within the horizon."""


class NotFound(MultirecError):
    """Raised when a bounded search ends without a hit."""


class ReturnScanFailed(MultirecError):
    """Raised when a prefix does not recur often enough to cut return words."""


class FixtureMissing(MultirecError):
    """Raised when a golden fixture file is absent."""

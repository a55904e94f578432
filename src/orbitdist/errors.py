"""Exception types shared across the package."""


class OrbitDistError(Exception):
    """Base class for all errors raised by this package."""


class NonFiniteError(OrbitDistError):
    """An input matrix has an entry that is not a finite float64 number:
    NaN, Inf, a Python integer beyond float64, or no number at all."""


class ShapeMismatchError(OrbitDistError):
    """Two operands do not have the shapes the operation requires."""


class ConvergenceFailureError(OrbitDistError):
    """An iterative factorization backend failed to converge."""


class NotHermitianError(OrbitDistError):
    """A matrix expected to be symmetric/Hermitian is not, beyond tolerance."""


class NotPSDError(OrbitDistError):
    """A matrix expected to be positive semi-definite has a significantly
    negative eigenvalue."""


class InvalidRankError(OrbitDistError):
    """Rank parameter outside the valid range for the requested basis."""


class DimensionHypothesisError(OrbitDistError):
    """The configuration size is too small for the requested dimension
    reduction (needs at least twice the ambient point dimension)."""


class AmbientMismatchError(OrbitDistError):
    """A matrix does not belong to the declared ambient matrix space."""


class OutOfRangeError(OrbitDistError):
    """A scalar parameter lies outside its documented range."""


class EmptyDatabaseError(OrbitDistError):
    """A query was issued against a database with no records."""


class FeatureMapMismatchError(OrbitDistError):
    """A feature map name other than ``full`` or ``reduced``."""


class UnknownIdError(OrbitDistError):
    """A record id does not exist in the database."""


class DuplicateIdError(OrbitDistError, ValueError):
    """Two records of one database share an id."""


class ConfigInvalidError(OrbitDistError):
    """An experiment configuration violates its invariants."""


def _shown(value) -> str:
    """``repr(value)`` for an error message, unless that needs the string
    of an integer too long to print (Python's 4300-digit limit)."""
    try:
        return repr(value)
    except ValueError:
        return "a value with an integer too long to print"

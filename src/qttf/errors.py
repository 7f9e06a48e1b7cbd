"""Exception types shared across the package."""


class QttfError(Exception):
    """Base class for all library-specific errors."""


class InvalidDimensionError(QttfError, ValueError):
    """Hilbert-space dimension is not an integer >= 2."""


class DimensionMismatchError(QttfError, ValueError):
    """Objects built for different Hilbert-space dimensions were combined."""


class UnsupportedDimensionError(QttfError, ValueError):
    """A builtin constructor does not cover the requested dimension."""


class UnsupportedOrderError(QttfError, ValueError):
    """Requested moment or series order is outside the implemented range."""


class PomValidationError(QttfError, ValueError):
    """Outcome set violates a measurement invariant (hermiticity, positivity, completeness)."""


class PomSchemaError(QttfError, ValueError):
    """A serialized measurement file does not match the JSON schema."""


class DegenerateDrawError(QttfError, RuntimeError):
    """Random measurement generation kept producing a singular outcome sum."""


class NotInformationallyCompleteError(QttfError, ValueError):
    """The measurement matrix is rank deficient, so no Fisher inverse exists."""


class NotMinimallyCompleteError(QttfError, ValueError):
    """Closed form requires exactly dim**2 outcomes."""


class NotMinimalBasesError(QttfError, ValueError):
    """Closed form requires dim+1 rank-one bases of dim outcomes each."""


class BudgetExceededError(QttfError, RuntimeError):
    """A tensor contraction would exceed the configured memory budget."""


class SearchTimeoutError(QttfError, RuntimeError):
    """Random search exhausted its attempt budget without finding a pair."""

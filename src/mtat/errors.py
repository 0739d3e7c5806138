"""Exception types shared across the package.

Every error raised on purpose derives from MtatError so callers can catch
one base class. The CLI maps NumericError to exit code 3, and every other
MtatError and a failed output write to exit code 2.
"""


class MtatError(Exception):
    """Base class for all deliberate errors raised by this package."""


class DimensionError(MtatError):
    """Operands have incompatible shapes, ranks, or sizes."""


class NumericError(MtatError):
    """A computation produced or received non-finite or invalid values."""


class UsageError(MtatError):
    """An API was called in a way its contract forbids."""


class DomainError(MtatError):
    """An argument lies outside the mathematical domain of the operation."""


class ConfigError(MtatError):
    """A configuration value is missing, malformed, or inconsistent."""

"""Exception types shared across the package."""


class MstrackError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(MstrackError, ValueError):
    """Array dimensions inconsistent with the operation's contract."""


class LabelError(MstrackError, ValueError):
    """A mask label is outside the configured object range."""


class FormatError(MstrackError, ValueError):
    """A file does not conform to its declared on-disk format."""


class ConfigError(MstrackError, ValueError):
    """A configuration value is invalid or unsatisfiable."""


class NumericError(MstrackError, ValueError):
    """A kernel met a non-finite tensor, an overflow or a bad numeric parameter."""


class StateError(MstrackError, RuntimeError):
    """An operation was called on inconsistent or empty runtime state."""


class InitError(MstrackError, RuntimeError):
    """Tracker initialization failed (e.g. empty reference mask)."""


class DataError(MstrackError, RuntimeError):
    """Input data is missing or malformed at the dataset level."""

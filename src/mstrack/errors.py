"""Exception types and value checks shared across the package."""

import re


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


def check_range(key: str, value, lo, hi=float("inf")) -> None:
    """Raise ConfigError naming `key` unless lo <= value <= hi."""
    if value < lo:
        raise ConfigError(f"{key} must be >= {lo}, got {value}")
    if value > hi:
        raise ConfigError(f"{key} must be <= {hi}, got {value}")


# plain decimal only: Python's int() also takes "1_0", "+2", " 2" and
# non-ASCII digits such as a fullwidth 3
_INT_TEXT = re.compile(r"-?[0-9]+")


def parse_int(text: str) -> int:
    """`text` as an int if it is plain decimal, `-?[0-9]+`; else ValueError."""
    if not _INT_TEXT.fullmatch(text):
        raise ValueError(f"not a plain decimal integer: {text!r}")
    return int(text)


# plain ASCII decimal, with an optional exponent: Python's float() also
# takes "1_0.5", "+0.1", " 2", "nan", "inf" and non-ASCII digits
_FLOAT_TEXT = re.compile(r"-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")


def parse_float(text: str) -> float:
    """`text` as a float if it is plain decimal (`_FLOAT_TEXT`); else ValueError."""
    if not _FLOAT_TEXT.fullmatch(text):
        raise ValueError(f"not a plain decimal number: {text!r}")
    return float(text)

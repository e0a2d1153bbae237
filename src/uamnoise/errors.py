"""Exception hierarchy and check_number, the one rule for numbers from outside."""
import sys
from numbers import Integral, Real


class UamError(Exception):
    """Base class for all package errors."""


class ValidationError(UamError):
    """Bad input data: malformed files, referential-integrity failures,
    out-of-range arguments. CLI exit code 1."""


class NoPathError(ValidationError):
    """Destination unreachable from origin in the corridor network."""


class FitError(ValidationError):
    """Regression fit cannot proceed (rank-deficient design)."""


class SimulationError(UamError):
    """Contract violation or runtime failure inside a running episode.
    CLI exit code 2."""


def check_number(name: str, value, low=None, high=None, above=False, integer=False):
    """value, unchanged, once it is a number (an int if integer is set; never a
    bool) that is finite and within the bounds given: at least low, or above it
    if above is set, and at most high. Otherwise raises ValidationError."""
    if isinstance(value, bool) or not isinstance(value, Integral if integer else Real):
        raise ValidationError(f"{name} must be {'an integer' if integer else 'a number'}, "
                              f"got {value!r}")
    # Finite as a float: NaN, the infinities and ints beyond the float range fail.
    if not (-sys.float_info.max <= value <= sys.float_info.max
            and (low is None or (value > low if above else value >= low))
            and (high is None or value <= high)):
        rule = ("" if low is None else f" and in [{low}, {high}]" if high is not None
                else f" and {'above' if above else 'at least'} {low}" if low != 0
                else " and positive" if above else " and non-negative")
        raise ValidationError(f"{name} must be finite{rule}, got {value}")
    return value


def to_number(value, kind=float):
    """kind(value), or value unchanged when kind cannot convert it or it is a
    bool, for check_number to reject and report."""
    try:
        return value if isinstance(value, bool) else kind(value)
    except (TypeError, ValueError, OverflowError):
        return value

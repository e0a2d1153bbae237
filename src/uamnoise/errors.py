"""Exception hierarchy and the rules for input from outside: check_number for
numbers, check_type and check_object for the shape of a JSON document, and
read_json for reading one."""
import json
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


#: The JSON kinds a shape names, by the Python type json decodes them to.
_JSON_KINDS = {dict: "a JSON object", list: "a list", str: "a string"}


def check_type(name: str, value, kind: type):
    """value, unchanged, once it is of kind (dict, list or str). Otherwise
    raises ValidationError naming name, its path in the document ('' for the
    document itself), and value, or for a container only its type."""
    if not isinstance(value, kind):
        scalar = isinstance(value, (str, int, float, type(None)))
        raise ValidationError(f"{name or 'the document'} must be {_JSON_KINDS[kind]}, "
                              f"got {repr(value) if scalar else type(value).__name__}")
    return value


def check_object(name: str, value, keys, closed=False) -> dict:
    """value, unchanged, once it is a JSON object holding every key of keys
    and, if closed, no other key. A fault raises ValidationError naming the
    path of the key ('unknown train_config.momentum', 'missing links[3].from')."""
    check_type(name, value, dict)
    prefix = f"{name}." if name else ""
    for fault, names in (("unknown", sorted(set(value) - set(keys)) if closed else []),
                         ("missing", [key for key in keys if key not in value])):
        if names:
            raise ValidationError(f"{fault} {prefix}{names[0]}")
    return value


def read_json(path, what: str):
    """The JSON document in the file at path. A file that cannot be opened or
    decoded raises ValidationError: 'cannot read <what> <path>: ...'."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # not JSON, or not text
        raise ValidationError(f"cannot read {what} {path}: malformed JSON: {exc}") from exc


def to_number(value, kind=float):
    """kind(value), or value unchanged when kind cannot convert it or it is a
    bool, for check_number to reject and report."""
    try:
        return value if isinstance(value, bool) else kind(value)
    except (TypeError, ValueError, OverflowError):
        return value

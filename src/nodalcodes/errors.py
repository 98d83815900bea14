"""Exception hierarchy shared by all modules, and the JSON file helpers.

The CLI maps these onto exit codes: usage problems exit 1, anything
derived from :class:`InputError` exits 2, and failed certifications
exit 3 (the latter are reported values, not exceptions).
"""

import json


class NodalcodesError(Exception):
    """Base class for all errors raised by this package."""


class InputError(NodalcodesError):
    """Invalid data or parameters supplied by the caller."""


class DataError(InputError):
    """Malformed or inconsistent input data (bad matrix, duplicate points, ...)."""


def read_json(path: str, what: str):
    """The JSON value in the file at ``path``; ``what`` names the file
    ("node file", ...) in the :class:`DataError` raised when it cannot be
    read or parsed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {what}: {exc}") from exc
    # ValueError covers JSONDecodeError, UnicodeDecodeError and the refusal
    # of an integer literal longer than sys.get_int_max_str_digits()
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{what} is not valid JSON: {exc}") from exc


def json_fields(data, what: str, *keys: str) -> list:
    """The values of ``keys`` in the JSON object ``data``, or a
    :class:`DataError` naming ``what`` if it is not an object or lacks one."""
    if not isinstance(data, dict):
        raise DataError(f"{what} must be a JSON object, got {type(data).__name__}")
    try:
        return [data[key] for key in keys]
    except KeyError as exc:
        raise DataError(f"{what} is missing {exc}") from exc


class DomainError(InputError):
    """Parameter outside the mathematical domain of an operation."""


class ResourceError(InputError):
    """Request exceeds a documented size cap (enumeration or bit-width limits)."""


class InconsistencyError(InputError):
    """Inputs violate a relation that holds for all genuine configurations."""


class ParseError(DataError):
    """Syntax error in a polynomial string; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class HomogeneityError(DataError):
    """Polynomial input mixes two distinct term degrees."""

    def __init__(self, degree_a: int, degree_b: int):
        super().__init__(
            f"polynomial is not homogeneous: found terms of degree {degree_a} and {degree_b}"
        )
        self.degrees = (degree_a, degree_b)

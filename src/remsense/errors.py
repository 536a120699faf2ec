"""Exception types raised across the package.

Everything derives from :class:`RemSenseError` so callers can catch the
package's failures with a single except clause.  Errors that indicate bad
input data additionally derive from ``ValueError``.
"""

import csv
import numbers

import numpy as np


class RemSenseError(Exception):
    """Base class for all errors raised by this package."""


class RangeError(RemSenseError, ValueError):
    """A coordinate or physical quantity is outside its valid range."""


def _check_real(name, v, positive=None):
    """Raise RangeError unless the value ``v`` of ``name`` is a finite real
    number (not a bool, string or None) and, when ``positive`` is given,
    > 0 (True) or >= 0 (False)."""
    bound = {None: "", True: "positive and ", False: "non-negative and "}
    if (isinstance(v, bool) or not isinstance(v, numbers.Real)
            or not (np.isfinite(v) and (positive is None
                                        or (v > 0 if positive else v >= 0)))):
        raise RangeError(f"{name} must be {bound[positive]}finite, got {v!r}")


def _real(d: dict, key: str, default=None) -> float:
    """``d[key]``, or ``default`` when given and the key is absent, as a
    float once :func:`_check_real` accepts it: a string or a bool is
    rejected, not converted."""
    value = d[key] if default is None else d.get(key, default)
    _check_real(key, value)
    return float(value)


def _check_int(name, v, low):
    """Raise RangeError unless the value ``v`` of ``name`` is an integer
    >= ``low``."""
    if (isinstance(v, bool) or not isinstance(v, (int, np.integer))
            or v < low):
        raise RangeError(f"{name} must be an integer >= {low}, got {v!r}")


class DegenerateLink(RemSenseError, ValueError):
    """Transmitter and receiver coincide; link geometry is undefined."""


class InsufficientData(RemSenseError, ValueError):
    """Too few samples (or bins) to carry out the requested estimate."""


class FitDiverged(RemSenseError):
    """Model fit ended with a residual too large to trust."""


class SingularSystem(RemSenseError):
    """A linear system could not be solved, even after a jitter retry."""


class DuplicateLocations(RemSenseError, ValueError):
    """Two samples share a location in a context that forbids it.

    Attributes:
        first, second: identifiers (``seq`` values) of the offending pair.
    """

    def __init__(self, first, second, message=None):
        self.first = first
        self.second = second
        if message is None:
            message = (
                f"samples {first} and {second} share a location; "
                "add measurement noise (sigma_gp > 0) or drop one"
            )
        super().__init__(message)


class TooManyPoints(RemSenseError, ValueError):
    """Point count exceeds the dense-factorization limit."""


class DegenerateExtent(RemSenseError, ValueError):
    """Samples do not span enough area to lay out a grid."""


class NoSupportedBins(RemSenseError):
    """No direction bin collected enough samples to calibrate."""


class ParseError(RemSenseError, ValueError):
    """A CSV or config document is malformed.

    Attributes:
        line: 1-based line number of the offending row, when known.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _read_csv_rows(path, header, parse):
    """Yield ``(line number, fields)`` per data row of a CSV file.

    Line 1 must be ``header``; blank rows are skipped.  Each other row
    needs one field per header column, converted by the matching entry
    of ``parse``.  Anything else raises :class:`ParseError` at its line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None or [h.strip() for h in first] != header:
            raise ParseError(f"expected header {','.join(header)}", line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"expected {len(header)} columns, got {len(row)}",
                    line=lineno,
                )
            try:
                fields = [f(v) for f, v in zip(parse, row)]
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
            yield lineno, fields

"""Exact rational parsing and serialization helpers, the conversion of a
Fraction to an mpmath real, the range check of the audit constants, and
the refusal of float reports past the float64 range.

All model weights in this package are fractions.Fraction values; JSON and
CSV carry them as "p/q" strings so nothing is ever rounded on disk.
mpmath serves only the log-scale reports, so it is imported inside the
functions that build its values and loads with the first such report;
log_precision is the one place those reports enter its working precision.
"""

from __future__ import annotations

import contextlib
import math
import re
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import mpmath

# Working precision of every log-scale report taken of an exact value.
LOG_PRECISION_BITS = 128
# Fraction("1e999999999") spends minutes building 10^999999999, so a
# decimal exponent beyond Python's 4,300-digit int-string limit is refused
MAX_DECIMAL_EXPONENT = 4300
TOO_MANY_DIGITS = (f"an output integer has more than {MAX_DECIMAL_EXPONENT} "
                   f"digits, past Python's int-to-string limit")
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*$")


def parse_rational(text: str) -> Fraction:
    """Parse "3/4", "2", "0.25", or "-1/3" into an exact Fraction; "1e3"
    too, with the exponent at most MAX_DECIMAL_EXPONENT in magnitude."""
    exponent = _EXPONENT.search(text)
    digits = exponent.group(1).replace("_", "").lstrip("0") if exponent else ""
    if len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or \
            int(digits or 0) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"decimal exponent of {text!r} exceeds "
                         f"{MAX_DECIMAL_EXPONENT} in magnitude")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def format_rational(x: Fraction) -> str:
    """Render a Fraction as "p/q" (or "p" when the denominator is 1)."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


@contextlib.contextmanager
def log_precision():
    """Import mpmath, enter its working precision of LOG_PRECISION_BITS
    and yield the module: the setting of every log-scale report."""
    import mpmath

    with mpmath.workprec(LOG_PRECISION_BITS):
        yield mpmath


def to_mpf(x: Fraction) -> mpmath.mpf:
    """The Fraction as an mpmath real at the current precision; the one
    conversion every log-scale report takes of an exact value."""
    import mpmath

    return mpmath.mpf(x.numerator) / x.denominator


def log_rational(x: Fraction) -> mpmath.mpf:
    """log x of a nonnegative Fraction at the current mpmath precision;
    -inf at 0."""
    import mpmath

    if x == 0:
        return mpmath.mpf("-inf")
    return mpmath.log(to_mpf(x))


def require_positive_finite(**constants) -> None:
    """Raise ValueError naming the first constant outside (0, inf); NaN
    fails too, since it compares false against both ends."""
    for name, value in constants.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")


@contextlib.contextmanager
def float64_range(what: str):
    """Turn an OverflowError raised inside the block (float() of a huge
    Fraction, math.exp or a float power past the range) into a ValueError
    saying that `what` exceeds the float64 range."""
    try:
        yield
    except OverflowError as exc:
        raise ValueError(f"{what} exceeds the float64 range "
                         f"(max about 1.8e308)") from exc

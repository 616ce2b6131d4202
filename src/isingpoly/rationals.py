"""Exact rational parsing and serialization helpers.

All model weights in this package are fractions.Fraction values; JSON and
CSV carry them as "p/q" strings so nothing is ever rounded on disk.
"""

from __future__ import annotations

from fractions import Fraction

# Working precision of every log-scale report taken of an exact value.
LOG_PRECISION_BITS = 128


def parse_rational(text: str) -> Fraction:
    """Parse "3/4", "2", "0.25", or "-1/3" into an exact Fraction."""
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

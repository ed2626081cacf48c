"""Exact rational parsing and fixed-point display.

All arithmetic in this package runs on fractions.Fraction. Floats are
rejected on input and produced only for display, never fed back into a
computation.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import FormatError


def parse_rational(value) -> Fraction:
    """Parse a bare int or a "p" / "p/q" string into a Fraction in lowest terms."""
    if isinstance(value, str):  # the form of files, so tested first
        text = value.strip()
        # int() also reads digit-group underscores and non-ASCII digits
        if text.isascii() and "_" not in text:
            num, slash, den = text.partition("/")
            try:
                return Fraction(int(num), int(den)) if slash else Fraction(int(num))
            except (ValueError, ZeroDivisionError) as exc:
                raise FormatError(f"not a rational: {value!r}") from exc
        raise FormatError(f"not a rational: {value!r}")
    if isinstance(value, bool):
        raise FormatError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise FormatError(
        f"not a rational: {value!r} (floats are rejected, write 'p/q' strings)"
    )


def parse_rationals(values, what: str) -> tuple[Fraction, ...]:
    """Parse a JSON list of rationals; `what` names the field in the error."""
    if not isinstance(values, list):
        raise FormatError(f"{what} must be a list, got {values!r}")
    return tuple(parse_rational(v) for v in values)


def decimal_str(value: Fraction, digits: int) -> str:
    """Fixed-point decimal rendering with the given digit count (display only)."""
    if digits < 0:
        raise ValueError("digit count must be nonnegative")
    scaled = round(value * 10**digits)
    sign = "-" if scaled < 0 else ""
    text = str(abs(scaled))
    if digits == 0:
        return sign + text
    text = text.rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def as_fraction(value) -> Fraction:
    """The one coercion of rationals passed in memory: a Fraction as it is,
    anything else through `parse_rational`, so that floats, bools and
    decimal strings raise FormatError."""
    return value if type(value) is Fraction else parse_rational(value)


def over_one_denominator(values) -> tuple[tuple[int, ...], int]:
    """Rationals as integer numerators over the lcm of their denominators."""
    values = tuple(map(as_fraction, values))
    den = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den

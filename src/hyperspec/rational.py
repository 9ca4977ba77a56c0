"""Exact rational scalars.

Rationals are fractions.Fraction throughout; nothing in this package
ever rounds through a float.  The text form is "p/q" with the "/q"
omitted for integers, used by every JSON surface.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByZero, InputError


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text: str) -> Fraction:
    parts = text.strip().split("/")
    try:
        if len(parts) == 1:
            return Fraction(int(parts[0]))
        if len(parts) == 2:
            num, den = int(parts[0]), int(parts[1])
            if den == 0:
                raise DivisionByZero("rational with zero denominator")
            return Fraction(num, den)
    except ValueError as exc:
        raise InputError(f"malformed rational {text!r}") from exc
    raise InputError(f"malformed rational {text!r}")

"""Exact rational scalars.

Rationals are fractions.Fraction throughout; nothing in this package
ever rounds through a float.  The text form is "p/q" with the "/q"
omitted for integers, used by every JSON surface.  Every integer read
from text goes through parse_int, which refuses int()'s "1_0" and "٣".
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByZero, InputError


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_int(text: str) -> int:
    """The integer [+-]?[0-9]+ spells; ValueError for anything else."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_rational(text: str) -> Fraction:
    parts = [part.strip() for part in text.split("/")]
    try:
        if len(parts) == 1:
            return Fraction(parse_int(parts[0]))
        if len(parts) == 2:
            num, den = parse_int(parts[0]), parse_int(parts[1])
            if den == 0:
                raise DivisionByZero("rational with zero denominator")
            return Fraction(num, den)
    except ValueError as exc:
        raise InputError(f"malformed rational {text!r}") from exc
    raise InputError(f"malformed rational {text!r}")

"""Exact polynomials in one variable.

UniPoly stores ascending coefficients with the trailing one nonzero, so
equal polynomials compare equal structurally; the zero polynomial is the
empty tuple and reports degree -1.  The homogeneous systems fed to the
resultant machinery hold plain dicts from exponent tuples to
coefficients (macaulay.PolySystem).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .rational import format_rational, parse_rational


def _strip(coeffs: Iterable[Fraction]) -> tuple[Fraction, ...]:
    out = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class UniPoly:
    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _strip(self.coeffs))

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def constant(cls, value: Fraction | int) -> "UniPoly":
        return cls((Fraction(value),))

    @classmethod
    def monomial(cls, degree: int, coeff: Fraction | int = 1) -> "UniPoly":
        return cls((Fraction(0),) * degree + (Fraction(coeff),))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    def evaluate(self, x: Fraction | int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            tuple(self.coefficient(i) + other.coefficient(i) for i in range(n))
        )

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero() or other.is_zero():
            return UniPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(tuple(out))

    def scale(self, factor: Fraction | int) -> "UniPoly":
        f = Fraction(factor)
        return UniPoly(tuple(c * f for c in self.coeffs))

    def content(self) -> Fraction:
        """gcd of the coefficients as a positive rational; 0 for the zero polynomial."""
        if self.is_zero():
            return Fraction(0)
        num = 0
        den = 1
        for c in self.coeffs:
            num = gcd(num, abs(c.numerator))
            den = den * c.denominator // gcd(den, c.denominator)
        return Fraction(num, den)

    def normalized(self) -> "UniPoly":
        """Content-free form with positive leading coefficient."""
        if self.is_zero():
            return self
        factor = self.content()
        if self.coeffs[-1] < 0:
            factor = -factor
        return self.scale(1 / factor)

    def to_coeff_strings(self) -> list[str]:
        return [format_rational(c) for c in self.coeffs]

    @classmethod
    def from_coeff_strings(cls, items: Sequence[str]) -> "UniPoly":
        return cls(tuple(parse_rational(s) for s in items))

    def pretty(self, var: str = "x") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for power in range(self.degree, -1, -1):
            c = self.coefficient(power)
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if power == 0:
                body = format_rational(mag)
            else:
                head = "" if mag == 1 else f"{format_rational(mag)}*"
                body = f"{head}{var}" if power == 1 else f"{head}{var}^{power}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

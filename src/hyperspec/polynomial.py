"""Exact polynomials in one and several variables.

UniPoly stores ascending coefficients with the trailing one nonzero, so
equal polynomials compare equal structurally; the zero polynomial is the
empty tuple and reports degree -1.  MultiPoly stores a mapping from
exponent tuples to nonzero coefficients and is the carrier for the
homogeneous systems fed to the resultant machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

from .errors import DimMismatch, DuplicateAbscissa, MathError
from .rational import format_rational, parse_rational


def _strip(coeffs: Iterable[Fraction]) -> tuple[Fraction, ...]:
    out = [Fraction(c) for c in coeffs]
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


def interpolate(points: Sequence[tuple[Fraction | int, Fraction | int]]) -> UniPoly:
    """Unique polynomial of degree < len(points) through the points.

    Newton's divided differences; the result is re-evaluated at every
    node as a self-check, so a bad node list cannot slip through.
    """
    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(y) for _, y in points]
    if len(set(xs)) != len(xs):
        raise DuplicateAbscissa("interpolation nodes must have distinct abscissae")
    if not points:
        return UniPoly.zero()

    diffs = list(ys)
    coeffs = [diffs[0]]
    for level in range(1, len(xs)):
        for i in range(len(xs) - level):
            diffs[i] = (diffs[i + 1] - diffs[i]) / (xs[i + level] - xs[i])
        diffs.pop()
        coeffs.append(diffs[0])

    poly = UniPoly.zero()
    basis = UniPoly.constant(1)
    for i, c in enumerate(coeffs):
        poly = poly + basis.scale(c)
        basis = basis * UniPoly((-xs[i], Fraction(1)))

    for x, y in zip(xs, ys):
        if poly.evaluate(x) != y:
            raise MathError("interpolation failed to reproduce its nodes")
    return poly


@dataclass(frozen=True)
class MultiPoly:
    """Multivariate polynomial as exponent-tuple -> coefficient."""

    nvars: int
    terms: Mapping[tuple[int, ...], Fraction] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for exp, coeff in self.terms.items():
            if len(exp) != self.nvars:
                raise DimMismatch(
                    f"exponent {exp} has {len(exp)} entries, expected {self.nvars}"
                )
            c = Fraction(coeff)
            if c != 0:
                clean[tuple(int(e) for e in exp)] = c
        object.__setattr__(self, "terms", clean)

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(exp) for exp in self.terms)

    def is_homogeneous(self, degree: int) -> bool:
        return all(sum(exp) == degree for exp in self.terms)

    def evaluate(self, point: Sequence[Fraction | int]) -> Fraction:
        if len(point) != self.nvars:
            raise DimMismatch("evaluation point has wrong arity")
        vals = [Fraction(v) for v in point]
        acc = Fraction(0)
        for exp, coeff in self.terms.items():
            term = coeff
            for v, e in zip(vals, exp):
                term *= v**e
            acc += term
        return acc

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if self.nvars != other.nvars:
            raise DimMismatch("cannot add polynomials in different variable counts")
        merged = dict(self.terms)
        for exp, coeff in other.terms.items():
            merged[exp] = merged.get(exp, Fraction(0)) + coeff
        return MultiPoly(self.nvars, merged)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        if self.nvars != other.nvars:
            raise DimMismatch("cannot multiply polynomials in different variable counts")
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return MultiPoly(self.nvars, out)

    def scale(self, factor: Fraction | int) -> "MultiPoly":
        f = Fraction(factor)
        return MultiPoly(self.nvars, {e: c * f for e, c in self.terms.items()})

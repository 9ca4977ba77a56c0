"""Dense resultants of square homogeneous polynomial systems.

For n homogeneous polynomials in n variables of degrees d_1..d_n, build
the classical pair of matrices on the monomials of total degree
D = sum(d_i - 1) + 1: each monomial mu owns one row, filled with the
coefficients of (mu / x_i**d_i) * f_i for the least variable index i
with x_i**d_i dividing mu.  The resultant is det(M) / det(M') where M'
restricts rows and columns to the monomials divisible by x_i**d_i for
two or more distinct i.

Every resultant goes through one integer path.  A system whose
coefficients are linear in a parameter lambda is tabulated once with
its rows scaled to integers, and each integer lambda then costs two
integer determinants; a numeric system is the lambda-free case,
evaluated at lambda = 0.  det(M') vanishes for many sparse systems;
there the value comes from Canny's generalized characteristic
polynomial (J. Symbolic Comput. 9, 1990) instead: the quotient
charpoly(M) / charpoly(M') has a monic divisor, and its constant term
is the resultant up to sign.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from typing import Sequence

from .determinants import det_exact_int
from .errors import (
    CapExceeded,
    DimMismatch,
    InputError,
    NotHomogeneous,
    NotSquareSystem,
)
from .modular import (
    charpoly_mod,
    crt_combine,
    poly_divexact_mod,
    primes_for_bound,
    symmetric_residue,
)
from .polynomial import MultiPoly


@dataclass(frozen=True)
class PolySystem:
    """Square homogeneous system: polys[i] is homogeneous of degrees[i]."""

    nvars: int
    polys: tuple[MultiPoly, ...]
    degrees: tuple[int, ...]

    def __post_init__(self):
        if len(self.polys) != self.nvars or len(self.degrees) != self.nvars:
            raise NotSquareSystem(
                f"{len(self.polys)} polynomials, {len(self.degrees)} degrees, "
                f"{self.nvars} variables"
            )
        for i, (poly, degree) in enumerate(zip(self.polys, self.degrees)):
            if degree < 1:
                raise InputError(f"degree of polynomial {i} must be positive")
            if poly.nvars != self.nvars:
                raise DimMismatch(
                    f"polynomial {i} lives in {poly.nvars} variables, "
                    f"system has {self.nvars}"
                )
            if not poly.is_homogeneous(degree):
                raise NotHomogeneous(
                    f"polynomial {i} is not homogeneous of degree {degree}"
                )


def monomial_basis(nvars: int, total: int) -> tuple[tuple[int, ...], ...]:
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), total):
        exp = [0] * nvars
        for v in combo:
            exp[v] += 1
        out.append(tuple(exp))
    return tuple(sorted(out))


@dataclass(frozen=True)
class MacaulayStructure:
    """Combinatorial skeleton shared by every system with these degrees."""

    nvars: int
    degrees: tuple[int, ...]
    total_degree: int
    monomials: tuple[tuple[int, ...], ...]
    assignment: tuple[int, ...]
    nonreduced: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.monomials)


@lru_cache(maxsize=None)
def _column_index(nvars: int, total: int) -> dict[tuple[int, ...], int]:
    return {m: j for j, m in enumerate(monomial_basis(nvars, total))}


def _assign(mono: tuple[int, ...], degrees: tuple[int, ...]) -> int:
    for i, d in enumerate(degrees):
        if mono[i] >= d:
            return i
    raise AssertionError("degree-D monomial with no owning variable")


@lru_cache(maxsize=None)
def macaulay_structure(nvars: int, degrees: tuple[int, ...]) -> MacaulayStructure:
    total = sum(d - 1 for d in degrees) + 1
    monos = monomial_basis(nvars, total)
    assignment = tuple(_assign(m, degrees) for m in monos)
    nonreduced = tuple(
        j
        for j, m in enumerate(monos)
        if sum(1 for i, d in enumerate(degrees) if m[i] >= d) >= 2
    )
    return MacaulayStructure(nvars, degrees, total, monos, assignment, nonreduced)


def macaulay_dim(nvars: int, degrees: Sequence[int]) -> int:
    total = sum(d - 1 for d in degrees) + 1
    return comb(total + nvars - 1, nvars - 1)


def check_dim_cap(nvars: int, degrees: Sequence[int], dim_cap: int) -> None:
    size = macaulay_dim(nvars, degrees)
    if size > dim_cap:
        raise CapExceeded(f"matrix dimension {size} exceeds cap {dim_cap}")


@dataclass(frozen=True)
class LambdaSystem:
    """Square homogeneous system whose coefficients are linear in lambda."""

    nvars: int
    degrees: tuple[int, ...]
    const: tuple[MultiPoly, ...]
    linear: tuple[MultiPoly, ...]

    @classmethod
    def constant(cls, system: PolySystem) -> "LambdaSystem":
        """The numeric system with a zero lambda part."""
        zero = MultiPoly(system.nvars)
        return cls(system.nvars, system.degrees, system.polys, (zero,) * system.nvars)

    def at(self, lam: Fraction | int) -> PolySystem:
        polys = tuple(
            c + l.scale(lam) for c, l in zip(self.const, self.linear)
        )
        return PolySystem(self.nvars, polys, self.degrees)


class _FillTable:
    """Integer evaluation tables for one lambda-linear system.

    Rows are scaled by the denominator lcm of their polynomial once, so
    each sample point assembles two integer matrices directly; the two
    accumulated scales divide back out of the determinant quotient.
    """

    def __init__(self, lsys: LambdaSystem):
        structure = macaulay_structure(lsys.nvars, lsys.degrees)
        index = _column_index(lsys.nvars, structure.total_degree)
        self.size = structure.size

        poly_terms: list[list[tuple[tuple[int, ...], int, int]]] = []
        poly_scale: list[int] = []
        for c_poly, l_poly in zip(lsys.const, lsys.linear):
            exps = set(c_poly.terms) | set(l_poly.terms)
            scale = 1
            pairs = []
            for exp in exps:
                c0 = c_poly.terms.get(exp, Fraction(0))
                c1 = l_poly.terms.get(exp, Fraction(0))
                pairs.append((exp, c0, c1))
                scale = lcm(scale, c0.denominator, c1.denominator)
            poly_terms.append(
                [(exp, int(c0 * scale), int(c1 * scale)) for exp, c0, c1 in pairs]
            )
            poly_scale.append(scale)
        self.poly_terms = poly_terms

        self.rows: list[list[tuple[int, int, int]]] = []
        scale_full = 1
        for r, mono in enumerate(structure.monomials):
            i = structure.assignment[r]
            shift = list(mono)
            shift[i] -= lsys.degrees[i]
            row = [
                (index[tuple(s + e for s, e in zip(shift, exp))], i0, i1)
                for exp, i0, i1 in poly_terms[i]
            ]
            self.rows.append(row)
            scale_full *= poly_scale[i]
        self.scale_full = scale_full

        minor_pos = {c: j for j, c in enumerate(structure.nonreduced)}
        self.minor_rows = [
            [(minor_pos[c], i0, i1) for c, i0, i1 in self.rows[r] if c in minor_pos]
            for r in structure.nonreduced
        ]
        self.scale_minor = 1
        for r in structure.nonreduced:
            self.scale_minor *= poly_scale[structure.assignment[r]]

    def vanishing_poly(self, lam: int) -> bool:
        for terms in self.poly_terms:
            if all(i0 + lam * i1 == 0 for _, i0, i1 in terms):
                return True
        return False

    def fill(self, lam: int) -> tuple[list[list[int]], list[list[int]]]:
        full = []
        for row_terms in self.rows:
            row = [0] * self.size
            for col, i0, i1 in row_terms:
                row[col] = i0 + lam * i1
            full.append(row)
        minor_size = len(self.minor_rows)
        minor = []
        for row_terms in self.minor_rows:
            row = [0] * minor_size
            for col, i0, i1 in row_terms:
                row[col] = i0 + lam * i1
            minor.append(row)
        return full, minor


def _charpoly_quotient(
    full: list[list[int]], minor: list[list[int]], prime_seed: int
) -> list[int]:
    """Ascending integer coefficients of charpoly(full) / charpoly(minor).

    Every root of the quotient is an eigenvalue of full, so by Gershgorin
    its absolute value is at most R, the largest absolute row sum, and
    the coefficient of x**j is at most C(d, j) * R**(d - j); the primes
    cover twice that bound.
    """
    d = len(full) - len(minor)
    radius = max((sum(abs(v) for v in row) for row in full), default=0)
    bound = max(comb(d, j) * radius ** (d - j) for j in range(d + 1))
    primes = primes_for_bound(2 * bound, seed=prime_seed)
    residues = [
        poly_divexact_mod(charpoly_mod(full, p), charpoly_mod(minor, p), p)
        for p in primes
    ]
    return [
        symmetric_residue(*crt_combine(column, primes)) for column in zip(*residues)
    ]


def _eval_point(table: _FillTable, lam: int, prime_seed: int) -> Fraction:
    """Exact resultant value at one integer lambda.

    When det(M') vanishes, the value is the generalized characteristic
    polynomial's constant term: perturbing each scaled polynomial by
    -s * x_i**d_i subtracts s from the diagonal of M and M', so
    Res(F - s x^d) = (-1)**(N - N') * charpoly(M) / charpoly(M'), whose
    monic divisor never vanishes, and Res(F) is that quotient at s = 0.
    """
    if table.vanishing_poly(lam):
        return Fraction(0)
    full, minor = table.fill(lam)
    det_minor = det_exact_int(minor, prime_seed=prime_seed)
    if det_minor != 0:
        det_full = det_exact_int(full, prime_seed=prime_seed)
        return Fraction(det_full * table.scale_minor, det_minor * table.scale_full)
    constant = _charpoly_quotient(full, minor, prime_seed)[0]
    sign = (-1) ** (len(full) - len(minor))
    return Fraction(sign * constant * table.scale_minor, table.scale_full)


def resultant_value(
    system: PolySystem, *, prime_seed: int = 0, dim_cap: int | None = None
) -> Fraction:
    """Exact resultant of one numeric system."""
    if dim_cap is not None:
        check_dim_cap(system.nvars, system.degrees, dim_cap)
    return _eval_point(_FillTable(LambdaSystem.constant(system)), 0, prime_seed)

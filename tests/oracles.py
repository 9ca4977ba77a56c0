"""Independent reference computations used by the acceptance suite.

Everything here avoids the library's resultant machinery on purpose:
cofactor expansion over the polynomial ring is slow but unarguable.
Likewise the simplex listing walks vertex sets instead of the library's
bitmask table, and interpolation runs Newton's divided differences in
Fractions instead of the library's Lagrange basis modulo primes.  The
whole-matrix routes reduce a Macaulay table's M and M' modulo primes as
whole dense matrices, without its split into diagonal blocks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

from hyperspec.errors import MathError
from hyperspec.modular import _det_mod, _inverses, charpoly_mod, poly_divexact_mod
from hyperspec.polynomial import UniPoly


class DuplicateAbscissa(MathError):
    """Interpolation nodes with a repeated abscissa."""


def poly_det(entries: list[list[UniPoly]]) -> UniPoly:
    n = len(entries)
    if n == 0:
        return UniPoly.constant(1)
    if n == 1:
        return entries[0][0]
    total = UniPoly.zero()
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in entries[1:]]
        term = entries[0][j] * poly_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def classical_char_poly(rows: list[list[Fraction]]) -> UniPoly:
    """det(L*I - A) expanded by cofactors, no elimination tricks."""
    n = len(rows)
    lam = UniPoly.monomial(1)
    entries = [
        [
            (lam if i == j else UniPoly.zero()) + UniPoly.constant(-rows[i][j])
            for j in range(n)
        ]
        for i in range(n)
    ]
    return poly_det(entries)


def int_det(rows: list[list[int]]) -> int:
    """Cofactor determinant over the integers."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * int_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def simplices(h) -> list[tuple[int, ...]]:
    """(k+1)-sets of vertices all of whose k-subsets are edges, found by
    walking vertex combinations rather than edge bitmasks."""
    if h.k + 1 > h.n:
        return []
    return [
        group
        for group in combinations(range(1, h.n + 1), h.k + 1)
        if all(sub in h.edges for sub in combinations(group, h.k))
    ]


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


def dense_stack(table, primes: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """The whole Macaulay matrices M(lams[i]) modulo primes[i], a
    (P, N, N) stack scattered from a table's entry arrays."""
    moduli = primes[:, None]
    i0, i1 = table.i0[: len(table.row)], table.i1[: len(table.row)]  # without the final 0
    values = (i0 % moduli + lams[:, None] % moduli * (i1 % moduli)) % moduli
    stack = np.zeros((len(primes), table.size, table.size), dtype=np.int64)
    stack[:, table.row, table.col] = values
    return stack


def divisor_stack(table, stack: np.ndarray) -> np.ndarray:
    """M' of each layer: its principal submatrix on the non-reduced monomials."""
    return stack[:, table.nonreduced[:, None], table.nonreduced]


def whole_quotient_mod(table, primes: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """charpoly(M) / charpoly(M') at each layer's lambda modulo its prime."""
    full = dense_stack(table, primes, lams)
    return poly_divexact_mod(
        charpoly_mod(full, primes), charpoly_mod(divisor_stack(table, full), primes), primes
    )


def whole_det_ratio_mod(table, primes: np.ndarray, lam: int) -> tuple[np.ndarray, np.ndarray]:
    """det(M) / det(M') at one lambda modulo each prime, and the mask of
    the primes not dividing det(M')."""
    full = dense_stack(table, primes, np.full(len(primes), lam, dtype=np.int64))
    det_minor = _det_mod(divisor_stack(table, full), primes)
    return _det_mod(full, primes) * _inverses(det_minor, primes) % primes, det_minor != 0

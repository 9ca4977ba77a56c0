"""Independent reference computations used by the acceptance suite.

Everything here avoids the library's resultant machinery on purpose:
cofactor expansion over the polynomial ring is slow but unarguable.
Likewise the simplex listing walks vertex sets instead of the library's
bitmask table.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from hyperspec.polynomial import UniPoly


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

"""Exact determinants: fraction-free, modular CRT, and the dispatcher."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

from hyperspec.determinants import (
    bareiss_det,
    det_exact_int,
    hadamard_bound,
)
from hyperspec.errors import InputError
from hyperspec.macaulay import PolySystem, resultant_value
from hyperspec.polynomial import MultiPoly
import pytest


def _sign(perm):
    flips = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                flips += 1
    return -1 if flips % 2 else 1


def test_known_values():
    assert det_exact_int([[1, 0], [0, 1]]) == 1
    assert det_exact_int([[1, 2], [3, 4]]) == -2
    assert det_exact_int([]) == 1  # empty matrix, by convention


def test_identity_3x3():
    rows = [[int(i == j) for j in range(3)] for i in range(3)]
    assert det_exact_int(rows) == 1


def test_repeated_row_is_singular():
    rng = random.Random(0)
    for n in (8, 16):  # both sides of the Bareiss/modular switch
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n - 1)]
        rows.append(list(rows[3]))
        assert det_exact_int(rows) == 0


def test_rejects_ragged():
    with pytest.raises(InputError):
        det_exact_int([[1, 2], [3]])
    with pytest.raises(InputError):
        det_exact_int([[1] * 14] * 13 + [[1] * 13])


def test_permutation_sign():
    for perm in permutations(range(4)):
        rows = [[int(perm[i] == j) for j in range(4)] for i in range(4)]
        assert det_exact_int(rows) == _sign(perm)
        assert det_exact_int(rows, bareiss_max_dim=0) == _sign(perm)


def test_bareiss_known():
    assert bareiss_det([[2, 0], [0, 3]]) == 6
    assert bareiss_det([[0, 1], [1, 0]]) == -1
    assert bareiss_det([[1]]) == 1
    assert bareiss_det([]) == 1


def test_hadamard_bounds_the_determinant():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randrange(1, 6)
        rows = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
        assert abs(bareiss_det(rows)) <= hadamard_bound(rows)
    assert hadamard_bound([[0, 0], [1, 2]]) == 0


def test_modular_path_agrees_with_bareiss():
    # above dimension 12 the dispatcher switches to the CRT path
    rng = random.Random(31)
    for n in (13, 16, 20):
        rows = [[rng.randint(-99, 99) for _ in range(n)] for _ in range(n)]
        assert det_exact_int(rows) == bareiss_det(rows)


def _linear_det(rows):
    # the resultant of n linear forms is the determinant of their
    # coefficient rows; the Macaulay table clears each row's denominators
    n = len(rows)
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    polys = tuple(MultiPoly(n, dict(zip(unit, row))) for row in rows)
    return resultant_value(PolySystem(n, polys, (1,) * n))


def test_rational_rows_any_dimension():
    rng = random.Random(17)
    for n in (2, 5, 13, 20):
        rows = [
            [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(n)]
            for _ in range(n)
        ]
        direct = _cofactor_det(rows) if n <= 5 else None
        value = _linear_det(rows)
        if direct is not None:
            assert value == direct
        # multiplying one row by 7 scales the determinant by 7
        scaled = [list(r) for r in rows]
        scaled[0] = [7 * v for v in scaled[0]]
        assert _linear_det(scaled) == 7 * value


def test_integer_rows_match_cofactor_oracle():
    rng = random.Random(19)
    for n in (2, 5):
        rows = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(n)]
        assert det_exact_int(rows) == _cofactor_det(rows)
        assert det_exact_int(rows, bareiss_max_dim=0) == _cofactor_det(rows)


def test_prime_seed_does_not_change_values():
    rng = random.Random(23)
    rows = [[rng.randint(-99, 99) for _ in range(14)] for _ in range(14)]
    assert det_exact_int(rows, prime_seed=0) == det_exact_int(rows, prime_seed=5)


def _cofactor_det(rows):
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * _cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total

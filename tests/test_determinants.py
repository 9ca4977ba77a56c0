"""Exact determinants as resultants of linear forms.

The resultant of n linear forms in n variables is the determinant of
their coefficient rows: the Macaulay matrix is that matrix and its
divisor is empty, so these cases exercise the determinant-quotient
route of macaulay.resultant_value on its own.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from itertools import permutations

import pytest
import sympy
from oracles import int_det

from hyperspec.config import DEFAULT_CONFIG
from hyperspec.errors import DimMismatch
from hyperspec.macaulay import PolySystem, resultant_value
from hyperspec.polynomial import MultiPoly


def _sign(perm):
    flips = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                flips += 1
    return -1 if flips % 2 else 1


def _linear_det(rows, prime_seed=0):
    # the resultant of n linear forms is the determinant of their
    # coefficient rows; the Macaulay table clears each row's denominators
    n = len(rows)
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    polys = tuple(MultiPoly(n, dict(zip(unit, row))) for row in rows)
    config = replace(DEFAULT_CONFIG, prime_seed=prime_seed)
    return resultant_value(PolySystem(n, polys, (1,) * n), config)


def test_known_values():
    for rows in ([[1, 0], [0, 1]], [[1, 2], [3, 4]], [[-7]]):
        assert _linear_det(rows) == int_det(rows)
    assert _linear_det([[1, 2], [3, 4]]) == -2


def test_bareiss_known():
    # the small cases the fraction-free elimination was checked on, now
    # through the modular determinant quotient of the Macaulay table
    assert _linear_det([[2, 0], [0, 3]]) == 6
    assert _linear_det([[0, 1], [1, 0]]) == -1
    assert _linear_det([[1]]) == 1


def test_identity_3x3():
    rows = [[int(i == j) for j in range(3)] for i in range(3)]
    assert _linear_det(rows) == 1 == int_det(rows)


def test_repeated_row_is_singular():
    rng = random.Random(0)
    for n in (8, 16):
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n - 1)]
        rows.append(list(rows[3]))
        assert _linear_det(rows) == 0
        if n == 8:  # the cofactor oracle is too slow at n = 16
            assert int_det(rows) == 0


def test_rejects_ragged():
    # a row with fewer entries is a form in fewer variables
    forms = (MultiPoly(2, {(1, 0): Fraction(1)}), MultiPoly(1, {(1,): Fraction(1)}))
    with pytest.raises(DimMismatch):
        PolySystem(2, forms, (1, 1))


def test_permutation_sign():
    for perm in permutations(range(4)):
        rows = [[int(perm[i] == j) for j in range(4)] for i in range(4)]
        assert int_det(rows) == _sign(perm)
        assert _linear_det(rows) == _sign(perm)
        assert _linear_det(rows, prime_seed=2) == _sign(perm)


def test_gershgorin_bounds_the_determinant():
    # with no divisor, the value's bound is R**n, R the largest absolute
    # row sum; random rows stay inside it and single-row matrices meet it
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randrange(1, 6)
        rows = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
        radius = max(sum(abs(v) for v in row) for row in rows)
        assert abs(int_det(rows)) <= radius**n
        assert _linear_det(rows) == int_det(rows)
    assert _linear_det([[-(2**40)]]) == -(2**40)


def test_modular_path_agrees_with_bareiss():
    # rows too large for the cofactor oracle; sympy's fraction-free
    # elimination is the independent side
    rng = random.Random(31)
    for n in (13, 16, 20):
        rows = [[rng.randint(-99, 99) for _ in range(n)] for _ in range(n)]
        assert _linear_det(rows) == sympy.Matrix(rows).det(method="bareiss")


def test_rational_rows_any_dimension():
    rng = random.Random(17)
    for n in (2, 5, 13, 20):
        rows = [
            [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(n)]
            for _ in range(n)
        ]
        value = _linear_det(rows)
        if n <= 5:
            assert value == int_det(rows)
        # multiplying one row by 7 scales the determinant by 7
        scaled = [list(r) for r in rows]
        scaled[0] = [7 * v for v in scaled[0]]
        assert _linear_det(scaled) == 7 * value


def test_integer_rows_match_cofactor_oracle():
    rng = random.Random(19)
    for n in (2, 5, 7):
        rows = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(n)]
        assert _linear_det(rows) == int_det(rows)
        assert _linear_det(rows, prime_seed=4) == int_det(rows)


def test_prime_seed_does_not_change_values():
    rng = random.Random(23)
    rows = [[rng.randint(-99, 99) for _ in range(14)] for _ in range(14)]
    assert _linear_det(rows, prime_seed=0) == _linear_det(rows, prime_seed=5)
    corner = [row[:5] for row in rows[:5]]
    assert _linear_det(corner, prime_seed=5) == int_det(corner)

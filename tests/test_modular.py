"""Modular determinants, characteristic polynomials and Chinese remaindering."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from oracles import classical_char_poly, int_det

from hyperspec.errors import BadPrime, InputError, MathError
from hyperspec.modular import (
    PRIME_LIMIT,
    _det_mod_i64,
    _solve_mod_i64,
    charpoly_mod,
    crt_combine,
    crt_values,
    is_prime,
    nth_prime,
    poly_divexact_mod,
    symmetric_residue,
)
from hyperspec.polynomial import UniPoly

_CHARPOLY_PRIMES = (nth_prime(0), 1_000_003)


def _oracle_charpoly_mod(rows, p):
    ref = classical_char_poly([[Fraction(v) for v in row] for row in rows])
    return [int(ref.coefficient(j)) % p for j in range(len(rows) + 1)]


def test_is_prime_small():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)


def test_prime_list_descends_below_limit():
    first = nth_prime(0)
    assert first < PRIME_LIMIT and is_prime(first)
    assert nth_prime(1) < first
    assert all(is_prime(nth_prime(i)) for i in range(5))


def _det_mod(rows, p):
    return _det_mod_i64(np.array(rows, dtype=np.int64).reshape(len(rows), -1) % p, p)


def test_crt_values_covers_each_bound_with_the_shortest_prefix():
    values = [10**40, -(10**40), 7, 0]
    seen = []

    def residues_mod(p):
        seen.append(p)
        return [v % p for v in values]

    assert crt_values(residues_mod, [abs(v) for v in values]) == values
    product = 1
    for p in seen:
        product *= p
    # the primes cover twice the largest bound, and one prime fewer would not
    assert product > 2 * 10**40 >= product // seen[-1]
    assert seen == [nth_prime(i) for i in range(len(seen))]
    # a value at its bound is recovered with its sign
    assert crt_values(lambda p: [-nth_prime(0) % p], [nth_prime(0)]) == [-nth_prime(0)]


def test_crt_values_skips_primes_and_offsets_by_seed():
    value = 3 * 10**40 + 1  # five primes from either seed
    divisor = nth_prime(4)  # the residue callback refuses this prime

    def residues_mod(p):
        return None if p == divisor else [value % p]

    for seed in (0, 3):
        seen = []

        def logged(p):
            seen.append(p)
            return residues_mod(p)

        assert crt_values(logged, [value], seed) == [value]
        assert seen[0] == nth_prime(seed) and divisor in seen
    # a refused first prime is reported, not skipped
    assert crt_values(residues_mod, [value], 4) is None


def test_det_mod_known():
    assert _det_mod([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 7) == 1
    assert _det_mod([[1, 2], [3, 4]], 5) == 3  # -2 mod 5
    assert _det_mod([[1, 2], [2, 4]], 11) == 0
    assert _det_mod_i64(np.zeros((0, 0), dtype=np.int64), 7) == 1


def test_det_mod_matches_cofactor_oracle():
    rng = random.Random(99)
    for trial in range(30):
        n = rng.randrange(1, 7)
        rows = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
        d = int_det(rows)
        p = nth_prime(trial % 4)
        assert _det_mod(rows, p) == d % p


def test_solve_mod_matches_det_and_inverts():
    # (det a, a**-1 b) mod p: det against the cofactor oracle, the
    # solution by a @ x == b
    rng = random.Random(101)
    singular = 0
    for trial in range(40):
        n, k = rng.randrange(1, 8), rng.randrange(1, 8)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if trial % 5 == 0:
            rows[-1] = [2 * v for v in rows[0]]  # forced singular
        p = nth_prime(trial % 3)
        a = np.array(rows, dtype=np.int64) % p
        b = np.array([[rng.randrange(p) for _ in range(k)] for _ in range(n)],
                     dtype=np.int64)
        det, x = _solve_mod_i64(a, b, p)
        assert det == int_det(rows) % p
        if det == 0:
            singular += 1
            assert x is None
            continue
        product = [[sum(int(a[i, m]) * int(x[m, j]) for m in range(n)) % p
                    for j in range(k)] for i in range(n)]
        assert product == b.tolist()
    assert singular >= 8


def test_crt_combine_pair():
    value, modulus = crt_combine([4, 6], [7, 11])
    assert modulus == 77 and value == 39  # 39 = 1/2 mod 77
    assert value % 7 == 4 and value % 11 == 6


def test_crt_combine_rejects_shared_factor():
    with pytest.raises(InputError):
        crt_combine([1, 2], [6, 9])


def test_symmetric_residue():
    assert symmetric_residue(38, 77) == 38
    assert symmetric_residue(39, 77) == -38  # past the halfway point
    assert symmetric_residue(76, 77) == -1
    assert symmetric_residue(0, 77) == 0


def test_charpoly_mod_matches_cofactor_oracle():
    rng = random.Random(2024)
    for _ in range(40):
        n = rng.randrange(1, 7)
        density = rng.choice((0.3, 1.0))
        rows = [
            [rng.randint(-40, 40) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(n)
        ]
        for p in _CHARPOLY_PRIMES:
            assert charpoly_mod(rows, p) == _oracle_charpoly_mod(rows, p)


def test_charpoly_mod_pivot_swap():
    # a zero subdiagonal entry with a nonzero entry further down the column
    # forces a row and column swap during the Hessenberg reduction
    cases = [
        [[1, 2, 3], [0, 4, 5], [6, 7, 8]],
        [[2, 1, 0, 3], [0, 1, 1, 0], [0, 5, 2, 1], [4, 0, 1, 1]],
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
        [[5, 1, 2, 0, 1], [0, 0, 0, 3, 0], [0, 2, 1, 0, 0], [7, 0, 0, 1, 2], [0, 1, 0, 0, 3]],
    ]
    for rows in cases:
        for p in _CHARPOLY_PRIMES:
            assert charpoly_mod(rows, p) == _oracle_charpoly_mod(rows, p)


def test_charpoly_mod_nilpotent():
    # strictly upper triangular, then conjugated by a unimodular matrix
    upper = [[0, 3, -1, 2], [0, 0, 5, 1], [0, 0, 0, 4], [0, 0, 0, 0]]
    shear = [[1, 0, 0, 0], [2, 1, 0, 0], [-1, 3, 1, 0], [1, 0, 2, 1]]
    inverse = [[1, 0, 0, 0], [-2, 1, 0, 0], [7, -3, 1, 0], [-15, 6, -2, 1]]

    def mul(x, y):
        return [[sum(a * b for a, b in zip(r, c)) for c in zip(*y)] for r in x]

    assert mul(shear, inverse) == [[int(i == j) for j in range(4)] for i in range(4)]
    for rows in (upper, mul(mul(shear, upper), inverse)):
        for p in _CHARPOLY_PRIMES:
            assert charpoly_mod(rows, p) == [0, 0, 0, 0, 1]


def test_charpoly_mod_tiny():
    for p in _CHARPOLY_PRIMES:
        assert charpoly_mod([], p) == [1]
        assert charpoly_mod([[7]], p) == [-7 % p, 1]
        assert charpoly_mod([[-3]], p) == [3, 1]
    with pytest.raises(InputError):
        charpoly_mod([[1, 2]], 7)
    with pytest.raises(BadPrime):
        charpoly_mod([[1]], 9)


def test_poly_divexact_mod_recovers_factor():
    f = UniPoly.from_coeff_strings(["3", "-1", "0", "2", "1"])
    g = UniPoly.from_coeff_strings(["-5", "4", "1"])
    product = [int(c) for c in (f * g).coeffs]
    for p in _CHARPOLY_PRIMES:
        expected = [int(c) % p for c in f.coeffs]
        assert poly_divexact_mod(product, [int(c) for c in g.coeffs], p) == expected
        assert poly_divexact_mod(product, [1], p) == [c % p for c in product]
        with pytest.raises(MathError):
            poly_divexact_mod([c + (i == 0) for i, c in enumerate(product)],
                              [int(c) for c in g.coeffs], p)
    with pytest.raises(InputError):
        poly_divexact_mod(product, [1, 2], 7)

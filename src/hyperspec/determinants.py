"""Exact determinants of integer matrices.

Small matrices use fraction-free Bareiss elimination.  Larger ones
evaluate modulo enough word-size primes to cover the Hadamard bound and
recombine by Chinese remaindering; the result is exact, not
probabilistic, because the bound is rigorous.  Rational systems reach
this module already scaled to integers (see macaulay).
"""

from __future__ import annotations

from math import isqrt
from typing import Sequence

import numpy as np

from .errors import InputError
from .modular import _det_mod_i64, crt_combine, primes_for_bound, symmetric_residue

BAREISS_MAX_DIM = 12

_I64_SAFE = 2**62


def bareiss_det(rows: Sequence[Sequence[int]]) -> int:
    """Fraction-free determinant of an integer matrix."""
    a = [[int(v) for v in row] for row in rows]
    n = len(a)
    if any(len(r) != n for r in a):
        raise InputError("matrix must be square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        pk = a[k][k]
        for i in range(k + 1, n):
            row_i, row_k = a[i], a[k]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pk - lead * row_k[j]) // prev
            row_i[k] = 0
        prev = pk
    return sign * a[n - 1][n - 1]


def hadamard_bound(rows: Sequence[Sequence[int]]) -> int:
    """Integer upper bound on |det|; 0 exactly when some row is zero."""
    bound = 1
    for row in rows:
        norm_sq = sum(v * v for v in row)
        if norm_sq == 0:
            return 0
        root = isqrt(norm_sq)
        if root * root < norm_sq:
            root += 1
        bound *= root
    return bound


def _det_int_modular(rows: list[list[int]], prime_seed: int) -> int:
    bound = hadamard_bound(rows)
    if bound == 0:
        return 0
    primes = primes_for_bound(2 * bound, seed=prime_seed)
    max_abs = max((abs(v) for row in rows for v in row), default=0)
    if max_abs < _I64_SAFE:
        base = np.array(rows, dtype=np.int64)
        residues = [_det_mod_i64(base % p, p) for p in primes]
    else:
        residues = [
            _det_mod_i64(
                np.array([[v % p for v in row] for row in rows], dtype=np.int64), p
            )
            for p in primes
        ]
    combined, modulus = crt_combine(residues, primes)
    return symmetric_residue(combined, modulus)


def det_exact_int(
    rows: Sequence[Sequence[int]],
    *,
    prime_seed: int = 0,
    bareiss_max_dim: int = BAREISS_MAX_DIM,
) -> int:
    """Exact determinant of an integer matrix, choosing the path by size."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise InputError("matrix must be square")
    if n <= bareiss_max_dim:
        return bareiss_det(rows)
    return _det_int_modular([list(map(int, r)) for r in rows], prime_seed)

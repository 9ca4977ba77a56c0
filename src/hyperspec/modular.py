"""Modular determinants, characteristic polynomials and Chinese remaindering.

Moduli come from a fixed, deterministic list of primes counting down
from 2**31 - 1.  Keeping every modulus below 2**31 lets Gaussian
elimination and Hessenberg reduction run vectorized in int64: products
of two reduced values stay under 2**62, safely inside the int64 range.
A seed offset picks a different window of the same list; the
recombined value is the same for every seed, which makes
cross-seed agreement a cheap consistency check.  Every exact value goes
through one prime loop, crt_values: the caller supplies the residues
modulo one prime and a rigorous bound on each value's absolute size.
"""

from __future__ import annotations

from math import gcd
from typing import Callable, Sequence

import numpy as np

from .errors import BadPrime, InputError, MathError

PRIME_LIMIT = 2**31

_MR_BASES = (2, 3, 5, 7)  # deterministic below 3,215,031,751


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_PRIMES: list[int] = []


def _extend_primes(count: int) -> None:
    candidate = _PRIMES[-1] - 2 if _PRIMES else PRIME_LIMIT - 1
    while len(_PRIMES) < count:
        if is_prime(candidate):
            _PRIMES.append(candidate)
        candidate -= 2


def nth_prime(index: int) -> int:
    """index-th modulus (0-based) of the fixed descending list."""
    if index < 0:
        raise InputError("prime index must be non-negative")
    if index >= len(_PRIMES):
        _extend_primes(index + 1)
    return _PRIMES[index]


def _det_mod_i64(a: np.ndarray, p: int) -> int:
    """Determinant mod p of an int64 array with entries already in [0, p)."""
    a = a.copy()
    n = a.shape[0]
    det = 1
    for col in range(n):
        nz = np.nonzero(a[col:, col])[0]
        if nz.size == 0:
            return 0
        pivot_row = col + int(nz[0])
        if pivot_row != col:
            a[[col, pivot_row]] = a[[pivot_row, col]]
            det = p - det
        pivot = int(a[col, col])
        det = det * pivot % p
        if col + 1 < n:
            inv = pow(pivot, -1, p)
            factors = a[col + 1 :, col] * inv % p
            a[col + 1 :, col + 1 :] = (
                a[col + 1 :, col + 1 :] - factors[:, None] * a[col, col + 1 :]
            ) % p
    return det


def _solve_mod_i64(
    a: np.ndarray, b: np.ndarray, p: int
) -> tuple[int, np.ndarray | None]:
    """(det a, a**-1 @ b) mod p by Gauss-Jordan elimination on [a | b].

    Operands are int64 arrays with entries already in [0, p); a singular
    a gives (0, None).
    """
    n = a.shape[0]
    aug = np.concatenate([a, b], axis=1)
    det = 1
    for col in range(n):
        nz = np.nonzero(aug[col:, col])[0]
        if nz.size == 0:
            return 0, None
        pivot_row = col + int(nz[0])
        if pivot_row != col:
            aug[[col, pivot_row]] = aug[[pivot_row, col]]
            det = p - det
        pivot = int(aug[col, col])
        det = det * pivot % p
        aug[col, col:] = aug[col, col:] * pow(pivot, -1, p) % p
        rows = np.nonzero(aug[:, col])[0]
        rows = rows[rows != col]
        if rows.size:
            factors = aug[rows, col]
            aug[rows, col:] = (aug[rows, col:] - factors[:, None] * aug[col, col:]) % p
    return det, aug[:, n:]


def _matvec_mod(a: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """a @ v mod p for int64 operands in [0, p) with fewer than 2**16 terms.

    v is split into 16-bit halves so no int64 partial sum can overflow.
    """
    lo = v & 0xFFFF
    hi = v >> 16
    return ((a @ hi % p << 16) + a @ lo % p) % p


def _hessenberg_mod_i64(a: np.ndarray, p: int) -> np.ndarray:
    """Upper Hessenberg matrix similar to a mod p (Cohen, Alg. 2.2.9)."""
    h = a.copy()
    n = h.shape[0]
    for c in range(n - 2):
        nz = np.nonzero(h[c + 1 :, c])[0]
        if nz.size == 0:
            continue
        pivot_row = c + 1 + int(nz[0])
        if pivot_row != c + 1:
            h[[c + 1, pivot_row]] = h[[pivot_row, c + 1]]
            h[:, [c + 1, pivot_row]] = h[:, [pivot_row, c + 1]]
        below = c + 2 + np.nonzero(h[c + 2 :, c])[0]
        if below.size == 0:
            continue
        # row_i -= u_i * row_{c+1}, then column_{c+1} += sum_i u_i * column_i
        u = h[below, c] * pow(int(h[c + 1, c]), -1, p) % p
        h[below, c:] = (h[below, c:] - u[:, None] * h[c + 1, c:]) % p
        h[:, c + 1] = (h[:, c + 1] + _matvec_mod(h[:, below], u, p)) % p
    return h


def poly_divexact_mod(num: Sequence[int], den: Sequence[int], p: int) -> list[int]:
    """Quotient num / den mod p of ascending coefficient lists, den monic.

    Raises MathError if the division leaves a remainder.
    """
    if len(den) == 0 or int(den[-1]) % p != 1:
        raise InputError("divisor must be monic")
    rem = np.array([int(c) % p for c in num], dtype=np.int64)
    div = np.array([int(c) % p for c in den], dtype=np.int64)
    width = len(div)
    quot = [0] * max(len(rem) - width + 1, 0)
    for s in range(len(quot) - 1, -1, -1):
        c = int(rem[s + width - 1])
        quot[s] = c
        if c:
            rem[s : s + width] = (rem[s : s + width] - c * div) % p
    if rem.any():
        raise MathError(f"division by a monic polynomial left a remainder mod {p}")
    return quot


def _check_prime(p: int) -> None:
    if p < 3 or p >= PRIME_LIMIT or not is_prime(p):
        raise BadPrime(f"modulus must be an odd prime below 2**31, got {p}")


def charpoly_mod(rows: Sequence[Sequence[int]], p: int) -> list[int]:
    """Ascending coefficients of det(x*I - A) for an integer matrix, mod p.

    Reduces A to Hessenberg form, then runs the recurrence on its leading
    principal blocks: p_k = (x - h_kk) p_{k-1}
    - sum_{i<k} h_ik * h_{i+1,i} ... h_{k,k-1} * p_{i-1}.
    """
    _check_prime(p)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise InputError("matrix must be square")
    if n >= 1 << 16:
        raise InputError(f"matrix dimension {n} is beyond the int64 kernel")
    a = np.array([[int(v) % p for v in row] for row in rows], dtype=np.int64)
    h = _hessenberg_mod_i64(a.reshape(n, n), p).tolist()
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    for k in range(1, n + 1):
        prev = polys[k - 1, :k]
        row = polys[k]
        row[1 : k + 1] = prev
        row[:k] = (row[:k] - h[k - 1][k - 1] * prev) % p
        earlier: list[int] = []
        weights: list[int] = []
        run = 1
        for i in range(k - 1, 0, -1):
            run = run * h[i][i - 1] % p
            if run == 0:  # a zero subdiagonal entry splits off the block above
                break
            w = h[i - 1][k - 1] * run % p
            if w:
                earlier.append(i - 1)
                weights.append(w)
        if earlier:
            weight = np.array(weights, dtype=np.int64)
            row[:k] = (row[:k] - _matvec_mod(polys[earlier, :k].T, weight, p)) % p
    return [int(c) for c in polys[n]]


def crt_combine(residues: Sequence[int], moduli: Sequence[int]) -> tuple[int, int]:
    """Combined residue and modulus; moduli must be pairwise coprime."""
    if len(residues) != len(moduli) or not moduli:
        raise InputError("need equally many residues and moduli, at least one")
    r, m = residues[0] % moduli[0], moduli[0]
    for r2, m2 in zip(residues[1:], moduli[1:]):
        g = gcd(m, m2)
        if g != 1:
            raise InputError(f"moduli {m} and {m2} share factor {g}")
        # r + m*t == r2 (mod m2)
        t = (r2 - r) * pow(m, -1, m2) % m2
        r += m * t
        m *= m2
        r %= m
    return r, m


def symmetric_residue(r: int, m: int) -> int:
    """Representative of r mod m in (-m/2, m/2]."""
    r %= m
    return r - m if r > m // 2 else r


def crt_values(
    residues_mod: Callable[[int], Sequence[int] | None],
    bounds: Sequence[int],
    seed: int = 0,
) -> list[int] | None:
    """Integers v_j with |v_j| <= bounds[j], from their residues mod primes.

    residues_mod(p) gives every v_j mod p, or None to skip p.  Primes are
    taken from the fixed list from offset seed on until the product of
    those not skipped exceeds twice the largest bound; each v_j is
    recombined from the shortest prefix whose product exceeds twice its
    own bound.  Returns None when the first prime is skipped, so that the
    caller can take another route; the caller must skip only finitely
    many later primes.
    """
    primes: list[int] = []
    residues: list[Sequence[int]] = []
    index, product, target = seed, 1, 2 * max(bounds)
    while not primes or product <= target:
        p = nth_prime(index)
        index += 1
        res = residues_mod(p)
        if res is None:
            if not primes:
                return None
            continue
        primes.append(p)
        residues.append(res)
        product *= p
    values = []
    for j, bound in enumerate(bounds):
        k, modulus = 1, primes[0]
        while modulus <= 2 * bound:
            modulus *= primes[k]
            k += 1
        combined = crt_combine([res[j] for res in residues[:k]], primes[:k])
        values.append(symmetric_residue(*combined))
    return values

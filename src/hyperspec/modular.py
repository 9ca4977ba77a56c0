"""Modular determinants, characteristic polynomials and Chinese remaindering.

Moduli come from a fixed, deterministic list of primes counting down
from 2**31 - 1.  Keeping every modulus below 2**31 lets Gaussian
elimination and Hessenberg reduction run vectorized in int64: products
of two reduced values stay under 2**62, safely inside the int64 range.
Every kernel works on a stack, a (P, n, n) int64 array whose layer i is
reduced modulo primes[i], so one pass of Python-level steps serves all P
primes; a single prime is a stack of one.  Updates add p - x where they
would subtract x: numpy's integer remainder is several times slower on
operands of mixed sign.  A seed offset picks a different window of the
same list; the recombined value is the same for every seed, which makes
cross-seed agreement a cheap consistency check.  Every exact value goes
through one prime loop, crt_values: the caller supplies the residues
modulo a list of primes, computed as one stack of at most STACK_CAP
entries, and a rigorous bound on each value's absolute size.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Callable, Sequence

import numpy as np

from .errors import BadPrime, CapExceeded, InputError, MathError

PRIME_LIMIT = 2**31

# The most int64 entries a kernel's stack holds, 1 MB: crt_values hands
# a callback fewer primes at once for larger matrices, down to one.  A
# stack that outgrows the cache runs no faster per prime than one layer.
STACK_CAP = 1 << 17
_HALVES = np.array([16, 0], dtype=np.int64)  # shifts that split int64 values in two

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


@lru_cache(maxsize=1024)
def _is_modulus(p: int) -> bool:
    """Whether p is an odd prime below PRIME_LIMIT; kernels check every
    modulus of every call, and the same few recur."""
    return 3 <= p < PRIME_LIMIT and is_prime(p)


_PRIMES: list[int] = []

MAX_PRIMES = 100_000  # the list's length: about 3.1 million bits of bound


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
    if index >= MAX_PRIMES:
        raise CapExceeded(f"prime index {index} is past the last of {MAX_PRIMES} primes")
    if index >= len(_PRIMES):
        _extend_primes(index + 1)
    return _PRIMES[index]


def stack_layers(layer_size: int) -> int:
    """Layers of layer_size int64 entries one stack may hold: as many as
    fit in STACK_CAP entries, and at least one."""
    return max(1, STACK_CAP // layer_size)


def _inverses(values: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """Each layer's value inverted modulo its prime; 0 stays 0."""
    pairs = zip(values.tolist(), primes.tolist())
    return np.array([pow(v, -1, p) if v else 0 for v, p in pairs], dtype=np.int64)


def _pivot_up(a: np.ndarray, top: int, col: int) -> tuple[np.ndarray, np.ndarray]:
    """In each layer, swap the first row at or below top that is nonzero in
    column col up to row top; returns the layers swapped and their rows."""
    off = (a[:, top:, col] != 0).argmax(axis=1)
    moved = off.nonzero()[0]
    rows = top + off[moved]
    if moved.size:
        a[moved, top], a[moved, rows] = a[moved, rows], a[moved, top]
    return moved, rows


def _det_mod(a: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """Determinant of each layer of a (P, n, n) stack modulo its prime.

    Each layer pivots on the first nonzero entry of its column.  Step c
    scales rows c + 1 onward by the pivot d_c instead of dividing by it,
    so det = prod_c d_c / prod_c d_c**(n - 1 - c): one inversion a layer.
    """
    a = a.copy()
    moduli = primes[:, None, None]
    flips = np.zeros(len(primes), dtype=bool)
    for c in range(a.shape[1]):
        if not all(a[:, c, c].tolist()):
            moved, _ = _pivot_up(a, c, c)
            if not any(a[:, c, c].tolist()):
                return np.zeros(len(primes), dtype=np.int64)
            flips[moved] ^= True
        rest = a[:, c + 1 :, c + 1 :]
        acc = rest * a[:, c, c, None, None]
        acc += (moduli[:, 0] - a[:, c + 1 :, c])[:, :, None] * a[:, c, None, c + 1 :]
        np.remainder(acc, moduli, out=rest)
    dets = []
    for pivots, p, flip in zip(np.diagonal(a, 0, 1, 2).tolist(), primes.tolist(), flips):
        prefix, scale = 1, 1
        for d in pivots[:-1]:
            prefix = prefix * d % p
            scale = scale * prefix % p
        det = prefix * (pivots[-1] if pivots else 1) * pow(scale, -1, p) % p if scale else 0
        dets.append(-det % p if flip else det)
    return np.array(dets, dtype=np.int64)


def _solve_mod(
    a: np.ndarray, b: np.ndarray, primes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(det a, a**-1 @ b) of each layer modulo its prime, by Gauss-Jordan
    elimination on [a | b]; a singular layer gets det 0 and any solution."""
    n = a.shape[1]
    aug = np.concatenate([a, b], axis=2)
    moduli = primes[:, None, None]
    dets = [1] * len(primes)
    for c in range(n):
        if not all(aug[:, c, c].tolist()):
            for i in _pivot_up(aug, c, c)[0].tolist():
                dets[i] = -dets[i]
        pivots = aug[:, c, c]
        dets = [d * v % p for d, v, p in zip(dets, pivots.tolist(), primes.tolist())]
        if not any(dets):
            break
        top = aug[:, c, c:]
        np.remainder(top * _inverses(pivots, primes)[:, None], moduli[:, 0], out=top)
        rows = aug[:, :, c].any(axis=0).nonzero()[0]
        rows = rows[rows != c]
        if rows.size:
            acc = (moduli - aug[:, rows, c, None]) * aug[:, c, None, c:]
            acc += aug[:, rows, c:]
            aug[:, rows, c:] = acc % moduli
    return np.array(dets, dtype=np.int64), aug[:, :, n:]


def _matvec_mod(a: np.ndarray, v: np.ndarray, moduli: np.ndarray) -> np.ndarray:
    """a @ v per layer modulo (P, 1) moduli, for operands in [0, p) and
    fewer than 2**16 terms: v is split into 16-bit halves so no int64
    partial sum can overflow."""
    halves = a @ (v[:, :, None] >> _HALVES & 0xFFFF) % moduli[:, :, None]
    return ((halves[:, :, 0] << 16) + halves[:, :, 1]) % moduli


def _hessenberg_mod(h: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """Upper Hessenberg matrices similar to each layer mod its prime
    (Cohen, Alg. 2.2.9); a layer with no pivot in a column is left alone."""
    h = h.copy()
    moduli = primes[:, None]
    for c in range(h.shape[1] - 2):
        if not all(h[:, c + 1, c].tolist()):
            moved, rows = _pivot_up(h, c + 1, c)
            if moved.size:
                h[moved, :, c + 1], h[moved, :, rows] = h[moved, :, rows], h[moved, :, c + 1]
        below = c + 2 + h[:, c + 2 :, c].any(axis=0).nonzero()[0]
        if below.size == 0:
            continue
        # row_i -= u_i * row_{c+1}, then column_{c+1} += sum_i u_i * column_i
        u = h[:, below, c] * _inverses(h[:, c + 1, c], primes)[:, None] % moduli
        acc = (moduli - u)[:, :, None] * h[:, c + 1, None, c:]
        acc += h[:, below, c:]
        h[:, below, c:] = acc % moduli[:, :, None]
        h[:, :, c + 1] = (h[:, :, c + 1] + _matvec_mod(h[:, :, below], u, moduli)) % moduli
    return h


def poly_divexact_mod(num: np.ndarray, den: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """Quotients num / den of ascending coefficient rows modulo each
    layer's prime, den monic; raises MathError if one leaves a remainder."""
    width = den.shape[1]
    if width == 0 or (den[:, -1] != 1).any():
        raise InputError("divisor must be monic")
    if width == 1:  # den = 1
        return num.copy()
    moduli = primes[:, None]
    rem = num.copy()
    quot = np.zeros((len(primes), max(num.shape[1] - width + 1, 0)), dtype=np.int64)
    for s in range(quot.shape[1] - 1, -1, -1):
        quot[:, s] = rem[:, s + width - 1]
        window = rem[:, s : s + width]
        np.remainder(window + (moduli - quot[:, s, None]) * den, moduli, out=window)
    if rem.any():
        p = primes[rem.any(axis=1)][0]
        raise MathError(f"division by a monic polynomial left a remainder mod {p}")
    return quot


def _polymul_mod(a: np.ndarray, b: np.ndarray, moduli: np.ndarray) -> np.ndarray:
    """Products of two (layers, count, width) stacks of ascending
    coefficient rows, each layer modulo its (layers, 1, 1) modulus."""
    if a.shape[2] < b.shape[2]:
        a, b = b, a
    out = np.zeros(a.shape[:2] + (a.shape[2] + b.shape[2] - 1,), dtype=np.int64)
    for j in range(b.shape[2]):
        window = out[:, :, j : j + a.shape[2]]
        window += a * b[:, :, j, None]
        np.remainder(window, moduli, out=window)
    return out


def poly_product_mod(factors: Sequence[np.ndarray], primes: np.ndarray) -> np.ndarray:
    """The (layers, width) product, each layer modulo its prime, of every
    row of (layers, count, width) stacks of ascending coefficients; no
    stacks give 1.  Each stack multiplies its halves at once, a tree of
    log2(count) steps, and a stack of values is one of width 1."""
    moduli = primes[:, None, None]
    rest = []
    for f in factors:
        while f.shape[1] > 1:
            half = f.shape[1] // 2
            if f.shape[1] % 2:
                rest.append(f[:, -1:])
            f = _polymul_mod(f[:, :half], f[:, half : 2 * half], moduli)
        rest.append(f)
    rest.sort(key=lambda f: f.shape[2])
    acc = rest[0] if rest else np.ones((len(primes), 1, 1), dtype=np.int64)
    for f in rest[1:]:
        acc = _polymul_mod(acc, f, moduli)
    return acc[:, 0]


def charpoly_mod(a: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """Ascending coefficients of det(x*I - A) of each layer mod its prime.

    a is a (P, n, n) int64 stack with entries in [0, p), primes a (P,)
    int64 array.  Reduces each layer to Hessenberg form, then runs the
    recurrence on its leading principal blocks: p_k = (x - h_kk) p_{k-1}
    - sum_{i<k} h_ik * h_{i+1,i} ... h_{k,k-1} * p_{i-1}, all i at once.
    """
    for p in set(primes.tolist()):
        if not _is_modulus(p):
            raise BadPrime(f"modulus must be an odd prime below 2**31, got {p}")
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[0] != len(primes):
        raise InputError("matrix must be square, one layer per prime")
    n = a.shape[1]
    if n >= 1 << 16:
        raise InputError(f"matrix dimension {n} is beyond the int64 kernel")
    h = _hessenberg_mod(a, primes)
    moduli = primes[:, None]
    negated = moduli - np.diagonal(h, 0, 1, 2)
    subdiagonal = np.diagonal(h, -1, 1, 2)
    polys = np.zeros((len(primes), n + 1, n + 1), dtype=np.int64)
    polys[:, 0, 0] = 1
    # run[:, i] = h[i, i-1] * ... * h[k-1, k-2] is 0 past a zero subdiagonal
    # entry, and a zero in every layer moves the first term, lo, past it
    run = np.zeros((len(primes), n), dtype=np.int64)
    splits = [True] + (~subdiagonal.any(axis=0)).tolist()
    for k in range(1, n + 1):
        prev = polys[:, k - 1, :k]
        row = polys[:, k]
        row[:, 1 : k + 1] = prev
        update = row[:, :k] + negated[:, k - 1, None] * prev
        lo = k if splits[k - 1] else lo
        if lo < k:
            run[:, k - 1] = 1
            run[:, lo:k] = run[:, lo:k] * subdiagonal[:, k - 2, None] % moduli
            weights = h[:, lo - 1 : k - 1, k - 1] * run[:, lo:k] % moduli
            earlier = polys[:, lo - 1 : k - 1, :k].transpose(0, 2, 1)
            update += moduli - _matvec_mod(earlier, weights, moduli)
        row[:, :k] = update % moduli
    return polys[:, n]


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
    residues_mod: Callable[[list[int]], Sequence[Sequence[int] | None]],
    bounds: Sequence[int],
    seed: int = 0,
    layer_size: int = 1,
) -> list[int] | None:
    """Integers v_j with |v_j| <= bounds[j], from their residues mod primes.

    residues_mod(primes) gives, for each prime of the list, every v_j
    modulo it, or None to skip that prime.  Primes are taken from the
    fixed list from offset seed on until the product of those not skipped
    exceeds twice the largest bound; each v_j is recombined from the
    shortest prefix whose product exceeds twice its own bound.  Each call
    asks for just enough further primes if none is skipped, and for at
    most STACK_CAP // layer_size (at least one), layer_size being the
    int64 entries one prime takes in the caller's largest stack.  A
    caller that refuses a whole stack when its first prime fails drops
    that stack's other primes too, so the primes used then depend on
    STACK_CAP; the values do not.  Returns None when the first prime is
    skipped, so that the caller can take another route; the caller must
    skip only finitely many later primes.
    """
    batch = stack_layers(layer_size)
    primes: list[int] = []
    residues: list[list[int]] = []
    index, product, target = seed, 1, 2 * max(bounds)
    while not primes or product <= target:
        asked, reach = [], product
        while len(asked) < batch and (not asked or reach <= target):
            asked.append(nth_prime(index))
            index += 1
            reach *= asked[-1]
        for p, res in zip(asked, residues_mod(asked)):
            if res is None:
                if not primes:
                    return None
                continue
            primes.append(p)
            residues.append([int(v) for v in res])
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

"""Modular determinants, characteristic polynomials and Chinese remaindering.

Moduli come from a fixed, deterministic list: the primes in
(2**19, 2**20), counting down.  Below 2**20, eliminations run in int64,
where a product of two residues stays under 2**40, and matrix products
in float64 BLAS, exactly (_reduce).  Every kernel works on a stack, a
(P, n, n) array whose layer i is reduced modulo primes[i], so one pass
of Python-level steps serves all P primes.  The int64 elimination,
_solve_mod, adds p - x times a row where it would subtract x times it,
so its entries stay non-negative (numpy's remainder is several times
slower on operands of mixed sign), and reduces only the entries its
next step reads.  A charpoly comes from power sums
(trace_powers_mod, summed_power_sums_mod) by Newton's identities
(newton_mod).  A seed offset picks another window of the list, and
recombines the same values.  Every exact value goes through one prime
loop, crt_values, from residues the caller computes modulo a list of
primes, as one stack of at most STACK_CAP entries, and a rigorous
bound on each value's absolute size.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt
from typing import Callable, Sequence

import numpy as np

from .errors import BadPrime, CapExceeded, InputError

PRIME_LIMIT = 2**20

# The most entries a kernel's stack holds, 1 MB of int64, down to one
# layer: a stack that outgrows the cache runs no faster per prime.
STACK_CAP = 1 << 17
# The most terms of one float64 dot product (see _reduce), and of one
# layer's baby steps (256 MB) and giant steps held in trace_powers_mod.
FLOAT_TERMS = 1 << 13
BABY_CAP = 1 << 25
GIANTS = 4


def is_prime(n: int) -> bool:
    """Whether n is prime, by trial division: moduli stay below 2**20."""
    return n == 2 or n > 2 and n % 2 == 1 and all(n % q for q in range(3, isqrt(n) + 1, 2))


@lru_cache(maxsize=1024)
def _is_modulus(p: int) -> bool:
    """Whether p is an odd prime below PRIME_LIMIT; kernels check every
    modulus of every call, and the same few recur."""
    return 3 <= p < PRIME_LIMIT and is_prime(p)


_PRIMES: list[int] = []

MAX_PRIMES = 38_635  # every prime in (2**19, 2**20): about 755,000 bits of bound


def nth_prime(index: int) -> int:
    """index-th modulus (0-based) of the fixed descending list."""
    if index < 0:
        raise InputError("prime index must be non-negative")
    if index >= MAX_PRIMES:
        raise CapExceeded(f"prime index {index} is past the last of {MAX_PRIMES} primes")
    candidate = _PRIMES[-1] - 2 if _PRIMES else PRIME_LIMIT - 1
    while len(_PRIMES) <= index:
        if is_prime(candidate):
            _PRIMES.append(candidate)
        candidate -= 2
    return _PRIMES[index]


def stack_layers(layer_size: int) -> int:
    """Layers of layer_size int64 entries one stack may hold: as many as
    fit in STACK_CAP entries, and at least one."""
    return max(1, STACK_CAP // layer_size)


def _inverses(values: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """Each layer's value inverted modulo its prime; 0 stays 0."""
    pairs = zip(values.tolist(), primes.tolist())
    return np.array([pow(v, -1, p) if v else 0 for v, p in pairs], dtype=np.int64)


def _pivot_up(
    a: np.ndarray, top: int, col: int, limit: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """In each layer, swap the first row at or below top, and above
    limit[layer] if given, that is nonzero in column col up to row top;
    returns the layers swapped and their rows."""
    nonzero = a[:, top:, col] != 0
    if limit is not None:
        nonzero &= np.arange(top, a.shape[1]) < limit[:, None]
    off = nonzero.argmax(axis=1)
    moved = off.nonzero()[0]
    rows = top + off[moved]
    if moved.size:
        a[moved, top], a[moved, rows] = a[moved, rows], a[moved, top]
    return moved, rows


# the most rows _solve_mod eliminates: n steps keep its entries below 2**63
SOLVE_ROWS = 1 << 23


def _solve_mod(
    a: np.ndarray,
    b: np.ndarray,
    primes: np.ndarray,
    divisor: np.ndarray | None = None,
    first: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(det a, a**-1 @ b, det a', y) of each layer modulo its prime, by
    Gauss-Jordan elimination on [a | b], entries in [0, p).

    a' is the leading r x r block of a layer, r = divisor[layer] (0, so
    det a' = 1, by default): for its first r columns the layer takes
    pivots from its first r rows only, which multiply to det a', and y is
    its right side after those r steps, whose first r rows are
    a'**-1 @ b[:r].  A layer where a' is singular gets det 0 for a and a',
    one where a alone is gets det a = 0, and either gets any solution.
    With first, a prime, the stack stops after the r steps of a layer
    modulo first whose a' is singular, and every determinant reads 0.
    With b of width 0, only the rows below each pivot are eliminated, and
    a pivot row with none below is not scaled: the determinants alone.

    Entries are reduced only where a step reads them, the delayed
    reduction of FFLAS-FFPACK (Dumas, Giorgi & Pernet, ACM TOMS 35, 2008).
    Step c reduces column c and the pivot row, scales that row by the
    pivot's inverse, and adds (p - x) times it, x < p a row's entry in
    column c, in place to each row nonzero there in some layer: over the
    slice from the first such row to the last, or gathered where they
    fill under half of it.  A step adds at most p (p - 1) to an entry, so
    after n steps every entry is below p + n p**2, under 2**63 for
    p < 2**20 and n < SOLVE_ROWS = 2**23; a larger block is refused, and
    the right side is reduced once, at the end.
    """
    n, below = a.shape[1], b.shape[2] == 0
    if n >= SOLVE_ROWS:
        raise CapExceeded(f"{n} rows exceed the {SOLVE_ROWS} one int64 elimination takes")
    sizes = np.zeros(len(primes), dtype=np.intp) if divisor is None else divisor
    ends = {r: sizes == r for r in set(sizes.tolist()) if r}  # the layers whose a' ends at r
    lead, watch = max(ends, default=0), primes == first
    aug = np.concatenate([a, b], axis=2)
    moduli = primes[:, None]
    dets, minors, y = np.ones_like(primes), np.ones_like(primes), b.copy()
    for c in range(n):
        column = aug[:, :, c]
        np.remainder(column, moduli, out=column)
        if not all(column[:, c].tolist()):
            limit = np.where(c < sizes, sizes, n) if c < lead else None
            moved = _pivot_up(aug, c, c, limit)[0]
            dets[moved] = primes[moved] - dets[moved]
        pivots = column[:, c]
        dets = dets * pivots % primes
        if (done := ends.get(c + 1)) is not None:
            minors[done] = dets[done]
            if not minors[watch].all():
                break
        if not dets.any():
            minors[sizes > c] = 0
            break
        live = column.any(axis=0)
        live[: c + 1 if below else 0] = False
        live[c] = False
        rows = live.nonzero()[0]
        if below and not rows.size:
            continue
        top = aug[:, c, c:]
        np.remainder(top % moduli * _inverses(pivots, primes)[:, None], moduli, out=top)
        if rows.size and 2 * rows.size < rows[-1] - rows[0]:
            aug[:, rows, c + 1 :] += (moduli - column[:, rows])[:, :, None] * top[:, None, 1:]
        elif rows.size:
            lo, hi = rows[0], rows[-1] + 1
            scale = moduli - column[:, lo:hi]
            if lo <= c < hi:
                scale[:, c - lo] = 0
            aug[:, lo:hi, c + 1 :] += scale[:, :, None] * top[:, None, 1:]
        if done is not None and not below:
            y[done] = aug[done, :, n:] % moduli[done, :, None]
    if not minors[watch].all():
        dets = minors = np.zeros_like(primes)
    return dets, aug[:, :, n:] % moduli[:, :, None], minors, y


def _matvec_mod(a: np.ndarray, v: np.ndarray, moduli: np.ndarray) -> np.ndarray:
    """a @ v mod (P, 1) moduli, operands in [0, p): under 2**23 terms below 2**40 fit int64."""
    return (a @ v[:, :, None])[:, :, 0] % moduli


def _reduce(x: np.ndarray, moduli: np.ndarray, q: np.ndarray | None = None) -> np.ndarray:
    """x - p * rint(x * (1/p)), written over x, with q as scratch: the
    balanced residue r of each integer-valued float64 |x| < 2**52 mod p.

    Rounding 1/p and x * (1/p) moves x / p by under |x / p| 2**-51 < 2/p,
    so |r| < p/2 + 2, and p * rint(..) and r are exact integers below
    2**53.  Two such r multiply to under (2**19 + 2)**2 < 2**38.01, so a
    sum of at most FLOAT_TERMS products stays below 2**51.01 at every
    partial sum, in any order: each float64 dot product here is exact,
    however BLAS splits or threads it.
    """
    q = np.multiply(x, 1 / moduli, out=q)
    np.rint(q, out=q)
    q *= moduli
    x -= q
    return x


def _matmul_mod(a: np.ndarray, b: np.ndarray, moduli: np.ndarray, q=None) -> np.ndarray:
    """a @ b of balanced residues, reduced, FLOAT_TERMS inner terms at once."""
    out = _reduce(a[..., :FLOAT_TERMS] @ b[..., :FLOAT_TERMS, :], moduli, q)
    for s in range(FLOAT_TERMS, a.shape[-1], FLOAT_TERMS):
        out += _reduce(a[..., s : s + FLOAT_TERMS] @ b[..., s : s + FLOAT_TERMS, :], moduli, q)
    return out if a.shape[-1] <= FLOAT_TERMS else _reduce(out, moduli, q)


def trace_layer_size(n: int, count: int) -> tuple[int, int]:
    """(r, entries): ceil(sqrt(min(n, count))) baby steps, at most BABY_CAP / n**2,
    and the float64 entries of a layer in trace_powers_mod, r + 2 GIANTS + 3 n x n."""
    r = max(1, min(isqrt(min(n, count) - 1) + 1, BABY_CAP // (n * n)))
    return r, (r + 2 * GIANTS + 3) * n * n


def trace_powers_mod(a: np.ndarray, primes: np.ndarray, count: int) -> np.ndarray:
    """tr(A**j), j = 1..count, of each layer of an (L, n, n) stack with
    entries in [0, p), modulo its prime, as an (L, count) int64 array.

    Baby steps A, .., A**r and giant steps G = A**r, G**2, .. (Paterson &
    Stockmeyer, SIAM J. Comput. 2, 1973) take about 2 sqrt(count) float64
    products (_reduce): tr(G**k A**i) = sum_xy (G**k)_xy (A**i)_yx, for
    GIANTS giant powers at once as they are made.  A baby step A @ X sums
    the w rows of X that a row of A picks if all have w <= n/16 nonzeros.
    """
    layers, n = a.shape[:2]
    moduli = primes.astype(np.float64)[:, None, None]
    base = _reduce(a.astype(np.float64), moduli)
    r, q = trace_layer_size(n, count)[0], np.empty_like(base)  # q: _reduce's scratch
    w = int((a != 0).sum(axis=2).max(initial=0))
    if 16 * w <= n:
        cols = np.argsort(a == 0, axis=2, kind="stable")[:, :, :w]  # each row's nonzeros
        vals, rows = np.take_along_axis(base, cols, axis=2)[:, :, None], np.arange(layers)
    baby = np.empty((layers, r, n, n))  # baby[:, i] = (A**(i+1)).T
    baby[:, 0] = (power := base).transpose(0, 2, 1)
    for i in range(1, r):
        power = (_reduce((vals @ power[rows[:, None, None], cols])[:, :, 0], moduli, q)
                 if 16 * w <= n else _matmul_mod(base, power, moduli, q))
        baby[:, i] = power.transpose(0, 2, 1)
    traces, held = [np.einsum("lixx->li", baby)], []
    baby, last = baby.reshape(layers, r, n * n), -(-count // r) - 1
    for k in range(1, last + 1):
        giant = _matmul_mod(giant, power, moduli, q) if k > 1 else power
        held.append(giant.reshape(layers, n * n))
        if len(held) == GIANTS or k == last:
            got = _matmul_mod(baby, np.stack(held, axis=1).transpose(0, 2, 1), moduli)
            traces.append(got.transpose(0, 2, 1).reshape(layers, -1))  # by k, then i
            held = []
    out = _reduce(np.concatenate(traces, axis=1)[:, :count], moduli[:, 0])
    return out.astype(np.int64) % primes[:, None]


def newton_mod(sums: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """Ascending (L, d + 1) coefficients, modulo each layer's prime, of the
    monic polynomial x**d + c_1 x**(d-1) + .. whose roots have the power
    sums s_j = sums[:, j - 1], by Newton's identities
    k c_k = -(c_(k-1) s_1 + .. + c_0 s_k): each prime must exceed d."""
    layers, d = sums.shape
    if bad := [p for p in set(primes.tolist()) if not _is_modulus(p) or p <= d]:
        raise BadPrime(f"degree {d} needs odd prime moduli in ({d}, 2**20), got {bad[0]}")
    inverse = np.array([_reciprocals(p, d) for p in primes.tolist()]).reshape(layers, d + 1)
    c = np.eye(1, d + 1, dtype=np.int64).repeat(layers, axis=0)  # c[:, k] = c_k
    for k in range(1, d + 1):
        acc = (c[:, k - 1 :: -1] * sums[:, :k]).sum(axis=1) % primes
        c[:, k] = (primes - acc) * inverse[:, k] % primes
    return c[:, ::-1]


@lru_cache(maxsize=1024)
def _reciprocals(p: int, d: int) -> np.ndarray:
    inverse = [0, 1]  # 1/k = -(p // k) / (p % k), and p % k < k
    for k in range(2, d + 1):
        inverse.append(-(p // k) * inverse[p % k] % p)
    return np.array(inverse[: d + 1], dtype=np.int64)


def summed_power_sums_mod(
    sums: np.ndarray, primes: np.ndarray, count: int, owner: np.ndarray, tables: int
) -> np.ndarray:
    """sum_B tr(B**j), j = 1..count, over the n x n matrices B of each layer
    mod its prime, per table, as (layers, tables, count): B adds to table
    owner[b], ascending in b.  From their first min(n, count) power sums
    sums[l, b]: past n, s_j = -(c_1 s_(j-1) + .. + c_n s_(j-n)) by B's
    charpoly (newton_mod), skipped for a B whose first n sums vanish in
    every layer.  The sequences run along the first axis of a
    (count, layers, B) array, so each step reads and writes whole slabs."""
    layers, _, n = sums.shape
    moduli = primes[:, None]
    out = np.zeros((layers, tables, count), dtype=np.int64)
    live = sums.any(axis=(0, 2))
    owner, window = owner[live], sums[:, live]
    if not owner.size:
        return out
    seq = np.empty((count, layers, len(owner)), dtype=np.int64)  # s_j of each B
    seq[:n] = window.transpose(2, 0, 1)
    if count > n:
        coeffs = newton_mod(window.reshape(-1, n), np.repeat(primes, len(owner)))
        negated = -coeffs.reshape(layers, -1, n + 1)[:, :, :n] % moduli[:, :, None]
        negated = np.ascontiguousarray(negated.transpose(2, 0, 1))
        for j in range(n, count):
            seq[j] = (negated * seq[j - n : j]).sum(axis=0) % moduli
    starts = np.flatnonzero(np.concatenate(([True], owner[1:] != owner[:-1])))  # runs
    out[:, owner[starts]] = (np.add.reduceat(seq, starts, axis=2) % moduli).transpose(1, 2, 0)
    return out


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
    most stack_layers(layer_size), the entries one prime takes in the
    caller's largest stack.  A caller that refuses a whole stack when its
    first prime fails drops its other primes too, so the primes used
    depend on STACK_CAP; the values do not.  Returns None when the first
    prime is skipped, for the caller to take another route; it must skip
    only finitely many later primes.
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

"""Independent reference computations used by the acceptance suite.

Everything here avoids the library's resultant machinery on purpose:
cofactor expansion over the polynomial ring is slow but unarguable.
Likewise the simplex listing walks vertex sets instead of the library's
bitmask table, and interpolation runs Newton's divided differences in
Fractions instead of the library's Lagrange basis modulo primes.  The
whole-matrix routes reduce a Macaulay table's M and M' modulo primes as
whole dense matrices, without its split into diagonal blocks.  Their
charpolys come by Hessenberg reduction in int64 (charpoly_mod), and
their quotients by exact polynomial division (poly_divexact_mod), where
the library sums power sums and runs Newton's identities.  The full
pencil shares the library's solve kernel, but takes every column of
each block's N = A**-1 F1, where the library keeps only the columns on
which F1 is nonzero, and multiplies and divides Hessenberg charpolys.

The fraction-free _det_mod, which scales rows instead of dividing and
inverts once per layer at the end, is the reference for the
determinants of the library's one elimination kernel, _solve_mod, and
gives the whole-matrix determinant ratio.  kept_block_norms reads the
coefficient bounds' R and S off a dense matrix cut into the table's
kept diagonal blocks, where the library counts patterns of rows.

The switching conditions are checked by walking every (k-1)-subset
of V2 and probing each vertex of V1 for an edge, where the library
counts neighborhoods in one pass over the edges.

The dense tensor helpers at the end are used only by tests: the general
Shao product and the map x -> A x**(m-1) in Fractions are references
for mat_sim and for zero-E-char witnesses, and the matrix builders,
the symmetry and orthogonality checks and enumerate_all build and check
fixtures.  So are the last functions, once methods of the library's
types: a tensor's entry and the zero tensor, the sum, product, value and
total degree of a polynomial held, as in PolySystem, as a dict from
exponent tuples to coefficients, and a lambda system at one lambda.
Gosper's walk over the masks of a given popcount and the per-mask
simplex count are the references for the library's chunked mask walks.
At the end, the odd-order E-characteristic system with lambda in every
f_i, which the library replaced by a lambda-free one on the sphere's
quadric, and sympy's Macaulay resultant of a numeric system.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import prod
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from hyperspec.errors import (
    BadPrime,
    ConditionAViolated,
    ConditionBViolated,
    DimMismatch,
    InputError,
    MathError,
)
from hyperspec.hypergraph import Hypergraph, from_bitmask, mask_orbit, simplex_masks, universe_slots
from hyperspec.macaulay import _SHIFTS, PolySystem, _blockwise, _det_product
from hyperspec.modular import _inverses, _is_modulus, _matvec_mod, _pivot_up, _solve_mod
from hyperspec.polynomial import UniPoly
from hyperspec.spectra import e_char_poly_system, tensor_polynomial_map
from hyperspec.switching import SwitchingPartition, SwitchReport, _check_partition
from hyperspec.tensor import Tensor, _offset, _unoffset


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


def neighbors_in(
    h: Hypergraph, core: Iterable[int], pool: Iterable[int]
) -> frozenset[int]:
    """Vertices w in the pool completing the (k-1)-set core to an edge."""
    core_set = frozenset(core)
    base = tuple(sorted(core_set))
    out = set()
    for w in pool:
        if w in core_set:
            continue
        if tuple(sorted(base + (w,))) in h.edges:
            out.add(w)
    return frozenset(out)


def validate_by_cores(h: Hypergraph, p: SwitchingPartition) -> SwitchReport:
    """switching.validate by walking all C(|V2|, k-1) subsets of V2 in
    lexicographic order and probing V1 for each through neighbors_in."""
    _check_partition(p, h.n)
    n1 = len(p.v1)
    for edge in sorted(h.edges):
        if sum(1 for v in edge if v in p.v1) > 1:
            raise ConditionAViolated(edge)
    switched: list[tuple[int, ...]] = []
    histogram: dict[int, int] = {}
    for core in combinations(sorted(p.v2), h.k - 1):
        count = len(neighbors_in(h, core, p.v1))
        if count not in (0, n1 // 2, n1):
            raise ConditionBViolated(core, count, (0, n1 // 2, n1))
        histogram[count] = histogram.get(count, 0) + 1
        if count == n1 // 2:
            switched.append(core)
    return SwitchReport(n1, tuple(switched), tuple(sorted(histogram.items())))


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


# --- the fraction-free determinant, the reference for _solve_mod's ---


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


# --- the Hessenberg charpoly route, the reference for the power sums ---


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
            raise BadPrime(f"modulus must be an odd prime below 2**20, got {p}")
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[0] != len(primes):
        raise InputError("matrix must be square, one layer per prime")
    n = a.shape[1]
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


def kept_block_norms(table, rows: Sequence[Sequence[int]]) -> tuple[int, int]:
    """(R, S) of a dense integer matrix on a table's kept diagonal blocks:
    the largest absolute row sum inside one block, and the sum of the
    squared entries inside the blocks."""
    blocks = [block for group in table.blocks for block in group.index.tolist()]
    radius = max((sum(abs(rows[r][c]) for c in b) for b in blocks for r in b), default=0)
    return radius, sum(rows[r][c] ** 2 for b in blocks for r in b for c in b)


def whole_det_ratio_mod(table, primes: np.ndarray, lam: int) -> tuple[np.ndarray, np.ndarray]:
    """det(M) / det(M') at one lambda modulo each prime, and the mask of
    the primes not dividing det(M')."""
    full = dense_stack(table, primes, np.full(len(primes), lam, dtype=np.int64))
    det_minor = _det_mod(divisor_stack(table, full), primes)
    return _det_mod(full, primes) * _inverses(det_minor, primes) % primes, det_minor != 0


def full_pencil_values(table, nodes: Sequence[int], primes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """macaulay._pencil_values on the whole N = A**-1 F1 of every block
    and N' = A'**-1 F1' of every divisor block, each from its own
    elimination: it solves against every column of F1 and takes each
    block's charpoly of full size, where the library keeps only the
    columns on which F1 is nonzero and reads N' off the elimination of M.
    Returns the (P, nodes) residues and the (P,) mask of primes where the
    stack's shift works."""
    solved = np.zeros(len(primes), dtype=bool)

    def eliminated(groups, stacks):
        got = list(_blockwise(groups, primes, stacks, _solve_mod, lambda s: 2 * (s + 1) ** 2))
        return got, _det_product([det for det, *_ in got], primes)

    for c in _SHIFTS:
        lams = np.full(len(primes), c, dtype=np.int64)
        stacks = table.stacks(primes, lams, lambda g: slice(None))
        minor, det_minor = eliminated(table.minors, stacks)
        if det_minor[0]:
            full, det_full = eliminated(table.blocks, stacks)
            if det_full[0]:
                solved = (det_minor != 0) & (det_full != 0)
                break
    if not solved[0]:
        return np.zeros((len(primes), len(nodes)), dtype=np.int64), solved
    solutions = {}
    for groups, solved_blocks in ((table.blocks, full), (table.minors, minor)):
        for group, (_, n, *_) in zip(groups, solved_blocks):
            n[~solved] = 0
            solutions[id(group)] = n
    moduli, cube = primes[:, None], primes[:, None, None]

    def negated(group, layers, blocks):
        return (-solutions[id(group)][layers, blocks] % cube[layers],)

    num, den = (
        poly_product_mod([cp for cp, in _blockwise(groups, primes, negated, charpoly_mod,
                                                    lambda s: s * s)], primes)
        for groups in (table.blocks, table.minors)
    )
    q = poly_divexact_mod(num, den, primes)
    t, acc = (np.array(nodes, dtype=np.int64) - c) % moduli, 0
    for j in range(q.shape[1]):
        acc = (acc * t + q[:, j, None]) % moduli
    scale = det_full * _inverses(det_minor, primes) % primes
    return scale[:, None] * acc % moduli, solved


def from_rows(rows: Sequence[Sequence[Fraction | int]]) -> Tensor:
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimMismatch("rows must form a square matrix")
    return Tensor(2, n, tuple(Fraction(v) for row in rows for v in row))


def permutation_matrix(images: Sequence[int]) -> Tensor:
    """Matrix with row i carrying a single 1 in column images[i] (0-based)."""
    n = len(images)
    if sorted(images) != list(range(n)):
        raise InputError(f"{images} is not a permutation of 0..{n - 1}")
    return Tensor.from_map(2, n, {(i, j): 1 for i, j in enumerate(images)})


def is_orthogonal(q: Tensor) -> bool:
    """Q Q^T = I, checked on the Fraction rows of the matrix q."""
    rows = [q.entries[i * q.dim : (i + 1) * q.dim] for i in range(q.dim)]
    return all(
        sum(x * y for x, y in zip(r, s)) == (i == j)
        for i, r in enumerate(rows)
        for j, s in enumerate(rows)
    )


def shao_product(a: Tensor, b: Tensor) -> Tensor:
    """General tensor product: order m and k combine to (m-1)(k-1) + 1.

    Entry at (i, alpha_1, ..., alpha_{m-1}) is the sum over index vectors
    (j_1, ..., j_{m-1}) of a[i, j_1, ..., j_{m-1}] times the product of
    b[j_t, alpha_t].  A column vector is the order-1 case of b.
    """
    if a.dim != b.dim:
        raise DimMismatch("product operands must share the dimension")
    if a.order < 2:
        raise DimMismatch("left operand must have order at least 2")
    n = a.dim
    m, k = a.order, b.order
    block = n ** (k - 1)  # size of one alpha slot
    out_blocks = block ** (m - 1)
    out = [Fraction(0)] * (n * out_blocks)
    b_rows = [b.entries[j * block : (j + 1) * block] for j in range(n)]
    for flat, value in enumerate(a.entries):
        if value == 0:
            continue
        idx = _unoffset(flat, m, n)
        i, tail = idx[0], idx[1:]
        partial = [value]
        for j in tail:
            row = b_rows[j]
            partial = [c * w for c in partial for w in row]
        base = i * out_blocks
        for off, c in enumerate(partial):
            if c:
                out[base + off] += c
    return Tensor((m - 1) * (k - 1) + 1, n, tuple(out))


def apply(a: Tensor, x: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
    """The degree-(m-1) polynomial map of the tensor at a vector."""
    if len(x) != a.dim:
        raise DimMismatch("vector length must equal the tensor dimension")
    vals = [Fraction(v) for v in x]
    out = [Fraction(0)] * a.dim
    for flat, value in enumerate(a.entries):
        if value == 0:
            continue
        idx = _unoffset(flat, a.order, a.dim)
        term = value
        for j in idx[1:]:
            term *= vals[j]
        out[idx[0]] += term
    return tuple(out)


def is_symmetric(a: Tensor) -> bool:
    for flat, value in enumerate(a.entries):
        idx = _unoffset(flat, a.order, a.dim)
        canon = tuple(sorted(idx))
        if idx != canon and value != entry(a, canon):
            return False
    return True


def symmetric_from_upper(
    order: int, dim: int, values: Mapping[tuple[int, ...], Fraction | int]
) -> Tensor:
    """Symmetric tensor with the given value at every rearrangement of each key."""
    full: dict[tuple[int, ...], Fraction] = {}
    for idx, value in values.items():
        for perm in set(permutations(idx)):
            full[perm] = Fraction(value)
    return Tensor.from_map(order, dim, full)


def popcount_masks(slots: int, count: int) -> Iterator[int]:
    """Every mask of count bits below 1 << slots, in increasing order.

    Gosper's next-bit-permutation (HAKMEM item 175) steps from each mask
    to the next, so only the C(slots, count) masks are visited: the
    reference walk for hypergraph.mask_chunks, which decodes colex ranks,
    at any number of slots.
    """
    if not 0 <= count <= slots:
        return
    if count == 0:
        yield 0
        return
    mask, limit = (1 << count) - 1, 1 << slots
    while mask < limit:
        yield mask
        low = mask & -mask
        ripple = mask + low
        mask = ripple | ((mask ^ ripple) >> 2) // low


def mask_simplex_count(n: int, k: int, mask: int) -> int:
    """The simplices of the (n, k) hypergraph with this edge bitmask, one
    face mask at a time, where hypergraph.simplex_counts takes arrays."""
    return sum(mask & faces == faces for _, faces in simplex_masks(n, k))


def enumerate_all(
    n: int,
    k: int,
    *,
    edge_count: int | None = None,
    up_to_iso: bool = False,
) -> Iterator[Hypergraph]:
    """All hypergraphs on labeled vertices, streamed in bitmask order.

    With up_to_iso, only the least mask of each isomorphism class: in
    increasing order that is the first of its orbit to be reached.
    """
    slots = universe_slots(n, k)
    if edge_count is None:
        masks: Iterable[int] = range(1 << slots)
    else:
        masks = popcount_masks(slots, edge_count)
    ahead: set[int] = set()  # orbit members not yet reached
    for mask in masks:
        if up_to_iso:
            if mask in ahead:
                ahead.remove(mask)
                continue
            ahead |= mask_orbit(n, k, mask)
            ahead.remove(mask)
        yield from_bitmask(n, k, mask)


def entry(a: Tensor, idx: tuple[int, ...]) -> Fraction:
    """The entry of a at a 0-based index."""
    return a.entries[_offset(idx, a.order, a.dim)]


def zero_tensor(order: int, dim: int) -> Tensor:
    return Tensor(order, dim, (Fraction(0),) * dim**order)


def _nonzero(terms: Mapping) -> dict:
    return {exp: c for exp, c in terms.items() if c}


def poly_add(p: Mapping, q: Mapping) -> dict:
    """p + q for polynomials held as dicts from exponent tuples to
    coefficients, zero sums dropped."""
    merged = dict(p)
    for exp, coeff in q.items():
        merged[exp] = merged.get(exp, 0) + coeff
    return _nonzero(merged)


def poly_mul(p: Mapping, q: Mapping) -> dict:
    """p * q, zero sums dropped."""
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return _nonzero(out)


def poly_value(p: Mapping, point: Sequence[Fraction | int]) -> Fraction:
    """p at a point, in Fractions."""
    acc = Fraction(0)
    for exp, coeff in p.items():
        if len(exp) != len(point):
            raise DimMismatch("evaluation point has wrong arity")
        term = Fraction(coeff)
        for v, e in zip(point, exp):
            term *= Fraction(v) ** e
        acc += term
    return acc


def total_degree(p: Mapping) -> int:
    """The largest degree of a nonzero term of p; -1 for the zero polynomial."""
    return max((sum(exp) for exp, c in p.items() if c), default=-1)


def system_at(system: PolySystem, lam: Fraction | int) -> PolySystem:
    """The numeric system polys[i] + lam * linear[i] at one value of lambda."""
    polys = tuple(poly_add(c, {e: v * lam for e, v in l.items()})
                  for c, l in zip(system.polys, system.linear))
    return PolySystem(system.nvars, polys, system.degrees)


def lambda_e_char_system(a: Tensor | Hypergraph) -> PolySystem:
    """The E-characteristic system linear in lambda, whose resultant is the
    E-characteristic polynomial itself.  For odd order m, in the variables
    (x_1..x_n, beta): (A x**(m-1))_i - lambda x_i beta**(m-2) and the
    quadric x.x - beta**2, the reference for spectra.e_char_poly_system,
    which moves lambda into the quadric; F1 is nonzero inside M' here.
    For even order, the library's own system."""
    order = a.order if isinstance(a, Tensor) else a.k
    if order % 2 == 0:
        return e_char_poly_system(a)
    component = tensor_polynomial_map(a)
    n = len(component)
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    quadric = {tuple(2 * v for v in e) + (0,): 1 for e in units}
    quadric[(0,) * n + (2,)] = -1
    return PolySystem(
        n + 1,
        (*({e + (0,): c for e, c in p.items()} for p in component), quadric),
        (order - 1,) * n + (2,),
        (*({e + (order - 2,): -1} for e in units), {}),
    )


def sympy_resultant(system: PolySystem) -> Fraction:
    """The resultant of a numeric system from sympy's MacaulayResultant.

    sympy picks its divisor rows by looking for the coefficient a_i of
    x_i**d_i, so each a_i enters as a symbol and is substituted afterwards.
    Where sympy's divisor vanishes, the value is Res(F - s x**d) at s = 0,
    interpolated from det M / det M' at D + 1 integers s with a nonzero
    divisor: Res(F - s x**d) has degree at most D = sum_i prod_{j != i} d_j
    in s."""
    # imported here: perfbench imports this module, and sympy would add
    # about 30 MB to every search run's peak RSS
    import sympy
    from sympy.polys.multivariate_resultants import MacaulayResultant

    n = system.nvars
    xs, a = sympy.symbols(f"x0:{n}"), sympy.symbols(f"a0:{n}")
    polys, pure = [], []
    for i, (poly, d) in enumerate(zip(system.polys, system.degrees)):
        power = tuple(d if j == i else 0 for j in range(n))
        polys.append(a[i] * xs[i] ** d + sum(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.prod(x**e for x, e in zip(xs, exp))
            for exp, c in poly.items() if exp != power
        ))
        c = Fraction(poly.get(power, 0))
        pure.append(sympy.Rational(c.numerator, c.denominator))
    resultant = MacaulayResultant(polys, list(xs))
    full = resultant.get_matrix()
    minor = resultant.get_submatrix(full)
    degree = sum(prod(system.degrees[:i] + system.degrees[i + 1 :]) for i in range(n))
    points, s = [], 0
    while not (points and points[0][0] == 0) and len(points) <= degree:
        at = {ai: v - s for ai, v in zip(a, pure)}
        den = minor.subs(at).det()
        if den != 0:
            points.append((s, full.subs(at).det() / den))
        s += 1
    value = points[0][1] if points[0][0] == 0 else sympy.interpolate(points, 0)
    return Fraction(int(value.p), int(value.q))

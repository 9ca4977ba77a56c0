"""Independent reference computations used by the acceptance suite.

Everything here avoids the library's resultant machinery on purpose:
cofactor expansion over the polynomial ring is slow but unarguable.
Likewise the simplex listing walks vertex sets instead of the library's
bitmask table, and interpolation runs Newton's divided differences in
Fractions instead of the library's Lagrange basis modulo primes.  The
whole-matrix routes reduce a Macaulay table's M and M' modulo primes as
whole dense matrices, without its split into diagonal blocks.

The dense tensor helpers at the end are used only by tests: the general
Shao product and the map x -> A x**(m-1) in Fractions are references
for mat_sim and for zero-E-char witnesses, and the matrix builders,
the symmetry and orthogonality checks and enumerate_all build and check
fixtures.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from hyperspec.errors import DimMismatch, InputError, MathError
from hyperspec.hypergraph import (
    Hypergraph,
    from_bitmask,
    mask_orbit,
    popcount_masks,
    universe_slots,
)
from hyperspec.modular import _det_mod, _inverses, charpoly_mod, poly_divexact_mod
from hyperspec.polynomial import UniPoly
from hyperspec.tensor import Tensor, _unoffset


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
        if idx != canon and value != a.get(canon):
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

"""Dense cubical tensors over the rationals.

A Tensor of order m and dimension n stores its n**m entries in a flat
row-major tuple indexed by m-tuples of 0-based coordinates.  Matrices
are simply order-2 tensors.

The similarity action of a matrix, along every mode of a tensor, has one
integer kernel, _mode_products.  mat_sim scales its Fraction operands to
integers for it, and switching.verify_similarity calls it on the scaled
switching matrix and adjacency tensor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DimMismatch, InputError, ZeroVector


@dataclass(frozen=True)
class Tensor:
    order: int
    dim: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if self.order < 1:
            raise DimMismatch(f"order must be at least 1, got {self.order}")
        if self.dim < 1:
            raise DimMismatch(f"dimension must be at least 1, got {self.dim}")
        expected = self.dim**self.order
        cleaned = tuple(v if isinstance(v, Fraction) else Fraction(v) for v in self.entries)
        if len(cleaned) != expected:
            raise DimMismatch(
                f"expected {expected} entries for order {self.order} dim {self.dim}, "
                f"got {len(cleaned)}"
            )
        object.__setattr__(self, "entries", cleaned)

    @classmethod
    def zero(cls, order: int, dim: int) -> "Tensor":
        return cls(order, dim, (Fraction(0),) * dim**order)

    @classmethod
    def from_map(
        cls, order: int, dim: int, values: Mapping[tuple[int, ...], Fraction | int]
    ) -> "Tensor":
        entries = [Fraction(0)] * dim**order
        for idx, value in values.items():
            entries[_offset(idx, order, dim)] = Fraction(value)
        return cls(order, dim, tuple(entries))

    def get(self, idx: tuple[int, ...]) -> Fraction:
        return self.entries[_offset(idx, self.order, self.dim)]

    def nonzero_items(self) -> Iterable[tuple[tuple[int, ...], Fraction]]:
        for flat, value in enumerate(self.entries):
            if value != 0:
                yield _unoffset(flat, self.order, self.dim), value


def _offset(idx: Sequence[int], order: int, dim: int) -> int:
    if len(idx) != order:
        raise DimMismatch(f"index {tuple(idx)} has arity {len(idx)}, expected {order}")
    flat = 0
    for i in idx:
        if not 0 <= i < dim:
            raise DimMismatch(f"index {tuple(idx)} out of range for dimension {dim}")
        flat = flat * dim + i
    return flat


def _unoffset(flat: int, order: int, dim: int) -> tuple[int, ...]:
    idx = []
    for _ in range(order):
        flat, r = divmod(flat, dim)
        idx.append(r)
    return tuple(reversed(idx))


def unit_tensor(order: int, dim: int) -> Tensor:
    """Diagonal tensor of ones: the identity of the similarity relation."""
    return Tensor.from_map(order, dim, {(i,) * order: 1 for i in range(dim)})


def identity(dim: int) -> Tensor:
    return unit_tensor(2, dim)


def from_rows(rows: Sequence[Sequence[Fraction | int]]) -> Tensor:
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimMismatch("rows must form a square matrix")
    return Tensor(2, n, tuple(Fraction(v) for row in rows for v in row))


def to_rows(matrix: Tensor) -> list[list[Fraction]]:
    _require_matrix(matrix)
    n = matrix.dim
    return [list(matrix.entries[i * n : (i + 1) * n]) for i in range(n)]


def permutation_matrix(images: Sequence[int]) -> Tensor:
    """Matrix with row i carrying a single 1 in column images[i] (0-based)."""
    n = len(images)
    if sorted(images) != list(range(n)):
        raise InputError(f"{images} is not a permutation of 0..{n - 1}")
    return Tensor.from_map(2, n, {(i, j): 1 for i, j in enumerate(images)})


def transpose(matrix: Tensor) -> Tensor:
    rows = to_rows(matrix)
    n = matrix.dim
    return from_rows([[rows[j][i] for j in range(n)] for i in range(n)])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _require_matrix(a)
    _require_matrix(b)
    if a.dim != b.dim:
        raise DimMismatch("matrix product needs equal dimensions")
    ra, rb = to_rows(a), to_rows(b)
    n = a.dim
    return from_rows(
        [[sum(ra[i][t] * rb[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    )


def is_orthogonal(matrix: Tensor) -> bool:
    return matmul(matrix, transpose(matrix)) == identity(matrix.dim)


def _require_matrix(matrix: Tensor) -> None:
    if matrix.order != 2:
        raise DimMismatch(f"expected an order-2 tensor, got order {matrix.order}")


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


def mat_sim(p: Tensor, a: Tensor) -> Tensor:
    """Similarity action of a matrix: p applied along every mode of a.

    Equals shao_product(shao_product(p, a), transpose(p)).  Both operands
    are scaled to integers by the lcm of their denominators, the integer
    kernel _mode_products applies p along each mode, and the scales are
    divided back out.
    """
    _require_matrix(p)
    if p.dim != a.dim:
        raise DimMismatch("similarity operands must share the dimension")
    p_scale = lcm(*(v.denominator for v in p.entries))
    a_scale = lcm(*(v.denominator for v in a.entries))
    q = [v.numerator * (p_scale // v.denominator) for v in p.entries]
    x = [v.numerator * (a_scale // v.denominator) for v in a.entries]
    image = _mode_products(
        np.array(q, dtype=object).reshape(p.dim, p.dim),
        np.array(x, dtype=object).reshape((a.dim,) * a.order),
    )
    scale = p_scale**a.order * a_scale
    return Tensor(a.order, a.dim, tuple(Fraction(int(v), scale) for v in image.flat))


def _mode_products(q: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The integer matrix q applied along every mode of the integer array a.

    With R the largest absolute row sum of q, every entry of q and a and
    every partial product is bounded in absolute value by
    max(R, 1)**order * max(max|a|, 1).  The product runs in int64 while
    that stays below 2**62 and in Python ints beyond; exact either way.
    """
    rows = max(sum(abs(int(v)) for v in row) for row in q)
    top = max(abs(int(a.max())), abs(int(a.min())), 1)
    dtype = np.int64 if max(rows, 1) ** a.ndim * top < 1 << 62 else object
    q, image = q.astype(dtype), a.astype(dtype)
    for mode in range(a.ndim):
        image = np.moveaxis(np.tensordot(q, image, axes=(1, mode)), 0, mode)
    return image


def eigen_check(a: Tensor, value: Fraction | int, vector: Sequence[Fraction | int]) -> bool:
    """Exact check of the eigenvalue equation a x = value * x^(m-1)."""
    vals = [Fraction(v) for v in vector]
    if all(v == 0 for v in vals):
        raise ZeroVector("eigenvector candidate must be nonzero")
    lhs = apply(a, vals)
    lam = Fraction(value)
    return all(l == lam * v ** (a.order - 1) for l, v in zip(lhs, vals))


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
        for perm in set(itertools.permutations(idx)):
            full[perm] = Fraction(value)
    return Tensor.from_map(order, dim, full)

"""Dense cubical tensors over the rationals.

A Tensor of order m and dimension n stores its n**m entries in a flat
row-major tuple indexed by m-tuples of 0-based coordinates.  Matrices
are simply order-2 tensors.

The similarity action of a matrix, along every mode of a tensor, has one
integer kernel, _mode_products.  mat_sim scales its Fraction operands to
integers for it, and switching.verify_similarity calls it on the scaled
switching matrix and adjacency tensor.  The module holds only what the
library and its command line use; the general Shao product, the
polynomial map x -> A x**(m-1) and the dense matrix builders that the
tests check it against live in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DimMismatch


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
    def from_map(
        cls, order: int, dim: int, values: Mapping[tuple[int, ...], Fraction | int]
    ) -> "Tensor":
        entries = [Fraction(0)] * dim**order
        for idx, value in values.items():
            entries[_offset(idx, order, dim)] = Fraction(value)
        return cls(order, dim, tuple(entries))

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


def mat_sim(p: Tensor, a: Tensor) -> Tensor:
    """Similarity action of a matrix: p applied along every mode of a.

    Equals the two-sided Shao product p a p^T, whose Fraction reference
    implementation is tests/oracles.shao_product.  Both operands are
    scaled to integers by the lcm of their denominators, the integer
    kernel _mode_products applies p along each mode, and the scales are
    divided back out.
    """
    if p.order != 2:
        raise DimMismatch(f"expected an order-2 tensor, got order {p.order}")
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

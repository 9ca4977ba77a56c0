"""Dense symmetric tensors: similarity, and the Fraction helpers it is
checked against."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from oracles import (
    apply,
    entry,
    from_rows,
    is_orthogonal,
    is_symmetric,
    permutation_matrix,
    shao_product,
    symmetric_from_upper,
    zero_tensor,
)

from hyperspec.errors import DimMismatch
from hyperspec.tensor import Tensor, mat_sim


def _random_symmetric(rng, order, dim):
    entries = {}
    seen = set()
    for idx in _multi_indices(order, dim):
        key = tuple(sorted(idx))
        if key in seen:
            continue
        seen.add(key)
        entries[key] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return symmetric_from_upper(order, dim, entries)


def _multi_indices(order, dim):
    if order == 0:
        yield ()
        return
    for rest in _multi_indices(order - 1, dim):
        for i in range(dim):
            yield rest + (i,)


def test_constructor_validation():
    with pytest.raises(DimMismatch):
        Tensor(order=2, dim=2, entries=(Fraction(1),) * 3)  # wrong length
    with pytest.raises(DimMismatch):
        Tensor(order=0, dim=2, entries=())
    with pytest.raises(DimMismatch):
        Tensor(order=2, dim=-1, entries=())


def test_from_rows_round_trip():
    rows = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    t = from_rows(rows)
    assert t.entries == tuple(v for r in rows for v in r)
    with pytest.raises(DimMismatch):
        from_rows([[Fraction(1)], [Fraction(2), Fraction(3)]])


def test_matmul_and_shao_agree_for_matrices():
    rng = random.Random(101)
    for _ in range(10):
        ra = [[Fraction(rng.randint(-5, 5)) for _ in range(4)] for _ in range(4)]
        rb = [[Fraction(rng.randint(-5, 5)) for _ in range(4)] for _ in range(4)]
        product = tuple(
            sum(ra[i][t] * rb[t][j] for t in range(4)) for i in range(4) for j in range(4)
        )
        assert shao_product(from_rows(ra), from_rows(rb)).entries == product


def test_shao_identity_is_neutral():
    rng = random.Random(102)
    for order, dim in ((3, 2), (3, 3), (4, 2)):
        b = _random_symmetric(rng, order, dim)
        unit = Tensor.from_map(2, dim, {(i, i): 1 for i in range(dim)})
        assert shao_product(unit, b).entries == b.entries


def test_shao_rejects_dim_mismatch():
    with pytest.raises(DimMismatch):
        shao_product(zero_tensor(2, 2), zero_tensor(3, 3))


def test_apply_single_edge():
    # triple {1,2,3} as an order-3 weight array: applying the all-ones
    # vector reproduces it, so 1 is an eigenvalue with eigenvector (1,1,1)
    half = Fraction(1, 2)
    entries = {}
    for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        entries[perm] = half
    a = Tensor.from_map(3, 3, entries)
    ones = (Fraction(1), Fraction(1), Fraction(1))
    assert apply(a, ones) == ones


def test_apply_diagonal_cubes():
    u = Tensor.from_map(3, 2, {(0, 0, 0): 1, (1, 1, 1): 1})
    out = apply(u, (Fraction(2), Fraction(-3)))
    assert out == (Fraction(4), Fraction(9))  # squares, one mode contracted twice


def test_apply_zero_tensor():
    z = zero_tensor(3, 2)
    assert apply(z, (Fraction(1), Fraction(5))) == (Fraction(0), Fraction(0))


def test_permutation_matrix_and_mat_sim_relabels():
    rng = random.Random(103)
    images = [2, 0, 1]
    p = permutation_matrix(images)
    assert is_orthogonal(p)
    a = _random_symmetric(rng, 3, 3)
    b = mat_sim(p, a)
    # each axis of the result reads entry images[w] of the original
    for idx in _multi_indices(3, 3):
        assert entry(b, idx) == entry(a, tuple(images[w] for w in idx))


def test_mat_sim_composes():
    rng = random.Random(104)
    a = _random_symmetric(rng, 3, 3)
    p1 = permutation_matrix([1, 2, 0])
    p2 = permutation_matrix([2, 1, 0])
    lhs = mat_sim(p1, mat_sim(p2, a))
    rhs = mat_sim(permutation_matrix([1, 0, 2]), a)  # p1 p2: row i is p2's row 1, 2, 0
    assert lhs.entries == rhs.entries


def test_mat_sim_matches_two_sided_shao():
    rng = random.Random(105)
    # the last case has matrix entries near 2**40 on an order-3 tensor: its
    # scaled products pass 2**62, so the kernel runs in Python ints
    for order, dim, size, denominator in (
        (3, 2, 3, 1), (3, 3, 3, 1), (4, 2, 3, 1), (3, 3, 1 << 40, 3)
    ):
        a = _random_symmetric(rng, order, dim)
        rows = [
            [Fraction(rng.randint(-size, size), denominator) for _ in range(dim)]
            for _ in range(dim)
        ]
        p = from_rows(rows)
        expected = shao_product(shao_product(p, a), from_rows(list(zip(*rows))))
        assert mat_sim(p, a).entries == expected.entries


def test_mat_sim_preserves_symmetry():
    rng = random.Random(106)
    for _ in range(50):
        order = rng.choice((3, 4))
        dim = rng.choice((2, 3))
        a = _random_symmetric(rng, order, dim)
        assert is_symmetric(a)
        rows = [
            [Fraction(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(dim)
        ]
        assert is_symmetric(mat_sim(from_rows(rows), a))


def test_identity_mat_sim_is_identity():
    rng = random.Random(107)
    a = _random_symmetric(rng, 4, 3)
    assert mat_sim(permutation_matrix([0, 1, 2]), a).entries == a.entries


def test_is_orthogonal():
    assert is_orthogonal(permutation_matrix([0, 1, 2, 3]))
    assert is_orthogonal(permutation_matrix([3, 1, 0, 2]))
    assert not is_orthogonal(from_rows([[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1)]]))
    third = Fraction(1, 3)
    rows = [[2 * third - (1 if i == j else 0) for j in range(3)] for i in range(3)]
    assert is_orthogonal(from_rows(rows))  # reflection used by the switching code


def test_symmetric_from_upper_spreads_entries():
    t = symmetric_from_upper(3, 3, {(0, 1, 2): Fraction(5)})
    for perm in ((0, 1, 2), (2, 1, 0), (1, 2, 0)):
        assert entry(t, perm) == 5
    assert is_symmetric(t)
    # key order is normalized, so a descending key lands in the same orbit
    t2 = symmetric_from_upper(3, 3, {(2, 1, 0): Fraction(5)})
    assert t2.entries == t.entries

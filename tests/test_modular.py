"""Modular determinants, characteristic polynomials and Chinese remaindering."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from oracles import (
    _det_mod, charpoly_mod, classical_char_poly, int_det, poly_divexact_mod, poly_product_mod,
)

from hyperspec.errors import BadPrime, CapExceeded, InputError, MathError
from hyperspec.macaulay import _Blocks, _lagrange_mod, _quotient
from hyperspec.modular import (
    MAX_PRIMES,
    PRIME_LIMIT,
    STACK_CAP,
    _solve_mod,
    crt_combine,
    crt_values,
    is_prime,
    newton_mod,
    nth_prime,
    symmetric_residue,
    trace_powers_mod,
)
from hyperspec.polynomial import UniPoly

_CHARPOLY_PRIMES = (nth_prime(0), 1_000_003)


def _oracle_charpoly_mod(rows, p):
    ref = classical_char_poly([[Fraction(v) for v in row] for row in rows])
    return [int(ref.coefficient(j)) % p for j in range(len(rows) + 1)]


def _stack(rows, primes):
    """An integer matrix reduced modulo each prime, one layer per prime."""
    a = np.array(rows, dtype=np.int64).reshape(len(rows), len(rows))
    return np.stack([a % p for p in primes]), np.array(primes, dtype=np.int64)


def _charpoly(rows, primes):
    return charpoly_mod(*_stack(rows, primes)).tolist()


def test_is_prime_small():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)


def test_prime_list_descends_below_limit():
    first = nth_prime(0)
    assert first < PRIME_LIMIT and is_prime(first)
    assert nth_prime(1) < first
    assert all(is_prime(nth_prime(i)) for i in range(5))
    # the list is every prime in (2**19, 2**20), and no other
    last = nth_prime(MAX_PRIMES - 1)
    assert PRIME_LIMIT // 2 < last and not any(is_prime(n) for n in range(PRIME_LIMIT // 2, last))


def _dets(a, primes):
    """_solve_mod's determinants, with a right side of width 0."""
    return _solve_mod(a, a[:, :, :0], primes)[0]


def _det(rows, primes):
    # the library's kernel, checked against the fraction-free reference
    a, pv = _stack(rows, primes)
    got = _dets(a, pv).tolist()
    assert got == _det_mod(a, pv).tolist()
    return got


def test_crt_values_covers_each_bound_with_the_shortest_prefix():
    values = [10**40, -(10**40), 7, 0]
    calls = []

    def residues_mod(primes):
        calls.append(primes)
        return [[v % p for v in values] for p in primes]

    assert crt_values(residues_mod, [abs(v) for v in values]) == values
    # one call asks for every prime: they cover twice the largest bound,
    # and one prime fewer would not
    [seen] = calls
    product = 1
    for p in seen:
        product *= p
    assert product > 2 * 10**40 >= product // seen[-1]
    assert seen == [nth_prime(i) for i in range(len(seen))]
    # a value at its bound is recovered with its sign
    assert crt_values(
        lambda primes: [[-nth_prime(0) % p] for p in primes], [nth_prime(0)]
    ) == [-nth_prime(0)]


def test_crt_values_skips_primes_and_offsets_by_seed():
    value = 3 * 10**28 + 1  # five primes from either seed
    divisor = nth_prime(4)  # the residue callback refuses this prime

    def residues_mod(primes):
        return [None if p == divisor else [value % p] for p in primes]

    for seed in (0, 3):
        calls = []

        def logged(primes):
            calls.append(primes)
            return residues_mod(primes)

        assert crt_values(logged, [value], seed) == [value]
        assert calls[0][0] == nth_prime(seed) and divisor in calls[0]
        # the skipped prime costs exactly one more call, for one more prime
        assert [len(c) for c in calls] == [5, 1]
    # a refused first prime is reported, not skipped
    assert crt_values(residues_mod, [value], 4) is None


def test_crt_values_batches_do_not_change_the_primes():
    # full batches and batches capped at one prime draw the same primes in
    # the same order and recombine the same values, skips included
    values = [5 * 10**50 - 3, -(10**20), 1]
    refused = {nth_prime(1), nth_prime(6)}
    for seed in (0, 2):
        drawn = {}
        for layer_size in (1, STACK_CAP):
            calls = []

            def residues_mod(primes):
                calls.append(primes)
                return [None if p in refused else [v % p for v in values] for p in primes]

            got = crt_values(residues_mod, [abs(v) for v in values], seed, layer_size)
            assert got == values
            drawn[layer_size] = (calls, [p for c in calls for p in c])
        full, capped = drawn[1], drawn[STACK_CAP]
        assert full[1] == capped[1]
        assert all(len(c) == 1 for c in capped[0]) and len(full[0]) < len(capped[0])


def test_crt_values_skips_the_one_prime_where_a_matrix_is_singular():
    # det = nth_prime(2): singular modulo exactly that layer of the stack,
    # whose prime crt_values draws third and then skips
    g = nth_prime(2)
    rows = [[1, 2, 0], [3, 6 + g, 1], [0, 0, 1]]
    assert int_det(rows) == g
    stack_primes = [nth_prime(i) for i in range(4)]
    assert [d == 0 for d in _det(rows, stack_primes)] == [False, False, True, False]
    calls = []

    def residues_mod(primes):
        calls.append(primes)
        return [[d] if d else None for d in _det(rows, primes)]

    assert crt_values(residues_mod, [2**50]) == [g]
    assert calls == [stack_primes[:3], stack_primes[3:]]


def test_det_mod_known():
    assert _det([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [7]) == [1]
    assert _det([[1, 2], [3, 4]], [5, 7]) == [3, 5]  # -2 mod 5 and 7
    assert _det([[1, 2], [2, 4]], [11]) == [0]
    empty = np.zeros((2, 0, 0), dtype=np.int64)
    assert _dets(empty, np.array([7, 11])).tolist() == [1, 1]
    assert _det_mod(empty, np.array([7, 11])).tolist() == [1, 1]


def test_det_mod_matches_cofactor_oracle():
    rng = random.Random(99)
    for trial in range(30):
        n = rng.randrange(1, 7)
        rows = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
        d = int_det(rows)
        primes = [nth_prime(trial % 4), 7, 11]
        assert _det(rows, primes) == [d % p for p in primes]


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
        primes = [nth_prime(trial % 3), 13]
        a, pv = _stack(rows, primes)
        b = np.array([[[rng.randrange(p) for _ in range(k)] for _ in range(n)]
                      for p in primes], dtype=np.int64)
        dets, x, *_ = _solve_mod(a, b, pv)
        for layer, p in enumerate(primes):
            assert dets[layer] == int_det(rows) % p
            if dets[layer] == 0:
                singular += 1
                continue
            product = [[sum(int(a[layer, i, m]) * int(x[layer, m, j]) for m in range(n)) % p
                        for j in range(k)] for i in range(n)]
            assert product == b[layer].tolist()
    assert singular >= 8


def _cofactor_dets(a, primes):
    return [int_det(layer.tolist()) % p for layer, p in zip(a, primes.tolist())]


def test_solve_mod_without_right_side_matches_cofactor_oracle():
    # _solve_mod with a right side of width 0 eliminates only below each
    # pivot and returns the determinants alone; each case is a seeded
    # stack checked layer by layer against cofactor expansion
    rng = random.Random(3301)
    primes = [nth_prime(i) for i in range(3)] + [7, 11]

    def stack(matrices):
        return (np.array([np.array(m, dtype=np.int64) % p for m, p in matrices]),
                np.array([p for _, p in matrices], dtype=np.int64))

    cases = []
    # all-zero stacks, of every size up to 4
    cases += [stack([([[0] * n] * n, p) for p in primes]) for n in range(1, 5)]
    # singular in some layers only: an entry equal to one layer's prime,
    # and a row that is a multiple of another modulo 7 alone
    q = nth_prime(1)
    cases.append(stack([([[q, 2], [q, 2 + q]], p) for p in primes]))
    cases.append(stack([([[1, 2, 3], [2, 4, 13], [0, 5, 1]], p) for p in primes]))
    # 1x1 stacks of 40 layers and more, many of them zero
    for layers in (40, 57):
        cases.append(stack([([[rng.choice((0, 0, 1, -3, rng.randint(-99, 99)))]],
                              primes[i % len(primes)]) for i in range(layers)]))
    # row swaps: scaled permutation matrices, whose determinants carry
    # their signs, and pivots low in the column in the layer mod 7 only
    signs = set()
    for n in (2, 3, 5, 6):
        for _ in range(3):
            images = rng.sample(range(n), n)
            rows = [[int(images[i] == j) * (1 + i) for j in range(n)] for i in range(n)]
            cases.append(stack([(rows, p) for p in primes]))
            signs.add(int_det(rows) > 0)
    assert signs == {True, False}
    cases.append(stack([([[7, 1, 0], [0, 2, 1], [3, 0, 5]], p) for p in primes]))
    # random dense and sparse stacks, one matrix a layer
    for _ in range(20):
        n = rng.randrange(1, 8)
        density = rng.choice((0.3, 1.0))
        cases.append(stack([(_random_rows(rng, n, span=20, density=density), p)
                            for p in primes]))
    for a, pv in cases:
        assert _dets(a, pv).tolist() == _cofactor_dets(a, pv), a.shape


def test_solve_mod_without_right_side_on_a_48_row_stack():
    # 48 rows: sparse, with zero columns forcing row swaps deep in the
    # elimination, and a layer made singular by a repeated row; checked
    # against the fraction-free reference and by det(A B) = det A det B
    rng = random.Random(3307)
    primes = np.array([nth_prime(0), nth_prime(5), 1_000_003, 13], dtype=np.int64)
    rows = _random_rows(rng, 48, span=5, density=0.15)
    singular = [row[:] for row in rows]
    singular[40] = singular[3][:]
    a = np.stack([np.array(m, dtype=np.int64) % p
                  for m, p in zip((rows, rows, singular, rows), primes.tolist())])
    dets = _dets(a, primes)
    assert dets.tolist() == _det_mod(a, primes).tolist()
    assert dets[2] == 0
    b = np.stack([np.array(_random_rows(rng, 48, span=3, density=0.2), dtype=np.int64) % p
                  for p in primes.tolist()])
    ab = np.stack([np.array(x.tolist(), dtype=object).dot(np.array(y.tolist(), dtype=object))
                   % p for x, y, p in zip(a, b, primes.tolist())]).astype(np.int64)
    assert (_dets(ab, primes) == dets * _dets(b, primes) % primes).all()


def _products_mod(a, x, p):
    """a @ x modulo p, exactly, for int64 arrays of residues."""
    return (np.array(a.tolist(), dtype=object).dot(np.array(x.tolist(), dtype=object)) % p)


def test_solve_mod_takes_each_divisor_from_its_own_leading_rows():
    # each layer names the size r of its leading divisor block a': r = 0,
    # r = n - 1 and sizes between, a' with a zero in its first pivot that a
    # row swap inside a' mends, and a' singular where a is not.  det a' is
    # checked against the fraction-free reference on a' alone, det a on the
    # whole, the right side after r steps against a' y = b[:r], and with a
    # right side of width 0 the determinants come out the same
    rng = random.Random(3511)
    primes = [nth_prime(0), nth_prime(3), 1_000_003, 13, 7]
    seen = set()
    for trial in range(60):
        n = rng.randrange(2, 9)
        pv = np.array(primes, dtype=np.int64)
        sizes = np.array([0, n - 1] + [rng.randrange(n) for _ in primes[2:]], dtype=np.intp)
        layers = []
        for p, r in zip(primes, sizes.tolist()):
            rows = _random_rows(rng, n, span=6, density=rng.choice((0.4, 1.0)))
            if r > 1 and trial % 3 == 0:  # a'[0, 0] = 0, mended from inside a'
                rows[0][0], rows[r - 1][0] = 0, 1
            if r > 1 and trial % 7 == 1:  # a' singular: a row of a' repeated
                rows[r - 1][:r] = rows[0][:r]
            layers.append(np.array(rows, dtype=np.int64) % p)
        a = np.stack(layers)
        b = np.stack([np.array(_random_rows(rng, n, span=6)[:n], dtype=np.int64)[:, :3] % p
                      for p in primes])
        det, x, minor, y = _solve_mod(a.copy(), b.copy(), pv, sizes)
        alone, _, alone_minor, _ = _solve_mod(a.copy(), b[:, :, :0].copy(), pv, sizes)
        assert (alone == det).all() and (alone_minor == minor).all()
        whole = _det_mod(a, pv).tolist()
        for layer, (p, r) in enumerate(zip(primes, sizes.tolist())):
            want = int(_det_mod(a[layer : layer + 1, :r, :r], pv[layer : layer + 1])[0]) if r else 1
            assert minor[layer] == want, (trial, layer)
            if not want:
                seen.add("singular")
                assert det[layer] == 0
                continue
            seen.add(("r", "0" if r == 0 else "n-1" if r == n - 1 else "inner"))
            seen.add("swapped" if r > 1 and a[layer, 0, 0] == 0 else "plain")
            assert det[layer] == whole[layer], (trial, layer)
            if r:
                got = _products_mod(a[layer, :r, :r], y[layer, :r], p)
                assert got.tolist() == b[layer, :r].tolist(), (trial, layer)
            if det[layer]:
                assert _products_mod(a[layer], x[layer], p).tolist() == b[layer].tolist()
    assert seen >= {"singular", "swapped", ("r", "0"), ("r", "n-1"), ("r", "inner")}, seen


def test_solve_mod_stops_the_stack_whose_first_prime_divides_a_divisor():
    # with first, a divisor singular modulo that prime stops the stack and
    # every determinant reads 0; singular modulo a later prime only, that
    # layer reads 0 and the others keep their values
    q = nth_prime(1)
    rows = [[q + 1, 2, 1, 0], [3, 6, 4, 1], [1, 5, 9, 2], [6, 5, 3, 5]]  # det a' = 6 q
    sizes = np.array([2, 2, 2], dtype=np.intp)
    for order, stopped in (((q, nth_prime(0), 13), True), ((nth_prime(0), q, 13), False)):
        a, pv = _stack(rows, list(order))
        b = a[:, :, :1].copy()
        det, _, minor, _ = _solve_mod(a, b, pv, sizes, order[0])
        plain, _, plain_minor, _ = _solve_mod(a, b, pv, sizes)
        singular = pv == q
        assert not plain_minor[singular].any() and plain_minor[~singular].all()
        if stopped:
            assert not det.any() and not minor.any()
        else:
            assert (det == plain).all() and (minor == plain_minor).all()
            assert det[~singular].tolist() == [int_det(rows) % p for p in pv[~singular].tolist()]


def test_solve_mod_keeps_entries_near_the_prime_exact_on_a_300_row_stack():
    # residues at p - 1 in every cell, or every cell off the diagonal, the
    # largest the kernel takes, and a dense random layer, modulo the
    # largest prime: every determinant and solution agrees with the
    # fraction-free reference, so no entry outgrew int64 unreduced
    n, p = 300, nth_prime(0)
    rng = random.Random(3517)
    full = np.full((n, n), p - 1, dtype=np.int64)
    near = full.copy()
    np.fill_diagonal(near, 1)  # 2 I - J modulo p, det 2**(n-1) (2 - n)
    dense = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)], dtype=np.int64)
    a, pv = np.stack([full, near, dense]), np.full(3, p, dtype=np.int64)
    b = np.full((3, n, 2), p - 1, dtype=np.int64)
    det, x, _, y = _solve_mod(a.copy(), b.copy(), pv, np.array([0, n - 1, n // 2]))
    assert det.tolist() == _det_mod(a, pv).tolist()
    assert det[0] == 0 and det[1] == pow(2, n - 1, p) * (2 - n) % p
    for layer in (1, 2):
        assert _products_mod(a[layer], x[layer], p).tolist() == b[layer].tolist()
    r = n // 2
    assert _products_mod(a[2, :r, :r], y[2, :r], p).tolist() == b[2, :r].tolist()


def test_solve_mod_refuses_a_block_past_its_int64_bound(monkeypatch):
    from hyperspec import modular

    monkeypatch.setattr(modular, "SOLVE_ROWS", 4)
    a, pv = _stack([[1, 0, 0, 0]] * 4, [13])
    with pytest.raises(CapExceeded, match="4 rows"):
        _solve_mod(a, a[:, :, :0], pv)
    assert _solve_mod(a[:, :3, :3], a[:, :3, :0], pv)[0].tolist() == [0]


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
        assert _charpoly(rows, _CHARPOLY_PRIMES) == [
            _oracle_charpoly_mod(rows, p) for p in _CHARPOLY_PRIMES
        ]


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
        assert _charpoly(rows, _CHARPOLY_PRIMES) == [
            _oracle_charpoly_mod(rows, p) for p in _CHARPOLY_PRIMES
        ]


def test_charpoly_mod_nilpotent():
    # strictly upper triangular, then conjugated by a unimodular matrix
    upper = [[0, 3, -1, 2], [0, 0, 5, 1], [0, 0, 0, 4], [0, 0, 0, 0]]
    shear = [[1, 0, 0, 0], [2, 1, 0, 0], [-1, 3, 1, 0], [1, 0, 2, 1]]
    inverse = [[1, 0, 0, 0], [-2, 1, 0, 0], [7, -3, 1, 0], [-15, 6, -2, 1]]

    def mul(x, y):
        return [[sum(a * b for a, b in zip(r, c)) for c in zip(*y)] for r in x]

    assert mul(shear, inverse) == [[int(i == j) for j in range(4)] for i in range(4)]
    for rows in (upper, mul(mul(shear, upper), inverse)):
        assert _charpoly(rows, _CHARPOLY_PRIMES) == [[0, 0, 0, 0, 1]] * 2


def test_charpoly_mod_tiny():
    primes = np.array(_CHARPOLY_PRIMES, dtype=np.int64)
    assert charpoly_mod(np.zeros((2, 0, 0), dtype=np.int64), primes).tolist() == [[1]] * 2
    assert _charpoly([[7]], _CHARPOLY_PRIMES) == [[-7 % p, 1] for p in _CHARPOLY_PRIMES]
    assert _charpoly([[-3]], _CHARPOLY_PRIMES) == [[3, 1]] * 2
    with pytest.raises(InputError):
        charpoly_mod(np.ones((1, 1, 2), dtype=np.int64), np.array([7]))
    with pytest.raises(InputError):
        charpoly_mod(np.ones((2, 1, 1), dtype=np.int64), np.array([7]))
    with pytest.raises(BadPrime):
        charpoly_mod(np.ones((2, 1, 1), dtype=np.int64), np.array([7, 9]))


def test_poly_divexact_mod_recovers_factor():
    f = UniPoly.from_coeff_strings(["3", "-1", "0", "2", "1"])
    g = UniPoly.from_coeff_strings(["-5", "4", "1"])
    product = [int(c) for c in (f * g).coeffs]
    primes = np.array(_CHARPOLY_PRIMES, dtype=np.int64)

    def rows(coeffs):
        coeffs = list(coeffs)
        return np.array([[c % p for c in coeffs] for p in _CHARPOLY_PRIMES], dtype=np.int64)

    divisor = rows(int(c) for c in g.coeffs)
    expected = [[int(c) % p for c in f.coeffs] for p in _CHARPOLY_PRIMES]
    assert poly_divexact_mod(rows(product), divisor, primes).tolist() == expected
    assert poly_divexact_mod(rows(product), rows([1]), primes).tolist() == rows(product).tolist()
    with pytest.raises(MathError):
        poly_divexact_mod(rows(c + (i == 0) for i, c in enumerate(product)), divisor, primes)
    with pytest.raises(InputError):
        poly_divexact_mod(rows(product), rows([1, 2]), primes)


def test_poly_product_mod_matches_exact_products():
    # stacks of 1 to 9 random polynomials of widths 1 to 6, near-full-size
    # residues, against the product over the integers reduced afterwards;
    # no stacks give 1
    rng = random.Random(2311)
    primes = np.array([nth_prime(0), nth_prime(7)], dtype=np.int64)
    for _ in range(20):
        shapes = [(rng.randint(1, 9), rng.randint(1, 6)) for _ in range(rng.randint(1, 4))]
        factors = [
            np.array([[[rng.randrange(p - 50, p) for _ in range(width)] for _ in range(count)]
                      for p in primes.tolist()], dtype=np.int64)
            for count, width in shapes
        ]
        for layer, p in enumerate(primes.tolist()):
            exact = UniPoly((Fraction(1),))
            for stack in factors:
                for row in stack[layer].tolist():
                    exact = exact * UniPoly(tuple(Fraction(c) for c in row))
            got = poly_product_mod(factors, primes)[layer].tolist()
            want = [int(c) % p for c in exact.coeffs]
            assert got == want + [0] * (len(got) - len(want)), shapes
    assert poly_product_mod([], primes).tolist() == [[1], [1]]


def test_pivot_rows_differ_between_layers():
    # an entry equal to nth_prime(1) vanishes in that layer only, so the
    # pivot search takes a different row there than in the other layers:
    # column 0 for the determinant and solve, the subdiagonal for Hessenberg
    q = nth_prime(1)
    primes = [nth_prime(0), q, nth_prime(2)]
    cases = [  # (matrix, first row searched in column 0)
        ([[q, 2, 1], [3, 1, 4], [1, 5, 9]], 0),
        ([[2, 1, 0, 3], [q, 1, 1, 0], [5, 0, 2, 1], [4, 0, 1, 1]], 1),
    ]
    for rows, top in cases:
        a, pv = _stack(rows, primes)
        assert len({int(np.flatnonzero(layer[top:, 0])[0]) for layer in a}) == 2
        det = int_det(rows)
        assert _det(rows, primes) == [det % p for p in primes]
        dets = _solve_mod(a, a, pv)[0]
        assert dets.tolist() == [det % p for p in primes]
        assert _charpoly(rows, primes) == [_oracle_charpoly_mod(rows, p) for p in primes]


def test_stacked_layers_match_stacks_of_one():
    # the same matrix modulo six primes, two of them small enough that many
    # entries, pivots and subdiagonal products vanish in some layers only
    rng = random.Random(4242)
    primes = [nth_prime(i) for i in range(4)] + [7, 11]
    pv = np.array(primes, dtype=np.int64)
    for _ in range(30):
        n = rng.randrange(1, 10)
        density = rng.choice((0.3, 0.7, 1.0))
        rows = [[rng.randint(-30, 30) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(n)]
        a, _ = _stack(rows, primes)
        b = np.stack([np.array(rows, dtype=np.int64).T % p for p in primes])
        dets, solved, *_ = _solve_mod(a, b, pv)
        polys = charpoly_mod(a, pv)
        quot = poly_divexact_mod(polys, polys[:, n:], pv)
        assert _det_mod(a, pv).tolist() == dets.tolist() == _dets(a, pv).tolist()
        for layer in range(len(primes)):
            one = slice(layer, layer + 1)
            assert _det_mod(a[one], pv[one]).tolist() == [dets[layer]]
            assert _dets(a[one], pv[one]).tolist() == [dets[layer]]
            det_one, solved_one, *_ = _solve_mod(a[one], b[one], pv[one])
            assert det_one.tolist() == [dets[layer]]
            if dets[layer]:
                assert solved_one.tolist() == solved[one].tolist()
            assert charpoly_mod(a[one], pv[one]).tolist() == polys[one].tolist()
            assert poly_divexact_mod(polys[one], polys[one, n:], pv[one]).tolist() == (
                quot[one].tolist()
            )


def _conjugated(rows, rng):
    """L rows L**-1 for a random unit lower triangular integer L, whose
    inverse is integral too: a matrix with the same charpoly."""
    n = len(rows)
    low = [[int(i == j) or (rng.randint(-2, 2) if j < i else 0) for j in range(n)]
           for i in range(n)]
    inverse = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):  # forward substitution, one row of L at a time
        for j in range(i):
            inverse[i] = [a - low[i][j] * b for a, b in zip(inverse[i], inverse[j])]

    def mul(x, y):
        return [[sum(a * b for a, b in zip(r, c)) for c in zip(*y)] for r in x]

    assert mul(low, inverse) == [[int(i == j) for j in range(n)] for i in range(n)]
    return mul(mul(low, rows), inverse)


def _quotient_routes(blocks, minors, primes):
    """(power sums, Hessenberg) quotients of the product of the blocks'
    charpolys over the minors', modulo each prime: each argument a list
    of groups, each a list of equal-sized integer matrices.  The first
    route is the library's, macaulay._quotient on stacks of the groups;
    the second takes charpoly_mod of every block, then poly_product_mod
    and poly_divexact_mod."""
    pv = np.array(primes, dtype=np.int64)
    stacks = [[np.stack([np.array(g, dtype=np.int64) % p for p in primes]) for g in groups]
              for groups in (blocks, minors)]
    d = sum(s.shape[1] * s.shape[2] for s in stacks[0]) - sum(
        s.shape[1] * s.shape[2] for s in stacks[1])

    groups = [[_Blocks(np.zeros(s.shape[1:3], dtype=np.intp), None) for s in part]
              for part in stacks]
    by_group = {id(g): s for part in zip(groups, stacks) for g, s in zip(*part)}

    def product(groups):
        return poly_product_mod([
            np.stack([charpoly_mod(s[:, b], pv) for b in range(s.shape[1])], axis=1)
            for s in groups
        ], pv)

    got = _quotient(d, groups, pv, lambda g, layers, b: (by_group[id(g)][layers, b],))
    want = poly_divexact_mod(*map(product, stacks), pv)
    return got.tolist(), want.tolist()


def _random_rows(rng, n, span=9, density=1.0):
    return [[rng.randint(-span, span) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(n)]


def test_power_sum_quotient_matches_the_hessenberg_oracle():
    # blocks and minors as the Macaulay routes meet them: zero and
    # nilpotent blocks, derogatory ones with repeated eigenvalues, groups
    # of 1x1 blocks, blocks smaller than the quotient's degree d (whose
    # power sums past their size follow their own charpoly) and larger
    # than d (whose minor cancels all but two eigenvalues), one that
    # vanishes modulo the first prime only, entries at +-(p - 1)/2 of the
    # largest prime, a block of 64 rows with 3 nonzeros each, whose baby
    # steps gather rows, and a block of 301 rows
    rng = random.Random(3203)
    big = nth_prime(0)
    primes = [big, nth_prime(9), 1_000_003]
    nilpotent = [[0, 3, -1, 2], [0, 0, 5, 1], [0, 0, 0, 4], [0, 0, 0, 0]]
    repeated = [[2 * (i == j) for j in range(5)] for i in range(5)]
    repeated[3][3] = repeated[4][4] = -3
    scalar = [[5 * (i == j) for j in range(3)] for i in range(3)]
    y, z = _random_rows(rng, 8), _random_rows(rng, 2)
    wide = [row + _random_rows(rng, 8)[0][:2] for row in y] + [[0] * 8 + row for row in z]
    half = (big - 1) // 2
    sparse = [[0] * 64 for _ in range(64)]
    for row in sparse:
        for c in rng.sample(range(64), 3):
            row[c] = rng.choice((-half, -7, 1, 5, half))
    cases = {
        "zero": ([[[[0] * 4] * 4] * 3], []),
        "nilpotent": ([[_conjugated(nilpotent, rng), nilpotent, _random_rows(rng, 4)],
                       [_random_rows(rng, 2)]], []),
        "derogatory": ([[_conjugated(repeated, rng)], [_conjugated(scalar, rng)]], []),
        "1x1": ([[[[v]] for v in (0, 3, -1, 0, 7, 3, -(10**5))]], []),
        "n < d": ([[_random_rows(rng, 3, density=0.6) for _ in range(3)]
                   + [[[big * v for v in row] for row in _random_rows(rng, 3)]],
                   [_random_rows(rng, 2)], [[[4]], [[-2]]]], []),
        "n > d": ([[wide]], [[_conjugated(y, rng)]]),
        "half": ([[[[rng.choice((half, -half)) for _ in range(6)] for _ in range(6)]]], []),
        "sparse": ([[sparse, [row[::-1] for row in sparse]]], []),
    }
    for name, (blocks, minors) in cases.items():
        got, want = _quotient_routes(blocks, minors, primes)
        assert got == want, name
    assert _quotient_routes(*cases["n > d"], primes)[0][0][2:] == [1]  # d = 2
    y = _random_rows(rng, 299, span=2, density=0.3)
    z = _random_rows(rng, 2)
    large = [row + [rng.randint(-2, 2), 0] for row in y] + [[0] * 299 + row for row in z]
    y_t = [list(col) for col in zip(*y)]  # M' with the same charpoly as y
    got, want = _quotient_routes([[large]], [[y_t]], [big, 1_000_003])
    assert got == want


def test_power_sums_chunk_long_dot_products(monkeypatch):
    # with FLOAT_TERMS at 4, every product and contraction of a 9 x 9
    # block splits into chunks of 4 terms, with the same power sums
    from hyperspec import modular

    rng = random.Random(3211)
    primes = np.array([nth_prime(0), nth_prime(3)], dtype=np.int64)
    a = np.stack([np.array(_random_rows(rng, 9, span=10**6), dtype=np.int64) % p
                  for p in primes.tolist()])
    want = trace_powers_mod(a, primes, 9)
    monkeypatch.setattr(modular, "FLOAT_TERMS", 4)
    assert (trace_powers_mod(a, primes, 9) == want).all()
    assert (newton_mod(want, primes) == charpoly_mod(a, primes)).all()


def test_power_sums_refuse_primes_they_cannot_divide_by():
    # Newton's identities divide by 1..d, and the Lagrange basis by the
    # differences of its nodes: a prime among them is refused, not used
    sums = np.zeros((2, 7), dtype=np.int64)
    assert newton_mod(sums, np.array([11, 13])).tolist() == [[0] * 7 + [1]] * 2
    for primes in ([7, 11], [11, 5], [11, 9]):
        with pytest.raises(BadPrime):
            newton_mod(sums, np.array(primes))
    with pytest.raises(BadPrime):
        _lagrange_mod(tuple(range(12)), 11)
    assert _lagrange_mod(tuple(range(11)), 11).shape == (11, 11)
    with pytest.raises(BadPrime):
        _lagrange_mod(tuple(range(0, 80, 2)), 37)  # 74 - 0 = 2 * 37

"""Resultants of square homogeneous systems via the quotient of determinants."""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from sympy.polys.multivariate_resultants import MacaulayResultant

from hyperspec.config import DEFAULT_CONFIG
from hyperspec.errors import (
    CapExceeded,
    DimMismatch,
    NotHomogeneous,
    NotSquareSystem,
)
from hyperspec.hypergraph import Hypergraph, adjacency_tensor
from hyperspec import macaulay
from hyperspec.modular import crt_values, nth_prime
from hyperspec.macaulay import (
    PolySystem,
    _det_values,
    _FillTable,
    _gcp_values,
    _value_bound,
    _pencil_values,
    macaulay_dim,
    monomial_basis,
    resultant_value,
)
from hyperspec.polynomial import MultiPoly, UniPoly
from hyperspec.spectra import e_char_poly_system, tensor_polynomial_map
from hyperspec.tensor import Tensor

import oracles

DATA = Path(__file__).parent / "data"


def _poly(nvars, terms):
    return MultiPoly(nvars, {k: Fraction(v) for k, v in terms.items()})


def _system(polys):
    nvars = polys[0].nvars
    return PolySystem(nvars, tuple(polys), tuple(oracles.total_degree(p) for p in polys))


def _exact_det(rows):
    # sympy's fraction-free elimination, independent of the modular kernels
    return sympy.Matrix(rows).det(method="bareiss")


def _fill(table, lam):
    # the dense integer matrices M(lam), from the table's entry arrays, and
    # its principal submatrix M'(lam) on the table's divisor index
    full = [[0] * table.size for _ in range(table.size)]
    entries = (table.row, table.col, table.i0, table.i1)
    for r, col, i0, i1 in zip(*(a.tolist() for a in entries)):
        full[r][col] = i0 + lam * i1
    divisor = table.nonreduced.tolist()
    return full, [[full[r][c] for c in divisor] for r in divisor]


def _binary_quadratic(a, b, c):
    return _poly(2, {(2, 0): a, (1, 1): b, (0, 2): c})


def test_macaulay_dim_counts_monomials():
    assert macaulay_dim(3, (2, 2, 2)) == 15
    assert macaulay_dim(4, (2, 2, 2, 2)) == 56
    assert macaulay_dim(5, (2, 2, 2, 2, 2)) == 210
    assert macaulay_dim(2, (1, 1)) == 2


def test_monomial_basis_is_complete_and_sorted():
    basis = monomial_basis(2, 2)
    assert basis == ((0, 2), (1, 1), (2, 0))
    assert len(monomial_basis(4, 5)) == macaulay_dim(4, (2, 2, 2, 2))


def test_linear_system_reduces_to_determinant():
    a, b, c, d = Fraction(2), Fraction(3), Fraction(5), Fraction(7)
    sys_ = _system(
        [
            _poly(2, {(1, 0): a, (0, 1): b}),
            _poly(2, {(1, 0): c, (0, 1): d}),
        ]
    )
    table = _FillTable(sys_)
    assert table.nonreduced.size == 0 and table.d == 2  # nothing to divide out in degree one
    full, _ = _fill(table, 0)
    assert _exact_det(full) == a * d - b * c
    assert resultant_value(sys_) == a * d - b * c


def test_pure_powers_give_one():
    sys2 = _system([_poly(2, {(2, 0): 1}), _poly(2, {(0, 2): 1})])
    assert resultant_value(sys2) == 1
    sys3 = _system(
        [
            _poly(3, {(3, 0, 0): 1}),
            _poly(3, {(0, 3, 0): 1}),
            _poly(3, {(0, 0, 3): 1}),
        ]
    )
    assert resultant_value(sys3) == 1


def test_scaled_pure_powers_follow_the_power_law():
    # scaling the i-th pure power by c multiplies the value by c^(d^(n-1))
    sys_ = _system([_poly(2, {(2, 0): 3}), _poly(2, {(0, 2): 5})])
    assert resultant_value(sys_) == Fraction(3) ** 2 * Fraction(5) ** 2
    sys3 = _system(
        [
            _poly(3, {(2, 0, 0): 2}),
            _poly(3, {(0, 2, 0): 3}),
            _poly(3, {(0, 0, 2): 5}),
        ]
    )
    assert resultant_value(sys3) == Fraction(2 * 3 * 5) ** 4


def test_binary_quadratics_match_closed_form():
    rng = random.Random(71)
    for _ in range(25):
        a, b, c, d, e, f = (Fraction(rng.randint(-5, 5)) for _ in range(6))
        p = _binary_quadratic(a, b, c)
        q = _binary_quadratic(d, e, f)
        if p.is_zero() or q.is_zero():
            continue
        expected = (a * f - c * d) ** 2 - (a * e - b * d) * (b * f - c * e)
        assert resultant_value(_system([p, q])) == expected


def test_shared_root_forces_zero():
    # both vanish on (1, 1)
    p = _binary_quadratic(1, -2, 1)
    q = _binary_quadratic(1, 0, -1)
    assert resultant_value(_system([p, q])) == 0


def test_zero_poly_short_circuits():
    sys_ = PolySystem(
        2,
        (MultiPoly(2), _poly(2, {(0, 2): 1})),
        (2, 2),
    )
    assert resultant_value(sys_) == 0


def test_rejects_bad_systems():
    with pytest.raises(NotSquareSystem):
        _make_not_square()
    with pytest.raises(NotHomogeneous):
        PolySystem(
            2,
            (_poly(2, {(1, 0): 1, (0, 2): 1}), _poly(2, {(0, 1): 1})),
            (2, 1),
        )


def _make_not_square():
    return PolySystem(3, (_poly(3, {(1, 0, 0): 1}),), (1,))


def test_lambda_part_is_checked_like_the_constant_part():
    x, y = _poly(2, {(1, 0): 1}), _poly(2, {(0, 1): 1})
    polys, degrees = (x, y), (1, 1)
    system = PolySystem(2, polys, degrees, (y, MultiPoly(2)))
    at_two = PolySystem(2, (oracles.poly_add(x, y.scale(2)), y), degrees)
    assert oracles.system_at(system, 2) == at_two
    with pytest.raises(NotSquareSystem):  # one lambda part for two polynomials
        PolySystem(2, polys, degrees, (y,))
    with pytest.raises(DimMismatch):  # a lambda part in other variables
        PolySystem(2, polys, degrees, (y, _poly(3, {(0, 0, 1): 1})))
    with pytest.raises(NotHomogeneous):  # a lambda part of another degree
        PolySystem(2, polys, degrees, (y, _poly(2, {(0, 2): 1})))
    with pytest.raises(NotHomogeneous):  # a lambda part mixing degrees
        PolySystem(2, polys, degrees, (_poly(2, {(1, 0): 1, (0, 2): 1}), y))


def test_degenerate_plain_system_is_rescued_by_a_variant():
    # the order-3 map of a single triple, shifted by one at the unit scale,
    # has a vanishing divisor in natural coordinates; the value comes from
    # the generalized characteristic polynomial instead
    h = Hypergraph.from_edges(3, 3, [(1, 2, 3)])
    lsys = e_char_poly_system(adjacency_tensor(h))
    assert _exact_det(_fill(_FillTable(lsys), 1)[1]) == 0
    plain = oracles.system_at(lsys, Fraction(1))
    assert _exact_det(_fill(_FillTable(plain), 0)[1]) == 0
    assert resultant_value(plain) == -16


def test_degenerate_points_match_the_golden_e_char():
    # every sample point of the single edge has a vanishing divisor, so each
    # value below comes from the generalized characteristic polynomial
    blob = json.loads((DATA / "single_edge_n3_echar.json").read_text())
    raw = UniPoly.from_coeff_strings(blob["e_char_poly_raw"]["coefficients"])
    h = Hypergraph.from_edges(3, 3, [(1, 2, 3)])
    system = e_char_poly_system(adjacency_tensor(h))
    table = _FillTable(system)
    nodes = list(range(-24, 25))
    for lam in nodes:
        assert _exact_det(_fill(table, lam)[1]) == 0
        assert resultant_value(oracles.system_at(system, lam)) == raw.evaluate(lam)
    # the same values with every node in one batch of stacks
    for seed in (0, 3):
        assert _recombined(_gcp_values, table, nodes, seed) == [
            raw.evaluate(lam) for lam in nodes
        ]


def test_permuted_pure_powers_give_one():
    # f_1 = y^2 owns the rows of x^2-divisible monomials, so det(M') = 0
    sys_ = _system(
        [
            _poly(3, {(0, 2, 0): 1}),
            _poly(3, {(0, 0, 2): 1}),
            _poly(3, {(2, 0, 0): 1}),
        ]
    )
    table = _FillTable(sys_)
    assert _exact_det(_fill(table, 0)[1]) == 0
    assert resultant_value(sys_) == 1


def test_radius_is_the_largest_row_sum():
    # the table reads the in-block row sums per pattern of its rows; the
    # dense matrix M(lam), cut into the kept diagonal blocks, must agree
    rng = random.Random(2207)
    for order, dim in ((3, 2), (3, 3), (4, 2), (5, 2)):
        for sparse in (False, True):
            a = _seeded_tensor(rng, order, dim, rational=True, sparse=sparse)
            table = _FillTable(e_char_poly_system(a))
            for lam in (0, 1, -2, 7):
                full = _fill(table, lam)[0]
                assert table.norms(lam)[0] == oracles.kept_block_norms(table, full)[0]
    # x + 100 y, y: M = [[1, 100], [0, 1]] is two 1x1 blocks, and the 100
    # off them counts in neither bound
    table = _FillTable(_system([_poly(2, {(1, 0): 1, (0, 1): 100}), _poly(2, {(0, 1): 1})]))
    assert table.norms(0) == (1, 2)


def test_frobenius_is_the_sum_of_squared_entries():
    # the table reads the squared in-block entries per pattern, times its
    # rows; the dense matrix M(lam) on the kept diagonal blocks must agree,
    # and on |lambda| = 1 the dense |F0| + |F1| must give the same row
    # sums and squares.  Every bound is at most the whole matrix's, and
    # for some tables below it
    rng = random.Random(2213)
    below = 0
    for order, dim in ((3, 2), (3, 3), (4, 2), (5, 2)):
        for sparse in (False, True):
            a = _seeded_tensor(rng, order, dim, rational=True, sparse=sparse)
            table = _FillTable(e_char_poly_system(a))
            for lam in (0, 1, -2, 7):
                full = _fill(table, lam)[0]
                assert table.norms(lam)[1] == oracles.kept_block_norms(table, full)[1]
            f0, f1 = _fill(table, 0)[0], _fill(table, 1)[0]
            unit = [[abs(u) + abs(v - u) for u, v in zip(r0, r1)] for r0, r1 in zip(f0, f1)]
            radius, squares = table.norms(None)
            assert (radius, squares) == oracles.kept_block_norms(table, unit)
            whole = sum(v * v for row in unit for v in row)
            assert squares <= whole and radius <= max(map(sum, unit))
            below += squares < whole
    assert below > 0


def _random_form(rng, nvars, degree, denominator):
    terms = {
        exp: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), denominator)
        for exp in monomial_basis(nvars, degree)
        if rng.random() < 0.5
    }
    if not terms:
        terms[monomial_basis(nvars, degree)[0]] = Fraction(1, denominator)
    return MultiPoly(nvars, terms)


def test_resultant_is_multiplicative():
    # Res(g h, f2, f3) = Res(g, f2, f3) * Res(h, f2, f3) on sparse ternary
    # systems of degrees 1 and 2 with a denominator per polynomial; many
    # plain divisors vanish, with N - N' of either parity
    rng = random.Random(7301)
    degenerate = {0: 0, 1: 0}
    for _ in range(60):
        g, h, f2, f3 = (
            _random_form(rng, 3, rng.choice((1, 2)), rng.randint(1, 4))
            for _ in range(4)
        )
        product = _system([g * h, f2, f3])
        expected = resultant_value(_system([g, f2, f3])) * resultant_value(
            _system([h, f2, f3])
        )
        assert resultant_value(product) == expected
        full, minor = _fill(_FillTable(product), 0)
        if expected != 0 and _exact_det(minor) == 0:
            degenerate[(len(full) - len(minor)) % 2] += 1
    assert min(degenerate.values()) >= 5


def test_divisor_is_the_principal_submatrix_on_the_nonreduced_monomials():
    # M and M' from their definitions, without macaulay_structure: the row
    # of a degree-D monomial mu holds (mu / x_i**d_i) * f_i, i the least
    # index with x_i**d_i dividing mu, scaled by the lcm of f_i's
    # denominators; M' keeps the rows and columns of the monomials divisible
    # by x_i**d_i for at least two i.  The whole matrices scattered from the
    # table's entry arrays must match both, and so must the table's block
    # stacks: those of M(lambda) and F1 on each block of M, and on each
    # block's non-reduced part for M', modulo each prime
    rng = random.Random(4421)
    primes = np.array([nth_prime(i) for i in range(3)], dtype=np.int64)
    shapes = [(1, 1), (2, 2, 2), (2, 2, 2, 2), (2, 2, 2, 2, 2), (3, 3, 3), (1, 2, 3)]
    for degrees in shapes:
        n = len(degrees)
        parts = [
            tuple(_random_form(rng, n, d, rng.randint(1, 3)) for d in degrees)
            for _ in range(2)
        ]
        table = _FillTable(PolySystem(n, parts[0], degrees, parts[1]))
        monos = monomial_basis(n, sum(degrees) - n + 1)
        column = {m: j for j, m in enumerate(monos)}
        expected = np.zeros((2, len(monos), len(monos)), dtype=object)
        for r, mono in enumerate(monos):
            i = next(i for i, d in enumerate(degrees) if mono[i] >= d)
            terms = [part[i].terms for part in parts]
            scale = math.lcm(*(c.denominator for t in terms for c in t.values()))
            for k, t in enumerate(terms):
                for exp, c in t.items():
                    shifted = [m + e for m, e in zip(mono, exp)]
                    shifted[i] -= degrees[i]
                    expected[k, r, column[tuple(shifted)]] = int(c * scale)
        divisor = [
            j for j, m in enumerate(monos)
            if sum(m[i] >= d for i, d in enumerate(degrees)) >= 2
        ]
        assert table.d == len(monos) - len(divisor), degrees
        assert table.nonreduced.tolist() == divisor, degrees
        for lams in ([0, 0, 0], [-3, 5, 2**40]):  # one lambda per layer
            lv = np.array(lams, dtype=np.int64)
            whole = oracles.dense_stack(table, primes, lv)
            for layer, (p, lam) in enumerate(zip(primes.tolist(), lams)):
                want = (expected[0] + lam * expected[1]) % p
                assert (whole[layer] == want).all(), (degrees, p)
                for groups, part in ((table.blocks, None), (table.minors, divisor)):
                    for group in groups:
                        blocks = np.arange(len(group.index))
                        at, slope = table.stacks(primes, lv, lambda g: slice(None))(
                            group, np.full(len(blocks), layer), blocks
                        )
                        for b, block in enumerate(group.index.tolist()):
                            assert part is None or set(block) <= set(part), degrees
                            cells = np.ix_(block, block)
                            assert (at[b] == want[cells]).all(), (degrees, p)
                            assert (slope[b] == expected[1][cells] % p).all(), (degrees, p)


def _tables():
    # Macaulay tables of hypergraph characteristic and E-characteristic
    # systems, of dense tensors, and of random pencils with denominators
    k4 = list(itertools.combinations(range(1, 5), 3))
    rng = random.Random(5167)
    for n, edges in ((4, [(1, 2, 3)]), (4, k4), (5, [(1, 2, 3), (3, 4, 5)])):
        a = adjacency_tensor(Hypergraph.from_edges(n, 3, edges))
        yield PolySystem(n, tensor_polynomial_map(a), (2,) * n)
        yield e_char_poly_system(a)
    for order, dim in ((3, 3), (4, 2)):
        a = _seeded_tensor(rng, order, dim, rational=True, sparse=True)
        yield PolySystem(dim, tensor_polynomial_map(a), (order - 1,) * dim)
        yield e_char_poly_system(a)
    for degrees in ((2, 2, 2), (1, 2, 3)):
        n = len(degrees)
        parts = [tuple(_random_form(rng, n, d, 2) for d in degrees) for _ in range(2)]
        yield PolySystem(n, parts[0], degrees, parts[1])


def test_blocks_partition_the_monomials_in_block_triangular_order():
    # the strongly connected components of the pattern partition the
    # monomials, and in their order both F0 and F1 are block upper
    # triangular; the table keeps the blocks not inside the non-reduced
    # monomials, grouped by size, and pairs each with its non-reduced part
    for system in _tables():
        table = _FillTable(system)
        components = macaulay._strong_components(table.size, table.row, table.col)
        label = np.full(table.size, -1)
        for b, block in enumerate(components):
            assert (label[block] == -1).all()
            label[block] = b
        assert (label >= 0).all()
        for part in (table.i0, table.i1):
            nonzero = np.flatnonzero(part != 0)
            assert (label[table.row[nonzero]] <= label[table.col[nonzero]]).all()
        components = [sorted(b) for b in components]
        divisor = set(table.nonreduced.tolist())
        kept = [b for b in components if not set(b) <= divisor]
        grouped = [sorted(b) for g in table.blocks for b in g.index.tolist()]
        assert sorted(grouped) == sorted(kept)
        assert all(len(g.index[0]) == g.size for g in table.blocks + table.minors)
        minors = [sorted(b) for g in table.minors for b in g.index.tolist()]
        assert sorted(minors) == sorted(
            [r for r in b if r in divisor] for b in kept if set(b) & divisor
        )
        # each kept block holds its non-reduced monomials first
        for g in table.blocks:
            for block, r in zip(g.index.tolist(), g.divisor.tolist()):
                assert [m in divisor for m in block] == [True] * r + [False] * (g.size - r)
        # a pencil's stacks hold [A | F1], a determinant's M(c) alone
        largest = max(map(len, kept))
        assert table.layer_size == (2 * (largest + 1) ** 2 if system.linear else largest**2)


def _first_primes():
    return np.array([nth_prime(0), nth_prime(1)], dtype=np.int64)


def _assert_det_routes_agree(table, lam, quotient, where):
    # the determinant route's residues are those of the resultant, the
    # whole quotient's constant term up to sign.  A block inside the
    # non-reduced monomials cancels, singular or not, so the block route
    # takes every prime the whole ratio takes, and perhaps more; it refuses
    # the whole stack when its first prime divides the kept blocks' det M'
    primes = _first_primes()
    got, solved = _det_values(table, [lam], primes)
    want, nonzero = oracles.whole_det_ratio_mod(table, primes, lam)
    sign = -1 if table.d % 2 else 1
    value = sign * quotient[:, 0] % primes
    if solved[0]:
        assert (solved | ~nonzero).all(), where
    else:
        assert not solved.any() and not nonzero[0], where
    assert (got[solved, 0] == value[solved]).all(), where
    assert (want[nonzero] == value[nonzero]).all(), where
    return solved.all(), nonzero.all()


def test_block_routes_match_the_whole_matrix_oracles():
    # at the first two primes, the block products give the residues of
    # the whole-matrix charpoly quotient, determinant ratio and pencil:
    # every 3-graph and 2-graph class on 5 vertices and K4^(3) plus two
    # isolated vertices (char systems), three seeded order-3, dimension-4
    # integer tensors (char and E-char systems) and the pencil of an
    # order-3, dimension-3 tensor
    primes, zero = _first_primes(), np.zeros(2, dtype=np.int64)
    routes = []  # (block ratio solved, whole ratio solved) at each point
    k4 = list(itertools.combinations(range(1, 5), 3))
    graphs = [*oracles.enumerate_all(5, 3, up_to_iso=True),
              *oracles.enumerate_all(5, 2, up_to_iso=True),
              Hypergraph.from_edges(6, 3, k4)]
    for h in graphs:
        table = _FillTable(PolySystem(h.n, tensor_polynomial_map(adjacency_tensor(h)),
                                      (h.k - 1,) * h.n))
        want = oracles.whole_quotient_mod(table, primes, zero)
        assert (macaulay._quotients(table, primes, zero) == want).all(), h
        routes.append(_assert_det_routes_agree(table, 0, want, h))
    rng = random.Random(6203)
    for _ in range(3):
        a = _seeded_tensor(rng, 3, 4, rational=False, sparse=True)
        char = _FillTable(PolySystem(4, tensor_polynomial_map(a), (2,) * 4))
        want = oracles.whole_quotient_mod(char, primes, zero)
        assert (macaulay._quotients(char, primes, zero) == want).all()
        routes.append(_assert_det_routes_agree(char, 0, want, a))
        e_char = _FillTable(e_char_poly_system(a))
        for lam in (0, 7):
            lams = np.full(2, lam, dtype=np.int64)
            want = oracles.whole_quotient_mod(e_char, primes, lams)
            assert (macaulay._quotients(e_char, primes, lams) == want).all()
            routes.append(_assert_det_routes_agree(e_char, lam, want, a))
    # both ratios solve some points, and cancelled singular blocks let the
    # block ratio solve some that the whole ratio refuses
    assert {(True, True), (True, False)} <= set(routes)
    a = _seeded_tensor(rng, 3, 3, rational=True, sparse=False)
    table = _FillTable(e_char_poly_system(a))
    nodes = _e_char_nodes(3, 3)
    values, solved = _pencil_values(table, nodes, primes)
    assert solved.all()
    sign = -1 if table.d % 2 else 1
    for i, lam in enumerate(nodes):
        quotient = oracles.whole_quotient_mod(table, primes, np.full(2, lam, dtype=np.int64))
        assert (values[:, i] == sign * quotient[:, 0] % primes).all(), lam


def _sympy_resultant(system):
    # sympy's MacaulayResultant picks its divisor rows by looking for the
    # coefficient a_i of x_i**d_i, so each a_i enters as a symbol and is
    # substituted afterwards.  Where sympy's divisor vanishes, the value is
    # Res(F - s x**d) at s = 0, interpolated from det M / det M' at D + 1
    # integers s with a nonzero divisor: Res(F - s x**d) has degree at most
    # D = sum_i prod_{j != i} d_j in s
    n = system.nvars
    xs, a = sympy.symbols(f"x0:{n}"), sympy.symbols(f"a0:{n}")
    polys, pure = [], []
    for i, (poly, d) in enumerate(zip(system.polys, system.degrees)):
        power = tuple(d if j == i else 0 for j in range(n))
        polys.append(a[i] * xs[i] ** d + sum(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.prod(x**e for x, e in zip(xs, exp))
            for exp, c in poly.terms.items() if exp != power
        ))
        c = poly.terms.get(power, Fraction(0))
        pure.append(sympy.Rational(c.numerator, c.denominator))
    resultant = MacaulayResultant(polys, list(xs))
    full = resultant.get_matrix()
    minor = resultant.get_submatrix(full)
    degree = sum(math.prod(system.degrees[:i] + system.degrees[i + 1 :]) for i in range(n))
    points = []
    for s in itertools.count(0):
        at = {ai: v - s for ai, v in zip(a, pure)}
        den = minor.subs(at).det()
        if den != 0:
            points.append((s, full.subs(at).det() / den))
        if points and points[0][0] == 0 or len(points) == degree + 1:
            break
    value = points[0][1] if points[0][0] == 0 else sympy.interpolate(points, 0)
    return Fraction(int(value.p), int(value.q))


def test_resultant_matches_sympy_macaulay_resultant():
    # seeded sparse systems in 2 and 3 variables of degrees up to 2, some
    # without an x_i**d_i term, so that det M' vanishes and the value
    # comes from the generalized charpoly branch; and one system with
    # entries of 2**62 and more, which the tables reduce as Python ints
    big = 2**70 + 3
    huge = _system([
        _poly(3, {(2, 0, 0): big, (0, 1, 1): 5, (1, 0, 1): -7}),
        _poly(3, {(0, 2, 0): 3, (1, 1, 0): big - 11}),
        _poly(3, {(0, 0, 2): -2, (1, 0, 1): 9, (0, 2, 0): 1}),
    ])
    assert resultant_value(huge) == _sympy_resultant(huge) != 0
    rng = random.Random(9011)
    shapes = [(1, 2), (2, 1), (2, 2), (1, 1, 2), (1, 2, 2), (2, 2, 1), (2, 2, 2)]
    degenerate = 0
    for degrees in shapes * 2:
        n = len(degrees)
        polys = []
        for i, d in enumerate(degrees):
            drop = tuple(d if j == i else 0 for j in range(n)) if rng.random() < 0.3 else None
            terms = {
                exp: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))
                for exp in monomial_basis(n, d) if exp != drop and rng.random() < 0.6
            }
            polys.append(MultiPoly(n, terms or {monomial_basis(n, d)[-1]: Fraction(1)}))
        system = PolySystem(n, tuple(polys), degrees)
        expected = _sympy_resultant(system)
        assert resultant_value(system) == expected, degrees
        minor = _fill(_FillTable(system), 0)[1]
        degenerate += expected != 0 and _exact_det(minor) == 0
    assert degenerate >= 1


def test_dim_cap_enforced():
    sys_ = _system(
        [
            _poly(3, {(2, 0, 0): 1}),
            _poly(3, {(0, 2, 0): 1}),
            _poly(3, {(0, 0, 2): 1}),
        ]
    )
    with pytest.raises(CapExceeded, match="^matrix dimension 15 exceeds cap 14$"):
        resultant_value(sys_, replace(DEFAULT_CONFIG, dim_cap=14))
    assert resultant_value(sys_, replace(DEFAULT_CONFIG, dim_cap=15)) == 1
    # x**513 and y**512 give a diagonal Macaulay matrix of size 1025, 1 x 1
    # blocks only and no divisor, refused under the default dim_cap of
    # 1024; with the cap raised the value is 2**512 3**513, as
    # Res(a x**m, b y**n) = a**n b**m
    sys_ = _system([_poly(2, {(513, 0): 2}), _poly(2, {(0, 512): 3})])
    assert macaulay_dim(2, (513, 512)) == 1025 > DEFAULT_CONFIG.dim_cap
    with pytest.raises(CapExceeded, match="^matrix dimension 1025 exceeds cap 1024$"):
        resultant_value(sys_)
    assert resultant_value(sys_, replace(DEFAULT_CONFIG, dim_cap=1025)) == 2**512 * 3**513


def _e_char_nodes(order, dim):
    # the nodes e_char_poly interpolates through: lambda = 0..D/2 for odd
    # order and 0..D for even order, where D/2 and D both come to
    # dim * (order - 1)**(dim - 1)
    return list(range(dim * (order - 1) ** (dim - 1) + 1))


def _recombined(route, table, nodes, seed):
    # the exact values at the nodes, each recombined on its own from a
    # route's residues, or None when the route refuses the first prime
    def residues_mod(primes):
        values, solved = route(table, nodes, np.array(primes, dtype=np.int64))
        return [v if ok else None for v, ok in zip(values, solved.tolist())]

    bounds = [_value_bound(table, lam) for lam in nodes]
    got = crt_values(residues_mod, bounds, seed, table.layer_size)
    if got is None:
        return None
    return [Fraction(v * table.scale_minor, table.scale_full) for v in got]


def _seeded_tensor(rng, order, dim, *, rational, sparse, zeros=0.6):
    # a dense tensor has no zero entry: a single zero, say the diagonal
    # entry of an odd-order tensor, can make the divisor vanish
    # identically; a sparse one has each entry zero with chance zeros
    entries = []
    for _ in range(dim**order):
        if sparse and rng.random() < zeros:
            entries.append(Fraction(0))
        else:
            den = rng.choice((1, 2, 3)) if rational else 1
            entries.append(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), den))
    return Tensor(order, dim, tuple(entries))


def test_pencil_matches_the_per_node_path():
    # resultant_value evaluates each node's numeric system with its own
    # table and determinants, a path that shares only crt_values with the
    # pencil; order 3 in dimension 4
    # (Macaulay size 210) is checked at its largest node only, to keep the
    # per-node side short
    rng = random.Random(8117)
    shapes = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2)]
    took_pencil = exact = 0
    for order, dim in shapes:
        for rational, sparse in itertools.product((False, True), repeat=2):
            a = _seeded_tensor(rng, order, dim, rational=rational, sparse=sparse)
            system = e_char_poly_system(a)
            table = _FillTable(system)
            nodes = _e_char_nodes(order, dim)
            got = _recombined(_pencil_values, table, nodes, 0)
            if got is None:
                # the fallback is reported only when no shift works
                assert all(
                    0 in map(_exact_det, _fill(table, c)[::-1]) for c in macaulay._SHIFTS
                ), (order, dim)
                continue
            took_pencil += 1
            assert got == [resultant_value(oracles.system_at(system, lam)) for lam in nodes], (order, dim)
            if (order, dim) in ((3, 2), (4, 3)) and not sparse:
                # sympy's exact det M / det M' is an oracle outside
                # crt_values
                for lam in (nodes[1], nodes[-1]):
                    full, minor = _fill(table, lam)
                    quotient = Fraction(int(_exact_det(full)), int(_exact_det(minor)))
                    scale = Fraction(table.scale_minor, table.scale_full)
                    assert got[nodes.index(lam)] == quotient * scale, (order, dim, lam)
                    exact += 1
    assert took_pencil >= 24 and exact == 8
    a = _seeded_tensor(rng, 3, 4, rational=True, sparse=False)
    system = e_char_poly_system(a)
    got = _recombined(_pencil_values, _FillTable(system), _e_char_nodes(3, 4), 0)
    assert got[16] == resultant_value(oracles.system_at(system, 16))


def test_pencil_on_the_support_of_f1_matches_the_full_pencil():
    # N = A**-1 F1 is zero off the columns J where F1 is nonzero, so the
    # pencil solves only for those and takes charpoly(-N[J, J]); its
    # residues and mask must be the full pencil's, and its residues on the
    # primes solved the generalized charpoly's.  Tensors with zero entries
    # give groups whose J is empty, and groups whose blocks have different
    # J, some of them empty
    rng = random.Random(8212)
    primes = _first_primes()
    shapes = [(3, 3)] * 10 + [(3, 4)] * 4 + [(5, 3)] * 3
    solved_tables = mixed = 0
    for order, dim in shapes:
        a = _seeded_tensor(rng, order, dim, rational=rng.random() < 0.5, sparse=True,
                           zeros=0.3)
        table = _FillTable(e_char_poly_system(a))
        nodes = _e_char_nodes(order, dim)
        got, solved = _pencil_values(table, nodes, primes)
        want, want_solved = oracles.full_pencil_values(table, nodes, primes)
        assert (solved == want_solved).all() and (got == want).all(), (order, dim)
        if not solved.any():
            continue
        solved_tables += 1
        # the generalized charpoly takes seconds at all 49 nodes of order 5
        picked = [0, 1, len(nodes) // 2, len(nodes) - 1]
        gcp, _ = _gcp_values(table, [nodes[i] for i in picked], primes)
        assert (got[solved][:, picked] == gcp[solved]).all(), (order, dim)
        supports = [(table.i1[g.slot] != 0).any(axis=1) for g in table.blocks + table.minors]
        assert any(not s.any() for s in supports), (order, dim)
        mixed += any(s.any() and not s.any(axis=1).all() for s in supports)
    assert solved_tables >= 6 and mixed >= 2, (solved_tables, mixed)


def test_pencil_keeps_each_divisor_to_its_own_rows():
    # a group of two 12-row blocks whose divisor parts have 4 and 2 rows,
    # and columns J' = 0..3 where F1 is nonzero on some divisor part: the
    # right side of the 2-row one is not N' on rows and columns 2 and 3,
    # which must be zeroed.  Against the full pencil, which solves each
    # divisor block apart
    rng = random.Random(186)
    order, dim = rng.choice([(3, 3), (3, 4), (4, 3), (4, 2), (5, 2), (6, 2)])
    a = _seeded_tensor(rng, order, dim, rational=False, sparse=True,
                       zeros=rng.choice((0.5, 0.7, 0.85, 0.95)))
    table = _FillTable(e_char_poly_system(a))
    assert any(len(g.divisor_support) and g.divisor_support.max() >= g.divisor.min()
               for g in table.blocks)
    nodes, primes = _e_char_nodes(order, dim), _first_primes()
    got, solved = _pencil_values(table, nodes, primes)
    want, want_solved = oracles.full_pencil_values(table, nodes, primes)
    assert solved.all() and want_solved.all() and (got == want).all()


def _divisor_is(g):
    # the divisor rows are z^2 f2, z^2 f1 and y^2 f1 on the columns y^2 z^2,
    # x^2 z^2, x^2 y^2, so det M' = a (a g - b e) with a, b the x^2, y^2
    # coefficients of f1 and e, g the x^2, y^2 coefficients of f2; here
    # a = 1 and b = 0, so det M' = g
    return _system([
        _poly(3, {(2, 0, 0): 1, (1, 1, 0): 2, (0, 0, 2): 3, (0, 1, 1): -1}),
        _poly(3, {(0, 2, 0): g, (2, 0, 0): 5, (1, 0, 1): 1}),
        _poly(3, {(0, 0, 2): 1, (1, 1, 0): 1, (0, 2, 0): -2}),
    ])


def test_divisor_that_vanishes_modulo_one_prime():
    # with g prime, det M' = g is nonzero but vanishes modulo g: where g is
    # the first prime the point takes the generalized charpoly branch, and
    # where g comes later that prime is skipped
    for index in (0, 1):
        g = nth_prime(index)
        system = _divisor_is(g)
        full, minor = _fill(_FillTable(system), 0)
        assert _exact_det(minor) == g
        expected = Fraction(int(_exact_det(full)), g)
        assert expected != 0
        for seed in range(index + 2):
            config = replace(DEFAULT_CONFIG, prime_seed=seed)
            assert resultant_value(system, config) == expected, (g, seed)


def _inverted(values, primes):
    return np.array([pow(v, -1, p) if v else 0 for v, p in zip(values.tolist(), primes.tolist())])


def test_det_ratio_reads_each_divisor_off_its_block_elimination():
    # _det_ratio takes det M'_b from the first divisor[b] pivots of block
    # b's own elimination.  Against the fraction-free reference on every
    # kept block and every divisor block apart, and on the whole matrices,
    # at primes small enough that some blocks or divisors vanish modulo
    # some of them: the tables hold blocks with no divisor rows and with
    # all but one, a divisor singular at the first prime refuses the
    # stack, and one singular at a later prime skips that prime
    primes = np.array([nth_prime(0), 13, 7, nth_prime(1)], dtype=np.int64)
    seen = set()
    systems = [*_tables(), _divisor_is(nth_prime(0)), _divisor_is(13)]
    for system in systems:
        table = _FillTable(system)
        for g in table.blocks:
            seen |= {"none" if r == 0 else "all but one" if r == g.size - 1 else "some"
                     for r in g.divisor.tolist()}
        for lam in (0, 3):
            dense = oracles.dense_stack(table, primes, np.full(4, lam, dtype=np.int64))

            def product(groups):
                out = np.ones_like(primes)
                for block in (b for g in groups for b in g.index):
                    out = out * oracles._det_mod(dense[:, block[:, None], block], primes) % primes
                return out

            det_full, det_minor = product(table.blocks), product(table.minors)
            whole, nonzero = oracles.whole_det_ratio_mod(table, primes, lam)
            for pencil in (False, True):
                got = macaulay._det_ratio(table, primes, lam, pencil)
                if not det_minor[0]:
                    seen.add("refused")
                    assert got is None
                    continue
                ratio, minor_ok, full_ok, _ = got
                assert minor_ok.tolist() == (det_minor != 0).tolist()
                seen |= {"skipped"} if not minor_ok.all() else set()
                assert (full_ok == (det_full != 0))[minor_ok].all()
                want = det_full * _inverted(det_minor, primes) % primes
                assert (ratio == want)[minor_ok].all()
                assert (ratio == whole)[nonzero].all()
    assert seen >= {"none", "all but one", "some", "refused", "skipped"}, seen


def test_det_ratio_makes_one_pass_over_the_kept_blocks(monkeypatch):
    # the determinant ratio and the pencil stack only the kept blocks: no
    # elimination runs on the divisor blocks apart
    passes = []
    inner = macaulay._blockwise

    def recording(groups, *args):
        passes.append(groups)
        return inner(groups, *args)

    monkeypatch.setattr(macaulay, "_blockwise", recording)
    rng = random.Random(8123)
    table = _FillTable(e_char_poly_system(_seeded_tensor(rng, 3, 3, rational=True, sparse=False)))
    primes = _first_primes()
    assert _pencil_values(table, _e_char_nodes(3, 3), primes)[1].all()
    assert _det_values(table, [0], primes)[1].all()
    assert table.minors and not any(groups is table.minors for groups in passes)
    assert sum(groups is table.blocks for groups in passes) == 2


def test_det_route_refuses_the_stack_whose_first_prime_divides_the_divisor():
    # crt_values returns None only when the first prime of its whole run is
    # skipped, so a stack of a later call whose first prime divides det M'
    # must mark every prime skipped, or its zero residues would be combined
    g, other = nth_prime(2), nth_prime(3)
    table = _FillTable(_divisor_is(g))
    full = _fill(table, 0)[0]
    values, solved = _det_values(table, [0], np.array([g, other], dtype=np.int64))
    assert solved.tolist() == [False, False]
    # with g second, only g is skipped, and the first prime's residue is
    # det M / det M'
    values, solved = _det_values(table, [0], np.array([other, g], dtype=np.int64))
    assert solved.tolist() == [True, False]
    ratio = int(_exact_det(full)) * pow(g, -1, other) % other
    assert values[0].tolist() == [ratio]


def test_pencil_where_the_divisor_vanishes_at_some_nodes():
    # this order-4 tensor's divisor det M' vanishes at lambda = 0, 1 and 3
    # but not identically, so shifts 0 and 1 fail, and the per-node path
    # needs the generalized charpoly at those nodes
    a = oracles.symmetric_from_upper(4, 3, {
        (0, 0, 0, 0): 1, (0, 0, 1, 2): 2, (0, 1, 1, 1): -1,
        (1, 1, 2, 2): 1, (2, 2, 2, 2): -2, (0, 0, 2, 2): 1,
    })
    system = e_char_poly_system(a)
    table = _FillTable(system)
    nodes = _e_char_nodes(4, 3)
    vanishing = [lam for lam in nodes if _exact_det(_fill(table, lam)[1]) == 0]
    assert {0, 1, 3} <= set(vanishing) and len(vanishing) < len(nodes)
    expected = [resultant_value(oracles.system_at(system, lam)) for lam in nodes]
    assert _recombined(_pencil_values, table, nodes, 0) == expected
    assert _recombined(_gcp_values, table, nodes, 0) == expected


def test_pencil_skips_a_prime_that_fails_the_stack_shift():
    # shift 0 works modulo the first prime, so the whole stack takes it;
    # a later prime dividing the nonzero integer det M(0) is skipped, even
    # though another shift would serve it.  The odd primes dividing det
    # M'(0) here divide det M'(c) at every shift; the one that divides only
    # det M(0) is 39313
    a = oracles.symmetric_from_upper(3, 3, {
        (0, 0, 0): 1, (0, 1, 2): 2, (1, 1, 1): 1, (1, 2, 2): -2, (2, 2, 2): 2,
    })
    system = e_char_poly_system(a)
    table = _FillTable(system)
    full, minor = map(_exact_det, _fill(table, 0))
    p = next(q for q in sympy.primefactors(full) if q > 2 and minor % q)
    assert any(
        all(_exact_det(m) % p for m in _fill(table, c)) for c in macaulay._SHIFTS[1:]
    )
    primes = [nth_prime(0), p, nth_prime(1)]
    nodes = _e_char_nodes(3, 3)
    values, solved = _pencil_values(table, nodes, np.array(primes, dtype=np.int64))
    assert solved.tolist() == [True, False, True]
    scale = Fraction(table.scale_full, table.scale_minor)
    exact = [resultant_value(oracles.system_at(system, lam)) * scale for lam in nodes]
    for layer in (0, 2):
        assert values[layer].tolist() == [v % primes[layer] for v in exact], layer


def test_pencil_shift_on_and_off_the_nodes(monkeypatch):
    # t = lambda - c is zero at a node equal to the shift; the values must
    # not depend on which shift the reduction used, nor on the primes
    rng = random.Random(8123)
    a = _seeded_tensor(rng, 3, 3, rational=True, sparse=False)
    system = e_char_poly_system(a)
    table = _FillTable(system)
    nodes = _e_char_nodes(3, 3)
    expected = [resultant_value(oracles.system_at(system, lam)) for lam in nodes]
    for shifts in ((5,), (-7,), (12,), (40, 5)):
        monkeypatch.setattr(macaulay, "_SHIFTS", shifts)
        for seed in (0, 3):
            assert _recombined(_pencil_values, table, nodes, seed) == expected, shifts


def test_pencil_reports_the_fallback_for_hypergraphs():
    # adjacency tensors of the single edge and of K4^(3): the divisor
    # vanishes identically in lambda, so no shift works
    k4 = list(itertools.combinations(range(1, 5), 3))
    for n, edges in ((3, [(1, 2, 3)]), (4, k4)):
        lsys = e_char_poly_system(adjacency_tensor(Hypergraph.from_edges(n, 3, edges)))
        table = _FillTable(lsys)
        assert _recombined(_pencil_values, table, _e_char_nodes(3, n), 0) is None
        assert all(_exact_det(_fill(table, lam)[1]) == 0 for lam in range(-3, 4))


def test_stack_cap_runs_one_prime_per_call(monkeypatch):
    # every kernel call gets a stack of layers no larger than the cap, a
    # layer being one block at one prime (and node); with the cap below two
    # of the table's layers of its largest block ([A | F1] with a lambda
    # part, M(c) alone without), each call on that block gets one layer,
    # and no value changes.  The charpoly quotient, the determinant
    # ratio, the pencil (E-char of order 3, dimension 3) and the batched
    # generalized charpoly (E-char of the single edge, whose layers are a
    # prime, a node and a block) all work on Macaulay matrices of size 56
    from hyperspec import modular
    from hyperspec.spectra import char_poly, det_tensor, e_char_poly

    rng = random.Random(8161)
    cube = _seeded_tensor(rng, 3, 4, rational=False, sparse=False)
    square = _seeded_tensor(rng, 3, 3, rational=True, sparse=False)
    edge = adjacency_tensor(Hypergraph.from_edges(3, 3, [(1, 2, 3)]))
    assert macaulay_dim(4, (2, 2, 2, 2)) == 56
    stacks = []  # (kernel, layers, block size, int64 entries handed in)
    for name in ("_solve_mod", "trace_powers_mod"):
        inner = getattr(macaulay, name)

        def recording(*args, name=name, inner=inner):
            # the stacks handed in come first, then the primes, one per layer
            split = 2 if name == "_solve_mod" else 1
            stack, primes = args[:split], args[split]
            stacks.append((name, len(primes), args[0].shape[1], sum(a.size for a in stack)))
            return inner(*args)

        monkeypatch.setattr(macaulay, name, recording)

    runs = [  # (value, its table's largest block)
        (lambda: char_poly(cube), PolySystem(4, tensor_polynomial_map(cube), (2,) * 4)),
        (lambda: det_tensor(cube), PolySystem(4, tensor_polynomial_map(cube), (2,) * 4)),
        (lambda: e_char_poly(square, normalize=False), e_char_poly_system(square)),
        (lambda: e_char_poly(edge, normalize=False), e_char_poly_system(edge)),
    ]
    kernels, default = set(), modular.STACK_CAP
    for run, system in runs:
        table = _FillTable(system)
        largest = max(g.size for g in table.blocks)
        stacks.clear()
        value = run()
        kernels |= {name for name, *_ in stacks}
        assert max(entries for *_, entries in stacks) <= modular.STACK_CAP
        if run is runs[-1][0]:
            # the single edge's batch: its 13 nodes at each prime fill the
            # largest block's stacks up to their power-sum footprint
            footprint = modular.trace_layer_size(largest, table.d)[1]
            assert max(layers for _, layers, size, _ in stacks if size == largest) == (
                modular.stack_layers(footprint)
            ) > 1
        cap = 2 * table.layer_size - 1
        monkeypatch.setattr(modular, "STACK_CAP", cap)
        stacks.clear()
        assert run() == value
        assert max(entries for *_, entries in stacks) <= cap
        assert {layers for _, layers, size, _ in stacks if size == largest} == {1}
        monkeypatch.setattr(modular, "STACK_CAP", default)
    assert kernels == {"_solve_mod", "trace_powers_mod"}

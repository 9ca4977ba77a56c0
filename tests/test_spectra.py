"""Characteristic and E-characteristic polynomials of symmetric tensors."""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperspec.config import DEFAULT_CONFIG
from hyperspec.analysis import PolyCache, load_checkpoint
from hyperspec.errors import CapExceeded, DegreeCapExceeded
from hyperspec.hypergraph import Hypergraph, adjacency_tensor, count_simplices, from_bitmask
from hyperspec import macaulay
from hyperspec.macaulay import _eval_point, _FillTable
from hyperspec.polynomial import UniPoly
from hyperspec.spectra import (
    _interpolated_resultant,
    _uncovered_pair,
    char_poly,
    det_tensor,
    e_char_poly,
    e_char_poly_system,
)
from oracles import (
    apply,
    enumerate_all,
    from_rows,
    interpolate,
    permutation_matrix,
    symmetric_from_upper,
)
from hyperspec.tensor import Tensor, mat_sim

DATA = Path(__file__).parent / "data"


def _load_poly(path, key):
    blob = json.loads(path.read_text())
    return UniPoly.from_coeff_strings(blob[key]["coefficients"])


def _single_edge():
    return adjacency_tensor(Hypergraph.from_edges(3, 3, [(1, 2, 3)]))


def _char_oracle_matrix(rows):
    """det(L*I - A) by cofactor expansion over the polynomial ring."""
    n = len(rows)
    lam = UniPoly.monomial(1)
    entries = [
        [
            (lam if i == j else UniPoly.zero()) + UniPoly.constant(-rows[i][j])
            for j in range(n)
        ]
        for i in range(n)
    ]
    return _poly_det(entries)


def _poly_det(entries):
    n = len(entries)
    if n == 0:
        return UniPoly.constant(1)
    if n == 1:
        return entries[0][0]
    total = UniPoly.zero()
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in entries[1:]]
        term = entries[0][j] * _poly_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def test_char_matches_frozen_single_edge():
    expected = _load_poly(DATA / "single_edge_n3_char.json", "char_poly")
    got = char_poly(_single_edge())
    assert got == expected
    assert got.degree == 12
    assert got.is_monic()
    assert got.evaluate(Fraction(0)) == 0
    assert got.evaluate(Fraction(1)) == 0


def test_e_char_matches_frozen_single_edge():
    raw = e_char_poly(_single_edge(), normalize=False)
    norm = e_char_poly(_single_edge())
    assert raw == _load_poly(DATA / "single_edge_n3_echar.json", "e_char_poly_raw")
    assert norm == _load_poly(
        DATA / "single_edge_n3_echar.json", "e_char_poly_normalized"
    )
    assert raw.evaluate(Fraction(1)) == -16
    assert norm == raw.normalized()
    assert norm.degree == 14


def test_e_char_degree_cap_measures_the_resultant_bound():
    # the single edge's system has degrees (2, 2, 2, 2) with a lambda part
    # in the first three polynomials, so D = 3 * 2**3 = 24
    with pytest.raises(DegreeCapExceeded, match="resultant degree bound 24"):
        e_char_poly(_single_edge(), replace(DEFAULT_CONFIG, degree_cap=23))
    at_bound = replace(DEFAULT_CONFIG, degree_cap=24)
    raw = e_char_poly(_single_edge(), at_bound, normalize=False)
    assert raw == _load_poly(DATA / "single_edge_n3_echar.json", "e_char_poly_raw")


def _resultant_degree_bound(order, dim):
    # n * (m-1)**(n-1) for even order; the odd-order quadric doubles it
    bound = dim * (order - 1) ** (dim - 1)
    return bound if order % 2 == 0 else 2 * bound


def _random_rational_tensor(rng, order, dim):
    return Tensor(order, dim, tuple(
        Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
        for _ in range(dim**order)
    ))


def test_e_char_degree_bound_holds_off_the_nodes():
    # if D undercounted the lambda-degree, the interpolant through D + 1
    # nodes would miss the resultant at points outside the node set
    rng = random.Random(419)
    shapes = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2)]
    for order, dim in shapes * 2:
        a = _random_rational_tensor(rng, order, dim)
        bound = _resultant_degree_bound(order, dim)
        raw = e_char_poly(a, normalize=False)
        assert raw.degree <= bound
        table = _FillTable(e_char_poly_system(a))
        for lam in (bound // 2 + 2, -(bound // 2 + 2), 3 * bound):
            assert raw.evaluate(Fraction(lam)) == _eval_point(table, lam, 0)


def _record(monkeypatch, name, extract):
    calls = []
    inner = getattr(macaulay, name)

    def recording(*args):
        calls.append(extract(args))
        return inner(*args)

    monkeypatch.setattr(macaulay, name, recording)
    return calls


def test_e_char_samples_the_degree_bound_plus_one(monkeypatch):
    # even order interpolates through the D + 1 nodes 0..D; odd order
    # is even in lambda and interpolates in lambda**2 through lambda =
    # 0..D/2 (D = 24 for order 3, dimension 3 and D = 16 for order 5,
    # dimension 2).  The other tensors get every node residue from the
    # pencil; the divisors of the single edge and of the sparse order-3
    # tensor vanish identically, so those take the generalized charpoly at
    # every node, all nodes in one batch
    order_three = symmetric_from_upper(3, 3, {
        (0, 0, 0): 1, (0, 1, 2): -1, (1, 1, 2): 2, (2, 2, 2): -1,
    })
    squares = [lam * lam for lam in range(13)]
    cases = [
        (_single_edge(), squares, [list(range(13))]),
        (order_three, squares, [list(range(13))]),
        (_random_rational_tensor(random.Random(421), 3, 3), squares, []),
        (_order_four_integer(), list(range(28)), []),
        (_random_rational_tensor(random.Random(423), 5, 2),
         [lam * lam for lam in range(9)], []),
    ]
    for a, abscissae, per_node in cases:
        handed = _record(monkeypatch, "_lagrange_mod", lambda args: list(args[0]))
        evaluated = _record(monkeypatch, "_gcp_values", lambda args: list(args[1]))
        e_char_poly(a, normalize=False)
        assert handed and all(x == abscissae for x in handed)
        assert evaluated == per_node
        monkeypatch.undo()


def test_single_edge_e_char_takes_two_prime_loops(monkeypatch):
    # the pencil is refused at the first prime, then one loop recombines
    # the coefficients from every node's generalized charpoly; no node
    # runs a determinant ratio or a prime loop of its own
    loops = []

    def counting(*args, inner=macaulay.crt_values):
        loops.append(inner(*args))
        return loops[-1]

    monkeypatch.setattr(macaulay, "crt_values", counting)
    raw = e_char_poly(_single_edge(), normalize=False)
    assert raw == _load_poly(DATA / "single_edge_n3_echar.json", "e_char_poly_raw")
    assert [values is None for values in loops] == [True, False]
    assert len(loops[1]) == 13


def _assert_within_coefficient_bounds(a, raw):
    # every coefficient of the row-scaled resultant is an integer within
    # the one bound all of them are recombined under: R**d, with R the
    # largest row sum of |F0| + |F1|, summed here over the table's entries
    table = _FillTable(e_char_poly_system(a))
    sums = [0] * table.size
    for r, i0, i1 in zip(table.row.tolist(), table.i0.tolist(), table.i1.tolist()):
        sums[r] += abs(i0) + abs(i1)
    unscale = Fraction(table.scale_full, table.scale_minor)
    for j in range(raw.degree + 1):
        c = raw.coefficient(j) * unscale
        assert c.denominator == 1 and abs(c) <= max(sums) ** table.d, (a.order, a.dim, j)


def _benchmark_tensor(order):
    # the fixed tensors of the echar benchmark: upper entries
    # randint(-2, 2) in dimension 3, from the seed strings of
    # perfbench/workloads.fixed_tensor
    rng = random.Random(f"perfbench-pool/echar{order}/{order - 3}")
    upper = {idx: rng.randint(-2, 2)
             for idx in itertools.combinations_with_replacement(range(3), order)}
    return symmetric_from_upper(order, 3, upper)


def test_echar_benchmark_keeps_its_primes(monkeypatch):
    # the primes each benchmark E-char recombines from: None marks a
    # prime loop whose route was refused at its first prime
    kept = []

    def counting(residues_mod, bounds, seed, layer_size, inner=macaulay.crt_values):
        solved = []

        def recording(primes):
            out = residues_mod(primes)
            solved.extend(r is not None for r in out)
            return out

        values = inner(recording, bounds, seed, layer_size)
        kept.append(None if values is None else sum(solved))
        return values

    monkeypatch.setattr(macaulay, "crt_values", counting)
    third = Fraction(1, 3)
    reflection = from_rows([[2 * third - (i == j) for j in range(3)] for i in range(3)])
    signed = from_rows([[-1, 0, 0], [0, 0, 1], [0, 1, 0]])
    expected = {3: [[4], [9], [4]], 4: [[5], [10], [5]]}
    for order, primes in expected.items():
        a = _benchmark_tensor(order)
        for p, want in zip((None, reflection, signed), primes):
            kept.clear()
            e_char_poly(a if p is None else mat_sim(p, a))
            assert kept == want, (order, p)
    kept.clear()
    e_char_poly(_single_edge())
    assert kept == [None, 3]


def test_e_char_matches_the_fraction_interpolation_oracle():
    # the raw E-char against Newton interpolation in Fractions through the
    # _eval_point values at the same nodes, a path that shares neither the
    # batched node residues, nor the Lagrange basis modulo primes, nor the
    # coefficient bounds.  Order 5 in dimension 3 (Macaulay size 364, 49
    # nodes) is left out: each node takes seconds there
    rng = random.Random(4337)
    shapes = [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2)]
    tensors = [_random_rational_tensor(rng, order, dim) for order, dim in shapes]
    for a in tensors + [_single_edge()]:
        table = _FillTable(e_char_poly_system(a))
        bound = _resultant_degree_bound(a.order, a.dim)
        odd = a.order % 2 == 1
        nodes = list(range(bound // 2 + 1 if odd else bound + 1))
        abscissae = [lam * lam for lam in nodes] if odd else nodes
        oracle = interpolate([(x, _eval_point(table, lam, 0))
                              for x, lam in zip(abscissae, nodes)])
        if odd:
            oracle = UniPoly(tuple(c for h in oracle.coeffs for c in (h, 0)))
        for seed in (0, 3):
            raw = e_char_poly(a, replace(DEFAULT_CONFIG, prime_seed=seed), normalize=False)
            assert raw == oracle, (a.order, a.dim, seed)
        _assert_within_coefficient_bounds(a, oracle)


def test_odd_order_resultant_is_even_in_lambda():
    # beta -> -beta maps the odd-order system at lambda to the system at
    # -lambda; checked point by point, without interpolating
    rng = random.Random(431)
    for order, dim in ((3, 2), (3, 3), (5, 2)):
        a = _random_rational_tensor(rng, order, dim)
        table = _FillTable(e_char_poly_system(a))
        for lam in range(1, _resultant_degree_bound(order, dim) + 1):
            assert _eval_point(table, -lam, 0) == _eval_point(
                table, lam, 0
            )
    # even order has no such symmetry, so it keeps the full node set
    raw = e_char_poly(_order_four_integer(), normalize=False)
    assert any(raw.coefficient(p) != 0 for p in range(1, raw.degree + 1, 2))


def test_zero_tensor_char_is_pure_power():
    got = char_poly(Tensor.zero(3, 3))
    assert got == UniPoly.monomial(12)


def test_diagonal_unit_tensor_char():
    got = char_poly(Tensor.from_map(3, 2, {(0, 0, 0): 1, (1, 1, 1): 1}))
    assert got == UniPoly.from_coeff_strings(["1", "-4", "6", "-4", "1"])


def test_degree_law_small():
    # degree is n * (k-1)^(n-1) for order-k maps on n vertices
    assert char_poly(Tensor.zero(3, 3)).degree == 12
    assert char_poly(Tensor.zero(3, 4)).degree == 32


def test_matrix_case_collapses_to_classical():
    rng = random.Random(311)
    for _ in range(20):
        n = rng.choice((2, 3))
        sym = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                sym[i][j] = sym[j][i] = rng.randint(-4, 4)
        t = from_rows([[Fraction(v) for v in row] for row in sym])
        expected = _char_oracle_matrix(sym)
        assert char_poly(t) == expected
        assert e_char_poly(t) == expected.normalized()
        assert det_tensor(t) == expected.evaluate(Fraction(0)) * (
            1 if n % 2 == 0 else -1
        )


def test_even_order_diagonal_e_char():
    # roots are the two stationary values 1 and 1/2; coefficients checked
    # against a hand-built resultant of the two cubic forms
    got = e_char_poly(Tensor.from_map(4, 2, {(0,) * 4: 1, (1,) * 4: 1}), normalize=False)
    assert got == UniPoly.from_coeff_strings(["1", "-6", "13", "-12", "4"])
    assert got.evaluate(Fraction(1)) == 0
    assert got.evaluate(Fraction(1, 2)) == 0
    assert got.evaluate(Fraction(0)) == 1


def test_zero_map_e_char_vanishes_identically():
    for order, dim in ((3, 2), (3, 3), (4, 2)):
        assert e_char_poly(Tensor.zero(order, dim)).is_zero()


def test_zero_map_shortcut_matches_the_general_path():
    for order, dim in ((3, 2), (3, 3), (4, 2), (5, 2)):
        lsys = e_char_poly_system(Tensor.zero(order, dim))
        assert _interpolated_resultant(lsys, DEFAULT_CONFIG).is_zero()


def _uncovered_upper(order, dim, pair, seed):
    # nonzero upper entries everywhere but on the index sets with at least
    # order - 1 indices in pair: no a[w, i_2, .., i_m] has every i_j there
    rng = random.Random(seed)
    return symmetric_from_upper(order, dim, {
        idx: rng.choice((-2, -1, 1, 2))
        for idx in itertools.combinations_with_replacement(range(dim), order)
        if sum(i in pair for i in idx) < order - 1
    })


def test_uncovered_pair_certifies_what_the_general_path_computes():
    # the 4-vertex 3-graph classes with 0, 1 and 2 edges, both 4-uniform
    # classes on 4 vertices, and order-3 tensors built with an uncovered
    # pair: the general path, which the certificate skips, interpolates
    # the same zero polynomial
    graphs = [from_bitmask(4, 3, mask) for mask in (0, 1, 3)]
    graphs += [from_bitmask(4, 4, mask) for mask in (0, 1)]
    tensors = [adjacency_tensor(h) for h in graphs]
    tensors += [_uncovered_upper(3, 3, pair, 60 + seed)
                for seed, pair in enumerate(((0, 1), (1, 2), (0, 2)))]
    for a in tensors:
        assert _uncovered_pair(a)
        assert e_char_poly(a).is_zero()
        system = e_char_poly_system(a)
        assert _interpolated_resultant(
            system, DEFAULT_CONFIG, even_in_lambda=a.order % 2 == 1
        ).is_zero()


def test_covered_pairs_are_not_certified():
    # the 3-vertex edge, K4(3), a dense tensor whose slice a[0, ., .] is
    # zero, and an order-7 tensor on one coordinate cover every pair
    rng = random.Random(61)
    sliced = Tensor.from_map(3, 3, {
        idx: rng.choice((-2, -1, 1, 2))
        for idx in itertools.product(range(3), repeat=3) if idx[0] != 0
    })
    single = symmetric_from_upper(7, 2, {(0,) * 7: 1})
    assert not _uncovered_pair(adjacency_tensor(from_bitmask(4, 3, 15)))
    for a in (_single_edge(), sliced, single):
        assert not _uncovered_pair(a)
        assert not e_char_poly(a).is_zero()


def test_edge_list_certificate_matches_the_tensor_certificate():
    # _uncovered_pair reads the certificate off a hypergraph's edge list;
    # it must agree with its tensor's on every class up to 5 vertices
    seen = set()
    for n, k in ((3, 2), (5, 2), (3, 3), (4, 3), (5, 3), (4, 4), (5, 4), (5, 5)):
        for h in enumerate_all(n, k, up_to_iso=True):
            certified = k >= 3 and _uncovered_pair(h)
            assert certified == (k >= 3 and _uncovered_pair(adjacency_tensor(h))), h
            seen.add((k, certified))
    assert seen == {(2, False), (3, False), (3, True), (4, True), (5, True)}


def test_front_doors_take_a_hypergraph(monkeypatch):
    # a hypergraph's polynomial is its adjacency tensor's; past the cap it
    # is refused, or its E-char certified 0, before the tensor is built
    from hyperspec import hypergraph

    for n, k in ((4, 3), (5, 2)):
        for h in enumerate_all(n, k, up_to_iso=True):
            assert char_poly(h) == char_poly(adjacency_tensor(h)), h

    def refuse(h):
        raise AssertionError("adjacency tensor built")

    monkeypatch.setattr(hypergraph, "scaled_adjacency", refuse)
    big = Hypergraph.from_edges(1000, 3, [(1, 2, 3)])
    with pytest.raises(DegreeCapExceeded, match=r"1000\*2\*\*999 exceeds cap 128"):
        char_poly(big)
    assert e_char_poly(big).is_zero()


def test_e_char_reads_a_hypergraphs_certificate_once(monkeypatch):
    # the uncovered-pair check runs on the edge list, not again on the
    # tensor; the single edge keeps its polynomial, and for K4(3) the
    # resultant is stubbed, as only the count matters
    from hyperspec import spectra

    calls = []
    certify = spectra._uncovered_pair

    def counted(a):
        calls.append(type(a).__name__)
        return certify(a)

    monkeypatch.setattr(spectra, "_uncovered_pair", counted)
    edge = Hypergraph.from_edges(3, 3, [(1, 2, 3)])
    expected = e_char_poly(adjacency_tensor(edge))
    calls.clear()
    assert e_char_poly(edge) == expected
    assert calls == ["Hypergraph"]
    monkeypatch.setattr(spectra, "_interpolated_resultant", lambda *a, **k: UniPoly.constant(1))
    calls.clear()
    e_char_poly(from_bitmask(4, 3, 15))
    assert calls == ["Hypergraph"]


def test_certified_e_chars_return_at_once():
    # one edge on 4 vertices for k = 3 and 4, and on 5 vertices for
    # k = 3, whose resultant degree bound 160 exceeds the default cap 128:
    # the certificate answers before any system is built or cap checked
    for n, k in ((4, 3), (4, 4), (5, 3)):
        a = adjacency_tensor(Hypergraph.from_edges(n, k, [tuple(range(1, k + 1))]))
        start = time.perf_counter()
        assert e_char_poly(a).is_zero() and e_char_poly(a, normalize=False).is_zero()
        assert time.perf_counter() - start < 0.1, (n, k)


def test_char_of_k4_plus_three_isolated_vertices():
    # n = 7, degree 448, Macaulay size 3,003: the disjoint union with three
    # isolated vertices has char poly phi(K4^(3))**8 * lambda**192 (Cooper &
    # Dutle, Linear Algebra Appl. 436, 2012); the block split answers it in
    # under a second, with the caps raised for this call
    k4 = list(itertools.combinations(range(1, 5), 3))
    phi = char_poly(adjacency_tensor(Hypergraph.from_edges(4, 3, k4)))
    big = char_poly(
        adjacency_tensor(Hypergraph.from_edges(7, 3, k4)),
        replace(DEFAULT_CONFIG, degree_cap=448, dim_cap=3003),
    )
    expected = UniPoly.monomial(192)
    for _ in range(8):
        expected = expected * phi
    assert big == expected


def test_caps_are_enforced():
    with pytest.raises(DegreeCapExceeded):
        char_poly(_single_edge(), replace(DEFAULT_CONFIG, degree_cap=10))
    with pytest.raises(CapExceeded):
        e_char_poly(_single_edge(), replace(DEFAULT_CONFIG, dim_cap=10))
    with pytest.raises(CapExceeded):
        char_poly(_single_edge(), replace(DEFAULT_CONFIG, dim_cap=10))


def test_char_invariant_under_relabeling():
    rng = random.Random(313)
    entries = {}
    for i in range(3):
        for j in range(i, 3):
            for k in range(j, 3):
                entries[(i, j, k)] = Fraction(rng.randint(-2, 2))
    a = symmetric_from_upper(3, 3, entries)
    base = char_poly(a)
    for images in ([1, 2, 0], [2, 0, 1], [0, 2, 1]):
        relabeled = mat_sim(permutation_matrix(images), a)
        assert char_poly(relabeled) == base


def test_eigenvalue_is_a_root():
    a = _single_edge()
    ones = (Fraction(1),) * 3
    assert apply(a, ones) == ones  # A x**2 = 1 * x**2 at x = (1, 1, 1)
    assert char_poly(a).evaluate(Fraction(1)) == 0


def test_prime_seed_does_not_change_results():
    a = _single_edge()
    base = e_char_poly(a, replace(DEFAULT_CONFIG, prime_seed=0), normalize=False)
    moved = e_char_poly(a, replace(DEFAULT_CONFIG, prime_seed=3), normalize=False)
    assert base == moved
    rational = _rational_order_three()
    base = char_poly(rational, replace(DEFAULT_CONFIG, prime_seed=0))
    moved = char_poly(rational, replace(DEFAULT_CONFIG, prime_seed=3))
    assert base == moved == _RATIONAL_ORDER_THREE_CHAR


# char_poly of two rational tensors, recorded from the interpolation path
# that computed every characteristic polynomial before the Hessenberg one
_RATIONAL_MATRIX_CHAR = UniPoly.from_coeff_strings(["53/36", "-143/72", "-7/4", "1"])
_RATIONAL_ORDER_THREE_CHAR = UniPoly.from_coeff_strings([
    "3698458397/156894824016", "-7543176096763/12708480745296",
    "52822914614023/16944640993728", "-99297682829291/12708480745296",
    "241763929/21781872", "-993075703/152473104", "-28199275/4667544",
    "1031257/86436", "-4937/5488", "-11539/882", "193/14", "-6", "1",
])


def _rational_order_three():
    return symmetric_from_upper(3, 3, {
        (0, 0, 0): Fraction(1, 2), (0, 1, 2): Fraction(1, 3),
        (1, 1, 2): Fraction(-2, 7), (2, 2, 2): 1,
        (0, 0, 1): Fraction(1, 7), (1, 2, 2): Fraction(-1, 2),
    })


def test_char_pinned_on_rational_tensors():
    matrix = from_rows([
        [Fraction(1, 2), Fraction(1, 3), 0],
        [Fraction(1, 3), Fraction(-3, 4), 1],
        [0, 1, 2],
    ])
    assert char_poly(matrix) == _RATIONAL_MATRIX_CHAR
    assert char_poly(_rational_order_three()) == _RATIONAL_ORDER_THREE_CHAR


# raw E-chars recorded from the interpolation through lambda_rows + 1
# points that preceded the resultant degree bound
_ORDER_FOUR_E_CHAR = UniPoly.from_coeff_strings([
    "-254804818964992650", "-32480789104097685", "904087677469316004",
    "296656507718563392", "-1127172134919038121", "-680567665083504201",
    "540821637417384873", "615574011836936214", "-24817314831896763",
    "-223227745835348348", "-41846932420436208", "25031112226539169",
    "3911033589160701", "-1164579098586377",
])
_NONSYMMETRIC_E_CHAR = UniPoly.from_coeff_strings([
    "601952382219945409/562500000000000000", "0",
    "150702261739054204367/2531250000000000000", "0",
    "28766591524143802754443/60750000000000000000", "0",
    "-2561771850076006667892857/205031250000000000000", "0",
    "82180130294633730501131/2733750000000000000", "0",
    "-24843339598303709140489/656100000000000000", "0",
    "14520258091450566037/546750000000000", "0", "-2092865062853971/455625000000",
])
_ORDER_FIVE_E_CHAR = UniPoly.from_coeff_strings([
    "672483642601/2176782336", "0", "-4970808670475/1088391168", "0",
    "4157446848233/241864704", "0", "54834200399/20155392", "0",
    "-4454328029/1679616", "0", "-58863869/46656",
])


def _order_four_integer():
    return symmetric_from_upper(4, 3, {
        (0, 0, 0, 0): 1, (0, 0, 1, 2): 2, (0, 1, 1, 1): -1,
        (1, 1, 2, 2): 1, (2, 2, 2, 2): -2, (0, 0, 2, 2): 1,
    })


def test_e_char_pinned_beyond_the_goldens():
    rng = random.Random(2024)
    nonsymmetric = Tensor(3, 3, tuple(
        Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 5))) for _ in range(27)
    ))
    rng = random.Random(505)
    order_five = Tensor(5, 2, tuple(
        Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3))) for _ in range(32)
    ))
    pinned = [(_order_four_integer(), _ORDER_FOUR_E_CHAR),
              (nonsymmetric, _NONSYMMETRIC_E_CHAR), (order_five, _ORDER_FIVE_E_CHAR)]
    for a, expected in pinned:
        assert e_char_poly(a, normalize=False) == expected
        _assert_within_coefficient_bounds(a, expected)


@st.composite
def _three_graphs(draw):
    n = draw(st.integers(min_value=3, max_value=5))
    triples = list(itertools.combinations(range(1, n + 1), 3))
    edges = draw(st.lists(st.sampled_from(triples), unique=True))
    return Hypergraph.from_edges(n, 3, edges)


def _check_three_graph_coefficients(h, phi):
    # Cooper & Dutle, "Spectra of uniform hypergraphs", LAA 436 (2012): the
    # coefficients of L^(d-1) .. L^(d-k+1) vanish and that of L^(d-k) is
    # -k^(k-2) (k-1)^(n-k) |E|, here -3 * 2^(n-3) |E|.
    # The coefficient of L^(d-k-1) counts simplices.  Clark & Cooper, "A
    # Harary-Sachs theorem for hypergraphs", JCTB 149 (2021), write the
    # codegree-j coefficient as a sum over Veblen multi-hypergraphs with j
    # edges, and with k + 1 edges the only one is the simplex.  The constant
    # -21 * 2^(n-3) is the one measured on every class below; this test
    # pins it and does not check that derivation.
    n = h.n
    d = n * 2 ** (n - 1)
    assert phi.degree == d and phi.is_monic()
    assert phi.coefficient(d - 1) == 0
    assert phi.coefficient(d - 2) == 0
    assert phi.coefficient(d - 3) == -3 * 2 ** (n - 3) * len(h.edges)
    assert phi.coefficient(d - 4) == -21 * 2 ** (n - 3) * count_simplices(h)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(_three_graphs())
def test_char_coefficient_identities_on_three_graphs(h):
    _check_three_graph_coefficients(h, char_poly(adjacency_tensor(h)))


def test_char_coefficient_identities_on_every_small_three_graph_class(universe_scan):
    # the 34 classes on 5 vertices come from the session's (5, 3) scan,
    # whose checkpoint holds the char_poly of each
    cache, _ = load_checkpoint(universe_scan(5, 3)[1], 5, 3)
    classes = {
        cache.class_key(n, 3, mask)
        for n in (3, 4, 5)
        for mask in range(2 ** math.comb(n, 3))
    }
    assert len(classes) == 2 + 5 + 34
    for key in sorted(classes):
        _check_three_graph_coefficients(from_bitmask(*key), cache.get_char_mask(*key))


@settings(max_examples=20, derandomize=True, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=10**6))
def test_char_constant_term_is_signed_det(dim, seed):
    rng = random.Random(seed)
    a = Tensor(3, dim, tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim**3)))
    phi = char_poly(a)
    assert phi.coefficient(0) == (-1) ** phi.degree * det_tensor(a)


def test_det_tensor_values():
    assert det_tensor(Tensor.from_map(3, 2, {(0, 0, 0): 1, (1, 1, 1): 1})) == 1
    assert det_tensor(Tensor.zero(3, 2)) == 0
    m = from_rows([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]])
    assert det_tensor(m) == 5


# det_tensor of every 3-graph on 4 vertices, by edge mask, and of seeded
# integer order-3 tensors in dimension 4.  The tensor values were recorded
# from the earlier Fraction-based determinant path; every 3-graph on 4
# vertices has determinant zero, certified below by a nontrivial root.
_DET_BY_MASK = {mask: 0 for mask in range(16)}
_DET_BY_SEED = {
    0: 3085346265797345373,
    1: 22030134699969,
    2: -17698498017440676,
}


def _seeded_tensor(seed):
    rng = random.Random(seed)
    return Tensor(3, 4, tuple(Fraction(rng.randint(-2, 2)) for _ in range(4**3)))


def test_det_tensor_pinned_on_order_three():
    cache = PolyCache()
    for mask, expected in _DET_BY_MASK.items():
        h = from_bitmask(4, 3, mask)
        a = adjacency_tensor(h)
        assert any(
            any(x) and not any(apply(a, x))
            for x in itertools.product((-1, 0, 1), repeat=4)
        )
        assert det_tensor(a) == expected
        phi = cache.get_char(h)
        assert phi.coefficient(0) == (-1) ** phi.degree * expected
    for seed, expected in _DET_BY_SEED.items():
        a = _seeded_tensor(seed)
        assert det_tensor(a) == expected
        phi = char_poly(a)
        assert phi.coefficient(0) == (-1) ** phi.degree * expected

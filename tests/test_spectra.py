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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperspec.config import DEFAULT_CONFIG
from hyperspec.analysis import PolyCache, ds_verify, load_checkpoint
from hyperspec.errors import CapExceeded, DegreeCapExceeded, DimMismatch, HyperspecError
from hyperspec.hypergraph import Hypergraph, adjacency_tensor, count_simplices, from_bitmask
from hyperspec import hypergraph, macaulay
from hyperspec.macaulay import (
    PolySystem, _det_values, _FillTable, _gcp_values, _pencil_values, resultant_value,
)
from hyperspec.modular import crt_values, nth_prime
from hyperspec.polynomial import UniPoly
from hyperspec.spectra import (
    _coordinate_root,
    _interpolated_resultant,
    _isotropic_root,
    char_poly,
    det_tensor,
    e_char_poly,
    e_char_poly_system,
    tensor_polynomial_map,
)
from oracles import (
    apply,
    classical_char_poly,
    dense_stack,
    enumerate_all,
    from_rows,
    full_pencil_values,
    interpolate,
    kept_block_norms,
    permutation_matrix,
    symmetric_from_upper,
    system_at,
    whole_quotient_mod,
    zero_tensor,
)
from hyperspec.tensor import Tensor, mat_sim

DATA = Path(__file__).parent / "data"


def _load_poly(path, key):
    blob = json.loads(path.read_text())
    return UniPoly.from_coeff_strings(blob[key]["coefficients"])


def _single_edge():
    return adjacency_tensor(Hypergraph.from_edges(3, 3, [(1, 2, 3)]))


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
        system = e_char_poly_system(a)
        for lam in (bound // 2 + 2, -(bound // 2 + 2), 3 * bound):
            assert raw.evaluate(Fraction(lam)) == resultant_value(system_at(system, lam))


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


def _entry_norms(table, lam=None):
    # the largest absolute row sum R inside one kept diagonal block of
    # M(lam), and the sum of squared entries S inside those blocks, read
    # off the dense matrix; lam None takes |i0| + |i1|, which bounds every
    # entry on |lambda| = 1
    dense = [[0] * table.size for _ in range(table.size)]
    for r, c, i0, i1 in zip(*(a.tolist() for a in (table.row, table.col, table.i0, table.i1))):
        dense[r][c] = abs(i0) + abs(i1) if lam is None else i0 + lam * i1
    return kept_block_norms(table, dense)


def _assert_elementary_bound(bound, d, k, radius, squares):
    # the bound on |e_k| of d numbers of absolute value at most R whose
    # squares sum to at most S is Gershgorin's C(d, k) R**k, or else the
    # least integer at least C(d, k) (S / d)**(k/2), and never above
    # Gershgorin's; whether it is below Gershgorin's
    c = math.comb(d, k)
    assert bound <= c * radius**k
    if bound < c * radius**k:
        assert bound**2 * d**k >= c * c * squares**k > (bound - 1) ** 2 * d**k
    return bound < c * radius**k


def _assert_within_coefficient_bounds(a, raw):
    # every coefficient of the row-scaled resultant is an integer within
    # the one bound all of them are recombined under, the smaller of R**d
    # and (S / d)**(d/2) on |lambda| = 1 (macaulay._value_bound)
    table = _FillTable(e_char_poly_system(a))
    bound = macaulay._value_bound(table, None)
    tighter = _assert_elementary_bound(bound, table.d, table.d, *_entry_norms(table))
    unscale = Fraction(table.scale_full, table.scale_minor)
    for j in range(raw.degree + 1):
        c = raw.coefficient(j) * unscale
        assert c.denominator == 1 and abs(c) <= bound, (a.order, a.dim, j)
    return tighter


def _pool_tensor(family, index, order, dim, span):
    # a fixed tensor of the benchmark, upper entries randint(-span, span),
    # from the seed strings of perfbench/workloads.fixed_tensor
    rng = random.Random(f"perfbench-pool/{family}/{index}")
    upper = {idx: rng.randint(-span, span)
             for idx in itertools.combinations_with_replacement(range(dim), order)}
    return symmetric_from_upper(order, dim, upper)


def _benchmark_tensor(order):
    # the fixed tensor of this order of the echar benchmark
    return _pool_tensor(f"echar{order}", order - 3, order, 3, 2)


def _criterion_8_transforms():
    # the orthogonal transforms of the echar benchmark: the identity (None),
    # four signed permutations and the reflection I - 2 u u^T / 3
    def signed(images, signs):
        return from_rows([[s * (img == j) for j in range(3)] for img, s in zip(images, signs)])

    third = Fraction(1, 3)
    return [
        None,
        signed([1, 2, 0], [1, 1, 1]),
        signed([0, 2, 1], [-1, 1, 1]),
        signed([0, 1, 2], [1, -1, -1]),
        signed([1, 0, 2], [1, 1, 1]),
        from_rows([[2 * third - (i == j) for j in range(3)] for i in range(3)]),
    ]


def test_benchmark_values_lie_within_the_frobenius_bounds():
    # every exact value, recombined here under the Gershgorin bounds alone,
    # lies within the smaller bounds that the library recombines it under,
    # and the library's values are those: the charpoly quotient's
    # coefficients and det_tensor of the 16 3-graphs on 4 vertices and of
    # the three fixed charpoly tensors, and the E-char coefficients of the
    # fixed echar tensors under the criterion-8 transforms and of the
    # single edge
    def gershgorin_route(table, routes, nodes, abscissae, lam):
        radius = _entry_norms(table, lam)[0]
        bounds = [radius**table.d] * len(nodes)
        return macaulay._recombine(table, routes, nodes, abscissae, bounds, 0)

    tensors = [adjacency_tensor(from_bitmask(4, 3, mask)) for mask in range(16)]
    tensors += [_pool_tensor("charpoly", t, 3, 4, 3) for t in range(3)]
    tighter = {"charpoly": 0, "det": 0, "echar": 0}
    for a in tensors:
        component = tensor_polynomial_map(a)
        scale = math.lcm(*(c.denominator for p in component for c in p.terms.values()))
        degrees = (a.order - 1,) * a.dim
        system = PolySystem(a.dim, tuple(p.scale(scale) for p in component), degrees)
        table = _FillTable(system)
        d, (radius, squares) = table.d, _entry_norms(table, 0)

        def residues_mod(primes, table=table):
            pv = np.array(primes, dtype=np.int64)
            return macaulay._quotients(table, pv, np.zeros_like(pv))

        gershgorin = [math.comb(d, j) * radius ** (d - j) for j in range(d + 1)]
        exact = crt_values(residues_mod, gershgorin, 0, table.layer_size)
        assert macaulay._charpoly_quotient(system, DEFAULT_CONFIG) == exact
        for j, c in enumerate(exact):
            bound = macaulay._elementary_bound(d, d - j, *table.norms(0))
            tighter["charpoly"] += _assert_elementary_bound(bound, d, d - j, radius, squares)
            assert abs(c) <= bound, j
        table = _FillTable(PolySystem(a.dim, component, degrees))
        (value,) = gershgorin_route(table, (_det_values, _gcp_values), [0], (0,), 0)
        bound = macaulay._value_bound(table, 0)
        tighter["det"] += _assert_elementary_bound(
            bound, table.d, table.d, *_entry_norms(table, 0)
        )
        assert abs(value) <= bound
        assert det_tensor(a) == Fraction(value * table.scale_minor, table.scale_full)
    echar = [_benchmark_tensor(order) for order in (3, 4)]
    transformed = [a if p is None else mat_sim(p, a)
                   for a in echar for p in _criterion_8_transforms()]
    for a in transformed + [_single_edge()]:
        table = _FillTable(e_char_poly_system(a))
        odd = a.order % 2
        nodes = list(range(_resultant_degree_bound(a.order, a.dim) // (1 + odd) + 1))
        abscissae = tuple(lam ** (1 + odd) for lam in nodes)
        exact = gershgorin_route(table, (_pencil_values, _gcp_values), nodes, abscissae, None)
        raw = e_char_poly(a, normalize=False)
        unscale = Fraction(table.scale_full, table.scale_minor)
        assert [raw.coefficient((1 + odd) * i) * unscale for i in range(len(exact))] == exact
        tighter["echar"] += _assert_within_coefficient_bounds(a, raw)
    # Schur's bound is the smaller one for every E-char; over the kept
    # blocks, for 14 of the 19 charpoly tables on every coefficient but
    # the leading 1, and for 4 more on all but one of those
    assert tighter == {"charpoly": 14 * 32 + 4 * 31, "det": 14, "echar": 13}, tighter


def test_power_sum_quotients_match_hessenberg_on_the_benchmark_tables():
    # every table the perfbench workloads build: the charpoly quotients
    # against Hessenberg reduction of the whole M and M' with exact division
    # (whole_quotient_mod), and the pencil against full_pencil_values,
    # which divides products of Hessenberg charpolys.  charpoly: the
    # 3-graphs on 4 vertices and the fixed integer tensors; echar: the two
    # fixed tensors under the criterion-8 transforms, and the single edge;
    # search: the 6-vertex graph classes of ds
    primes = np.array([nth_prime(0), nth_prime(1)], dtype=np.int64)
    zero = np.zeros(2, dtype=np.int64)

    def char_table(a):
        return _FillTable(PolySystem(a.dim, tensor_polynomial_map(a), (a.order - 1,) * a.dim))

    tensors = [adjacency_tensor(from_bitmask(4, 3, mask)) for mask in range(1, 16)]
    tensors += [_pool_tensor("charpoly", t, 3, 4, 3) for t in range(3)]
    tensors += [adjacency_tensor(from_bitmask(6, 2, mask)) for mask in (106, 1919, 759)]
    for a in tensors:
        table = char_table(a)
        assert (macaulay._quotients(table, primes, zero)
                == whole_quotient_mod(table, primes, zero)).all(), a
    transformed = [a if p is None else mat_sim(p, a)
                   for a in map(_benchmark_tensor, (3, 4)) for p in _criterion_8_transforms()]
    for a in transformed + [_single_edge()]:
        table = _FillTable(e_char_poly_system(a))
        lams = np.array([3, -5], dtype=np.int64)
        assert (macaulay._quotients(table, primes, lams)
                == whole_quotient_mod(table, primes, lams)).all(), a
        nodes = list(range(8))
        got, solved = _pencil_values(table, nodes, primes)
        want, want_solved = full_pencil_values(table, nodes, primes)
        assert (solved == want_solved).all() and (got == want).all(), a


def test_each_group_holds_the_columns_where_f1_is_nonzero():
    # a table with a lambda part finds, once when it is built, the columns
    # where F1 = M(1) - M(0) is nonzero on some block of each group, on
    # the echar benchmark tables: the two fixed tensors under the
    # criterion-8 transforms, and the single edge.  A table with no lambda
    # part scans for none.
    primes = np.array([nth_prime(0)], dtype=np.int64)
    transformed = [a if p is None else mat_sim(p, a)
                   for a in map(_benchmark_tensor, (3, 4)) for p in _criterion_8_transforms()]
    for a in transformed + [_single_edge()]:
        table = _FillTable(e_char_poly_system(a))
        at = [dense_stack(table, primes, np.full(1, lam, dtype=np.int64))[0] for lam in (1, 0)]
        f1 = (at[0] - at[1]) % primes[0]
        for group in table.blocks + table.minors:
            cells = f1[group.index[:, :, None], group.index[:, None, :]]
            want = np.flatnonzero(cells.any(axis=(0, 1)))
            assert group.support.tolist() == want.tolist(), a
        char = _FillTable(PolySystem(a.dim, tensor_polynomial_map(a), (a.order - 1,) * a.dim))
        assert not any(g.support.size for g in char.blocks + char.minors)


def test_hypergraph_spectra_build_no_adjacency_tensor(monkeypatch):
    # char_poly(h) and e_char_poly(h) read h's system off its edge list: with
    # the n**k builder refusing every call, they still give the polynomials
    # of h's adjacency tensor, computed before.  The cases: the single
    # 3-edge, K4^(3), whose E-char no certificate answers, and a graph
    cases = [Hypergraph.from_edges(3, 3, [(1, 2, 3)]), from_bitmask(4, 3, 15),
             Hypergraph.from_edges(4, 2, [(1, 2), (2, 3), (3, 4), (1, 3)])]
    want = [(char_poly(a), e_char_poly(a, normalize=False))
            for a in map(adjacency_tensor, cases)]

    def refuse(h):
        raise AssertionError(f"built the adjacency tensor of {h}")

    monkeypatch.setattr(hypergraph, "scaled_adjacency", refuse)
    for h, (char, e_char) in zip(cases, want):
        assert h.k == 2 or not _isotropic_root(h)
        assert char_poly(h) == char and e_char_poly(h, normalize=False) == e_char, h


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
    expected = {3: [[4], [12], [4]], 4: [[6], [14], [6]]}
    for order, primes in expected.items():
        a = _benchmark_tensor(order)
        for p, want in zip((None, reflection, signed), primes):
            kept.clear()
            e_char_poly(a if p is None else mat_sim(p, a))
            assert kept == want, (order, p)
    kept.clear()
    e_char_poly(_single_edge())
    assert kept == [None, 2]


def test_every_recombined_value_matches_a_fresh_prime(monkeypatch):
    # each value a prime loop recombines, reduced modulo the first prime
    # of the list that the loop did not use, equals the residue its route
    # gives at that prime (the next one if the route skips it): a bound
    # too small to cover a value would show here, whatever its proof.
    # Every table of the three perfbench workloads (charpoly: char_poly
    # and det_tensor of the 3-graphs on 4 vertices, the fixed integer
    # tensors and the single edge; echar: the fixed tensors under the
    # criterion-8 transforms and the single edge; search: ds on its three
    # 6-vertex graph classes), and K4^(3) plus three isolated vertices
    loops = []

    def recording(residues_mod, bounds, seed, layer_size, inner=macaulay.crt_values):
        asked = []

        def logged(primes):
            asked.extend(primes)
            return residues_mod(primes)

        values = inner(logged, bounds, seed, layer_size)
        if values is not None:
            loops.append((residues_mod, values, seed + len(asked)))
        return values

    monkeypatch.setattr(macaulay, "crt_values", recording)
    tensors = [adjacency_tensor(from_bitmask(4, 3, mask)) for mask in range(16)]
    tensors += [_pool_tensor("charpoly", t, 3, 4, 3) for t in range(3)] + [_single_edge()]
    for a in tensors:
        char_poly(a)
        try:
            det_tensor(a)
        except HyperspecError:
            pass
    counts = [len(loops)]
    for a in map(_benchmark_tensor, (3, 4)):
        for p in _criterion_8_transforms():
            e_char_poly(a if p is None else mat_sim(p, a))
    e_char_poly(_single_edge(), normalize=False)
    counts.append(len(loops) - sum(counts))
    cache = PolyCache()
    for mask in (106, 1919, 759):
        ds_verify(from_bitmask(6, 2, mask), cache=cache)
    counts.append(len(loops) - sum(counts))
    k4 = list(itertools.combinations(range(1, 5), 3))
    raised = replace(DEFAULT_CONFIG, degree_cap=448, dim_cap=3003)
    char_poly(Hypergraph.from_edges(7, 3, k4), raised)
    counts.append(len(loops) - sum(counts))
    # loops per part: most det_tensor values are 0 off a visible root,
    # with no loop
    assert counts == [23, 13, 15, 1], counts
    for residues_mod, values, index in loops:
        while (residues := residues_mod([nth_prime(index)])[0]) is None:
            index += 1
        p = nth_prime(index)
        assert [v % p for v in values] == [int(r) for r in residues]


def test_e_char_matches_the_fraction_interpolation_oracle():
    # the raw E-char against Newton interpolation in Fractions through the
    # resultant_value values at the same nodes, a path that shares neither the
    # batched node residues, nor the Lagrange basis modulo primes, nor the
    # coefficient bounds.  Order 5 in dimension 3 (Macaulay size 364, 49
    # nodes) is left out: each node takes seconds there
    rng = random.Random(4337)
    shapes = [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2)]
    tensors = [_random_rational_tensor(rng, order, dim) for order, dim in shapes]
    for a in tensors + [_single_edge()]:
        system = e_char_poly_system(a)
        bound = _resultant_degree_bound(a.order, a.dim)
        odd = a.order % 2 == 1
        nodes = list(range(bound // 2 + 1 if odd else bound + 1))
        abscissae = [lam * lam for lam in nodes] if odd else nodes
        oracle = interpolate([(x, resultant_value(system_at(system, lam)))
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
        system = e_char_poly_system(a)
        for lam in range(1, _resultant_degree_bound(order, dim) + 1):
            value = resultant_value(system_at(system, lam))
            assert resultant_value(system_at(system, -lam)) == value
    # even order has no such symmetry, so it keeps the full node set
    raw = e_char_poly(_order_four_integer(), normalize=False)
    assert any(raw.coefficient(p) != 0 for p in range(1, raw.degree + 1, 2))


def test_zero_tensor_char_is_pure_power():
    got = char_poly(zero_tensor(3, 3))
    assert got == UniPoly.monomial(12)


def test_diagonal_unit_tensor_char():
    got = char_poly(Tensor.from_map(3, 2, {(0, 0, 0): 1, (1, 1, 1): 1}))
    assert got == UniPoly.from_coeff_strings(["1", "-4", "6", "-4", "1"])


def test_degree_law_small():
    # degree is n * (k-1)^(n-1) for order-k maps on n vertices
    assert char_poly(zero_tensor(3, 3)).degree == 12
    assert char_poly(zero_tensor(3, 4)).degree == 32


def test_matrix_case_collapses_to_classical():
    rng = random.Random(311)
    for _ in range(20):
        n = rng.choice((2, 3))
        sym = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                sym[i][j] = sym[j][i] = rng.randint(-4, 4)
        t = from_rows([[Fraction(v) for v in row] for row in sym])
        expected = classical_char_poly(sym)
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
        assert e_char_poly(zero_tensor(order, dim)).is_zero()


def test_zero_map_shortcut_matches_the_general_path():
    for order, dim in ((3, 2), (3, 3), (4, 2), (5, 2)):
        lsys = e_char_poly_system(zero_tensor(order, dim))
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
        assert _isotropic_root(a) == 2
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
    assert not _isotropic_root(adjacency_tensor(from_bitmask(4, 3, 15)))
    for a in (_single_edge(), sliced, single):
        assert not _isotropic_root(a)
        assert not e_char_poly(a).is_zero()


def test_edge_list_certificate_matches_the_tensor_certificate():
    # _isotropic_root reads both witnesses off a hypergraph's edge list;
    # it must agree with its tensor's on every class up to 5 vertices
    seen = set()
    for n, k in ((3, 2), (5, 2), (3, 3), (4, 3), (5, 3), (4, 4), (5, 4), (5, 5)):
        for h in enumerate_all(n, k, up_to_iso=True):
            certified = _isotropic_root(h) if k >= 3 else 0
            assert certified == (_isotropic_root(adjacency_tensor(h)) if k >= 3 else 0), h
            seen.add((k, certified))
    assert seen == {(2, 0), (3, 0), (3, 2), (3, 3), (4, 2), (5, 2)}


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
    # the certificate runs on the edge list, not again on the tensor; the
    # single edge keeps its polynomial, and for K4(3) the resultant is
    # stubbed, as only the count matters
    from hyperspec import spectra

    calls = []
    certify = spectra._isotropic_root

    def counted(a):
        calls.append(type(a).__name__)
        return certify(a)

    monkeypatch.setattr(spectra, "_isotropic_root", counted)
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


def _has_pair_witness(h):
    # two vertices in no common edge
    return any(
        not any(u in e and v in e for e in h.edges)
        for u, v in itertools.combinations(range(1, h.n + 1), 2)
    )


def _has_triple_witness(h):
    # abc is not an edge, and every other vertex forms an edge with none or
    # all of ab, ac and bc
    def edge(*vs):
        return tuple(sorted(vs)) in h.edges

    vertices = range(1, h.n + 1)
    return any(
        not edge(a, b, c) and all(
            edge(v, a, b) == edge(v, a, c) == edge(v, b, c)
            for v in vertices if v not in (a, b, c)
        )
        for a, b, c in itertools.combinations(vertices, 3)
    )


def _cube_root_witness(a, triple):
    # whether x = e_a + w e_b + w**2 e_c, w a primitive cube root of unity,
    # has A x**2 = 0, in exact arithmetic on p + q w with w**2 = -1 - w
    def times(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0] - x[1] * y[1])

    x = [(0, 0)] * a.dim
    for j, power in zip(triple, ((1, 0), (0, 1), (-1, -1))):
        x[j] = power
    out = [(Fraction(0), Fraction(0))] * a.dim
    for (i, j, k), value in a.nonzero_items():
        p, q = times(x[j], x[k])
        out[i] = (out[i][0] + value * p, out[i][1] + value * q)
    return not any(p or q for p, q in out)


def _triple_tensor(dim, triple, seed):
    # a seeded integer order-3 tensor whose (A x**2)_i = alpha_i + beta_i w +
    # gamma_i w**2 at x = e_a + w e_b + w**2 e_c has alpha_i = beta_i = gamma_i:
    # a[i, a, a] and a[i, b, b] are solved for, every other entry drawn
    rng = random.Random(seed)
    entries = {idx: rng.choice((-2, -1, 1, 2)) for idx in itertools.product(range(dim), repeat=3)}
    a, b, c = triple
    for i in range(dim):
        beta = entries[i, a, b] + entries[i, b, a] + entries[i, c, c]
        entries[i, a, a] = beta - entries[i, b, c] - entries[i, c, b]
        entries[i, b, b] = beta - entries[i, a, c] - entries[i, c, a]
    return entries


def test_witness_counts_on_three_graph_classes_up_to_six_vertices():
    # every 3-graph class on 4, 5 and 6 vertices: the witness found is the
    # pair when two vertices share no edge, else the triple when the
    # combinatorial condition holds, and the triple's x is then a root
    counts = {}
    for n in (4, 5, 6):
        for h in enumerate_all(n, 3, up_to_iso=True):
            expected = 2 if _has_pair_witness(h) else 3 if _has_triple_witness(h) else 0
            assert _isotropic_root(h) == expected, h
            counts[n, expected] = counts.get((n, expected), 0) + 1
            if expected == 3:
                a = adjacency_tensor(h)
                assert any(_cube_root_witness(a, t)
                           for t in itertools.combinations(range(n), 3)), h
    assert counts == {(4, 0): 1, (4, 2): 3, (4, 3): 1, (5, 0): 10, (5, 2): 20, (5, 3): 4,
                      (6, 0): 821, (6, 2): 1172, (6, 3): 143}


def test_triple_witness_certifies_what_the_general_path_computes():
    # the 3-edge class on 4 vertices covers every pair, and 123 is the
    # witness: the certified call returns at once, and the general path
    # interpolates the same zero polynomial
    h = from_bitmask(4, 3, 7)
    a = adjacency_tensor(h)
    assert _isotropic_root(h) == _isotropic_root(a) == 3
    start = time.perf_counter()
    assert e_char_poly(h).is_zero() and e_char_poly(a).is_zero()
    assert time.perf_counter() - start < 0.1
    system = e_char_poly_system(a)
    assert _interpolated_resultant(system, DEFAULT_CONFIG, even_in_lambda=True).is_zero()


def test_triple_witness_on_seeded_tensors_and_near_misses():
    # nonsymmetric integer order-3 tensors with alpha_i = beta_i = gamma_i
    # on one triple cover every pair; each is certified, its x is a root,
    # and in dimension 3 the general path gives 0.  Moving one a[i, a, a]
    # by 1 breaks alpha_i = beta_i: the near-miss is not certified, and
    # its E-char is not 0
    for seed, (dim, triple) in enumerate(((3, (0, 1, 2)), (3, (2, 0, 1)), (4, (0, 2, 3)))):
        entries = _triple_tensor(dim, triple, 70 + seed)
        a = Tensor.from_map(3, dim, entries)
        assert _isotropic_root(a) == 3 and _cube_root_witness(a, triple)
        assert e_char_poly(a).is_zero()
        entries[seed % dim, triple[0], triple[0]] += 1
        near = Tensor.from_map(3, dim, entries)
        assert _isotropic_root(near) == 0 and not _cube_root_witness(near, triple)
        if dim == 3:
            system = e_char_poly_system(a)
            assert _interpolated_resultant(system, DEFAULT_CONFIG, even_in_lambda=True).is_zero()
            assert not e_char_poly(near).is_zero()


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


def test_char_is_multiplicative_over_components():
    # Cooper & Dutle (2012): phi(H1 + H2) = phi(H1)**((k-1)**n2) *
    # phi(H2)**((k-1)**n1), and an isolated vertex has phi = lambda.  Both
    # unions have degree 192, past the default cap, raised for these calls;
    # each side's table differs from the other's
    config = replace(DEFAULT_CONFIG, degree_cap=192)
    edge = char_poly(Hypergraph.from_edges(3, 3, [(1, 2, 3)]))
    expected = UniPoly.constant(1)
    for _ in range(16):
        expected = expected * edge
    assert char_poly(Hypergraph.from_edges(6, 3, [(1, 2, 3), (4, 5, 6)]), config) == expected
    k5 = list(itertools.combinations(range(1, 6), 3))
    phi = char_poly(Hypergraph.from_edges(5, 3, k5))
    assert char_poly(Hypergraph.from_edges(6, 3, k5), config) == (
        phi * phi * UniPoly.monomial(32)
    )


def _refusal(entry, a, **caps):
    # the type and message an entry refuses with under these caps, or None
    try:
        entry(a, replace(DEFAULT_CONFIG, **caps))
    except HyperspecError as exc:
        return type(exc), str(exc)
    return None


def test_caps_are_enforced(monkeypatch):
    # the single edge on 3 vertices: characteristic degree 12 and Macaulay
    # size 15 for char_poly and det_tensor, size 56 and lambda-degree
    # bound 24 for e_char_poly.  Each entry refuses one past a cap and
    # passes at it, the tensor and the hypergraph alike; past two caps the
    # degree cap wins over the size cap, and the size cap over the
    # lambda-degree bound.  For e_char_poly only a hypergraph is refused by
    # its characteristic degree, before its tensor is built
    edge = Hypergraph.from_edges(3, 3, [(1, 2, 3)])
    char_degree = (DegreeCapExceeded, "characteristic degree 12 exceeds cap 11")
    char_size = (CapExceeded, "matrix dimension 15 exceeds cap 14")
    e_size = (CapExceeded, "matrix dimension 56 exceeds cap 55")
    e_degree = (DegreeCapExceeded, "resultant degree bound 24 exceeds cap 23")
    size_refusals = [  # (entry, input, caps), each refused by the size cap
        (char_poly, a, {"dim_cap": 14}) for a in (edge, _single_edge())
    ] + [(e_char_poly, a, {"dim_cap": 55}) for a in (edge, _single_edge())] + [
        (det_tensor, _single_edge(), {"dim_cap": 14}),
        (e_char_poly, _single_edge(), {"degree_cap": 11, "dim_cap": 55}),
        (e_char_poly, edge, {"degree_cap": 23, "dim_cap": 55}),
    ]
    for a in (edge, _single_edge()):
        assert _refusal(char_poly, a, degree_cap=11) == char_degree
        assert _refusal(char_poly, a, degree_cap=12) is None
        assert _refusal(char_poly, a, dim_cap=14) == char_size
        assert _refusal(char_poly, a, dim_cap=15) is None
        assert _refusal(char_poly, a, degree_cap=11, dim_cap=14) == char_degree
        assert _refusal(e_char_poly, a, dim_cap=55) == e_size
        assert _refusal(e_char_poly, a, dim_cap=56) is None
        assert _refusal(e_char_poly, a, degree_cap=23) == e_degree
        assert _refusal(e_char_poly, a, degree_cap=24) is None
        assert _refusal(e_char_poly, a, degree_cap=23, dim_cap=55) == e_size
    assert _refusal(e_char_poly, edge, degree_cap=11, dim_cap=55) == char_degree
    assert _refusal(e_char_poly, _single_edge(), degree_cap=11, dim_cap=55) == e_size
    assert _refusal(e_char_poly, _single_edge(), degree_cap=11) == (
        DegreeCapExceeded, "resultant degree bound 24 exceeds cap 11"
    )
    # det_tensor has no degree cap
    assert _refusal(det_tensor, _single_edge(), dim_cap=14) == char_size
    assert _refusal(det_tensor, _single_edge(), dim_cap=15, degree_cap=0) is None
    # the order comes first for a tensor, and after the degree cap for a
    # hypergraph, whose order is its k
    line = Tensor(1, 3, (Fraction(1),) * 3)
    for entry, what in ((char_poly, "characteristic polynomial"),
                        (e_char_poly, "E-characteristic polynomial"),
                        (det_tensor, "tensor determinant")):
        assert _refusal(entry, line, degree_cap=0, dim_cap=0) == (
            DimMismatch, f"{what} needs order at least 2"
        )
    point = Hypergraph.empty(1, 1)
    for entry, what in ((char_poly, "characteristic"), (e_char_poly, "E-characteristic")):
        assert _refusal(entry, point, degree_cap=0) == (
            DegreeCapExceeded, "characteristic degree 1 exceeds cap 0"
        )
        assert _refusal(entry, point, degree_cap=1, dim_cap=0) == (
            DimMismatch, f"{what} polynomial needs order at least 2"
        )
    # nothing is built past the size cap
    def unbuilt(*args):
        raise AssertionError("Macaulay structure built past the size cap")

    expected = [_refusal(entry, a, **caps) for entry, a, caps in size_refusals]
    assert {kind for kind, _ in expected} == {CapExceeded}
    monkeypatch.setattr(macaulay, "macaulay_structure", unbuilt)
    assert [_refusal(entry, a, **caps) for entry, a, caps in size_refusals] == expected


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


def test_char_coefficient_identities_on_four_graphs():
    # Cooper & Dutle's identity for k = 4: codegrees 1..3 vanish and
    # codegree 4 is -4**2 * 3**(n-4) |E|; the 5-vertex char poly has degree
    # 405 and Macaulay size 1,365, past the default caps, raised here
    config = replace(DEFAULT_CONFIG, degree_cap=405, dim_cap=1365)
    cases = [(Hypergraph.from_edges(4, 4, [(1, 2, 3, 4)]), -16),
             (Hypergraph.from_edges(5, 4, [(1, 2, 3, 4), (1, 2, 3, 5)]), -96)]
    for h, codegree_four in cases:
        d = h.n * 3 ** (h.n - 1)
        phi = char_poly(h, config)
        assert phi.degree == d and phi.is_monic()
        assert [phi.coefficient(d - j) for j in (1, 2, 3, 4)] == [0, 0, 0, codegree_four]
        assert codegree_four == -(4**2) * 3 ** (h.n - 4) * len(h.edges)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=10**6))
def test_char_constant_term_is_signed_det(dim, seed):
    rng = random.Random(seed)
    a = Tensor(3, dim, tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim**3)))
    phi = char_poly(a)
    assert phi.coefficient(0) == (-1) ** phi.degree * det_tensor(a)


def test_det_tensor_values():
    assert det_tensor(Tensor.from_map(3, 2, {(0, 0, 0): 1, (1, 1, 1): 1})) == 1
    assert det_tensor(zero_tensor(3, 2)) == 0
    m = from_rows([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]])
    assert det_tensor(m) == 5


# det_tensor of every 3-graph on 4 vertices, by edge mask, and of seeded
# integer order-3 tensors in dimension 4.  The tensor values were recorded
# from the earlier Fraction-based determinant path; every 3-graph on 4
# vertices has determinant zero.  det_tensor answers it from the coordinate
# root e_u (spectra._coordinate_root); the brute-force search below finds a
# nontrivial root independently.
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


def _general_det(a, config=DEFAULT_CONFIG):
    # the resultant of x -> A x on the general path, which det_tensor's
    # coordinate-root check skips
    system = PolySystem(a.dim, tensor_polynomial_map(a), (a.order - 1,) * a.dim)
    return resultant_value(system, config)


def _zero_column_tensor(order, dim, u, seed):
    # seeded nonzero entries everywhere but on a[i, u, .., u] for every i
    rng = random.Random(seed)
    return {
        idx: rng.choice((-2, -1, 1, 2))
        for idx in itertools.product(range(dim), repeat=order)
        if set(idx[1:]) != {u}
    }


def test_coordinate_root_agrees_with_the_general_path(universe_scan):
    # every k-graph with k >= 3 has a[i, u, .., u] = 0: det_tensor answers 0
    # from e_u, as the general path does on every 3-graph on 4 vertices,
    # the 4-graph classes on 4 vertices and those with at most two edges on
    # 5 (the larger take seconds), and as the char polys of the session's
    # (5, 3) scan do through phi(0) = (-1)**d det; seeded tensors of order
    # 2, 3 and 4 with a zero pure-power column, and one with a zero slice,
    # likewise.  A near-miss, one a[u, u, .., u] set to 1, is not certified
    general = [adjacency_tensor(from_bitmask(4, 3, mask)) for mask in range(16)]
    general += [adjacency_tensor(h) for h in enumerate_all(4, 4, up_to_iso=True)]
    raised = replace(DEFAULT_CONFIG, dim_cap=1365)
    for h in enumerate_all(5, 4, up_to_iso=True):
        a = adjacency_tensor(h)
        assert _coordinate_root(a) and det_tensor(a, raised) == 0
        if len(h.edges) <= 2:
            assert _general_det(a, raised) == 0
    cache, _ = load_checkpoint(universe_scan(5, 3)[1], 5, 3)
    keys = {cache.class_key(5, 3, mask) for mask in range(2**10)}
    assert len(keys) == 34
    for key in keys:
        a = adjacency_tensor(from_bitmask(*key))
        assert cache.get_char_mask(*key).coefficient(0) == 0 == det_tensor(a)
        assert _coordinate_root(a)
    rng = random.Random(79)
    general.append(Tensor.from_map(3, 3, {  # a zero slice a[1], no zero column
        idx: rng.choice((-2, -1, 1, 2))
        for idx in itertools.product(range(3), repeat=3) if idx[0] != 1
    }))
    for order, dim in ((2, 4), (3, 3), (4, 3)):
        for u in range(dim):
            entries = _zero_column_tensor(order, dim, u, 80 + 10 * order + u)
            general.append(Tensor.from_map(order, dim, entries))
            entries[(u,) * order] = 1
            near = Tensor.from_map(order, dim, entries)
            assert not _coordinate_root(near)
            assert det_tensor(near) == _general_det(near) != 0
    for a in general:
        assert _coordinate_root(a)
        assert det_tensor(a) == _general_det(a) == 0


def test_certified_calls_build_no_table(monkeypatch):
    # a determinant certified by a coordinate root, and an E-char certified
    # by a triple witness, return before any Macaulay table is built
    def unbuilt(system):
        raise AssertionError("Macaulay table built")

    monkeypatch.setattr(macaulay, "_FillTable", unbuilt)
    for mask in range(16):
        assert det_tensor(adjacency_tensor(from_bitmask(4, 3, mask))) == 0
    assert det_tensor(Tensor.from_map(3, 3, _zero_column_tensor(3, 3, 1, 7))) == 0
    assert det_tensor(from_rows([[Fraction(1), Fraction(2)], [Fraction(0), Fraction(0)]])) == 0
    assert e_char_poly(from_bitmask(4, 3, 7)).is_zero()
    assert e_char_poly(Tensor.from_map(3, 3, _triple_tensor(3, (0, 1, 2), 70))).is_zero()
    with pytest.raises(AssertionError, match="Macaulay table built"):
        det_tensor(_seeded_tensor(0))

"""Characteristic and E-characteristic polynomials of symmetric tensors."""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperspec.config import DEFAULT_CONFIG
from hyperspec.analysis import PolyCache
from hyperspec.errors import CapExceeded, DegreeCapExceeded
from hyperspec.hypergraph import Hypergraph, adjacency_tensor, from_bitmask
from hyperspec.polynomial import UniPoly
from hyperspec.spectra import (
    _interpolated_resultant,
    char_poly,
    det_tensor,
    e_char_poly,
    e_char_poly_system,
)
from hyperspec.tensor import (
    Tensor,
    apply,
    eigen_check,
    from_rows,
    mat_sim,
    permutation_matrix,
    symmetric_from_upper,
    unit_tensor,
)

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


def test_zero_tensor_char_is_pure_power():
    got = char_poly(Tensor.zero(3, 3))
    assert got == UniPoly.monomial(12)


def test_diagonal_unit_tensor_char():
    got = char_poly(unit_tensor(3, 2))
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
    got = e_char_poly(unit_tensor(4, 2), normalize=False)
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


def test_caps_are_enforced():
    with pytest.raises(DegreeCapExceeded):
        char_poly(_single_edge(), DEFAULT_CONFIG.with_(degree_cap=10))
    with pytest.raises(CapExceeded):
        e_char_poly(_single_edge(), DEFAULT_CONFIG.with_(dim_cap=10))
    with pytest.raises(CapExceeded):
        char_poly(_single_edge(), DEFAULT_CONFIG.with_(dim_cap=10))


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
    assert eigen_check(a, Fraction(1), ones)
    assert char_poly(a).evaluate(Fraction(1)) == 0


def test_prime_seed_does_not_change_results():
    a = _single_edge()
    base = e_char_poly(a, DEFAULT_CONFIG.with_(prime_seed=0), normalize=False)
    moved = e_char_poly(a, DEFAULT_CONFIG.with_(prime_seed=3), normalize=False)
    assert base == moved
    rational = _rational_order_three()
    base = char_poly(rational, DEFAULT_CONFIG.with_(prime_seed=0))
    moved = char_poly(rational, DEFAULT_CONFIG.with_(prime_seed=3))
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


@st.composite
def _three_graphs(draw):
    n = draw(st.integers(min_value=3, max_value=5))
    triples = list(itertools.combinations(range(1, n + 1), 3))
    edges = draw(st.lists(st.sampled_from(triples), unique=True))
    return Hypergraph.from_edges(n, 3, edges)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(_three_graphs())
def test_char_coefficient_identities_on_three_graphs(h):
    # Cooper & Dutle, "Spectra of uniform hypergraphs", LAA 436 (2012): the
    # coefficients of L^(d-1) .. L^(d-k+1) vanish and that of L^(d-k) is
    # -k^(k-2) (k-1)^(n-k) |E|, here -3 * 2^(n-3) |E|
    n = h.n
    d = n * 2 ** (n - 1)
    phi = char_poly(adjacency_tensor(h))
    assert phi.degree == d and phi.is_monic()
    assert phi.coefficient(d - 1) == 0
    assert phi.coefficient(d - 2) == 0
    assert phi.coefficient(d - 3) == -3 * 2 ** (n - 3) * len(h.edges)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=10**6))
def test_char_constant_term_is_signed_det(dim, seed):
    rng = random.Random(seed)
    a = Tensor(3, dim, tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim**3)))
    phi = char_poly(a)
    assert phi.coefficient(0) == (-1) ** phi.degree * det_tensor(a)


def test_det_tensor_values():
    assert det_tensor(unit_tensor(3, 2)) == 1
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

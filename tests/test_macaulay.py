"""Resultants of square homogeneous systems via the quotient of determinants."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hyperspec.determinants import det_exact_int
from hyperspec.errors import (
    CapExceeded,
    NotHomogeneous,
    NotSquareSystem,
)
from hyperspec.hypergraph import Hypergraph, adjacency_tensor
from hyperspec.macaulay import (
    MAX_SHEAR_ATTEMPTS,
    LambdaSystem,
    PolySystem,
    _eval_point,
    _FillTable,
    macaulay_dim,
    monomial_basis,
    resultant_value,
    unimodular_matrix,
)
from hyperspec.polynomial import MultiPoly
from hyperspec.spectra import e_char_poly_system


def _poly(nvars, terms):
    return MultiPoly(nvars, {k: Fraction(v) for k, v in terms.items()})


def _system(polys):
    nvars = polys[0].nvars
    return PolySystem(nvars, tuple(polys), tuple(p.total_degree() for p in polys))


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
    table = _FillTable(LambdaSystem.constant(sys_))
    assert table.minor_rows == []  # nothing to divide out in degree one
    full, _ = table.fill(0)
    assert det_exact_int(full) == a * d - b * c
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


def test_unimodular_matrices_have_det_one():
    for nvars in (2, 3, 4):
        for attempt in range(MAX_SHEAR_ATTEMPTS):
            m = unimodular_matrix(nvars, attempt)
            assert det_exact_int(m) == 1


def test_variants_preserve_the_value():
    rng = random.Random(72)
    found = 0
    while found < 5:
        a, b, c, d, e, f = (Fraction(rng.randint(-4, 4)) for _ in range(6))
        p = _binary_quadratic(a, b, c)
        q = _binary_quadratic(d, e, f)
        if p.is_zero() or q.is_zero():
            continue
        sys_ = _system([p, q])
        values = []
        for variant in LambdaSystem.constant(sys_).variants():
            value = _eval_point(_FillTable(variant), 0, 0)
            if value is not None:
                values.append(value)
        if not values:
            continue
        assert set(values) == {resultant_value(sys_)}
        found += 1


def test_degenerate_plain_system_is_rescued_by_a_variant():
    # the order-3 map of a single triple, shifted by one at the unit scale,
    # is singular in natural coordinates but fine after a change of basis
    h = Hypergraph.from_edges(3, 3, [(1, 2, 3)])
    lsys = e_char_poly_system(adjacency_tensor(h))
    assert _eval_point(_FillTable(lsys), 1, 0) is None
    plain = LambdaSystem.constant(lsys.at(Fraction(1)))
    assert _eval_point(_FillTable(plain), 0, 0) is None
    assert resultant_value(lsys.at(Fraction(1))) == -16
    rescued = [
        value
        for value in (_eval_point(_FillTable(v), 1, 0) for v in lsys.variants())
        if value is not None
    ]
    assert rescued and set(rescued) == {-16}


def test_dim_cap_enforced():
    sys_ = _system(
        [
            _poly(3, {(2, 0, 0): 1}),
            _poly(3, {(0, 2, 0): 1}),
            _poly(3, {(0, 0, 2): 1}),
        ]
    )
    with pytest.raises(CapExceeded):
        resultant_value(sys_, dim_cap=5)
    assert resultant_value(sys_, dim_cap=macaulay_dim(3, (2, 2, 2))) == 1

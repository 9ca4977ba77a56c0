"""Univariate polynomial behavior."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hyperspec.errors import MathError
from hyperspec.polynomial import UniPoly
from oracles import DuplicateAbscissa, interpolate


def test_canonical_trailing_strip():
    p = UniPoly((Fraction(1), Fraction(0), Fraction(0)))
    assert p.degree == 0 and p.coeffs == (Fraction(1),)
    assert UniPoly((Fraction(0), Fraction(0))).is_zero()


def test_degree_and_monic():
    assert UniPoly.zero().degree == -1
    assert UniPoly.monomial(12).degree == 12
    assert UniPoly.monomial(12).is_monic()
    assert not UniPoly.monomial(3, 2).is_monic()


def test_ring_ops():
    x = UniPoly.monomial(1)
    one = UniPoly.constant(1)
    p = (x + one) * (x - one)
    assert p == UniPoly((Fraction(-1), Fraction(0), Fraction(1)))
    assert p - p == UniPoly.zero()
    assert p.evaluate(3) == 8
    assert (-p).evaluate(3) == -8
    assert p.scale(Fraction(1, 2)).evaluate(3) == 4


def test_content_and_normalized():
    p = UniPoly((Fraction(2, 3), Fraction(4, 3), Fraction(-2)))
    assert p.content() == Fraction(2, 3)
    q = p.normalized()
    assert q.content() == 1
    assert q.coeffs[-1] > 0
    # normalization only rescales
    assert q.scale(p.coeffs[-1] / q.coeffs[-1]) == p
    assert UniPoly.zero().normalized().is_zero()


def test_coeff_string_round_trip():
    p = UniPoly((Fraction(0), Fraction(-1, 2), Fraction(3)))
    assert p.to_coeff_strings() == ["0", "-1/2", "3"]
    assert UniPoly.from_coeff_strings(p.to_coeff_strings()) == p


def test_pretty():
    p = UniPoly((Fraction(1), Fraction(0), Fraction(-2), Fraction(1)))
    assert p.pretty("L") == "L^3 - 2*L^2 + 1"


def test_interpolate_known():
    assert interpolate([(0, 1), (1, 2), (2, 5)]) == UniPoly(
        (Fraction(1), Fraction(0), Fraction(1))
    )
    assert interpolate([(0, 7)]) == UniPoly.constant(7)
    assert interpolate([(0, 0), (1, 0), (-1, 0)]).is_zero()


def test_interpolate_duplicate_abscissa():
    with pytest.raises(DuplicateAbscissa):
        interpolate([(1, 1), (1, 2)])


def test_interpolate_self_check_failure_is_not_a_duplicate(monkeypatch):
    monkeypatch.setattr(UniPoly, "evaluate", lambda self, x: Fraction(-1))
    with pytest.raises(MathError) as info:
        interpolate([(0, 1), (1, 2)])
    assert not isinstance(info.value, DuplicateAbscissa)


def test_interpolate_random_round_trip():
    rng = random.Random(4821)
    for _ in range(1000):
        degree = rng.randrange(0, 6)
        coeffs = tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree + 1)
        )
        p = UniPoly(coeffs)
        xs = rng.sample(range(-30, 30), p.degree + 1 if not p.is_zero() else 1)
        rebuilt = interpolate([(x, p.evaluate(x)) for x in xs])
        assert rebuilt == p

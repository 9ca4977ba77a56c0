"""Rational string round trips."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperspec.errors import DivisionByZero, InputError
from hyperspec.rational import format_rational, parse_rational

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=997
)


def test_format_omits_unit_denominator():
    assert format_rational(Fraction(5)) == "5"
    assert format_rational(Fraction(-5)) == "-5"
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(-3, 7)) == "-3/7"
    assert format_rational(Fraction(0)) == "0"


def test_parse_round_trip():
    for text in ("0", "5", "-5", "1/2", "-3/7", "123456789/987654321"):
        assert format_rational(parse_rational(text)) == format_rational(
            Fraction(text)
        )


def test_parse_rejects_garbage():
    with pytest.raises(InputError):
        parse_rational("one half")
    with pytest.raises(InputError):
        parse_rational("")


def test_parse_rejects_zero_denominator():
    with pytest.raises((DivisionByZero, InputError)):
        parse_rational("1/0")


def test_reduction_invariant():
    v = parse_rational("6/4")
    assert v.numerator == 3 and v.denominator == 2


@given(rationals)
def test_string_round_trip(a):
    assert parse_rational(format_rational(a)) == a

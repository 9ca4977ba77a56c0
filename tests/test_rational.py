"""Rational string round trips."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperspec.errors import DivisionByZero, InputError
from hyperspec.rational import format_rational, parse_int, parse_rational

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


def test_parse_int_reads_a_signed_run_of_ascii_digits():
    assert [parse_int(t) for t in ("0", "+7", "-007", "12345678901234567890")] == [
        0, 7, -7, 12345678901234567890
    ]
    # int() would take every one of these but the last four
    for text in ("1_0", "٣", "１２", " 1", "1\n", "", "+", "0x1"):
        with pytest.raises(ValueError):
            parse_int(text)


def test_parse_rejects_integers_beyond_ascii_digits():
    for text in ("1_0/٣", "1_0", "٣", "1/٣"):
        with pytest.raises(InputError) as info:
            parse_rational(text)
        assert str(info.value) == f"malformed rational {text!r}"
    assert parse_rational(" -12 / +4 ") == Fraction(-3)


def test_parse_rejects_zero_denominator():
    with pytest.raises((DivisionByZero, InputError)):
        parse_rational("1/0")


def test_reduction_invariant():
    v = parse_rational("6/4")
    assert v.numerator == 3 and v.denominator == 2


@given(rationals)
def test_string_round_trip(a):
    assert parse_rational(format_rational(a)) == a

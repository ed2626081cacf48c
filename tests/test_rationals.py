from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ltumatch import FormatError
from ltumatch.rationals import decimal_str, parse_rational


def test_parse_accepts_ints_and_strings():
    assert parse_rational(7) == F(7)
    assert parse_rational(-2) == F(-2)
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational(" 7 ") == F(7)
    assert parse_rational("-5/10") == F(-1, 2)
    assert parse_rational("0") == F(0)
    assert parse_rational(F(2, 6)) == F(1, 3)


@pytest.mark.parametrize(
    "bad", [True, False, 1.5, "1.5", "", "3/0", None, "a/b", "1/2/3", [1]]
)
def test_parse_rejects_non_rationals(bad):
    with pytest.raises(FormatError):
        parse_rational(bad)


def test_format_is_lowest_terms():
    assert str(F(3, 4)) == "3/4"
    assert str(F(5)) == "5"
    assert str(F(-1, 2)) == "-1/2"
    assert str(F(4, 8)) == "1/2"


def test_decimal_str_fixed_point():
    assert decimal_str(F(2, 5), 3) == "0.400"
    assert decimal_str(F(1, 3), 4) == "0.3333"
    assert decimal_str(F(2, 3), 4) == "0.6667"
    assert decimal_str(F(-7, 3), 2) == "-2.33"
    assert decimal_str(F(5), 0) == "5"
    assert decimal_str(F(0), 2) == "0.00"
    with pytest.raises(ValueError):
        decimal_str(F(1), -1)


@given(
    num=st.integers(min_value=-10**9, max_value=10**9),
    den=st.integers(min_value=1, max_value=10**9),
)
def test_parse_format_round_trip(num, den):
    value = F(num, den)
    assert parse_rational(str(value)) == value

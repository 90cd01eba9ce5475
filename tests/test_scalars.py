from fractions import Fraction

import pytest
from mpmath import mpf

from alsq.scalars import (
    ScalarError,
    mpf_to_fraction,
    parse_rational,
    sqrt_fraction,
    to_mpf,
)

F = Fraction


def test_parse_rational_forms():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("7") == F(7)
    assert parse_rational("0.125") == F(1, 8)
    with pytest.raises(ScalarError):
        parse_rational("a/b")


def test_sqrt_fraction():
    assert sqrt_fraction(F(9, 4)) == F(3, 2)
    assert sqrt_fraction(F(2)) is None
    assert sqrt_fraction(F(-1)) is None


def test_mpf_fraction_round_trip():
    x = to_mpf(F(355, 113), 128)
    back = mpf_to_fraction(x)
    assert to_mpf(back, 128) == x
    assert mpf_to_fraction(mpf(0)) == 0

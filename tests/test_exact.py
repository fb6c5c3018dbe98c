import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from entlap.exact import Exact

rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=1000
)


def test_rational_roundtrip():
    x = Exact.of(Fraction(3, 8))
    assert x.is_rational()
    assert x.as_fraction() == Fraction(3, 8)
    assert float(x) == 0.375


def test_radical_normalisation():
    assert Exact.radical(1, 8) == Exact.radical(2, 2)
    assert Exact.radical(1, 4) == Exact.of(2)
    assert Exact.radical(1, 49) == Exact.of(7)
    assert Exact.radical(0, 7).is_zero()


def test_radical_arithmetic():
    s7 = Exact.radical(Fraction(1, 4), 7)
    assert s7 * s7 == Exact.of(Fraction(7, 16))
    s2, s3 = Exact.radical(1, 2), Exact.radical(1, 3)
    assert s2 * s3 == Exact.radical(1, 6)
    mixed = Exact.of(Fraction(3, 8)) + Exact.radical(Fraction(1, 8), 7)
    assert float(mixed) == pytest.approx(3 / 8 + math.sqrt(7) / 8, abs=1e-15)


def test_exact_sign_of_two_term_values():
    # 1/8 - sqrt(7)/8 < 0 because 1 < 7
    x = Exact.of(Fraction(1, 8)) - Exact.radical(Fraction(1, 8), 7)
    assert x.sign() == -1
    assert abs(x) == Exact.radical(Fraction(1, 8), 7) - Exact.of(Fraction(1, 8))
    # 3 - sqrt(8) > 0 because 9 > 8
    assert (Exact.of(3) - Exact.radical(1, 8)).sign() == 1
    # 2*sqrt(2) - sqrt(8) == 0
    assert (Exact.radical(2, 2) - Exact.radical(1, 8)).sign() == 0


def test_adding_zero_returns_the_other_operand():
    x = Exact.radical(Fraction(1, 8), 7)
    assert x + Exact() is x
    assert Exact() + x is x
    assert 0 + x is x
    assert 0 - x == -x
    with pytest.raises(TypeError):
        x + 0.0
    with pytest.raises(TypeError):
        0.0 - x


def test_comparisons_and_ordering():
    vals = [Exact.of(Fraction(1, 5)), Exact.of(Fraction(3, 10)), Exact.radical(Fraction(1, 10), 7)]
    assert max(vals) == Exact.of(Fraction(3, 10))
    assert Exact.of(1) > Exact.of(Fraction(99, 100))


def test_division():
    x = Exact.radical(Fraction(1, 2), 7) / 4
    assert x == Exact.radical(Fraction(1, 8), 7)
    with pytest.raises(ZeroDivisionError):
        Exact.of(1) / 0
    with pytest.raises(ValueError):
        Exact.of(1) / Exact.radical(1, 2)


def test_format_literal():
    assert Exact.of(Fraction(1, 81)).format_literal() == "1/81"
    assert Exact.of(5).format_literal() == "5"
    assert Exact.of(0).format_literal() == "0"
    assert Exact.radical(Fraction(1, 8), 7).format_literal() == "sqrt(7)/8"
    assert Exact.radical(Fraction(5, 16), 7).format_literal() == "5*sqrt(7)/16"
    assert Exact.radical(Fraction(-5, 16), 7).format_literal() == "-5*sqrt(7)/16"
    assert (Exact.of(Fraction(3, 8)) + Exact.radical(1, 7)).format_literal() is None


def test_immutable_and_hashable():
    x = Exact.of(Fraction(1, 3))
    with pytest.raises(AttributeError):
        x._terms = {}
    assert hash(Exact.radical(1, 8)) == hash(Exact.radical(2, 2))


@given(a=rationals, b=rationals)
def test_rational_ops_match_fraction(a, b):
    ea, eb = Exact.of(a), Exact.of(b)
    assert (ea + eb).as_fraction() == a + b
    assert (ea - eb).as_fraction() == a - b
    assert (ea * eb).as_fraction() == a * b
    assert abs(ea).as_fraction() == abs(a)
    assert (ea < eb) == (a < b)


@given(a=rationals, b=rationals, c=rationals, d=rationals)
def test_two_term_sign_matches_float(a, b, c, d):
    x = Exact.of(a) + Exact.radical(b, 7)
    y = Exact.of(c) + Exact.radical(d, 7)
    diff = float(x) - float(y)
    if abs(diff) > 1e-9:
        assert ((x - y).sign() > 0) == (diff > 0)

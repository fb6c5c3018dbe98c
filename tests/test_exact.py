import math
import operator
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from entlap import exact as exact_module
from entlap.exact import MAX_DIGITS, ZERO, Exact, _square_free

rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=1000
)


def test_rational_roundtrip():
    x = Exact.of(Fraction(3, 8))
    assert x.is_rational()
    assert x.as_fraction() == Fraction(3, 8)
    assert float(x) == 0.375


def test_fraction_coefficient_kept_as_given():
    q = Fraction(3, 7)
    assert Exact.of(q).terms[1] is q
    assert Exact.radical(q, 7).terms[7] is q


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


@given(st.lists(st.integers(1, 60), min_size=1, max_size=3), st.lists(st.integers(1, 60), min_size=1, max_size=3),
       rationals, rationals)
def test_a_product_is_the_product_of_its_radicals(ks, ls, a, b):
    # x * y for x = a sum_k sqrt(k), y = b sum_l sqrt(l), against radical(a b, k l) for every pair
    x = sum((Exact.radical(a, k) for k in ks), ZERO)
    y = sum((Exact.radical(b, l) for l in ls), ZERO)
    assert x * y == sum((Exact.radical(a * b, k * l) for k in ks for l in ls), ZERO)
    assert all(_square_free(k) == (1, k) for k in (x * y).terms)


def test_only_radical_factors(monkeypatch):
    factored = []
    monkeypatch.setattr(exact_module, "_square_free", lambda k: factored.append(k) or _square_free(k))
    x, y = Exact.radical(1, 12), Exact.radical(Fraction(1, 3), 18)  # 2 sqrt(3) and sqrt(2)
    assert factored == [12, 18]
    assert (x + y - x * y) * (x - y) == Exact.of(10) - Exact.radical(12, 2) + Exact.radical(4, 3)
    assert factored == [12, 18, 2, 3]  # and the expected value's radicals: sums and products factor nothing


def test_exact_sign_of_two_term_values():
    # 1/8 - sqrt(7)/8 < 0 because 1 < 7
    x = Exact.of(Fraction(1, 8)) - Exact.radical(Fraction(1, 8), 7)
    assert x.sign() == -1
    assert abs(x) == Exact.radical(Fraction(1, 8), 7) - Exact.of(Fraction(1, 8))
    # 3 - sqrt(8) > 0 because 9 > 8
    assert (Exact.of(3) - Exact.radical(1, 8)).sign() == 1
    # 2*sqrt(2) - sqrt(8) == 0
    assert (Exact.radical(2, 2) - Exact.radical(1, 8)).sign() == 0


def test_exact_sign_of_three_term_values():
    # three radicands: the sign is read off the float value, away from zero only
    assert (Exact.radical(1, 2) + Exact.radical(1, 3) - Exact.radical(1, 5)).sign() == 1
    assert (Exact.radical(1, 2) - Exact.radical(1, 3) - Exact.radical(1, 5)).sign() == -1
    # c is the float nearest (sqrt(2) + sqrt(3)) / sqrt(5), so the value is within 1e-15 of zero, not zero
    c = Fraction((math.sqrt(2) + math.sqrt(3)) / math.sqrt(5))
    near_zero = Exact.radical(1, 2) + Exact.radical(1, 3) - Exact.radical(c, 5)
    assert not near_zero.is_zero()
    with pytest.raises(ValueError, match="^cannot decide sign of"):
        near_zero.sign()


def test_an_irrational_value_has_no_fraction():
    with pytest.raises(ValueError, match="is not rational$"):
        Exact.radical(1, 2).as_fraction()
    assert Exact.radical(1, 4).as_fraction() == 2


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


def test_zero_values_share_one_zero():
    assert Exact.of(0) is ZERO
    assert Exact.of(Fraction(0, 7)) is ZERO
    assert -ZERO is ZERO and ZERO - 0 is ZERO
    assert Exact.of(1) is not ZERO and ZERO.is_zero()


def test_float_of_one_term_is_the_term():
    for x in [Exact.of(Fraction(1, 81)), Exact.of(Fraction(-65, 648)), Exact.radical(Fraction(1, 8), 7),
              Exact.radical(Fraction(-3, 16), 2), Exact.of(10**20 + 1)]:
        ((k, c),) = x.terms.items()
        assert float(x) == float(c) * math.sqrt(k) == sum(float(c) * math.sqrt(k) for k, c in x.terms.items())


def test_comparisons_and_ordering():
    vals = [Exact.of(Fraction(1, 5)), Exact.of(Fraction(3, 10)), Exact.radical(Fraction(1, 10), 7)]
    assert max(vals) == Exact.of(Fraction(3, 10))
    assert Exact.of(1) > Exact.of(Fraction(99, 100))


_ORDERINGS = [operator.lt, operator.le, operator.gt, operator.ge]


def _decimal(x):
    """x to 60 significant digits, enough to order any two a + b*sqrt(7) with a, b drawn from `rationals`."""
    with localcontext() as ctx:
        ctx.prec = 60
        return sum(Decimal(c.numerator) / c.denominator * Decimal(k).sqrt() for k, c in x.terms.items())


@given(a=rationals, b=rationals, c=rationals, d=rationals)
def test_every_ordering_matches_the_values(a, b, c, d):
    for op in _ORDERINGS:
        assert op(Exact.of(a), Exact.of(c)) == op(a, c), op
        assert op(Exact.of(a), Exact.of(a)) == op(a, a), op
    x, y = Exact.of(a) + Exact.radical(b, 7), Exact.of(c) + Exact.radical(d, 7)
    for u, v in [(x, y), (y, x), (x, x)]:
        for op in _ORDERINGS:
            assert op(u, v) == op(_decimal(u), _decimal(v)), (op, u, v)


@pytest.mark.parametrize("op", _ORDERINGS, ids=lambda op: op.__name__)
def test_an_ordering_against_a_float_is_a_type_error(op):
    with pytest.raises(TypeError):
        op(Exact.of(Fraction(1, 2)), 0.25)
    with pytest.raises(TypeError):
        op(0.25, Exact.of(Fraction(1, 2)))


def test_format_literal():
    assert Exact.of(Fraction(1, 81)).format_literal() == "1/81"
    assert Exact.of(5).format_literal() == "5"
    assert Exact.of(0).format_literal() == "0"
    assert Exact.radical(Fraction(1, 8), 7).format_literal() == "sqrt(7)/8"
    assert Exact.radical(Fraction(5, 16), 7).format_literal() == "5*sqrt(7)/16"
    assert Exact.radical(Fraction(-5, 16), 7).format_literal() == "-5*sqrt(7)/16"
    assert (Exact.of(Fraction(3, 8)) + Exact.radical(1, 7)).format_literal() is None


def test_no_literal_with_more_than_max_digits():
    # a numerator or denominator of 10**MAX_DIGITS or more has no literal, and repr
    # writes its decimal; no step converts such an int with str()
    widest = 10**MAX_DIGITS - 1  # MAX_DIGITS nines
    assert Exact.of(Fraction(1, widest)).format_literal() is not None
    assert Exact.of(-widest).format_literal() is not None
    for x, text in [(Exact.of(Fraction(1, 10**MAX_DIGITS)), "1e-4300"),
                    (Exact.of(-widest - 1), "-1.00000000000e+4300"),
                    (Exact.radical(Fraction(widest // 9, 10**MAX_DIGITS), 2), "0.111111111111*sqrt(2)"),
                    (Exact.of(Fraction(1, 10**5000)), "1e-5000")]:
        assert x.format_literal() is None
        assert repr(x) == f"Exact({text})"


def _square_free_by_search(k):
    m = max(m for m in range(1, math.isqrt(k) + 1) if k % (m * m) == 0)
    return m, k // (m * m)


def test_square_free_matches_a_brute_force_search():
    for k in range(1, 3001):
        assert _square_free(k) == _square_free_by_search(k), k


@pytest.mark.parametrize("p, q", [(999983, 1), (1, 999983 * 1000003), (9973, 10007), (2, 249999999973),
                                  (1, 9973 * 100000007), (1, 999999999989)])
def test_square_free_near_the_radicand_limit(p, q):
    # p**2 * q near 10**12 for primes p and q: p**2, p*q, p**2*q and a prime
    assert _square_free(p * p * q) == (p, q)


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

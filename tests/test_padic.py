from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from daggerdist.padic import (
    INFINITY,
    LogMag,
    binom_value,
    digit_sum,
    factorial_valuation,
    falling_coeff,
    format_fraction,
    leq_with_integer_factor,
    multi_binom_value,
    multi_factorial_valuation,
    parse_fraction,
    stirling_second,
    valuation,
)

nonzero_rationals = st.fractions(
    min_value=Fraction(-(10**6)), max_value=Fraction(10**6), max_denominator=10**4
).filter(lambda q: q != 0)


def test_valuation_basics():
    assert valuation(0, 3) == INFINITY
    assert valuation(9, 3) == 2
    assert valuation(Fraction(1, 9), 3) == -2
    assert valuation(Fraction(18, 5), 3) == 2
    assert valuation(-12, 2) == 2
    # a valuation is an integer, for int and Fraction input alike
    assert type(valuation(-12, 2)) is int and type(valuation(Fraction(1, 9), 3)) is int


@given(nonzero_rationals, nonzero_rationals, st.sampled_from([2, 3, 5, 7]))
def test_valuation_multiplicative(a, b, p):
    assert valuation(a * b, p) == valuation(a, p) + valuation(b, p)


@given(nonzero_rationals, nonzero_rationals, st.sampled_from([2, 3, 5]))
def test_valuation_ultrametric(a, b, p):
    if a + b != 0:
        assert valuation(a + b, p) >= min(valuation(a, p), valuation(b, p))


def test_digit_sum():
    assert digit_sum(0, 3) == 0
    assert digit_sum(26, 3) == 2 + 2 + 2
    assert digit_sum(100, 10) == 1


def test_factorial_valuation_small_frozen():
    # v_3(10!) = floor(10/3) + floor(10/9) = 4; (10 - s_3(10)) / 2 = (10 - 2) / 2 = 4
    assert factorial_valuation(10, 3) == 4
    assert factorial_valuation(0, 3) == 0
    assert factorial_valuation(7, 2) == 4


@given(st.integers(0, 400), st.sampled_from([2, 3, 5]))
def test_factorial_valuation_matches_legendre(n, p):
    direct = sum(n // p**k for k in range(1, 20) if p**k <= n)
    assert factorial_valuation(n, p) == direct


def test_multi_factorial_valuation():
    assert multi_factorial_valuation((3, 4), 2) == factorial_valuation(3, 2) + factorial_valuation(4, 2)
    # both are ints: n - s_p(n) is divisible by p - 1
    assert type(factorial_valuation(10, 3)) is int and type(multi_factorial_valuation((3, 4), 2)) is int


def test_stirling_second_against_sympy():
    from sympy.functions.combinatorial.numbers import stirling

    for b in range(10):
        for a in range(b + 1):
            assert stirling_second(b, a) == stirling(b, a, kind=2)


def test_stirling_second_rejects_out_of_range():
    with pytest.raises(ValueError):
        stirling_second(2, 5)


def test_falling_coeff_against_sympy():
    from sympy import Poly, expand, ff, symbols

    x = symbols("x")
    for al in range(1, 10):
        poly = Poly(expand(ff(x, al)), x)
        for be in range(al + 1):
            assert falling_coeff(al, be) == poly.coeff_monomial(x**be)


def test_binom_value():
    assert binom_value(Fraction(5), 2) == 10
    assert binom_value(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert binom_value(Fraction(3), 0) == 1
    assert multi_binom_value((Fraction(4), Fraction(5)), (2, 1)) == 30


def test_logmag_ordering():
    bot = LogMag.bottom()
    one = LogMag(0)
    big = LogMag(Fraction(3, 2))
    assert bot < one < big
    assert bot <= bot and not bot < bot
    assert LogMag.of(Fraction(9), 3) == LogMag(-2)
    assert LogMag.of(0, 3).is_bottom


def test_logmag_multiplication():
    assert LogMag(Fraction(1, 2)) * LogMag(Fraction(1, 3)) == LogMag(Fraction(5, 6))
    assert (LogMag.bottom() * LogMag(2)).is_bottom


def test_leq_with_integer_factor():
    # p^(1/2) <= 2 * p^0 for p = 3: 3 <= 4 after squaring
    assert leq_with_integer_factor(LogMag(Fraction(1, 2)), LogMag(0), 2, 3)
    # p^(3/2) <= 2 * p^0 fails: 27 > 16
    assert not leq_with_integer_factor(LogMag(Fraction(3, 2)), LogMag(0), 2, 3)
    assert leq_with_integer_factor(LogMag.bottom(), LogMag(0), 1, 3)
    assert not leq_with_integer_factor(LogMag(0), LogMag.bottom(), 5, 3)


def test_fraction_formatting_roundtrip():
    assert format_fraction(Fraction(-3, 4)) == "-3/4"
    assert format_fraction(INFINITY) == "inf"
    assert parse_fraction("7/2") == Fraction(7, 2)
    assert parse_fraction("5") == 5

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from daggerdist.padic import LogMag, valuation
from daggerdist.series import (
    DimensionMismatch,
    TruncatedSeries,
    series_from_records,
    series_to_records,
)


def poly(dim, cap, terms):
    return TruncatedSeries(dim, cap, terms)


def test_construction_drops_zeros_and_validates():
    f = poly(2, 3, {(1, 0): 2, (0, 2): 0})
    assert f.terms == {(1, 0): Fraction(2)}
    with pytest.raises(ValueError):
        poly(2, 1, {(1, 1): 1})  # exceeds cap
    with pytest.raises(DimensionMismatch):
        poly(2, 3, {(1,): 1})


def test_addition_and_subtraction():
    f = poly(1, 5, {(2,): 1, (0,): 3})
    g = poly(1, 5, {(2,): -1, (1,): 7})
    s = f + g
    assert s.terms == {(0,): 3, (1,): 7}
    assert (s - s).is_zero()


def test_multiplication_exact_flag():
    f = poly(1, 4, {(3,): 1})
    g = poly(1, 4, {(2,): 1})
    h = f * g
    assert h.is_zero()
    assert not h.exact  # degree 5 product truncated away at cap 4
    k = poly(1, 4, {(1,): 2}) * poly(1, 4, {(2,): 3})
    assert k.exact and k.terms == {(3,): 6}


def test_power_and_with_cap():
    f = poly(1, 8, {(1,): 1, (0,): 0})
    assert f.power(3).terms == {(3,): 1}
    g = poly(1, 8, {(5,): 1, (1,): 1})
    trimmed = g.with_cap(3)
    assert trimmed.terms == {(1,): 1}
    assert not trimmed.exact


def test_substitute_composition():
    # f(z) = z^2 + z, substitute z = x + y in two variables
    f = poly(1, 4, {(2,): 1, (1,): 1})
    x = TruncatedSeries.variable(0, 2, 4)
    y = TruncatedSeries.variable(1, 2, 4)
    out = f.substitute([x + y], cap=4)
    assert out.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1, (1, 0): 1, (0, 1): 1}
    assert out.exact


def test_substitute_requires_zero_constant_term():
    f = poly(1, 4, {(1,): 1})
    g = TruncatedSeries.constant(1, 1, 4)
    with pytest.raises(ValueError):
        f.substitute([g])


def test_evaluate_and_partial_evaluate():
    f = poly(2, 4, {(1, 1): 2, (0, 2): 1})
    assert f.evaluate([Fraction(3), Fraction(1, 2)]) == 2 * Fraction(3, 2) + Fraction(1, 4)
    g = f.partial_evaluate({1: Fraction(2)})
    assert g.dim == 1
    assert g.terms == {(1,): 4, (0,): 4}


_values = st.one_of(
    st.integers(-50, 50),
    st.builds(Fraction, st.integers(-50, 50), st.sampled_from([1, 2, 3, 9, 25])),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3))
def test_evaluate_matches_fraction_sum(data, dim):
    index = st.tuples(*[st.integers(0, 3)] * dim)
    terms = data.draw(st.dictionaries(index, _values, max_size=6))
    xs = data.draw(st.lists(_values, min_size=dim, max_size=dim))
    ys = data.draw(st.lists(_values, min_size=dim, max_size=dim))
    f = TruncatedSeries(dim, 3 * dim, terms)
    # the first evaluate builds the plan; the same point and a second one reuse it
    for point in (xs, xs, ys):
        expect = Fraction(0)
        for idx, c in terms.items():
            term = Fraction(c)
            for x, k in zip(point, idx):
                term *= Fraction(x) ** k
            expect += term
        value = f.evaluate(point)
        assert value == expect
        integral = all(type(x) is int for x in point) and all(Fraction(c).denominator == 1 for c in terms.values())
        assert type(value) is (int if integral else Fraction)


def test_embed_and_reverse():
    f = poly(2, 3, {(1, 2): 5})
    g = f.embed(4, [3, 1])
    assert g.terms == {(0, 2, 0, 1): 5}


def test_gauss_norm_values():
    # |6 z^2| at rho = 1/2, p = 3: v(6) = 1 -> exponent -1 + 2 * 1/2 = 0
    f = poly(1, 4, {(2,): 6})
    assert f.gauss_norm([Fraction(1, 2)], 3).mag == LogMag(0)
    assert poly(1, 4, {}).gauss_norm([Fraction(1)], 3).mag.is_bottom
    g = poly(2, 4, {(1, 0): Fraction(1, 3), (0, 1): 9})
    assert g.gauss_norm([Fraction(0), Fraction(0)], 3).mag == LogMag(1)


def _fraction_gauss_norm(f, rho, p):
    """The all-Fraction loop: sup -v(c_alpha) + sum_i rho_i alpha_i."""
    rho = [Fraction(r) for r in rho]
    best = None
    for idx, c in f.terms.items():
        e = -valuation(c, p) + sum(r * a for r, a in zip(rho, idx))
        if best is None or e > best:
            best = e
    return LogMag.bottom() if best is None else LogMag(best)


# radii over mixed denominators, 0 included
_radii = st.builds(Fraction, st.integers(0, 12), st.sampled_from([1, 2, 3, 4, 5, 6, 7, 12]))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 3, 5, 7]), dim=st.integers(1, 3))
def test_gauss_norm_matches_fraction_loop(data, p, dim):
    index = st.tuples(*[st.integers(0, 4)] * dim)
    coeff = st.builds(Fraction, st.integers(-(p**4), p**4), st.sampled_from([1, p, p**3, 7 * p]))
    terms = data.draw(st.dictionaries(index, coeff, max_size=6))
    rho = data.draw(st.lists(_radii, min_size=dim, max_size=dim))
    f = TruncatedSeries(dim, 4 * dim, terms)
    assert f.gauss_norm(rho, p).mag == _fraction_gauss_norm(f, rho, p)
    zero = TruncatedSeries(dim, 4 * dim, {})
    assert zero.gauss_norm(rho, p).mag == _fraction_gauss_norm(zero, rho, p) == LogMag.bottom()


def _random_poly(rng, dim, deg, cap):
    terms = {}
    for _ in range(rng.randrange(1, 7)):
        idx = tuple(rng.randrange(deg + 1) for _ in range(dim))
        if sum(idx) > deg:
            continue
        terms[idx] = Fraction(rng.randrange(-50, 51), rng.choice([1, 3, 9]))
    return TruncatedSeries(dim, cap, terms)


def test_gauss_norm_multiplicative_sample():
    rng = random.Random(20260824)
    for _ in range(50):
        dim = rng.choice([1, 2])
        f = _random_poly(rng, dim, 4, 10)
        g = _random_poly(rng, dim, 4, 10)
        rho = [Fraction(rng.choice([0, 1]), rng.choice([1, 2, 4])) for _ in range(dim)]
        lhs = (f * g).gauss_norm(rho, 3).mag
        rhs = f.gauss_norm(rho, 3).mag * g.gauss_norm(rho, 3).mag
        assert lhs == rhs


def test_record_roundtrip():
    f = poly(2, 3, {(1, 2): Fraction(-5, 3), (0, 0): 7})
    back = series_from_records(series_to_records(f), 2, 3)
    assert back == f

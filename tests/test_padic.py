import math
from fractions import Fraction
from itertools import product, repeat
from operator import add, mul
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from daggerdist import padic as padic_module
from daggerdist.padic import (
    INFINITY,
    LogMag,
    binom_value,
    digit_sum,
    factorial_valuation,
    falling_coeff,
    format_fraction,
    indices_up_to,
    int_valuation,
    multi_binom_value,
    multi_factorial,
    multi_factorial_valuation,
    ordered_sup_num,
    p_power_at_most,
    parse_fraction,
    parse_int,
    same_dense_ratios,
    same_ratios,
    stirling_second,
    tensor_kernel,
    valuation,
    weight_table,
    weighted_sup,
    weighted_sup_num,
)
from daggerdist.series import Coefficients

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


@given(st.integers(-(10**30), 10**30).filter(bool), st.integers(0, 40), st.sampled_from([2, 3, 5, 7]))
def test_int_valuation_reads_the_power_of_p(n, k, p):
    # n * p^k has valuation k more than n, whether n is prime to p (the early return) or not, and of either sign
    v = 0
    while n % p ** (v + 1) == 0:
        v += 1
    assert int_valuation(n * p**k, p) == int_valuation(-n * p**k, p) == v + k
    with pytest.raises(ValueError):
        int_valuation(0, p)


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


def test_logmag_multiplication():
    assert LogMag(Fraction(1, 2)) * LogMag(Fraction(1, 3)) == LogMag(Fraction(5, 6))
    assert (LogMag.bottom() * LogMag(2)).is_bottom


def test_p_power_at_most():
    # p^(1/2) <= 2 for p = 3: 3 <= 4 after squaring
    assert p_power_at_most(1, 2, 2, 3)
    # p^(3/2) <= 2 fails: 27 > 16
    assert not p_power_at_most(3, 2, 2, 3)
    # a non-positive exponent is at most every positive integer factor
    assert p_power_at_most(0, 1, 1, 3) and p_power_at_most(-5, 2, 1, 3)


def test_fraction_formatting_roundtrip():
    assert format_fraction(Fraction(-3, 4)) == "-3/4"
    assert format_fraction(INFINITY) == "inf"
    assert parse_fraction("7/2") == Fraction(7, 2)
    assert parse_fraction("5") == 5


def _fraction_format_fraction(x):
    """format_fraction as first written: one Fraction built for every value."""
    if x == INFINITY:
        return "inf"
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


@settings(max_examples=300, deadline=None)
@given(x=st.one_of(st.integers(-(10**30), 10**30), st.fractions(), st.just(INFINITY)))
def test_format_fraction_matches_the_fraction_version(x):
    assert format_fraction(x) == _fraction_format_fraction(x)


def test_booleans_are_not_numbers():
    for value in (True, False):
        with pytest.raises(TypeError, match="boolean"):
            parse_fraction(value)
        with pytest.raises(TypeError, match="boolean"):
            parse_int(value)
    assert parse_int(3) == 3 and parse_int("4") == 4 and parse_int(Fraction(10, 2)) == 5


def test_valuation_of_fraction_subclass_and_zero():
    class Sub(Fraction):
        pass

    assert valuation(Sub(9, 2), 3) == 2
    assert valuation(Fraction(0), 5) == INFINITY
    assert valuation("3/25", 5) == -2


def _magnitude(scaled, table):
    """A sup scaled by table.den, None being bottom, as a LogMag."""
    return LogMag.bottom() if scaled is None else LogMag(Fraction(scaled, table.den))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 3, 5, 7]), dim=st.integers(1, 3), sign=st.sampled_from([1, -1]))
def test_weighted_sup_over_a_denominator_matches_the_fractions(data, p, dim, sign):
    index = st.tuples(*[st.integers(0, 5)] * dim)
    nums = data.draw(st.dictionaries(index, st.integers(-(p**5), p**5).filter(bool), max_size=6))
    den = data.draw(st.sampled_from([1, 4, p, p**2, 6 * p]))
    weights = tuple(data.draw(st.lists(st.fractions(-3, 3, max_denominator=6), min_size=dim, max_size=dim)))
    table = weight_table(weights, data.draw(st.sampled_from([None, p])))
    fractions = {a: Fraction(n, den) for a, n in nums.items()}
    want = LogMag(max((sign * table.weight(a) - valuation(c, p) for a, c in fractions.items()), default=None))
    if sign == 1:  # the int kernel: the sup scaled by table.den, None for bottom
        scaled = weighted_sup_num(nums, p, table, den)
        assert weighted_sup(nums, p, table, den) == want
    else:  # the weight subtracted, as a distribution's norm reads it: the dict path that a given table took
        scaled = _dict_sup_num({a: int_valuation(n, p) for a, n in nums.items()}, p, table, den)
    assert _magnitude(scaled, table) == want
    assert type(scaled) is int or (scaled is None and not nums)


def _dict_sup_num(valuations, p, table, den=1):
    """weighted_sup_num's path for a dict alpha -> v_p(c_alpha) at sign -1 as it was: every valuation read."""
    if not valuations:
        return None
    scale = table.den
    weights, scaled = map(table.__getitem__, valuations), map(mul, valuations.values(), repeat(scale))
    return -min(map(add, weights, scaled)) + int_valuation(den, p) * scale


def _pairs_sup_num(valuations, p, table, sign=1, den=1):
    """weighted_sup_num as it was: over (alpha, v_p(c_alpha)) pairs, the weight counted with ``sign``."""
    scale = table.den
    best = max((sign * table[a] - v * scale for a, v in valuations), default=None)
    return None if best is None else best + int_valuation(den, p) * scale


def _valuation_pairs(nums, p):
    """The pairs the old weighted_sup_num read: (alpha, v_p(n_alpha)) in the numerators' order."""
    return zip(nums, map(int_valuation, nums.values(), repeat(p)))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 3, 5]), dim=st.integers(1, 3))
def test_the_sup_of_numerators_matches_the_pairs_path(data, p, dim):
    index = st.tuples(*[st.integers(0, 4)] * dim)
    nums = data.draw(st.dictionaries(index, st.integers(-(p**4), p**4).filter(bool), max_size=5))
    # v_p(den) = 0, 1, 2 and 3: the denominator's valuation shifts every term
    den = data.draw(st.sampled_from([1, 4, p, 3 * p**2, p**3]))
    weights = tuple(data.draw(st.lists(st.fractions(-2, 2, max_denominator=4), min_size=dim, max_size=dim)))
    table = weight_table(weights, data.draw(st.sampled_from([None, p])))
    want = _pairs_sup_num(_valuation_pairs(nums, p), p, table, den=den)
    assert weighted_sup_num(nums, p, table, den) == want
    assert weighted_sup(nums, p, table, den) == _magnitude(want, table)
    # the sign -1 pairs, which a given distribution table was read through, are the dict oracle's sup
    valuations = dict(_valuation_pairs(nums, p))
    assert _pairs_sup_num(_valuation_pairs(nums, p), p, table, -1, den) == _dict_sup_num(valuations, p, table, den)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 3, 5]), dim=st.integers(1, 3))
def test_a_sparse_sup_over_a_floor_is_the_exact_sup_or_none(data, p, dim):
    index = st.tuples(*[st.integers(0, 4)] * dim)
    nums = data.draw(st.dictionaries(index, st.integers(-(p**4), p**4).filter(bool), max_size=5))
    den = data.draw(st.sampled_from([1, 4, p, 3 * p**2, p**3]))  # v_p(den) = 0, 1, 2 and 3
    weights = tuple(data.draw(st.lists(st.fractions(-2, 2, max_denominator=4), min_size=dim, max_size=dim)))
    table = weight_table(weights, data.draw(st.sampled_from([None, p])))
    scale, shift = table.den, int_valuation(den, p) * table.den
    sup = max((table.weight(a) - valuation(Fraction(n, den), p) for a, n in nums.items()), default=None)
    best = None if sup is None else int(sup * scale)
    assert weighted_sup_num(nums, p, table, den) == best and best == (None if sup is None else sup * scale)
    # floors one below, at and one above the sup; an empty family is bottom over any floor
    for floor in [-1, 0, 1] if best is None else [best - 1, best, best + 1]:
        assert weighted_sup_num(nums, p, table, den, floor) == (best if best is not None and best > floor else None)
    # a term whose weight cannot exceed the floor, less v_p(den), reads no valuation: only den's is read
    reads = []
    with mock.patch.object(padic_module, "int_valuation", lambda n, q: reads.append(n) or int_valuation(n, q)):
        for a, n in nums.items():
            assert weighted_sup_num({a: n}, p, table, den, table[a] + shift) is None and reads == [den]
            assert weighted_sup_num({a: n}, p, table, den, table[a] + shift - 1) in (None, table[a] + shift)
            assert reads == [den, den, n]
            reads.clear()


def test_the_sup_of_numerators_takes_the_denominator_once():
    table = weight_table((1, Fraction(1, 2)), None)  # den 2: a term is 2 * (weight - v_p(n)) + 2 * v_p(den)
    nums = {(1, 0): 9, (0, 2): 6, (2, 0): 5}
    assert weighted_sup_num(nums, 3, table) == max(2 - 4, 2 - 2, 4 - 0) == 4
    assert weighted_sup_num(nums, 3, table, 9) == 4 + 2 * 2
    assert weighted_sup_num(nums, 3, table, 2) == 4  # v_3(2) = 0
    # an empty family is bottom, whatever its denominator
    assert weighted_sup_num({}, 3, table, 27) is None and weighted_sup({}, 3, table, 27) == LogMag.bottom()


@settings(max_examples=400, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 3, 5]), dim=st.integers(1, 3))
def test_ordered_sup_matches_the_full_dict_sup(data, p, dim):
    cap = data.draw(st.integers(0, 4))
    indices = indices_up_to(dim, cap)
    # zeros, units and p-powers, so terms tie and whole families vanish; weights of 0 tie their bounds
    entry = st.one_of(st.just(0), st.integers(-(p**4), p**4), st.integers(-3, 3).map(lambda k: k * p**3))
    nums = data.draw(st.lists(entry, min_size=len(indices), max_size=len(indices)))
    weight = st.sampled_from([Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(-2, 3), Fraction(5, 4)])
    weights = tuple(data.draw(st.lists(weight, min_size=dim, max_size=dim)))
    table = weight_table(weights, data.draw(st.sampled_from([None, p])))
    den = data.draw(st.sampled_from([1, 2, p, p**3, 6 * p**2]))
    want = _dict_sup_num({a: int_valuation(n, p) for a, n in zip(indices, nums) if n}, p, table, den)
    order = table.order(cap)
    assert sorted(order) == [(n, -table[a]) for n, a in enumerate(indices)]
    assert ordered_sup_num(nums, den, p, order, table.den) == want
    # with a floor: None exactly when the sup does not exceed it, the exact sup otherwise
    floor = data.draw(st.integers(-40, 40))
    got = ordered_sup_num(nums, den, p, order, table.den, floor)
    assert got == (want if want is not None and want > floor else None)


def test_ordered_sup_stops_at_the_first_bound_the_sup_reaches(monkeypatch):
    reads = []
    monkeypatch.setattr(padic_module, "int_valuation", lambda n, p: reads.append(n) or int_valuation(n, p))
    # all weights 0, so every bound ties at 0: the sup 0 is read at position 0, and the tie stops the visit
    table = weight_table((0, 0), None)
    nums = [1, 3, 5, 9, 2, 7]
    assert ordered_sup_num(nums, 1, 3, table.order(2), table.den) == 0
    assert reads == [1, 1]  # the denominator's valuation, then position 0's
    # weights 1, 2 over (0,0), (0,1), (1,0), (0,2), (1,1), (2,0): the bounds are 0, -2, -1, -4, -3, -2; position 0
    # is zero, position 2 gives -1 - v(3) = -2, and the next bound, -2 at position 1, cannot exceed it
    table, reads[:] = weight_table((1, 2), None), []
    assert ordered_sup_num([0, 6, 3, 1, 1, 1], 1, 3, table.order(2), table.den) == -2
    assert reads == [1, 3]
    # an empty family is bottom, and so is one that never exceeds its floor
    assert ordered_sup_num([0] * 6, 9, 3, table.order(2), table.den) is None
    assert ordered_sup_num([1, 0, 0, 0, 0, 0], 1, 3, table.order(2), table.den, floor=0) is None


@settings(max_examples=300, deadline=None)
@given(data=st.data(), scale=st.sampled_from([1, 2, 3, 9]))
def test_dense_ratios_are_coefficient_equality(data, scale):
    size = data.draw(st.integers(1, 6))
    indices = indices_up_to(1, size - 1)
    a = data.draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size))
    da, db = data.draw(st.sampled_from([1, 2, 3, 6])), data.draw(st.sampled_from([1, 2, 3, 6]))
    b = data.draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size))
    # the same values over an unreduced denominator, then with one position changed
    k, delta = data.draw(st.integers(0, size - 1)), data.draw(st.integers(-3, 3).filter(bool))
    c = [scale * n for n in a]
    c[k] += delta

    def table(z, dz):  # the dict form of a list
        return Coefficients.from_numerators(1, size - 1, {i: n for i, n in zip(indices, z) if n}, dz)

    for x, dx, y, dy in [(a, da, b, db), (a, da, [scale * n for n in a], scale * da), (a, da, c, scale * da)]:
        want = table(x, dx) == table(y, dy)  # the dict comparison
        assert same_dense_ratios(x, dx, y, dy) == same_dense_ratios(y, dy, x, dx) == want
        assert (Coefficients.from_dense(1, size - 1, x, dx) == Coefficients.from_dense(1, size - 1, y, dy)) == want
    assert same_dense_ratios(a, da, [scale * n for n in a], scale * da)
    assert not same_dense_ratios(a, da, c, scale * da)
    # lists of two lengths differ, even where one is the other padded with zeros
    assert not same_dense_ratios(a, da, [*a, 0], da) and not same_dense_ratios([*a, 0], da, a, da)
    assert not same_dense_ratios(a, da, a[:-1], da) and not same_dense_ratios([], 1, a, da)


def test_multi_factorial_is_the_product_of_the_factorials():
    for alpha in [(0,), (3,), (2, 4), (2, 4), (3,), (0, 0, 5)]:
        assert multi_factorial(alpha) == math.prod(math.factorial(a) for a in alpha)


def test_weight_table_reads_int_and_fraction_radii_alike():
    assert weight_table((1, Fraction(1, 2)), 3) is weight_table((Fraction(1), Fraction(1, 2)), 3)
    table = weight_table(("1/3", 2), None)
    assert table.weights == (Fraction(1, 3), Fraction(2))
    assert table.weight((3, 1)) == 3


def _fraction_p_power_at_most(q, factor, p):
    """The decision as it was, on a Fraction exponent: p^q <= factor."""
    if q <= 0:
        return True
    return p**q.numerator <= factor**q.denominator


@settings(max_examples=300, deadline=None)
@given(
    g=st.integers(-80, 80),
    D=st.integers(1, 60),
    factor=st.integers(1, 10**5),
    p=st.sampled_from([2, 3, 5, 7]),
    scale=st.integers(1, 6),
)
def test_int_power_decision_matches_the_fraction_one(g, D, factor, p, scale):
    # an unreduced pair (scale * g, scale * D) decides as its reduced Fraction does
    want = _fraction_p_power_at_most(Fraction(g, D), factor, p)
    assert p_power_at_most(g, D, factor, p) == want
    assert p_power_at_most(scale * g, scale * D, factor, p) == want


def test_weight_table_keeps_int_numerators_and_int_entries():
    table = weight_table((Fraction(1, 3), Fraction(1, 2), 2), 3)
    assert (table.den, table.nums) == (6, (2, 3, 12))
    assert table[(3, 2, 1)] == 2 * 3 + 3 * 2 + 12 + 6 * (1 + 0 + 0)
    assert all(type(v) is int for v in table.values())


def test_weight_table_rejects_a_non_integral_factorial_valuation(monkeypatch):
    monkeypatch.setattr(padic_module, "multi_factorial_valuation", lambda alpha, p: Fraction(sum(alpha), 2))
    table = padic_module.WeightTable((1, 1), 3)
    assert table[(2, 0)] == 2 + 1  # 2/2 is integral and reads as an int
    with pytest.raises(ValueError, match="integer"):
        table[(1, 0)]
    assert (1, 0) not in table


@pytest.mark.parametrize("d,cap", [(1, 0), (1, 5), (2, 3), (3, 0), (3, 8), (4, 2)])
def test_tensor_kernel_multiplies_the_tables(d, cap):
    tables = [[7 * i + k + 2 for k in range(cap + 1)] for i in range(d)]
    indices = indices_up_to(d, cap)
    products = tuple(math.prod(t[b] for t, b in zip(tables, beta)) for beta in indices)
    assert tensor_kernel(d, cap)(*tables) == products
    assert len(indices) == math.comb(d + cap, d)
    assert set(indices) == {b for b in product(range(cap + 1), repeat=d) if sum(b) <= cap}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), scale=st.sampled_from([1, 2, 3, 9]))
def test_same_ratios_is_fraction_equality(data, scale):
    keys = st.sampled_from([(0,), (1,), (2,), (5,)])
    nums = st.dictionaries(keys, st.integers(-4, 4).filter(bool), max_size=3)
    dens = st.sampled_from([1, 2, 3, 6])
    a, da, b, db = data.draw(nums), data.draw(dens), data.draw(nums), data.draw(dens)
    as_fractions = {k: Fraction(n, da) for k, n in a.items()} == {k: Fraction(n, db) for k, n in b.items()}
    assert same_ratios(a, da, b, db) == same_ratios(b, db, a, da) == as_fractions
    # the same values over an unreduced denominator
    assert same_ratios(a, da, {k: scale * n for k, n in a.items()}, scale * da)

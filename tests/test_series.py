import io
import math
import random
import re
import tokenize
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from daggerdist.padic import LogMag, bilinear_kernel, linear_kernel, tensor_kernel, valuation
from daggerdist.series import (
    DimensionMismatch,
    TruncatedSeries,
    compile_polys,
    series_to_records,
    terms_from_records,
)
from test_distributions import H_HALF, _assert_generated_source


def poly(dim, cap, terms):
    return TruncatedSeries(dim, cap, terms)


def test_construction_drops_zeros_and_validates():
    f = poly(2, 3, {(1, 0): 2, (0, 2): 0})
    assert f.terms == {(1, 0): Fraction(2)}
    with pytest.raises(ValueError):
        poly(2, 1, {(1, 1): 1})  # exceeds cap
    with pytest.raises(DimensionMismatch):
        poly(2, 3, {(1,): 1})
    with pytest.raises(ValueError, match="negative"):
        poly(2, 3, {(-1, 2): 1})
    # reading a coefficient checks its index as construction does
    assert poly(2, 3, {(1, 1): 3}).coefficient([1, 1]) == 3 and f.coefficient((0, 0)) == 0
    for idx in [(1,), (1, 1, 0)]:
        with pytest.raises(DimensionMismatch):
            poly(2, 3, {(1, 1): 3}).coefficient(idx)
    with pytest.raises(ValueError, match="negative"):
        f.coefficient((-1, 1))


def test_a_non_integral_index_entry_raises():
    # int() would truncate 1.5 and 1.9 to 1; an integral float still reads as its int
    with pytest.raises(ValueError, match="integer"):
        TruncatedSeries(1, 3, {(1.5,): 2})
    with pytest.raises(ValueError, match="integer"):
        poly(1, 3, {(1,): 2}).coefficient((1.9,))
    assert TruncatedSeries(1, 3, {(2.0,): 2}).terms == {(2,): 2}
    assert poly(1, 3, {(2,): 5}).coefficient((2.0,)) == 5


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


def test_with_cap():
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


def test_evaluate():
    f = poly(2, 4, {(1, 1): 2, (0, 2): 1})
    assert f.evaluate([Fraction(3), Fraction(1, 2)]) == 2 * Fraction(3, 2) + Fraction(1, 4)


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
    # the first evaluate compiles the kernel; the same point and a second one reuse it
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


_KERNEL_WORDS = {"def", "kernel", "if", "type", "is", "int", "return", "F"}


@settings(max_examples=100, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3))
def test_kernel_source_holds_only_int_literals_and_generated_names(data, dim):
    index = st.tuples(*[st.integers(0, 3)] * dim)
    coeff = st.one_of(_values, st.integers(-(10**30), 10**30))
    polys = [TruncatedSeries(dim, 3 * dim, data.draw(st.dictionaries(index, coeff, max_size=5))) for _ in range(2)]
    kernel = compile_polys(polys, dim)
    for tok in tokenize.generate_tokens(io.StringIO(kernel.source).readline):
        if tok.type == tokenize.NAME:
            assert tok.string in _KERNEL_WORDS or re.fullmatch(r"[vk]\d+", tok.string)
        elif tok.type == tokenize.NUMBER:
            assert re.fullmatch(r"\d+", tok.string)
        elif tok.type == tokenize.OP:
            assert tok.string in {"(", ")", ",", ":", "=", "+", "-", "*", "**"}
    # every coefficient that is not a small int is bound as a constant, never formatted
    bound = {v for k, v in kernel.__globals__.items() if re.fullmatch(r"k\d+", k)}
    for f in polys:
        for c in f.terms.values():
            if c.denominator != 1 or c.numerator.bit_length() > 64:
                assert c in bound
    point = data.draw(st.lists(_values, min_size=dim, max_size=dim))
    values = kernel(*point)
    assert values == tuple(
        sum((c * math.prod(Fraction(x) ** k for x, k in zip(point, idx)) for idx, c in f.terms.items()), Fraction(0))
        for f in polys
    )
    # all ints exactly when the point and every coefficient are integers, else all Fractions
    integral = all(type(x) is int for x in point) and all(c.denominator == 1 for f in polys for c in f.terms.values())
    assert {type(v) for v in values} == {int if integral else Fraction}
    # the int forms of the distribution layer come from the same writer: a weight beyond 64 bits is bound as k0, k1, ...
    size = dim + 2
    weights = st.one_of(st.integers(-5, 5), st.integers(-(2**80), 2**80))
    terms = st.lists(st.tuples(st.integers(0, size - 1), weights), min_size=1, max_size=4)
    rows = data.draw(st.lists(terms, max_size=3))
    pairs = data.draw(st.lists(st.lists(st.tuples(st.integers(0, size - 1), terms), max_size=3), max_size=3))
    x, y = (data.draw(st.lists(st.integers(-(10**6), 10**6), min_size=size, max_size=size)) for _ in range(2))
    linear, bilinear = linear_kernel(rows, size), bilinear_kernel(pairs, (size, size))
    assert linear(x) == tuple(sum(w * x[k] for k, w in row) for row in rows)
    assert bilinear(x, y) == tuple(sum(x[i] * sum(c * y[j] for j, c in inner) for i, inner in row) for row in pairs)
    for kernel in (linear, bilinear, tensor_kernel(dim, 3)):
        _assert_generated_source(kernel)
    bound = {v for kernel in (linear, bilinear) for k, v in kernel.__globals__.items() if re.fullmatch(r"k\d+", k)}
    assert bound == {w for row in rows + [t for row in pairs for _, t in row] for _, w in row if w.bit_length() > 64}


def test_evaluate_a_polynomial_with_thousands_of_terms():
    # one flat sum of this many terms exceeds the compiler's recursion limit
    terms = {(i, j): Fraction(i - j, 1 + i % 3) for i in range(80) for j in range(80)}
    f = TruncatedSeries(2, 160, terms)
    x, y = Fraction(2, 5), Fraction(-3, 7)
    assert f.evaluate([x, y]) == sum(c * x**i * y**j for (i, j), c in f.terms.items())


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


def test_numerators_are_computed_once():
    f = poly(2, 3, {(1, 2): Fraction(-5, 3), (0, 0): Fraction(7, 2), (1, 0): 4})
    assert f.nums is f.nums  # the stored form, built once by the constructor
    assert (f.nums, f.den) == ({(1, 2): -10, (0, 0): 21, (1, 0): 24}, 6)
    assert (poly(1, 2, {}).nums, poly(1, 2, {}).den) == ({}, 1)


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
    back = TruncatedSeries(2, 3, terms_from_records(series_to_records(f)))
    assert back == f


# -- the int arithmetic against the Fraction-terms loops it replaced --------


class _FractionSeries:
    """A reference series kept as Fraction terms, with the arithmetic as first written on them."""

    def __init__(self, dim, cap, terms, exact):
        self.dim, self.cap, self.exact = dim, cap, exact
        self.terms = {i: Fraction(c) for i, c in terms.items() if c}

    @classmethod
    def of(cls, f):
        return cls(f.dim, f.cap, dict(f.terms), f.exact)

    def degree(self):
        return max(map(sum, self.terms), default=-1)

    def __add__(self, other):
        cap = min(self.cap, other.cap)
        terms = {}
        for f in (self, other):
            for idx, c in f.terms.items():
                if sum(idx) <= cap:
                    terms[idx] = terms.get(idx, Fraction(0)) + c
        exact = self.exact and other.exact and self.degree() <= cap and other.degree() <= cap
        return _FractionSeries(self.dim, cap, terms, exact)

    def scale(self, c):
        return _FractionSeries(self.dim, self.cap, {i: c * v for i, v in self.terms.items()}, self.exact)

    def __mul__(self, other):
        cap = min(self.cap, other.cap)
        terms = {}
        for i1, c1 in self.terms.items():
            for i2, c2 in other.terms.items():
                if sum(i1) + sum(i2) <= cap:
                    idx = tuple(a + b for a, b in zip(i1, i2))
                    terms[idx] = terms.get(idx, Fraction(0)) + c1 * c2
        exact = self.exact and other.exact and (
            not self.terms or not other.terms or self.degree() + other.degree() <= cap
        )
        return _FractionSeries(self.dim, cap, terms, exact)

    def with_cap(self, cap):
        terms = {i: c for i, c in self.terms.items() if sum(i) <= cap}
        return _FractionSeries(self.dim, cap, terms, self.exact and len(terms) == len(self.terms))

    def embed(self, new_dim, positions):
        terms = {}
        for idx, c in self.terms.items():
            new_idx = [0] * new_dim
            for i, k in enumerate(idx):
                new_idx[positions[i]] += k
            terms[tuple(new_idx)] = c
        return _FractionSeries(new_dim, self.cap, terms, self.exact)

    def substitute(self, gs, cap):
        edim = gs[0].dim
        out = _FractionSeries(edim, cap, {}, True)
        one = _FractionSeries(edim, cap, {(0,) * edim: 1}, True)
        for idx, c in self.terms.items():
            part = one.scale(c)
            for i, k in enumerate(idx):
                for _ in range(k):
                    part = part * gs[i].with_cap(cap)
            out = out + part
        return _FractionSeries(edim, cap, out.terms, out.exact and self.exact)


def _same(got, want):
    """got (a TruncatedSeries) and want (a reference) hold the same coefficients, cap, dimension and flag."""
    assert (got.dim, got.cap, got.exact) == (want.dim, want.cap, want.exact)
    assert dict(got.terms) == want.terms and got == TruncatedSeries(want.dim, want.cap, want.terms)
    assert got.den > 0 and all(got.nums.values())


@st.composite
def _int_series(draw, dim, cap=None, constant=True):
    """A series built from numerators over a denominator, often not reduced (den 3, numerators 3k)."""
    cap = draw(st.integers(0, 5)) if cap is None else cap
    den = draw(st.sampled_from([1, 2, 3, 6, 9]))
    index = st.tuples(*[st.integers(0, 3)] * dim).filter(lambda i: sum(i) <= cap and (constant or sum(i)))
    numerator = st.builds(lambda n, k: n * k, st.integers(-20, 20).filter(bool), st.sampled_from([1, 3, den]))
    nums = draw(st.dictionaries(index, numerator, max_size=5))
    return TruncatedSeries.from_numerators(dim, cap, nums, den, draw(st.booleans()))


def _operands(dim):
    """Numerator draws, and the F (dim 6) or I (dim 3) polynomials of the law with the coefficient -3/2."""
    law = [f for f in [*H_HALF.F, *H_HALF.I] if f.dim == dim]
    if dim > 3:
        return st.sampled_from(law)
    return st.one_of(_int_series(dim), *([st.sampled_from(law)] if law else []))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dim=st.sampled_from([1, 2, 3, 6]))
def test_int_arithmetic_matches_the_fraction_terms(data, dim):
    f, g = data.draw(_operands(dim)), data.draw(_operands(dim))
    rf, rg = _FractionSeries.of(f), _FractionSeries.of(g)
    _same(f + g, rf + rg)
    _same(f - g, rf + rg.scale(-1))
    _same(-f, rf.scale(-1))
    c = data.draw(st.sampled_from([0, 1, -3, Fraction(2, 3), Fraction(-9, 4)]))
    _same(f.scale(c), rf.scale(Fraction(c)))
    _same(f * g, rf * rg)
    cap = data.draw(st.integers(0, 6))
    _same(f.with_cap(cap), rf.with_cap(cap))
    positions = data.draw(st.permutations(range(dim + 1)))[:dim]
    _same(f.embed(dim + 1, positions), rf.embed(dim + 1, positions))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), dim=st.sampled_from([1, 2, 3, 6]), edim=st.integers(1, 3))
def test_int_substitute_matches_the_fraction_terms(data, dim, edim):
    f = data.draw(_operands(dim))
    gs = [data.draw(_int_series(edim, constant=False)) for _ in range(dim)]
    cap = min([f.cap] + [g.cap for g in gs])
    _same(f.substitute(gs), _FractionSeries.of(f).substitute([_FractionSeries.of(g) for g in gs], cap))


def test_int_substitute_on_the_non_integral_law():
    # F_i(x, I(x)) = 0 and I(I(x)) = x for the law with -3/2: dens 2 and 4 meet in the sums
    d, cap = H_HALF.d, 6
    xs = [TruncatedSeries.variable(i, d, cap) for i in range(d)]
    inv = [g.with_cap(cap) for g in H_HALF.I]
    for i in range(d):
        got = H_HALF.F[i].substitute(xs + inv, cap=cap)
        want = _FractionSeries.of(H_HALF.F[i]).substitute([_FractionSeries.of(g) for g in xs + inv], cap)
        _same(got, want)
        assert got.is_zero()
        _same(H_HALF.I[i].substitute(inv), _FractionSeries.of(xs[i]).with_cap(H_HALF.I[i].cap))


def test_kernel_of_an_unreduced_integral_series_returns_ints():
    # (3, 6, -9) / 3 is the integral series 1 + 2x - 3xy^2: its kernel keeps the int path
    f = TruncatedSeries.from_numerators(2, 3, {(0, 0): 3, (1, 0): 6, (1, 2): -9}, 3)
    kernel = compile_polys([f], 2)
    assert "if type(v0) is type(v1) is int:" in kernel.source
    value, = kernel(2, 5)
    assert type(value) is int and value == 1 + 4 - 3 * 2 * 25
    assert type(f.evaluate([2, 5])) is int
    assert f.evaluate([Fraction(1, 2), 1]) == Fraction(1 + 1 - Fraction(3, 2))


def test_int_results_need_not_be_reduced():
    x = TruncatedSeries.from_numerators(1, 4, {(1,): 3}, 3)  # x, stored as 3x / 3
    square = x * x
    assert (square.nums, square.den) == ({(2,): 9}, 9)
    assert square == TruncatedSeries(1, 4, {(2,): 1}) and square.terms == {(2,): 1}
    total, composed = square + x, x.substitute([x])
    assert (total.nums, total.den) == ({(2,): 9, (1,): 9}, 9)
    assert (composed.nums, composed.den) == ({(1,): 9}, 9)


def test_a_zero_factor_keeps_the_substitution_exact():
    # x0 * x1^2 at (0, z) is exactly 0, though z^2 passes the cap 1
    f = TruncatedSeries(2, 3, {(1, 2): 1})
    got = f.substitute([TruncatedSeries(1, 1, {}), TruncatedSeries.variable(0, 1, 1)])
    assert got.is_zero() and got.exact

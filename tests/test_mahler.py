import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from daggerdist import mahler as mahler_module
from daggerdist.cli import suite_mahler
from daggerdist.groups import builtin_heisenberg
from daggerdist.mahler import (
    MahlerFamily,
    binomial_poly,
    evaluate_mahler,
    mahler_norm,
    mahler_to_taylor,
    taylor_to_mahler,
    verify_norm_identity,
)
from daggerdist.padic import LogMag, digit_sum, falling_coeff, stirling_second, valuation
from daggerdist.series import TruncatedSeries


def test_monomial_expansion_against_sympy():
    # x^3 = 6*binom(x,3) + 6*binom(x,2) + binom(x,1): m_a = a! * S2(3, a)
    from sympy.functions.combinatorial.numbers import stirling

    f = TruncatedSeries(1, 3, {(3,): 1})
    m = taylor_to_mahler(f)
    import math

    for a in range(4):
        expect = math.factorial(a) * stirling(3, a, kind=2)
        assert m.coefficient((a,)) == expect


def test_roundtrip_identity():
    rng = random.Random(99)
    for _ in range(25):
        dim = rng.choice([1, 2])
        terms = {}
        for _ in range(4):
            idx = tuple(rng.randrange(5) for _ in range(dim))
            if sum(idx) <= 6:
                terms[idx] = Fraction(rng.randrange(-20, 21), rng.choice([1, 2, 3]))
        f = TruncatedSeries(dim, 6, terms)
        assert mahler_to_taylor(taylor_to_mahler(f)) == f


def test_conversion_rejects_truncated_input():
    f = TruncatedSeries(1, 3, {(1,): 1}, exact=False)
    with pytest.raises(ValueError):
        taylor_to_mahler(f)


def test_pointwise_agreement():
    f = TruncatedSeries(2, 5, {(2, 1): Fraction(3), (0, 2): Fraction(-1, 2), (1, 0): 7})
    m = taylor_to_mahler(f)
    for x in ([0, 0], [3, 2], [Fraction(1, 2), 5], [-4, 7]):
        xs = [Fraction(v) for v in x]
        assert evaluate_mahler(m, xs) == f.evaluate(xs)


def test_binomial_poly_values():
    b = binomial_poly((2,))
    # binom(x, 2) = x(x-1)/2
    assert b.terms == {(2,): Fraction(1, 2), (1,): Fraction(-1, 2)}
    b2 = binomial_poly((1, 2))
    assert b2.evaluate([Fraction(4), Fraction(5)]) == 4 * 10


def test_mahler_norm_frozen_value():
    # f = x^2: m = {(1,): 1, (2,): 2}; at rho = 1/2, p = 2:
    #   alpha=1: |1|/|1!| * 2^(1/2) -> exponent 1/2
    #   alpha=2: |2|/|2!| * 2^1    -> exponent -1 + 1 + 1 = 1
    f = TruncatedSeries(1, 2, {(2,): 1})
    m = taylor_to_mahler(f)
    assert m.coeffs == {(1,): 1, (2,): 2}
    assert mahler_norm(m, [Fraction(1, 2)], 2).mag == LogMag(1)


def test_norm_identity_samples():
    rng = random.Random(7)
    for _ in range(30):
        p = rng.choice([2, 3, 5])
        dim = rng.choice([1, 2])
        terms = {}
        for _ in range(5):
            idx = tuple(rng.randrange(6) for _ in range(dim))
            if sum(idx) <= 8:
                terms[idx] = Fraction(rng.randrange(-30, 31), p ** rng.randrange(2))
        f = TruncatedSeries(dim, 8, terms)
        rho = [Fraction(1, rng.choice([1, 2, 4]))] * dim
        equal, gauss, mah = verify_norm_identity(f, rho, p)
        assert equal, (gauss, mah, dict(f.sorted_terms()))


def test_norm_identity_requires_positive_radii():
    f = TruncatedSeries(1, 2, {(1,): 1})
    with pytest.raises(ValueError):
        verify_norm_identity(f, [Fraction(0)], 3)


def test_mahler_family_validation():
    with pytest.raises(ValueError):
        MahlerFamily(1, 2, {(3,): 1})


def _below(idx):
    if not idx:
        yield ()
        return
    for rest in _below(idx[1:]):
        for k in range(idx[0] + 1):
            yield (k,) + rest


def _fraction_taylor_to_mahler(terms):
    out = {}
    for beta, c in terms.items():
        for alpha in _below(beta):
            weight = Fraction(1)
            for b, a in zip(beta, alpha):
                weight *= stirling_second(b, a) * math.factorial(a)
            out[alpha] = out.get(alpha, Fraction(0)) + Fraction(c) * weight
    return {a: v for a, v in out.items() if v != 0}


def _fraction_mahler_to_taylor(coeffs):
    out = {}
    for alpha, m in coeffs.items():
        for beta in _below(alpha):
            weight = Fraction(1)
            for a, b in zip(alpha, beta):
                weight *= Fraction(falling_coeff(a, b), math.factorial(a))
            out[beta] = out.get(beta, Fraction(0)) + Fraction(m) * weight
    return {b: v for b, v in out.items() if v != 0}


@st.composite
def _suite_polys(draw):
    """Polynomials as the mahler suite draws them: numerators up to p^3 over p^0..p^2."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    dim, deg = draw(st.sampled_from([(1, 12), (2, 6)]))
    index = st.lists(st.integers(0, deg), min_size=dim, max_size=dim).filter(lambda i: sum(i) <= deg)
    coeff = st.builds(Fraction, st.integers(-(p**3), p**3), st.sampled_from([1, p, p * p]))
    terms = draw(st.dictionaries(index.map(tuple), coeff, min_size=1, max_size=5))
    return TruncatedSeries(dim, deg, terms)


@settings(max_examples=150, deadline=None)
@given(f=_suite_polys())
def test_conversions_match_fraction_formulas(f):
    m = taylor_to_mahler(f)
    assert m.coeffs == _fraction_taylor_to_mahler(f.terms)
    assert mahler_to_taylor(m).terms == _fraction_mahler_to_taylor(m.coeffs)
    # a family whose denominators are not all absorbed by alpha!
    divided = MahlerFamily(f.dim, f.cap, {a: c / 7 for a, c in m.coeffs.items()})
    assert mahler_to_taylor(divided).terms == _fraction_mahler_to_taylor(divided.coeffs)


def _fraction_mahler_norm(m, rho, p):
    """The all-Fraction loop: sup -v(m_alpha) + v(alpha!) + sum_i rho_i alpha_i."""
    rho = [Fraction(r) for r in rho]
    best = None
    for alpha, ma in m.coeffs.items():
        e = -valuation(ma, p) + sum(Fraction(a - digit_sum(a, p), p - 1) for a in alpha)
        e += sum(r * a for r, a in zip(rho, alpha))
        if best is None or e > best:
            best = e
    return LogMag.bottom() if best is None else LogMag(best)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 3, 5, 7]), dim=st.integers(1, 3))
def test_mahler_norm_matches_fraction_loop(data, p, dim):
    index = st.tuples(*[st.integers(0, 6)] * dim)
    coeff = st.builds(Fraction, st.integers(-(p**4), p**4), st.sampled_from([1, p, p**3, 7 * p]))
    coeffs = data.draw(st.dictionaries(index, coeff, max_size=6))
    radii = st.builds(Fraction, st.integers(0, 12), st.sampled_from([1, 2, 3, 4, 5, 6, 7, 12]))
    rho = data.draw(st.lists(radii, min_size=dim, max_size=dim))
    m = MahlerFamily(dim, 6 * dim, coeffs)
    assert mahler_norm(m, rho, p).mag == _fraction_mahler_norm(m, rho, p)
    zero = MahlerFamily(dim, 6 * dim, {})
    assert mahler_norm(zero, rho, p).mag == _fraction_mahler_norm(zero, rho, p) == LogMag.bottom()


def test_suite_mahler_fails_on_a_corrupted_row(monkeypatch):
    # every Mahler coefficient scaled by p: the norms differ by p^-1 and the round trip gives p*f
    G = builtin_heisenberg(3)
    true_row = mahler_module.mahler_row
    monkeypatch.setattr(mahler_module, "mahler_row", lambda beta: tuple((a, 3 * w) for a, w in true_row(beta)))
    records = {rec.check_id: rec for rec in suite_mahler(G, trials=4, seed=0)}
    for check_id in ("mahler/norm-identity", "mahler/roundtrip"):
        assert records[check_id].verdict == "fail"
        assert records[check_id].witness["violations"]

import hashlib
import json
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from daggerdist import mahler as mahler_module
from daggerdist.cli import MAHLER_GRID, main, suite_mahler
from daggerdist.groups import builtin_abelian, builtin_heisenberg
from daggerdist.mahler import (
    MahlerFamily,
    NormIdentity,
    basis_images,
    mahler_norm,
    mahler_to_taylor,
    taylor_to_mahler,
    verify_norm_identity,
)
from daggerdist.padic import (
    LogMag,
    cap_scaled_row,
    digit_sum,
    falling_coeff,
    grlex_key,
    indices_up_to,
    int_valuation,
    mahler_row,
    multi_binom_value,
    multi_factorial,
    numerators,
    scatter_table,
    stirling_second,
    taylor_row,
    valuation,
    weighted_sup_num,
)
from daggerdist.report import Report, emit_json, record
from daggerdist.series import TruncatedSeries
from test_series import _fraction_gauss_norm


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
        assert sum(c * multi_binom_value(xs, alpha) for alpha, c in m.coeffs.items()) == f.evaluate(xs)


def test_taylor_row_is_the_binomial_polynomial():
    # alpha! binom(x, alpha) in monomials: 2! binom(x, 2) = x^2 - x
    assert dict(taylor_row((2,))) == {(2,): 1, (1,): -1}
    b2 = TruncatedSeries(2, 3, {beta: Fraction(w, 2) for beta, w in taylor_row((1, 2))})
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
    with pytest.raises(ValueError, match="positive radii"):
        NormIdentity([Fraction(1, 2), 0], 3)
    with pytest.raises(ValueError, match="radii"):  # the wrapper's norms check the dimension
        verify_norm_identity(TruncatedSeries(2, 2, {(1, 1): 1}), [Fraction(1, 2)], 3)


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


def _dict_scatter(row, nums):
    """The scatter through a row as first written, summing into a dict keyed by output index."""
    out = {}
    for k, n in nums.items():
        for i, w in row(k):
            out[i] = out.get(i, 0) + w * n
    return {i: t for i, t in out.items() if t}


def _lcm_mahler_to_taylor(m):
    """mahler_to_taylor as first written: the numerators rescaled over den * lcm(alpha!) of the support on each call."""
    facts = {alpha: multi_factorial(alpha) for alpha in m.nums}
    lcm = math.lcm(*facts.values())
    nums = {alpha: n * (lcm // facts[alpha]) for alpha, n in m.nums.items()}
    return TruncatedSeries.from_numerators(m.dim, m.cap, _dict_scatter(taylor_row, nums), m.den * lcm)


@st.composite
def _capped_families(draw):
    """(dim, cap, nums, den): up to six nonzero numerators at indices of total degree <= cap."""
    dim, cap = draw(st.integers(1, 3)), draw(st.integers(0, 12))
    nums = {}
    for _ in range(draw(st.integers(0, 6))):
        index, budget = [], cap
        for _ in range(dim):
            index.append(draw(st.integers(0, budget)))
            budget -= index[-1]
        nums[tuple(draw(st.permutations(index)))] = draw(st.integers(-(10**6), 10**6).filter(bool))
    return dim, cap, nums, draw(st.sampled_from([1, 2, 3, 12, 125]))


@settings(max_examples=300, deadline=None)
@given(family=_capped_families())
def test_dense_conversions_match_the_dict_scatter(family):
    dim, cap, nums, den = family
    for row in (mahler_row, taylor_row):
        table = scatter_table(row, dim, cap)
        dense = table.dense(nums.items())
        assert {i: t for i, t in zip(table.indices, dense) if t} == _dict_scatter(row, nums)
    f = TruncatedSeries.from_numerators(dim, cap, nums, den)
    family = taylor_to_mahler(f)
    assert (family.nums, family.den) == (_dict_scatter(mahler_row, nums), den)
    m = MahlerFamily.from_numerators(dim, cap, nums, den)
    back, expect = mahler_to_taylor(m), _lcm_mahler_to_taylor(m)
    assert back == expect and back.terms == expect.terms
    assert back.den == den * math.factorial(cap)


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


def test_suite_mahler_fails_on_a_corrupted_taylor_row(monkeypatch):
    # every Taylor weight scaled by p: the round trip gives p*f and the forward norms are untouched, but T / cap! is
    # no longer M's inverse, so the norm identity is unproven
    G = builtin_heisenberg(3)
    true_row = mahler_module.taylor_row
    monkeypatch.setattr(mahler_module, "taylor_row", lambda alpha: tuple((b, 3 * w) for b, w in true_row(alpha)))
    records = {rec.check_id: rec for rec in suite_mahler(G, trials=4, seed=0)}
    assert records["mahler/roundtrip"].verdict == "fail"
    assert records["mahler/roundtrip"].witness["violations"]
    assert records["mahler/norm-identity"].verdict == "inconclusive"


@settings(max_examples=300, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 3, 5, 7]), dim=st.integers(1, 2))
def test_norm_identity_checker_matches_the_fraction_norms(data, p, dim):
    index = st.tuples(*[st.integers(0, 6)] * dim)
    coeff = st.builds(Fraction, st.integers(-(p**4), p**4), st.sampled_from([1, p, p * p, 7 * p]))
    f = TruncatedSeries(dim, 6 * dim, data.draw(st.dictionaries(index, coeff, max_size=5)))
    rho = data.draw(st.lists(st.builds(Fraction, st.integers(1, 8), st.integers(1, 4)), min_size=dim, max_size=dim))
    check = NormIdentity(rho, p)
    m = taylor_to_mahler(f)
    # f's own family, a second draw, f's family with one numerator scaled by p, and the zero family
    families = [m, MahlerFamily(dim, 6 * dim, data.draw(st.dictionaries(index, coeff, max_size=5)))]
    if m.nums:
        a = data.draw(st.sampled_from(sorted(m.nums)))
        families.append(MahlerFamily.from_numerators(dim, 6 * dim, {**m.nums, a: p * m.nums[a]}, m.den))
    families.append(MahlerFamily(dim, 6 * dim, {}))
    gauss = _fraction_gauss_norm(f, rho, p)
    assert f.gauss_norm(rho, p).mag == gauss
    holds = []
    for family in families:
        mahler = _fraction_mahler_norm(family, rho, p)
        assert mahler_norm(family, rho, p).mag == mahler
        # the trial of f, its forward step giving the family: both over a denominator the two share
        den = math.lcm(f.den, family.den)
        g = TruncatedSeries.from_numerators(dim, 6 * dim, {a: n * (den // f.den) for a, n in f.nums.items()}, den)
        scattered = {a: n * (den // family.den) for a, n in family.nums.items()}
        with mock.patch.object(mahler_module, "mahler_scatter", lambda _: (list(scattered), list(scattered.values()))):
            holds.append(_trial(check, g)[0] is None)
        assert holds[-1] == (gauss == mahler)
    mahler = _fraction_mahler_norm(m, rho, p)
    assert verify_norm_identity(f, rho, p) == (gauss == mahler, gauss, mahler)
    assert holds[0] and _trial(check, f)[0] is None and holds[-1] == f.is_zero()


def test_suite_mahler_fails_on_a_family_with_one_numerator_scaled_by_p(monkeypatch):
    # the top Mahler coefficient of each image scaled by p: the norms differ wherever it attains the sup
    G = builtin_heisenberg(3)
    forward = mahler_module.mahler_scatter

    def scaled(f):
        indices, nums = forward(f)
        top = max((n for n, c in enumerate(nums) if c), key=lambda n: grlex_key(indices[n]))
        return indices, [G.p * c if n == top else c for n, c in enumerate(nums)]

    monkeypatch.setattr(mahler_module, "mahler_scatter", scaled)
    report = Report(group=G.name, seed=0)
    report.extend(suite_mahler(G, trials=12, seed=0))
    norm = report.records[0].to_dict()
    assert (norm["check"], norm["verdict"]) == ("mahler/norm-identity", "fail")
    # X at rho = 1/4: |3 * 1!| / |1!| * 3^(1/4) is 3^(-3/4), not the Gauss norm 3^(1/4)
    witness = {"cap": 12, "dim": 1, "index": [1], "rho": ["1/4"], "side": "forward"}
    assert norm["witness"]["violations"][1] == {**witness, "gauss": "p^1/4", "mahler": "p^-3/4"}
    # the whole failure report, byte for byte as the basis-monomial decision writes it
    digest = "3a3b0a936499bbd1614f12425d1e9c317a18d087b4a432778285b791a7c68e4a"
    assert hashlib.sha256(emit_json(report)).hexdigest() == digest


def _full_sups_holds(check, f, family):
    """NormIdentity.holds as first written: both scaled sups in full, a valuation read for every Mahler term."""
    p = check.p
    gauss = weighted_sup_num(f.nums, p, check.gauss, f.den)
    return gauss == weighted_sup_num(family.nums, p, check.mahler, family.den)


def _threshold_holds(check, sup, pairs):
    """NormIdentity's decision as it was, before the floor of weighted_sup_num: whether sup (None: bottom) is the
    Mahler-side sup over the (alpha, nonzero numerator) pairs without den, reading a valuation only for a weight
    that reaches sup."""
    p, table, scale, hit = check.p, check.mahler, check.mahler.den, False
    if sup is None:
        return not pairs
    for alpha, n in pairs:
        term = table[alpha]
        if term >= sup:
            term -= int_valuation(n, p) * scale
            if term > sup:
                return False
            hit = hit or term == sup
    return hit


def _trial(check, f):
    """NormIdentity.trial as the sampled suite decided each draw: (norm, round_trip) for an exact polynomial f.

    ``norm`` is None if the identity holds, else the (Gauss, Mahler) magnitudes; ``round_trip`` is whether f's family
    scatters back through the Taylor rows scaled by cap!/alpha! to cap! times f's numerators.  The family's numerators
    are put over one denominator first, so a faulted row with Fraction weights is read exactly.
    """
    indices, nums = mahler_module.mahler_scatter(f)
    support = {a: n for a, n in zip(indices, nums) if n}
    (family, den), p = numerators(support), check.p
    sup = weighted_sup_num(f.nums, p, check.gauss)
    norm = None
    if weighted_sup_num(family, p, check.mahler, den, floor=-math.inf if sup is None else sup - 1) != sup:
        m = MahlerFamily.from_numerators(f.dim, f.cap, family, den * f.den)
        norm = f.gauss_norm(check.rho, p).mag, mahler_norm(m, check.rho, p).mag
    back, fact = scatter_table(cap_scaled_row(mahler_module.taylor_row, f.cap), f.dim, f.cap), math.factorial(f.cap)
    out, position = back.dense(support.items()), back.position
    for beta, n in f.nums.items():
        if beta not in position:  # no Taylor row reaches beta
            return norm, False
        out[position[beta]] -= fact * n
    return norm, not any(out)


def _assert_trial_matches_the_oracles(check, f, family):
    """The trial of f, its forward step giving ``family`` (index -> numerator over f's den, zeros kept), against
    the full sups, the threshold loop and the Fraction round trip; returns the trial's verdicts."""
    m = MahlerFamily.from_numerators(f.dim, f.cap, {a: n for a, n in family.items() if n}, f.den)
    with mock.patch.object(mahler_module, "mahler_scatter", lambda _: (list(family), list(family.values()))):
        norm, round_trip = _trial(check, f)
    holds = _full_sups_holds(check, f, m)
    assert holds == _threshold_holds(check, weighted_sup_num(f.nums, check.p, check.gauss), list(m.nums.items()))
    assert norm == (None if holds else (f.gauss_norm(check.rho, check.p).mag, mahler_norm(m, check.rho, check.p).mag))
    assert round_trip == (f.terms == _fraction_mahler_to_taylor(m.coeffs))
    return norm is None, round_trip


@st.composite
def _trial_cases(draw):
    """(check, f): up to five nonzero numerators at indices of dimension 1-3 and cap 0-12, and a radius vector."""
    p, dim, cap = draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(1, 3)), draw(st.integers(0, 12))
    numerator = st.builds(lambda n, k: n * k, st.integers(-(p**3), p**3).filter(bool), st.sampled_from([1, p, p * p]))
    nums = {}
    for _ in range(draw(st.integers(0, 5))):
        index, budget = [], cap
        for _ in range(dim):
            index.append(draw(st.integers(0, budget)))
            budget -= index[-1]
        nums[tuple(draw(st.permutations(index)))] = draw(numerator)
    rho = draw(st.lists(st.builds(Fraction, st.integers(1, 8), st.integers(1, 4)), min_size=dim, max_size=dim))
    f = TruncatedSeries.from_numerators(dim, cap, nums, draw(st.sampled_from([1, 2, p, p * p])))
    return NormIdentity(rho, p), f


@settings(max_examples=200, deadline=None)
@given(case=_trial_cases(), data=st.data())
def test_the_trial_decides_as_the_full_sups_and_the_fraction_round_trip(case, data):
    check, f = case
    p, scale = check.p, check.mahler.den
    # f's own family, as the trial scatters it and as the old suite checked it
    indices, nums = mahler_module.mahler_scatter(f)
    family = dict(zip(indices, nums))
    assert {a: Fraction(n, f.den) for a, n in family.items() if n} == _fraction_taylor_to_mahler(f.terms)
    m = taylor_to_mahler(f)
    assert _full_sups_holds(check, f, m) and mahler_to_taylor(m) == f
    assert _trial(check, f) == (None, True)
    assert _assert_trial_matches_the_oracles(check, f, family) == (True, True)
    # one numerator scaled by p or dropped; scaled where a term reaches the Gauss sup, a weight equal to the
    # sup goes from v = 0 to v = 1, and a larger weight keeps its v > 0
    support = [a for a, n in family.items() if n]
    picks = data.draw(st.lists(st.sampled_from(support), max_size=3)) if support else []
    sup = weighted_sup_num(f.nums, p, check.gauss)
    reaching = [a for a in support if check.mahler[a] - scale * valuation(family[a], p) == sup]
    for a in picks + reaching:
        _assert_trial_matches_the_oracles(check, f, {**family, a: p * family[a]})
    for a in picks:
        _assert_trial_matches_the_oracles(check, f, {**family, a: 0})


def test_the_trial_where_a_mahler_weight_equals_the_gauss_sup():
    # f = X at rho = 1, p = 3: the Gauss sup is 1, and the one Mahler term binom(X, 1) has weight v(1!) + 1 = 1
    check, f = NormIdentity([1], 3), TruncatedSeries(1, 3, {(1,): 1})
    assert check.mahler[(1,)] == weighted_sup_num(f.nums, 3, check.gauss) == 1
    assert _assert_trial_matches_the_oracles(check, f, {(1,): 1}) == (True, True)  # v = 0: reaches the sup
    assert _assert_trial_matches_the_oracles(check, f, {(1,): 3}) == (False, False)  # v = 1: falls short
    assert _assert_trial_matches_the_oracles(check, f, {(1,): 1, (2,): 1}) == (False, False)  # weight 2 exceeds it
    assert _assert_trial_matches_the_oracles(check, f, {(1,): 0}) == (False, False)  # dropped
    # the zero series: bottom on both sides holds, and any Mahler term exceeds it
    zero = TruncatedSeries.zero(1, 3)
    assert _assert_trial_matches_the_oracles(check, zero, {}) == (True, True)
    assert _assert_trial_matches_the_oracles(check, zero, {(0,): 0, (1,): 3}) == (False, False)


def _sampled_draws(G, trials, seed):
    """The (checker, polynomial) of each trial as the sampled mahler suite drew them: trial t a polynomial of the
    shape at t % 2, and then its radius as rng.choice drew it."""
    rng, (shapes, radii), draws = random.Random(f"{seed}:mahler:{G.name}"), MAHLER_GRID, []
    for t in range(trials):
        dim, deg = shapes[t % 2]
        f = _fraction_random_poly(rng, dim, deg, G.p, cap=deg)
        draws.append((NormIdentity((rng.choice(radii),) * dim, G.p), f))
    return draws


def test_the_trial_decides_as_the_threshold_loop_on_the_mahler_suites_draws():
    # the 1,000 seed-7 draws of the sampled suite on heisenberg(5), and each with the numerators that reach the
    # Gauss sup scaled by p, one at a time
    verdicts = set()
    for check, f in _sampled_draws(builtin_heisenberg(5), 1000, 7):
        p, sup = check.p, weighted_sup_num(f.nums, check.p, check.gauss)
        family = dict(zip(*mahler_module.mahler_scatter(f)))
        reaching = [a for a, n in family.items() if n and check.mahler[a] - check.mahler.den * valuation(n, p) == sup]
        for changed in [family] + [{**family, a: p * family[a]} for a in reaching]:
            support = {a: n for a, n in changed.items() if n}
            with mock.patch.object(mahler_module, "mahler_scatter", lambda _: (list(changed), list(changed.values()))):
                holds = _trial(check, f)[0] is None
            assert holds == _threshold_holds(check, sup, list(support.items()))
            verdicts.add((changed is family, holds))
    assert verdicts == {(True, True), (False, True), (False, False)}


@settings(max_examples=100, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 3, 5, 7]), dim=st.integers(1, 3), cap=st.integers(0, 10))
def test_a_certified_table_decides_every_trial_as_the_fraction_oracles(data, p, dim, cap):
    rho = data.draw(st.lists(st.builds(Fraction, st.integers(1, 12), st.integers(1, 12)), min_size=dim, max_size=dim))
    check = NormIdentity(rho, p)
    images, broken = basis_images(dim, cap)
    assert not broken and not check.violations(images, inverse=True)  # Mahler's theorem: M is an isometry at rho > 0
    nums = {}
    for _ in range(data.draw(st.integers(0, 5))):
        index = data.draw(st.sampled_from(indices_up_to(dim, cap)))
        nums[index] = data.draw(st.integers(-(p**3), p**3).filter(bool)) * p ** data.draw(st.integers(0, 2))
    f = TruncatedSeries.from_numerators(dim, cap, nums, data.draw(st.sampled_from([1, p, p * p, 6])))
    family = MahlerFamily(dim, cap, _fraction_taylor_to_mahler(f.terms))
    assert _fraction_gauss_norm(f, rho, p) == _fraction_mahler_norm(family, rho, p)
    assert _fraction_mahler_to_taylor(family.coeffs) == f.terms
    assert _trial(check, f) == (None, True)


def _sampled_records(G, trials, seed):
    """The records of the sampled mahler suite: each draw decided by :func:`_trial`, its failures the witnesses."""
    bad_norm, bad_round = [], []
    for t, (check, f) in enumerate(_sampled_draws(G, trials, seed)):
        norm, round_trip = _trial(check, f)
        if norm is not None:
            bad_norm.append({"trial": t, "gauss": norm[0], "mahler": norm[1]})
        if not round_trip:
            bad_round.append({"trial": t})
    params = {"p": G.p, "trials": trials, "seed": seed}
    return [record("mahler/norm-identity", "", params, bad_norm), record("mahler/roundtrip", "", params, bad_round)]


def _no_draw(*args):
    raise AssertionError("the mahler suite drew a random number")


@pytest.mark.parametrize("trials", [0, 1, 25, 1000])
@pytest.mark.parametrize(
    "G",
    [builtin_heisenberg(3), builtin_heisenberg(5), builtin_heisenberg(7), builtin_abelian(2, 2), builtin_abelian(3, 2)],
    ids=lambda G: G.name,
)
def test_the_certified_suite_reports_what_the_trials_report(G, trials, monkeypatch):
    sampled = [(rec.check_id, rec.verdict, rec.params, rec.witness) for rec in _sampled_records(G, trials, 7)]
    monkeypatch.setattr(random, "Random", _no_draw)
    decided = [(rec.check_id, rec.verdict, rec.params, rec.witness) for rec in suite_mahler(G, trials=trials, seed=7)]
    assert decided == sampled
    assert [verdict for _, verdict, _, _ in decided] == ["inconclusive" if trials == 0 else "pass"] * 2


def test_suite_mahler_fails_where_only_the_inverse_grows(monkeypatch):
    # every Mahler weight times p and every Taylor weight over p: T M is still cap!, but T / cap! = M^-1 grows by p,
    # so the round trip holds, the forward norms shrink by p, and the backward norms grow by p
    G = builtin_heisenberg(3)
    true_mahler, true_taylor = mahler_module.mahler_row, mahler_module.taylor_row
    monkeypatch.setattr(mahler_module, "mahler_row", lambda beta: tuple((a, 3 * w) for a, w in true_mahler(beta)))
    monkeypatch.setattr(mahler_module, "taylor_row", lambda a: tuple((b, Fraction(w, 3)) for b, w in true_taylor(a)))
    shapes, radii = MAHLER_GRID
    for dim, cap in shapes:
        images, broken = basis_images(dim, cap)
        assert not broken
        for r in radii:
            sides = [side for _, side, _, _ in NormIdentity((r,) * dim, G.p).violations(images, inverse=True)]
            assert sides == ["forward", "backward"] * len(images)
    records = {rec.check_id: rec for rec in suite_mahler(G, trials=4, seed=0)}
    assert records["mahler/norm-identity"].verdict == "fail"
    assert records["mahler/norm-identity"].witness["violations"]
    assert records["mahler/roundtrip"].verdict == "pass"


# the Mahler rows scaled by 3: of the last index of each shape (grlex order), or of (3, 3) in the shape (2, 6) alone
_LAST = frozenset(indices_up_to(dim, cap)[-1] for dim, cap in MAHLER_GRID[0])
_ROW_FAULTS = {"last": _LAST, "3-3": frozenset({(3, 3)})}


@pytest.mark.parametrize("trials", [1, 5])
@pytest.mark.parametrize("fault", sorted(_ROW_FAULTS))
@pytest.mark.parametrize("p, norm", [(3, "fail"), (5, "inconclusive")])
def test_suite_mahler_fails_on_a_row_broken_at_one_basis_monomial_only(p, norm, fault, trials, monkeypatch):
    # only those monomials' round trips fail, so the decision must read every basis monomial (the sampled suite
    # passed all of these but the last-index fault at 5 trials); 3 is a unit at p = 5, so the forward norms hold there
    # but T / cap! is not M's inverse, and the norm identity is unproven
    broken, true_row = _ROW_FAULTS[fault], mahler_module.mahler_row
    monkeypatch.setattr(
        mahler_module, "mahler_row", lambda beta: tuple((a, 3 ** (beta in broken) * w) for a, w in true_row(beta))
    )
    assert {e for dim, cap in MAHLER_GRID[0] for e in basis_images(dim, cap)[1]} == broken
    records = {rec.check_id: rec for rec in suite_mahler(builtin_heisenberg(p), trials=trials, seed=7)}
    assert records["mahler/roundtrip"].verdict == "fail"
    assert {tuple(w["index"]) for w in records["mahler/roundtrip"].witness["violations"]} == broken
    assert records["mahler/norm-identity"].verdict == norm
    if norm == "fail":
        witnesses = records["mahler/norm-identity"].witness["violations"]
        assert {(tuple(w["index"]), w["side"]) for w in witnesses} <= {(e, "forward") for e in broken}


def test_a_sparse_conversion_fills_only_the_positions_its_rows_reach():
    # X_3^40 reaches the 40 indices (0, 0, a), 1 <= a <= 40, not all C(43, 3) = 12341 of total degree <= 40
    scatter_table.cache_clear()
    f = TruncatedSeries(3, 40, {(0, 0, 40): 1})
    assert mahler_to_taylor(taylor_to_mahler(f)) == f
    assert _trial(NormIdentity([1, 1, 1], 3), f) == (None, True)
    reached = [(0, 0, a) for a in range(1, 41)]
    for table in (scatter_table(mahler_row, 3, 40), scatter_table(cap_scaled_row(taylor_row, 40), 3, 40)):
        assert sorted(table.indices) == reached
        assert table.position == {a: n for n, a in enumerate(table.indices)}


@st.composite
def _numerator_families(draw):
    """(p, dim, cap, nums, den): nonzero numerators, not reduced, with p dividing den at times."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    dim = draw(st.integers(1, 3))
    index = st.tuples(*[st.integers(0, 6)] * dim)
    numerator = st.builds(lambda n, k: n * k, st.integers(-(p**4), p**4).filter(bool), st.sampled_from([1, 2, p, p * p]))
    nums = draw(st.dictionaries(index, numerator, max_size=6))
    den = draw(st.sampled_from([1, 2, 6, p, p**3, 7 * p]))
    return p, dim, 6 * dim, nums, den


@settings(max_examples=200, deadline=None)
@given(family=_numerator_families(), data=st.data())
def test_from_numerators_matches_the_fraction_family(family, data):
    p, dim, cap, nums, den = family
    m = MahlerFamily.from_numerators(dim, cap, nums, den)
    expect = MahlerFamily(dim, cap, {a: Fraction(n, den) for a, n in nums.items()})
    assert m.coeffs == expect.coeffs == {a: Fraction(n, den) for a, n in nums.items()}
    assert m == expect
    radii = st.builds(Fraction, st.integers(1, 12), st.sampled_from([1, 2, 3, 4, 7, 12]))
    rho = data.draw(st.lists(radii, min_size=dim, max_size=dim))
    assert mahler_norm(m, rho, p).mag == _fraction_mahler_norm(expect, rho, p)
    assert mahler_to_taylor(m).terms == _fraction_mahler_to_taylor(expect.coeffs)


@settings(max_examples=200, deadline=None)
@given(family=_numerator_families(), data=st.data())
def test_series_from_numerators_matches_the_fraction_series(family, data):
    p, dim, cap, nums, den = family
    f = TruncatedSeries.from_numerators(dim, cap, nums, den)
    expect = TruncatedSeries(dim, cap, {a: Fraction(n, den) for a, n in nums.items()})
    assert (f.nums, f.den) == (nums, den)
    assert f.terms == expect.terms and (f.dim, f.cap, f.exact) == (dim, cap, True)
    assert f == expect and expect == f and hash(f) == hash(expect)
    assert f.gauss_norm([1] * dim, p) == expect.gauss_norm([1] * dim, p)
    assert TruncatedSeries.from_numerators(dim, cap, {a: 3 * n for a, n in nums.items()}, 3 * den) == f

    def series_and_family(nums, den):
        return TruncatedSeries.from_numerators(dim, cap, nums, den), MahlerFamily.from_numerators(dim, cap, nums, den)

    # the ratio rule against Fraction equality, on a second draw over f's indices and on f changed at one index
    g_nums = data.draw(st.dictionaries(st.sampled_from(sorted(nums) or [(0,) * dim]), st.integers(-3, 3).filter(bool)))
    g, g_family = series_and_family(g_nums, data.draw(st.sampled_from([1, 2, p, 4 * p])))
    m = MahlerFamily.from_numerators(dim, cap, nums, den)
    assert (f == g) == (f.terms == g.terms) == (m == g_family)
    if nums:
        a = data.draw(st.sampled_from(sorted(nums)))
        for changed in ({**nums, a: nums[a] + den}, {k: n for k, n in nums.items() if k != a}):
            assert all(x != y for x, y in zip(series_and_family(changed, den), (f, m)))


def test_series_from_numerators_zero_series():
    zero = TruncatedSeries.from_numerators(2, 4, {}, 9)
    assert zero == TruncatedSeries.zero(2, 4) and hash(zero) == hash(TruncatedSeries.zero(2, 4))
    assert zero.is_zero() and zero.terms == {} and zero.degree() == -1
    assert zero != TruncatedSeries.from_numerators(2, 4, {(0, 0): 9}, 9)


def test_from_numerators_zero_family_and_read_only_view():
    zero = MahlerFamily.from_numerators(2, 4, {}, 9)
    assert zero == MahlerFamily(2, 4, {}) and not zero.coeffs
    assert mahler_norm(zero, [1, 1], 3).mag == LogMag.bottom()
    assert mahler_to_taylor(zero).is_zero()
    m = MahlerFamily(1, 3, {(1,): Fraction(3, 4), (3,): Fraction(-1, 6)})
    assert (m.nums, m.den) == ({(1,): 9, (3,): -2}, 12)
    assert m.coeffs is m.coeffs
    with pytest.raises(TypeError):
        m.coeffs[(0,)] = 1


def _fraction_random_poly(rng, dim, deg, p, cap):
    """The mahler suite's polynomial draw as first written, one Fraction per addition."""
    terms = {}
    for _ in range(rng.randrange(1, 6)):
        idx = tuple(rng.randrange(deg + 1) for _ in range(dim))
        while sum(idx) > deg:
            idx = tuple(rng.randrange(deg + 1) for _ in range(dim))
        num = rng.randrange(-(p**3), p**3 + 1) or 1
        terms[idx] = terms.get(idx, Fraction(0)) + Fraction(num, p ** rng.randrange(3))
    terms = {i: c for i, c in terms.items() if c != 0}
    if not terms:
        terms = {(0,) * dim: Fraction(1)}
    return TruncatedSeries(dim, cap, terms, exact=True)


# -- the decision's witnesses under faulted rows, against the Fraction oracles ---------------------------------------


def _row_fault(*rows):
    """The Mahler rows of ``rows`` times p."""
    return lambda p, beta: p if beta in rows else 1, lambda p, alpha: 1


# Each fault scales the Mahler row of beta by mahler(p, beta) and the Taylor row of alpha by taylor(p, alpha): one
# row times p (one in each shape of the suite), M times p with T over p (T M stays cap!, but T / cap! is M's inverse
# only up to p), and M over p.
_FAULTS = {
    "none": (lambda p, beta: 1, lambda p, alpha: 1),
    "row": _row_fault((2,), (1, 1)),
    "inverse": (lambda p, beta: p, lambda p, alpha: Fraction(1, p)),
    "over": (lambda p, beta: Fraction(1, p), lambda p, alpha: 1),
}


def _faulted_rows(p, fault):
    """mahler_module's mahler_row and taylor_row scaled by the fault's (mahler, taylor) scales, as a context."""
    (mahler_scale, taylor_scale), true_mahler, true_taylor = fault, mahler_row, taylor_row
    return mock.patch.multiple(
        mahler_module,
        mahler_row=lambda beta: tuple((a, mahler_scale(p, beta) * w) for a, w in true_mahler(beta)),
        taylor_row=lambda alpha: tuple((b, taylor_scale(p, alpha) * w) for b, w in true_taylor(alpha)),
    )


def _faulted_oracles(p, fault):
    """(M, T / cap!) under the fault, as the Fraction oracles computed row by row: dicts of nonzero Fractions."""

    def scaled(convert, scale):
        def apply(terms):
            out = {}
            for k, c in terms.items():
                for i, v in convert({k: 1}).items():
                    out[i] = out.get(i, 0) + c * scale(p, k) * v
            return {i: v for i, v in out.items() if v}

        return apply

    return scaled(_fraction_taylor_to_mahler, fault[0]), scaled(_fraction_mahler_to_taylor, fault[1])


def _assert_witness_rederives(witness, p, fault):
    """A mahler witness re-derived from its shape and index alone, with the Fraction oracles under the fault."""
    forward, backward = _faulted_oracles(p, fault)
    dim, cap, e = witness["dim"], witness["cap"], tuple(witness["index"])
    if "side" not in witness:  # the polynomial e does not round-trip
        assert backward(forward({e: 1})) != {e: 1}
        return
    rho = witness["rho"]
    if witness["side"] == "forward":  # ||M e||_Mahler != ||e||_Gauss
        gauss = _fraction_gauss_norm(TruncatedSeries(dim, cap, {e: 1}), rho, p)
        mahler = _fraction_mahler_norm(MahlerFamily(dim, cap, forward({e: 1})), rho, p)
        assert gauss != mahler
    else:  # g = T e / cap! has M g = e, and ||g||_Gauss > ||e||_Mahler
        g = backward({e: 1})
        assert forward(g) == {e: 1}
        gauss = _fraction_gauss_norm(TruncatedSeries(dim, cap, g), rho, p)
        mahler = _fraction_mahler_norm(MahlerFamily(dim, cap, {e: 1}), rho, p)
        assert gauss > mahler
    assert (witness["gauss"], witness["mahler"]) == (gauss, mahler)


def _oracle_violations(dim, cap, rho, p, fault):
    """(broken, violations) of the shape at rho as the Fraction oracles decide them under the fault, in the
    decision's order: the e that do not round-trip, and (e, side, gauss, mahler) with the backward side only if none."""
    forward, backward = _faulted_oracles(p, fault)
    broken = [e for e in indices_up_to(dim, cap) if backward(forward({e: 1})) != {e: 1}]
    found = []
    for e in indices_up_to(dim, cap):
        gauss = _fraction_gauss_norm(TruncatedSeries(dim, cap, {e: 1}), rho, p)
        mahler = _fraction_mahler_norm(MahlerFamily(dim, cap, forward({e: 1})), rho, p)
        if gauss != mahler:
            found.append((e, "forward", gauss, mahler))
        gauss = _fraction_gauss_norm(TruncatedSeries(dim, cap, backward({e: 1})), rho, p)
        mahler = _fraction_mahler_norm(MahlerFamily(dim, cap, {e: 1}), rho, p)
        if not broken and gauss > mahler:
            found.append((e, "backward", gauss, mahler))
    return broken, found


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    p=st.sampled_from([2, 3, 5, 7]),
    dim=st.integers(1, 2),
    cap=st.integers(0, 8),
    kind=st.sampled_from(sorted(_FAULTS)),
)
def test_every_decided_violation_is_a_counterexample_the_fraction_oracles_rederive(data, p, dim, cap, kind):
    rho = data.draw(st.lists(st.builds(Fraction, st.integers(1, 12), st.integers(1, 12)), min_size=dim, max_size=dim))
    fault = _row_fault(data.draw(st.sampled_from(indices_up_to(dim, cap)))) if kind == "row" else _FAULTS[kind]
    nums = {}
    for _ in range(data.draw(st.integers(1, 4))):
        index = data.draw(st.sampled_from(indices_up_to(dim, cap)))
        nums[index] = data.draw(st.integers(-(p**3), p**3).filter(bool)) * p ** data.draw(st.integers(0, 2))
    f = TruncatedSeries.from_numerators(dim, cap, nums, data.draw(st.sampled_from([1, p, p * p, 6])))
    check = NormIdentity(rho, p)
    with _faulted_rows(p, fault):
        images, broken = basis_images(dim, cap)
        found = check.violations(images, inverse=not broken)
        norm, round_trip = _trial(check, f)
    assert (broken, found) == _oracle_violations(dim, cap, rho, p, fault)
    for e, side, gauss, mahler in found:
        witness = {"dim": dim, "cap": cap, "rho": rho, "index": e, "side": side, "gauss": gauss, "mahler": mahler}
        _assert_witness_rederives(witness, p, fault)
    # every fault is found, and a polynomial the trial finds wrong is covered: a norm only where the inverse is
    assert bool(found or broken) == (kind != "none")
    assert round_trip or broken
    assert norm is None or found or broken


@pytest.mark.parametrize("kind", sorted(_FAULTS))
@pytest.mark.parametrize("p", [3, 5])
def test_the_suites_witnesses_rederive_and_its_verdicts_are_the_sampled_suites(p, kind):
    # the suite's records against the Fraction oracles, and against the sampled suite's on its 1,000 seed-7 draws,
    # each decided by _trial; under M over 3 at p = 3 every image has Fraction weights, and the sups read ints only
    G, fault = builtin_heisenberg(p), _FAULTS[kind]
    with _faulted_rows(p, fault):
        norm, round_trip = suite_mahler(G, trials=1000, seed=7)
        sampled = _sampled_records(G, 1000, 7)
    assert [norm.verdict, round_trip.verdict] == [rec.verdict for rec in sampled]
    shapes, radii = MAHLER_GRID
    broken, found = [], []
    for dim, cap in shapes:
        broken += [{"dim": dim, "cap": cap, "index": e} for e in _oracle_violations(dim, cap, (1,) * dim, p, fault)[0]]
        for r in radii:
            for e, side, gauss, mahler in _oracle_violations(dim, cap, (r,) * dim, p, fault)[1]:
                found.append({"dim": dim, "cap": cap, "rho": (r,) * dim, "index": e, "side": side})
                found[-1].update(gauss=gauss, mahler=mahler)
    assert round_trip.witness == ({"violations": broken[:3]} if broken else None)
    assert norm.witness == ({"violations": found[:3]} if found else None)
    assert norm.verdict == ("fail" if found else "inconclusive" if broken else "pass")
    for witness in found[:3] + broken[:3]:
        _assert_witness_rederives(witness, p, fault)


def test_convert_handles_degree_600_both_ways(tmp_path):
    # each Stirling and falling-factorial row is built in a loop: degree 500 overflowed the recursion that filled
    # the cached triangles
    from sympy.functions.combinatorial.numbers import stirling

    def convert(direction, terms):
        source, out = tmp_path / "in.json", tmp_path / "out.json"
        source.write_text(json.dumps({"dim": 1, "cap": 600, "terms": terms}))
        assert main(["convert", "--direction", direction, "--in", str(source), "--out", str(out)]) == 0
        return {r["index"][0]: Fraction(r["coeff"]) for r in json.loads(out.read_text())["terms"]}

    top = [{"index": [600], "coeff": 1}]
    family, series = convert("taylor-to-mahler", top), convert("mahler-to-taylor", top)
    # 600! binom(X, 600) = X(X - 1)...(X - 599) back to the binomial basis: one dense row per degree
    assert convert("taylor-to-mahler", [{"index": [k], "coeff": str(c)} for k, c in series.items()]) == {600: 1}
    for k in (0, 1, 2, 299, 300, 599, 600):  # X^600 = sum_k k! S(600, k) binom(X, k), and its inverse
        assert family.get(k, 0) == math.factorial(k) * int(stirling(600, k, kind=2))
        assert series.get(k, 0) == Fraction(int(stirling(600, k, kind=1, signed=True)), math.factorial(600))

import hashlib
import io
import json
import math
import random
import re
import tokenize
from fractions import Fraction
from itertools import count, product

import pytest
from hypothesis import given, settings, strategies as st

from daggerdist import cli as cli_module, distributions as dist_module, groups as groups_module, padic as padic_module
from daggerdist.distributions import (
    Distribution,
    InsufficientCap,
    check_banach_submult_N,
    check_comparison_maps,
    check_contact_embedding,
    check_norm_tower,
    check_sandwich,
    check_submultiplicative,
    convolve,
    dagger_norm,
    dagger_seminorm,
    random_dcoeff_distribution,
    st_norm,
    st_norm_prime,
)
from daggerdist.cli import run_suites
from daggerdist.groups import (
    PValuedGroup,
    builtin_abelian,
    builtin_heisenberg,
    check_formal_group_axioms,
    check_model_consistency,
    group_to_config,
    load_group,
)
from daggerdist.mahler import taylor_to_mahler
from daggerdist.padic import (
    LogMag,
    binom_value,
    grlex_key,
    indices_up_to,
    int_valuation,
    mahler_row,
    multi_binom_value,
    multi_factorial,
    multi_factorial_valuation,
    stirling_second,
    taylor_row,
    valuation,
    weight_table,
)
from daggerdist.report import FAIL, LOWER_BOUND_PASS, PASS, REGIME_UNMET, CheckRecord, Report, emit_json, record
from daggerdist.series import Coefficients, DimensionMismatch, TruncatedSeries
from test_padic import _dict_sup_num, _magnitude

H3 = builtin_heisenberg(3)
A32 = builtin_abelian(3, 2)


def gather(row, nums, indices):
    """out_i = sum over (k, w) in row(i) of w * nums[k] for each i, absent k read as 0: the basis-row read as a loop."""
    out = []
    for i in indices:
        acc = 0
        for k, w in row(i):
            n = nums.get(k)
            if n:
                acc += w * n
        out.append(acc)
    return out


def basis_moment(beta, alpha):
    """Moment of the basis monomial b^alpha at Z^beta, prod s(beta_i, alpha_i) * alpha!, through the basis rows."""
    if len(beta) != len(alpha):
        raise ValueError("length mismatch")
    return gather(mahler_row, {tuple(alpha): 1}, [tuple(beta)])[0]


def b_monomial(G, alpha, cap):
    """The distribution whose only basis coefficient is d_alpha = 1."""
    alpha = tuple(int(a) for a in alpha)
    if sum(alpha) > cap:
        raise ValueError(f"|alpha|={sum(alpha)} exceeds cap {cap}")
    return Distribution.from_dcoeffs(G, {alpha: Fraction(1)}, cap)


def test_dirac_moments_and_dcoeffs():
    lam = Distribution.dirac(H3, [3, 6, 9], 3)
    assert lam.moment((1, 0, 0)) == 3
    assert lam.moment((1, 1, 1)) == 3 * 6 * 9
    assert lam.moment((0, 0, 5)) == 9**5  # beyond cap, via the stored point
    # d_alpha = binom(x, alpha)
    assert lam.dcoeffs[(2, 0, 0)] == 3
    assert lam.dcoeffs[(0, 2, 1)] == 15 * 9


def test_triangular_solve_recovers_dirac_dcoeffs():
    lam = Distribution.dirac(H3, [2, 5, 7], 4)
    from_moments = Distribution(H3, 4, lam.moments)
    assert from_moments.ensure_dcoeffs().terms == {
        a: v for a, v in lam.dcoeffs.items() if sum(a) <= 4
    }


def test_basis_moment_values():
    # moment of b^(2) at Z^3 in one variable: s(3,2) * 2! = 3 * 2 = 6
    assert basis_moment((3,), (2,)) == 6
    assert basis_moment((1,), (2,)) == 0


def test_b_monomial_and_from_dcoeffs():
    lam = b_monomial(A32, (1, 1), 4)
    assert lam.dcoeffs == {(1, 1): 1}
    assert lam.moment((1, 1)) == 1
    assert lam.moment((2, 1)) == basis_moment((2,), (1,))
    with pytest.raises(ValueError):
        b_monomial(A32, (3, 3), 4)


def test_truncated_moment_raises_beyond_cap():
    lam = Distribution(H3, 2, {(1, 0, 0): Fraction(1)})
    with pytest.raises(InsufficientCap):
        lam.moment((3, 0, 0))


def test_a_malformed_moment_index_raises():
    # within the cap and beyond it, for a Dirac and for a truncated moment table, as a series' index check raises
    for lam in (Distribution.dirac(H3, [1, 2, 3], 4), Distribution(H3, 2, {(1, 0, 0): Fraction(1)})):
        for beta in [(1,), (9,), (1, 0, 0, 0), (0, 0, 0, 9)]:
            with pytest.raises(DimensionMismatch, match="length"):
                lam.moment(beta)
        for beta in [(-1, 2, 0), (0, 0, -1)]:
            with pytest.raises(ValueError, match="negative"):
                lam.moment(beta)
    assert Distribution.dirac(H3, [1, 2, 3], 4).moment([1, 2, 0]) == 4
    # a non-integral entry raises, where int() read (0.5, 1.7, 0) as (0, 1, 0)
    with pytest.raises(ValueError, match="integer"):
        Distribution.dirac(H3, [1, 2, 3], 4).moment((0.5, 1.7, 0))
    assert Distribution.dirac(H3, [1, 2, 3], 4).moment((1.0, 2, 0)) == 4


def test_convolution_matches_group_multiplication():
    x, y = [3, 0, 9], [6, 3, 0]
    conv = convolve(H3, Distribution.dirac(H3, x, 4), Distribution.dirac(H3, y, 4), cap_out=4)
    expect = Distribution.dirac(H3, H3.multiply(x, y), 4)
    assert conv.moments == expect.moments
    assert conv.point == H3.multiply(x, y)


def test_convolution_opposite_flag():
    x, y = [1, 0, 0], [0, 1, 0]
    conv = convolve(H3, Distribution.dirac(H3, x, 3), Distribution.dirac(H3, y, 3), cap_out=3, opposite=True)
    expect = Distribution.dirac(H3, H3.multiply(y, x), 3)
    assert conv.moments == expect.moments


def test_convolution_truncated_precondition():
    lam = Distribution(H3, 3, {(1, 0, 0): Fraction(1)})
    mu = Distribution(H3, 3, {(0, 1, 0): Fraction(1)})
    with pytest.raises(InsufficientCap):
        convolve(H3, lam, mu, cap_out=3)  # needs moments up to degree 6
    out = convolve(H3, lam, mu, cap_out=1)
    assert out.cap == 1


def test_norm_families_frozen_values():
    # lam = 3 * b^(1,1,0) on Heisenberg(3): d = {(1,1,0): 3}, v(d) = 1, |alpha| = 2
    lam = Distribution.from_dcoeffs(H3, {(1, 1, 0): Fraction(3)}, 4)
    half = Fraction(1, 2)
    # ||.||_s: -v(d) - sigma * sum omega_i alpha_i = -1 - 1/2 * 2 = -2
    assert st_norm(lam, half).mag == LogMag(-2)
    assert st_norm_prime(lam, half).mag == LogMag(-2)
    # alpha! = 1, so the dagger seminorm agrees here
    assert dagger_seminorm(lam, half).mag == LogMag(-2)
    # ||.||_N at N=1: tau = 1/4 each: -1 - 2/4 = -3/2
    assert dagger_norm(lam, 1).mag == LogMag(Fraction(-3, 2))
    # factorial weight shows up for higher alpha
    mu = Distribution.from_dcoeffs(H3, {(0, 0, 4): Fraction(1)}, 4)
    # v(4!) at p=3 is 1: dagger seminorm exponent = -1 - 4 * 1/2 = -3
    assert dagger_seminorm(mu, half).mag == LogMag(-3)
    assert st_norm(mu, half).mag == LogMag(-2)


def test_norm_exactness_flag():
    lam = Distribution.dirac(H3, [3, 0, 0], 3)
    assert st_norm(lam, Fraction(1, 2)).is_exact
    trunc = Distribution(H3, 3, lam.moments)
    assert not st_norm(trunc, Fraction(1, 2)).is_exact


def test_submultiplicative_check():
    for sigma in (Fraction(1, 2), Fraction(1)):
        recs = check_submultiplicative(H3, sigma, trials=20, seed=1, cap=3)
        assert recs[0].verdict == "lower-bound-pass"
    assert check_submultiplicative(H3, Fraction(3, 2), trials=1, seed=1)[0].verdict == "regime-unmet"


def test_banach_submult_check():
    for N in (1, 4):
        recs = check_banach_submult_N(H3, N, trials=20, seed=2, cap=3)
        assert recs[0].verdict == "lower-bound-pass"


def test_tower_monotone():
    rng = random.Random(12)
    lams = [random_dcoeff_distribution(H3, rng, cap=6) for _ in range(5)]
    lams.append(Distribution.dirac(H3, [3, 9, 27], 6))
    recs = check_norm_tower(lams, max_N=8)
    assert recs[0].verdict == "pass"


def test_sandwich():
    rng = random.Random(13)
    lam = random_dcoeff_distribution(A32, rng, cap=6)
    for sigma in (Fraction(1, 4), Fraction(1)):
        assert check_sandwich(lam, sigma)[0].verdict == "pass"


def test_contact_embedding_regimes():
    lam = Distribution.from_dcoeffs(H3, {(1, 0, 0): Fraction(1), (0, 0, 2): Fraction(3)}, 4)
    # sigma * min(omega) must exceed 1/(p-1) = 1/2
    assert check_contact_embedding(lam, Fraction(1, 4))[0].verdict == "regime-unmet"
    assert check_contact_embedding(lam, Fraction(3, 4))[0].verdict == "pass"


def test_comparison_maps_directions():
    lam = Distribution.dirac(H3, [3, 6, 9], 4)
    # N=4, sigma=1: tau = 1/10 < 1 - 1/2 -> contraction regime holds
    recs = {r.check_id: r for r in check_comparison_maps(H3, 4, Fraction(1), lam)}
    assert recs["embeddings/comparison-contraction"].verdict == "pass"
    assert recs["embeddings/comparison-continuity"].verdict == "regime-unmet"
    # N=1, sigma=1/4: sigma < tau + 1/2 = 3/4 -> continuity regime holds
    recs = {r.check_id: r for r in check_comparison_maps(H3, 1, Fraction(1, 4), lam)}
    assert recs["embeddings/comparison-continuity"].verdict == "pass"
    assert recs["embeddings/comparison-contraction"].verdict == "regime-unmet"
    assert recs["embeddings/comparison-continuity"].params["poly_factor_exponent"] == 1


# -- integer construction against the Fraction formulas --------------------

# Z_3 points: non-negative and negative integers, and rationals prime to 3
zp_coords = st.one_of(
    st.integers(0, 3**8),
    st.integers(-(3**8), -1),
    st.builds(Fraction, st.integers(-(10**4), 10**4), st.sampled_from([2, 4, 5, 7, 10])),
)


def _all_indices(d, cap):
    return [b for b in product(range(cap + 1), repeat=d) if sum(b) <= cap]


@settings(deadline=None, max_examples=60)
@given(st.lists(zp_coords, min_size=3, max_size=3), st.integers(0, 8))
def test_dirac_matches_fraction_formula(point, cap):
    lam = Distribution.dirac(H3, point, cap)
    x = tuple(Fraction(c) for c in point)
    moments, dcoeffs = {}, {}
    for beta in _all_indices(3, cap):
        mu = Fraction(1)
        for c, b in zip(x, beta):
            mu *= c**b
        moments[beta] = mu
        dcoeffs[beta] = multi_binom_value(x, beta)
    assert lam.moments == {b: v for b, v in moments.items() if v != 0}
    assert lam.dcoeffs == {b: v for b, v in dcoeffs.items() if v != 0}


def _basis_moment_reference(beta, alpha):
    if not all(a <= b for a, b in zip(alpha, beta)):
        return 0
    out = 1
    for b, a in zip(beta, alpha):
        out *= stirling_second(b, a) * math.factorial(a)
    return out


dcoeff_maps = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    st.builds(Fraction, st.integers(-(3**4), 3**4), st.sampled_from([1, 3, 9, 2, 6])),
    max_size=5,
)


@settings(deadline=None, max_examples=60)
@given(dcoeff_maps, st.integers(0, 8))
def test_from_dcoeffs_matches_basis_moment_sum(dcoeffs, cap):
    lam = Distribution.from_dcoeffs(H3, dcoeffs, cap)
    expect = {}
    for beta in _all_indices(3, cap):
        mu = sum((d * _basis_moment_reference(beta, a) for a, d in dcoeffs.items()), Fraction(0))
        if mu != 0:
            expect[beta] = mu
    assert lam.moments == expect
    assert basis_moment((3, 1, 2), (2, 1, 0)) == _basis_moment_reference((3, 1, 2), (2, 1, 0))
    # the moments determine the coefficients of degree <= cap
    solved = Distribution(H3, cap, lam.moments).ensure_dcoeffs().terms
    assert solved == {a: d for a, d in dcoeffs.items() if d != 0 and sum(a) <= cap}


@settings(deadline=None, max_examples=40)
@given(st.lists(zp_coords, min_size=3, max_size=3), st.sampled_from([0, 3, 8]))
def test_dirac_norms_are_one_at_zp_points(point, cap):
    # |binom(x, alpha)|_p <= 1 with equality at alpha = 0, which certifies exact=True
    lam = Distribution.dirac(H3, point, cap)
    for norm in (
        dagger_norm(lam, 1),
        dagger_norm(lam, 8),
        st_norm(lam, Fraction(1, 4)),
        st_norm_prime(lam, Fraction(1)),
        dagger_seminorm(lam, Fraction(1, 2)),
    ):
        assert norm.is_exact and norm.mag == LogMag(0)


def test_truncated_norm_rejected_on_large_side(monkeypatch):
    def truncated(G, rng, cap, **kwargs):
        lam = random_dcoeff_distribution(G, rng, cap, **kwargs)
        return Distribution(G, lam.cap, lam.moments)

    monkeypatch.setattr(dist_module, "random_dcoeff_distribution", truncated)
    with pytest.raises(ValueError, match="large side"):
        check_submultiplicative(H3, Fraction(1, 2), trials=1, cap=2)
    with pytest.raises(ValueError, match="large side"):
        check_banach_submult_N(H3, 1, trials=2, cap=2)


@pytest.mark.parametrize("shift", [100, -100])
def test_embedding_checks_fail_with_witnesses_on_a_broken_factorial(monkeypatch, shift):
    # v(alpha!) replaced by shift * |alpha|: +100 breaks the two checks that carry it on the
    # large side, -100 breaks the one that carries it on the small side
    def broken(alpha):
        return Fraction(shift * sum(alpha))

    monkeypatch.setattr(padic_module, "multi_factorial_valuation", lambda alpha, p: broken(alpha))
    # a new group and uncached tables: no table built before the fault is read, none built under it is kept
    monkeypatch.setattr(dist_module, "weight_table", padic_module.WeightTable)
    G = builtin_heisenberg(3)
    dcoeffs = {(1, 0, 0): Fraction(1, 3), (0, 2, 1): Fraction(9)}
    lam = Distribution.from_dcoeffs(G, dcoeffs, 4)
    found = {
        "contact": check_contact_embedding(lam, Fraction(3, 4))[0],
        "contraction": check_comparison_maps(G, 4, Fraction(1), lam)[0],
        "continuity": check_comparison_maps(G, 1, Fraction(1, 4), lam)[1],
    }
    # p = 3, omega = 1, 1/(p-1) = 1/2; the exponents as the checks state them
    expected = {"contact": {}, "contraction": {}, "continuity": {}}
    for alpha, d in dcoeffs.items():
        nv, n, f = -valuation(d, 3), sum(alpha), broken(alpha)
        damping = -Fraction(3, 4) + Fraction(1, 2)
        expected["contact"][alpha] = (nv - Fraction(3, 4) * n, nv - f + damping * n)
        tau = Fraction(1, 2) / 5
        expected["contraction"][alpha] = (nv - n, nv - f - tau * n)
        tau, regime = Fraction(1, 4), Fraction(1, 4) - Fraction(1, 4) - Fraction(1, 2)
        expected["continuity"][alpha] = (nv - f - tau * n, nv - Fraction(1, 4) * n + regime * n)
    failing = {"contact", "contraction"} if shift > 0 else {"continuity"}
    for name, rec in found.items():
        if name not in failing:
            assert rec.verdict == "pass"
            continue
        assert rec.verdict == "fail"
        for v in rec.witness["violations"]:
            lhs, rhs = expected[name][tuple(v["alpha"])]
            assert (v["lhs"], v["rhs"]) == (LogMag(lhs), LogMag(rhs))
        assert len(rec.witness["violations"]) == len(dcoeffs)


# -- convolution plan against the per-term loop -----------------------------


def _heisenberg_half():
    # the Heisenberg law with quadratic coefficient -3/2 in place of -p, from a JSON config:
    # F_3 = X_3 + Y_3 - 3/2 X_2 Y_1 and I_3 = -x3 - 3/2 x1 x2, with no coordinate model
    cfg = group_to_config(builtin_heisenberg(3))
    for rec in cfg["F"][2] + cfg["I"][2]:
        if Fraction(rec["coeff"]) == -3:
            rec["coeff"] = "-3/2"
    cfg.pop("model")
    cfg["name"] = "heisenberg-half"
    return load_group(json.dumps(cfg))


H_HALF = _heisenberg_half()
CONV_GROUPS = [H3, builtin_heisenberg(5), builtin_heisenberg(7), A32, builtin_abelian(5, 3), H_HALF]


def test_half_heisenberg_config_loads_and_passes():
    assert H_HALF.model is None
    assert H_HALF.I[2].terms == {(0, 0, 1): -1, (1, 1, 0): Fraction(-3, 2)}
    rep = run_suites(
        H_HALF, ["convolution", "norms"], n_range=[1, 2], sigmas=[Fraction(1, 2)], cap=4, trials=6, seed=1
    )
    assert rep.records and not rep.failed


def test_the_model_check_adds_no_record_without_a_model():
    # H_HALF has no coordinate model, so the group-axioms suite is the formal axioms alone
    assert check_model_consistency(H_HALF) == []
    rep = run_suites(H_HALF, ["group-axioms"], n_range=[1], sigmas=[Fraction(1, 2)], cap=2, trials=3, seed=0)
    assert rep.records == check_formal_group_axioms(H_HALF)


def _f_monomial_power_product(G, gamma, cap):
    """f_monomial as it was: the product over i of the powers F_i^k, each a chain of factors F_i truncated at cap."""
    out = TruncatedSeries.constant(1, 2 * G.d, cap)
    for i, k in enumerate(gamma):
        if k:
            power = G.F[i].with_cap(cap)
            for _ in range(k - 1):
                power = power * G.F[i].with_cap(cap)
            out = out * power
    return out


@pytest.mark.parametrize("G", [H3, builtin_heisenberg(5), A32, builtin_abelian(2, 3), H_HALF], ids=lambda G: G.name)
def test_f_monomial_matches_the_power_product(G):
    for gamma in _all_indices(G.d, 4):
        for cap in range(G.degmax() * sum(gamma) + 2):
            got, want = G.f_monomial(gamma, cap), _f_monomial_power_product(G, gamma, cap)
            assert (got.terms, got.exact, got.cap) == (want.terms, want.exact, want.cap)


def _convolve_per_term(G, lam, mu, cap_out, opposite=False):
    """convolve as a loop over the terms of each F^gamma, reading every moment through moment()."""
    if opposite:
        return _convolve_per_term(G, mu, lam, cap_out=cap_out)
    degmax = G.degmax()
    for side in (lam, mu):
        if not side.exact and side.cap < degmax * cap_out:
            raise InsufficientCap("truncated input below degmax * cap_out")
    d = G.d
    moments = {}
    for gamma in _all_indices(d, cap_out):
        fg = G.f_monomial(gamma, cap=max(degmax * sum(gamma), 1))
        acc = Fraction(0)
        for idx, c in fg.terms.items():
            m1 = lam.moment(idx[:d])
            if m1 == 0:
                continue
            m2 = mu.moment(idx[d:])
            if m2 == 0:
                continue
            acc += c * m1 * m2
        if acc != 0:
            moments[gamma] = acc
    point = None
    if lam.point is not None and mu.point is not None:
        point = G.multiply(lam.point, mu.point)
    return Distribution(G, cap_out, moments, point=point)


@st.composite
def conv_inputs(draw, G, needed):
    """A recipe for one convolution input: a Dirac, a basis combination, or a truncated copy of either."""
    p = G.p
    kind = draw(st.sampled_from(["dirac", "dcoeffs", "truncated-dirac", "truncated-dcoeffs"]))
    if kind.endswith("dirac"):
        coord = st.one_of(
            st.integers(-(p**4), p**4), st.builds(Fraction, st.integers(-(p**3), p**3), st.just(2))
        )
        data = draw(st.lists(coord, min_size=G.d, max_size=G.d))
    else:
        index = st.tuples(*[st.integers(0, 3)] * G.d).filter(lambda a: sum(a) <= 3)
        coeff = st.builds(Fraction, st.integers(-(p**3), p**3), st.sampled_from([1, 2, p, p * p]))
        data = draw(st.dictionaries(index, coeff, max_size=4))
    if kind.startswith("truncated"):
        # one below the needed cap is too small, and must raise InsufficientCap
        cap = draw(st.integers(max(needed - 1, 0), needed + 1))
    else:
        # exact inputs are also read beyond their cap
        cap = draw(st.integers(0, 4))
    filled = draw(st.booleans())
    return kind, data, cap, filled


def _build_input(G, recipe):
    kind, data, cap, filled = recipe
    if kind.endswith("dirac"):
        lam = Distribution.dirac(G, data, cap)
    else:
        lam = Distribution.from_dcoeffs(G, data, cap)
    if kind.startswith("truncated"):
        lam = Distribution(G, cap, lam.moments)
    if filled:
        lam.moments  # the lazy table is filled before the plan reads it
    return lam


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_convolve_plan_matches_per_term_loop(data):
    G = data.draw(st.sampled_from(CONV_GROUPS))
    cap_out = data.draw(st.sampled_from([0, 1, 2, 3]))
    opposite = data.draw(st.booleans())
    needed = G.degmax() * cap_out
    recipes = [data.draw(conv_inputs(G, needed)) for _ in range(2)]

    def run(conv):
        lam, mu = (_build_input(G, r) for r in recipes)
        try:
            return conv(G, lam, mu, cap_out=cap_out, opposite=opposite)
        except InsufficientCap:
            return InsufficientCap

    got, want = run(convolve), run(_convolve_per_term)
    if want is InsufficientCap:
        assert got is InsufficientCap
        return
    assert got is not InsufficientCap
    assert (got.cap, got.exact, got.point) == (want.cap, want.exact, want.point)
    assert got.moments == want.moments


# -- the pairing with polynomial functions on the chart ----------------------


def _pair(lam, f):
    """<lam, f> = sum_beta c_beta lam(Z^beta) for an exact polynomial f on the chart."""
    return sum((c * lam.moment(beta) for beta, c in f.terms.items()), Fraction(0))


def _comul(f, G, cap):
    """f(F(X, Y)) in 2d variables: f pulled back along the group law."""
    return f.substitute([Fi.with_cap(cap) for Fi in G.F], cap=cap)


def test_pair_convolution_vs_comul():
    # convolution is the transpose of comultiplication: <lam * mu, f> = <lam x mu, f(F(X, Y))>,
    # which on Diracs is f at the product of the two points
    f = TruncatedSeries(3, 2, {(1, 0, 1): 1, (0, 1, 0): 2})
    comul = _comul(f, H3, 4)
    assert comul.exact

    def pair_product(lam, mu):
        return sum((c * lam.moment(i[:3]) * mu.moment(i[3:]) for i, c in comul.terms.items()), Fraction(0))

    x, y = [3, 0, 6], [0, 9, 3]
    dx, dy = Distribution.dirac(H3, x, 4), Distribution.dirac(H3, y, 4)
    assert _pair(dx, f) == f.evaluate(x)
    assert _pair(convolve(H3, dx, dy, cap_out=4), f) == pair_product(dx, dy) == f.evaluate(H3.multiply(x, y))
    rng = random.Random(4)
    for _ in range(5):
        lam, mu = (random_dcoeff_distribution(H3, rng, cap=4) for _ in range(2))
        assert _pair(convolve(H3, lam, mu, cap_out=2), f) == pair_product(lam, mu)


def test_comul_evaluates_to_product():
    f = TruncatedSeries(3, 2, {(1, 0, 1): 1, (0, 1, 0): 2})
    two = _comul(f, H3, 4)
    rng = random.Random(4)
    for _ in range(10):
        x = [Fraction(3 * rng.randrange(27)) for _ in range(3)]
        y = [Fraction(3 * rng.randrange(27)) for _ in range(3)]
        assert two.evaluate(x + y) == f.evaluate(H3.multiply(x, y))


def test_comul_counit():
    # setting the second block to the identity recovers f: F(X, 0) = X
    f = TruncatedSeries(3, 2, {(1, 0, 1): 1, (0, 1, 0): 2})
    two = _comul(f, H3, 4)
    first = [TruncatedSeries.variable(i, 3, two.cap) for i in range(3)]
    restricted = two.substitute(first + [TruncatedSeries.zero(3, two.cap)] * 3, cap=two.cap)
    assert restricted == f.with_cap(restricted.cap)


def test_inv_pullback():
    # f(I(X)) is f composed with the inverse, and pulling back twice gives f again
    f = TruncatedSeries(3, 2, {(1, 0, 1): 1, (0, 1, 0): 2})

    def inv_pullback(g, cap=4):
        return g.substitute([Ii.with_cap(cap) for Ii in H3.I], cap=cap)

    g = inv_pullback(f)
    for x in ([1, 1, 0], [3, 0, 9], [0, 2, 5]):
        assert g.evaluate(x) == f.evaluate(H3.invert(x))
    assert inv_pullback(g).evaluate([1, 2, 3]) == f.evaluate([1, 2, 3])


@st.composite
def _pairing_cases(draw):
    """A Dirac or a basis combination at cap >= deg f, and a polynomial f on the same chart."""
    G = draw(st.sampled_from([H3, builtin_abelian(5, 2), builtin_abelian(2, 3)]))
    deg = draw(st.integers(0, 4))
    cap = draw(st.integers(deg, deg + 2))

    def indices(top):
        index = st.lists(st.integers(0, top), min_size=G.d, max_size=G.d).map(tuple)
        return index.filter(lambda i: sum(i) <= top)

    coeff = st.builds(Fraction, st.integers(-(G.p**3), G.p**3), st.sampled_from([1, G.p, G.p**2]))
    f = TruncatedSeries(G.d, deg, draw(st.dictionaries(indices(deg), coeff, max_size=4)))
    if draw(st.booleans()):
        x = draw(st.lists(st.integers(-(G.p**4), G.p**4), min_size=G.d, max_size=G.d))
        return Distribution.dirac(G, x, cap), f
    return Distribution.from_dcoeffs(G, draw(st.dictionaries(indices(cap), coeff, max_size=4)), cap), f


@settings(max_examples=120, deadline=None)
@given(case=_pairing_cases())
def test_pairing_is_the_mahler_coefficients_against_the_basis_coefficients(case):
    # <lam, f> = sum_alpha m_alpha(f) d_alpha(lam): the two basis changes are transposes
    lam, f = case
    dcoeffs = lam.ensure_dcoeffs().terms
    m = taylor_to_mahler(f).coeffs
    assert _pair(lam, f) == sum((c * dcoeffs.get(alpha, 0) for alpha, c in m.items()), Fraction(0))


# -- moments derived on demand ---------------------------------------------


def _eager_moment(dcoeffs, beta):
    return sum((d * _basis_moment_reference(beta, a) for a, d in dcoeffs.items()), Fraction(0))


@settings(deadline=None, max_examples=40)
@given(dcoeff_maps, st.integers(0, 6))
def test_lazy_moments_match_eager_formula(dcoeffs, cap):
    expect = {beta: _eager_moment(dcoeffs, beta) for beta in _all_indices(3, cap + 2)}
    inside = {b: v for b, v in expect.items() if sum(b) <= cap and v != 0}
    beyond = [b for b in expect if sum(b) > cap]
    f = TruncatedSeries(3, cap + 2, {b: 1 + sum(b) for b in expect})

    def fresh():
        return Distribution.from_dcoeffs(H3, dcoeffs, cap)

    def filled():
        lam = fresh()
        lam.moments
        return lam

    for make in (fresh, filled):
        assert make().moments == inside
        lam = make()
        assert [lam.moment(b) for b in beyond] == [expect[b] for b in beyond]
        assert all(lam.moment(b) == v for b, v in expect.items())
        assert make() == Distribution(H3, cap, inside)
        assert Distribution(H3, cap, inside) == make()
        assert make().total_mass() == expect[(0, 0, 0)]
        solved = Distribution(H3, cap, make().moments).ensure_dcoeffs().terms
        assert solved == {a: d for a, d in dcoeffs.items() if d != 0 and sum(a) <= cap}
        assert _pair(make(), f) == sum(c * expect[b] for b, c in f.terms.items())


def test_lazy_moment_table_is_built_at_most_once(monkeypatch):
    cap = 5
    full = set(_all_indices(3, cap))
    builds = []
    moment_kernel = dist_module._moment_kernel

    def counting(d, top):
        # the compiled Mahler-row gather over indices_up_to(d, top), which builds the table
        kernel = moment_kernel(d, top)

        def counted(nums):
            if set(indices_up_to(d, top)) == full:
                builds.append(len(indices_up_to(d, top)))
            return kernel(nums)

        return counted

    monkeypatch.setattr(dist_module, "_moment_kernel", counting)
    lam = Distribution.from_dcoeffs(H3, {(1, 0, 0): Fraction(1, 3), (0, 2, 1): 9}, cap)
    dirac = Distribution.dirac(H3, [3, 6, 9], cap)
    # neither construction, a read beyond the cap nor the convolution plan fills the table
    lam.moment((0, 0, cap + 1))
    convolve(H3, lam, dirac, cap_out=2)
    convolve(H3, dirac, lam, cap_out=2)
    assert builds == []
    lam.moments
    lam.moment((1, 0, 0))
    assert lam == Distribution(H3, cap, lam.moments)
    lam.total_mass()
    Distribution(H3, cap, lam.moments).ensure_dcoeffs()
    _pair(lam, TruncatedSeries(3, 2, {(1, 0, 1): 1, (0, 1, 0): 2}))
    convolve(H3, lam, dirac, cap_out=2)
    assert builds == [len(full)]


# -- tensor-built Diracs, valuation tables and comparison plans against the per-index code ----

ORACLE_GROUPS = [H3, builtin_heisenberg(5), builtin_abelian(2, 3), H_HALF]


def zp_points(G):
    """Points of Z_p^d: non-negative, negative and zero ints, and fractions with denominators prime to p."""
    p = G.p
    dens = [q for q in (2, 3, 4, 5, 7, 9) if q % p]
    coord = st.one_of(
        st.integers(0, p**6),
        st.integers(-(p**6), -1),
        st.just(0),
        st.builds(Fraction, st.integers(-(p**4), p**4), st.sampled_from(dens)),
    )
    return st.lists(coord, min_size=G.d, max_size=G.d)


def _dirac_per_index(G, x, cap):
    """Distribution.dirac as it was before the tensor kernel: one product loop per index, through __init__."""
    x = G.check_point(x)
    coords = [c.numerator if c.denominator == 1 else c for c in x]
    powers = [[c**k for k in range(cap + 1)] for c in coords]
    binoms = [[binom_value(c, k) for k in range(cap + 1)] for c in coords]
    moments, dcoeffs = {}, {}
    for beta in indices_up_to(G.d, cap):
        mu = dv = 1
        for pw, bn, b in zip(powers, binoms, beta):
            mu *= pw[b]
            dv *= bn[b]
        if mu:
            moments[beta] = mu
        if dv:
            dcoeffs[beta] = dv
    return Distribution(G, cap, moments, dcoeffs, point=x)


@settings(deadline=None, max_examples=120)
@given(st.data())
def test_tensor_dirac_matches_the_per_index_loop(data):
    G = data.draw(st.sampled_from(ORACLE_GROUPS))
    x = data.draw(zp_points(G))
    cap = data.draw(st.integers(0, 8))
    got, want = Distribution.dirac(G, x, cap), _dirac_per_index(G, x, cap)
    # the same values in the same (grlex) key order: witnesses serialize dcoeffs in that order
    assert list(got.moments.items()) == list(want.moments.items())
    assert list(got.dcoeffs.items()) == list(want.dcoeffs.items())
    # the point as check_point gives it: ints at integer coordinates, Fractions elsewhere
    assert got.point == want.point == G.check_point(x)
    assert [type(c) for c in got.point] == [int if Fraction(c).denominator == 1 else Fraction for c in x]
    assert (got.group, got.cap, got.exact) == (want.group, want.cap, want.exact)
    assert [got.moment(b) for b in indices_up_to(G.d, cap + 2)] == [want.moment(b) for b in indices_up_to(G.d, cap + 2)]
    # the valuation table against one valuation per coefficient
    expect = [(a, valuation(c, G.p)) for a, c in want.dcoeffs.items()]
    assert list(got.valuations().items()) == expect
    assert list(want.valuations().items()) == expect
    assert got.valuations() is got.valuations()


@pytest.mark.parametrize("G", ORACLE_GROUPS, ids=lambda G: G.name)
def test_dirac_valuations_are_the_per_coordinate_sums(G):
    # v_p(binom(x, beta)) = sum_i v_p(binom(x_i, beta_i)), a zero factor dropping beta: the identity the
    # per-coordinate valuation path computed, read here from the one path over the basis numerators
    rng = random.Random(f"valuation-sums:{G.name}")
    p = G.p
    den = next(q for q in (2, 3, 5) if q % p)
    for t in range(12):
        x = [rng.randrange(-(p**6), p**6) for _ in range(G.d)]
        x[0] = -rng.randrange(1, p**6)  # a negative coordinate
        x[-1] = Fraction(rng.randrange(-(p**4), p**4), den)  # and a non-integral one
        cap = rng.randrange(0, 7)
        coordinate = [[valuation(binom_value(c, k), p) for k in range(cap + 1)] for c in x]
        expect = {}
        for beta in indices_up_to(G.d, cap):
            vs = [row[b] for row, b in zip(coordinate, beta)]
            if math.inf not in vs:
                expect[beta] = sum(vs)
        got = Distribution.dirac(G, x, cap).valuations()
        assert list(got.items()) == list(expect.items())


def test_moments_and_dcoeffs_are_read_only_views_of_the_old_values():
    x, cap = [3, -6, Fraction(9, 2)], 4
    lam = Distribution.dirac(H3, x, cap)
    old_moments = {b: math.prod(Fraction(c) ** k for c, k in zip(x, b)) for b in indices_up_to(3, cap)}
    old_dcoeffs = {b: multi_binom_value(tuple(x), b) for b in indices_up_to(3, cap)}
    assert dict(lam.moments) == {b: v for b, v in old_moments.items() if v}
    assert dict(lam.dcoeffs) == {b: v for b, v in old_dcoeffs.items() if v}
    assert all(type(v) is Fraction for v in [*lam.moments.values(), *lam.dcoeffs.values()])
    basis = Distribution.from_dcoeffs(H3, {(1, 0, 0): Fraction(1, 3), (0, 2, 1): 9}, cap)
    truncated = Distribution(H3, cap, lam.moments)
    assert truncated.dcoeffs is None  # not derived until it is asked for
    assert truncated.ensure_dcoeffs() is truncated.basis_table and truncated.dcoeffs == lam.dcoeffs
    for view in (lam.moments, lam.dcoeffs, basis.moments, basis.dcoeffs, truncated.dcoeffs):
        with pytest.raises(TypeError):
            view[(0, 0, 0)] = 5
    with pytest.raises(AttributeError):
        lam.moments = {}
    with pytest.raises(AttributeError):
        lam.dcoeffs = {}
    # the tables behind the views: int numerators over one positive denominator
    assert lam.moment_table == truncated.moment_table and lam.basis_table == truncated.basis_table
    assert basis.basis_table.den == 3 and basis.basis_table.nums == {(1, 0, 0): 1, (0, 2, 1): 27}


def _fraction_norm(lam, weights, factorial):
    """sup of -v(d_alpha) - [v(alpha!)] - sum_i w_i alpha_i over ensure_dcoeffs(), all in Fractions."""
    p = lam.group.p
    best = None
    for alpha, c in lam.ensure_dcoeffs().terms.items():
        e = -valuation(c, p) - sum(Fraction(w) * a for w, a in zip(weights, alpha))
        if factorial:
            e -= multi_factorial_valuation(alpha, p)
        best = e if best is None or e > best else best
    return LogMag.bottom() if best is None else LogMag(best)


@st.composite
def oracle_distributions(draw, G):
    """A Dirac, a basis combination, a truncated copy of either, or a convolution of two of them."""
    kind = draw(st.sampled_from(["dirac", "dcoeffs", "truncated", "product"]))
    cap = draw(st.integers(0, 8))
    if kind == "product":
        cap = draw(st.integers(0, 3))
        lam, mu = (Distribution.dirac(G, draw(zp_points(G)), G.degmax() * cap) for _ in range(2))
        return convolve(G, lam, mu, cap_out=cap)
    if kind == "dirac":
        return Distribution.dirac(G, draw(zp_points(G)), cap)
    index = st.tuples(*[st.integers(0, 3)] * G.d)
    coeff = st.builds(Fraction, st.integers(-(G.p**3), G.p**3), st.sampled_from([1, 2, G.p, G.p**2]))
    lam = Distribution.from_dcoeffs(G, draw(st.dictionaries(index, coeff, max_size=5)), cap)
    if kind == "truncated":
        lam = Distribution(G, cap, lam.moments)
    return lam


@settings(deadline=None, max_examples=120)
@given(st.data())
def test_norms_read_the_valuation_table_as_the_coefficients_would(data):
    G = data.draw(st.sampled_from(ORACLE_GROUPS))
    lam = data.draw(oracle_distributions(G))
    sigma = data.draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(3, 2)]))
    N = data.draw(st.integers(1, 8))
    pairs = [(a, valuation(c, G.p)) for a, c in lam.ensure_dcoeffs().terms.items()]
    assert list(lam.valuations().items()) == pairs
    tau = G.neighborhood_params(N).tau
    cases = [
        (st_norm(lam, sigma), [sigma * w for w in G.omega], False),
        (st_norm_prime(lam, sigma), [sigma] * G.d, False),
        (dagger_seminorm(lam, sigma), [sigma] * G.d, True),
        (dagger_norm(lam, N), tau, True),
    ]
    for got, weights, factorial in cases:
        assert got.mag == _fraction_norm(lam, weights, factorial)
        assert got.is_exact == lam.exact
        # the path before the table: one valuation per coefficient of ensure_dcoeffs(), on every call
        table = weight_table(tuple(weights), G.p if factorial else None)
        assert got.mag == _magnitude(_dict_sup_num(dict(pairs), G.p, table), table)


def _exceeds(table, other, alpha):
    """Whether table's weight at alpha is larger than other's."""
    return table[alpha] * other.den > other[alpha] * table.den


def _fraction_check_comparison_maps(G, N, sigma, lam):
    """check_comparison_maps as it was: regimes rebuilt per call, one Fraction gap per coefficient."""
    sigma = Fraction(sigma)
    eps = Fraction(1, G.p - 1)
    tau = G.neighborhood_params(N).tau
    dcoeffs = lam.ensure_dcoeffs().terms
    completion = weight_table(tuple(sigma * w for w in G.omega), None)
    level = weight_table(tuple(tau), G.p)
    records = []
    regime1 = [t - sigma * min(G.omega) + eps for t in tau]
    params1 = {"group": G.name, "N": N, "sigma": sigma, "regime_exponents": list(regime1)}
    if not all(r < 0 for r in regime1):
        records.append(
            CheckRecord(
                check_id="embeddings/comparison-contraction",
                anchor="contraction regime: each polydisc radius beats the damping",
                verdict=REGIME_UNMET,
                params=params1,
            )
        )
    else:
        bad = []
        for alpha, dv in dcoeffs.items():
            if _exceeds(level, completion, alpha):
                nv = -valuation(dv, G.p)
                lhs, rhs = nv - completion.weight(alpha), nv - level.weight(alpha)
                bad.append({"alpha": list(alpha), "lhs": LogMag(lhs), "rhs": LogMag(rhs)})
        records.append(
            record(
                "embeddings/comparison-contraction",
                "per-coefficient contraction from the level-N dual into the completion",
                params1,
                bad,
            )
        )
    regime2 = [sigma * max(G.omega) - t - eps for t in tau]
    params2 = {
        "group": G.name,
        "N": N,
        "sigma": sigma,
        "regime_exponents": list(regime2),
        "poly_factor_exponent": 1,
    }
    if not all(r < 0 for r in regime2):
        records.append(
            CheckRecord(
                check_id="embeddings/comparison-continuity",
                anchor="continuity regime: the completion radius beats each polydisc radius",
                verdict=REGIME_UNMET,
                params=params2,
            )
        )
    else:
        damped = weight_table(tuple(sigma * w - r for w, r in zip(G.omega, regime2)), None)
        bad = []
        for alpha, dv in dcoeffs.items():
            gap = Fraction(damped[alpha] * level.den - level[alpha] * damped.den, damped.den * level.den)
            factor = math.prod(G.p * a for a in alpha if a)
            if not (gap <= 0 or G.p**gap.numerator <= factor**gap.denominator):
                nv = -valuation(dv, G.p)
                lhs, rhs = LogMag(nv - level.weight(alpha)), LogMag(nv - damped.weight(alpha))
                bad.append({"alpha": list(alpha), "lhs": lhs, "rhs": rhs, "factor": factor})
        records.append(
            record(
                "embeddings/comparison-continuity",
                "per-coefficient continuity with the explicit polynomial factor",
                params2,
                bad,
            )
        )
    return records


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_comparison_plans_give_the_records_of_the_per_call_regimes(data):
    G = data.draw(st.sampled_from(ORACLE_GROUPS))
    lam = data.draw(oracle_distributions(G))
    N = data.draw(st.integers(1, 12))
    sigma = data.draw(st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(7, 8), Fraction(1)]))
    want = [r.to_dict() for r in _fraction_check_comparison_maps(G, N, sigma, lam)]
    first, second = check_comparison_maps(G, N, sigma, lam), check_comparison_maps(G, N, sigma, lam)
    assert [r.to_dict() for r in first] == want == [r.to_dict() for r in second]
    # every call returns fresh records: nothing is shared through the plan
    for a, b in zip(first, second):
        assert a is not b and a.params is not b.params
        assert a.params["regime_exponents"] is not b.params["regime_exponents"]


# -- the int-first random basis combination ---------------------------------


def _fraction_random_dcoeff_distribution(G, rng, cap, support_degree=3, nterms=4):
    """random_dcoeff_distribution as it was: every coefficient summed as Fraction(num) * Fraction(p) ** shift."""
    indices = [a for a in indices_up_to(G.d, support_degree) if sum(a) > 0]
    dcoeffs = {}
    for _ in range(nterms):
        alpha = indices[rng.randrange(len(indices))]
        num = rng.randrange(-(G.p**3), G.p**3) or 1
        shift = rng.randrange(-1, 2)
        dcoeffs[alpha] = dcoeffs.get(alpha, Fraction(0)) + Fraction(num) * Fraction(G.p) ** shift
    dcoeffs = {a: v for a, v in dcoeffs.items() if v != 0}
    if not dcoeffs:
        dcoeffs = {(0,) * G.d: Fraction(1)}
    return Distribution.from_dcoeffs(G, dcoeffs, cap)


@settings(deadline=None, max_examples=100)
@given(
    G=st.sampled_from(ORACLE_GROUPS),
    seed=st.integers(0, 2**32),
    cap=st.integers(0, 8),
    support_degree=st.integers(1, 4),
    nterms=st.integers(0, 8),
)
def test_random_dcoeff_distribution_draws_what_the_fraction_version_drew(G, seed, cap, support_degree, nterms):
    got_rng, want_rng = random.Random(seed), random.Random(seed)
    for _ in range(3):
        got = random_dcoeff_distribution(G, got_rng, cap, support_degree, nterms)
        want = _fraction_random_dcoeff_distribution(G, want_rng, cap, support_degree, nterms)
        assert list(got.dcoeffs.items()) == list(want.dcoeffs.items())
        assert got.cap == want.cap and got.exact
    assert got_rng.getstate() == want_rng.getstate()


def test_random_dcoeff_distribution_on_no_index_raises_as_randrange_did():
    # support degree 0 leaves no nonzero index to draw: rng.randrange(0) raised, and randbelow must not loop
    with pytest.raises(ValueError, match="empty range"):
        random_dcoeff_distribution(H3, random.Random(0), 4, support_degree=0)
    assert random_dcoeff_distribution(H3, random.Random(0), 4, support_degree=0, nterms=0).dcoeffs == {(0, 0, 0): 1}


@pytest.mark.parametrize("seed", [39, 104])
def test_random_dcoeff_distribution_falls_back_to_the_unit_when_terms_cancel(seed):
    # abelian(2, 3), two draws over the degree-1 indices: at these seeds the two terms cancel
    G = builtin_abelian(2, 3)
    want = _fraction_random_dcoeff_distribution(G, random.Random(seed), 4, support_degree=1, nterms=2)
    got = random_dcoeff_distribution(G, random.Random(seed), 4, support_degree=1, nterms=2)
    assert list(got.dcoeffs.items()) == list(want.dcoeffs.items()) == [((0, 0, 0), 1)]


# -- faults injected into the convolution and norms suites ------------------


def test_norm_suite_fails_when_convolution_loses_a_factor_p(monkeypatch):
    def run():
        return check_submultiplicative(H3, Fraction(1, 2), trials=10, seed=3, cap=4) + check_banach_submult_N(
            H3, 2, trials=10, seed=3, cap=4
        )

    assert [r.verdict for r in run()] == ["lower-bound-pass"] * 2

    def scaled(G, lam, mu, cap_out=None, opposite=False):
        # every output moment, and so every basis coefficient, divided by p
        nu = convolve(G, lam, mu, cap_out=cap_out, opposite=opposite)
        return Distribution(G, nu.cap, {b: Fraction(m, G.p) for b, m in nu.moments.items()})

    monkeypatch.setattr(dist_module, "convolve", scaled)
    st_rec, banach_rec = run()
    for rec in (st_rec, banach_rec):
        assert rec.verdict == FAIL
        violations = rec.witness["violations"]
        assert violations and all(v["lhs"] > v["rhs"] for v in violations)
    # a Dirac pair (every even trial) has norms p^0; their product now has norm p^1
    dirac_trials = [v for v in banach_rec.witness["violations"] if v["trial"] % 2 == 0]
    assert dirac_trials and all((v["lhs"], v["rhs"]) == (LogMag(1), LogMag(0)) for v in dirac_trials)
    assert {"lam", "mu"} <= set(st_rec.witness["violations"][0])


def test_convolution_suite_fails_on_a_corrupted_dirac_power_table(monkeypatch):
    from daggerdist.cli import suite_convolution

    def homomorphism():
        return next(r for r in suite_convolution(H3, trials=6, seed=1, cap=4) if r.check_id.endswith("homomorphism"))

    assert homomorphism().verdict == PASS
    powers, calls = dist_module._powers, []

    def corrupted(x, cap):
        # x_1^2 off by one in the first coordinate's table of every Dirac (the points are ints: den 1)
        nums, den = powers(x, cap)
        calls.append(x)
        if len(calls) % H3.d == 1 and cap >= 2:
            nums[2] += 1
        return nums, den

    monkeypatch.setattr(dist_module, "_powers", corrupted)
    rec = homomorphism()
    assert rec.verdict == FAIL
    assert len(rec.witness["violations"]) == 3
    assert all(set(v) == {"trial", "x", "y"} for v in rec.witness["violations"])
    # the points are drawn as ints and written as "n/1" strings, as the report has always written them
    assert [(v["x"], v["y"]) for v in rec.to_dict()["witness"]["violations"]] == [
        (["67/1", "443/1", "526/1"], ["523/1", "591/1", "318/1"]),
        (["262/1", "130/1", "561/1"], ["341/1", "671/1", "338/1"]),
        (["719/1", "670/1", "595/1"], ["233/1", "458/1", "336/1"]),
    ]
    calls.clear()
    report = Report(group="H3", seed=1)
    report.extend(suite_convolution(H3, trials=6, seed=1, cap=4))
    opposite = next(r for r in report.records if r.check_id == "convolution/opposite")
    assert opposite.to_dict()["witness"]["violations"] == [
        {"trial": 0, "x": ["55/1", "479/1", "258/1"], "y": ["586/1", "712/1", "582/1"]}
    ]
    # the whole failure report, byte for byte as it was with Fraction draws
    digest = "4263c3e92d044d9af7c9efb100752640c4a2698ceeb1314cbe7e76335fba7cea"
    assert hashlib.sha256(emit_json(report)).hexdigest() == digest


# -- Banach check inputs: Diracs at cap -------------------------------------


def _cubic_cocycle_group(p=3):
    """Z_p^2 with F_2 = X_2 + Y_2 + p((X_1 + Y_1)^3 - X_1^3 - Y_1^3): degree 2 in one block.

    The cocycle is a coboundary, so the law is associative with inverse -x;
    F_2^k holds X_1^(2k) Y_1^k, so the plan reads moments of degree 2 * cap_out,
    which Diracs built at cap_out give from their point.
    """
    d, cap = 2, 3
    X = [TruncatedSeries.variable(i, 2 * d, cap) for i in range(d)]
    Y = [TruncatedSeries.variable(d + i, 2 * d, cap) for i in range(d)]
    cocycle = (X[0] * X[0] * Y[0] + X[0] * Y[0] * Y[0]).scale(3 * p)
    I = [TruncatedSeries.variable(i, d, cap).scale(-1) for i in range(d)]
    omega = [Fraction(1)] * d
    return PValuedGroup("cubic-cocycle", p, d, omega, [X[0] + Y[0], X[1] + Y[1] + cocycle], I)


COCYCLE = _cubic_cocycle_group()


def test_the_cubic_cocycle_law_is_a_formal_group_law():
    assert COCYCLE.degmax() == 3
    assert {r.verdict for r in check_formal_group_axioms(COCYCLE)} == {PASS}


def _banach_at_degmax_cap(G, N, trials, seed, cap):
    """check_banach_submult_N as it was: Diracs at Fraction draws, every input built at degmax * cap."""
    rng = random.Random(f"{seed}:banach:{G.name}:{N}")
    bad, bound, big = [], G.p**6, G.degmax() * cap
    for t in range(trials):
        if t % 2 == 0:
            lam = Distribution.dirac(G, [Fraction(rng.randrange(bound)) for _ in range(G.d)], big)
            mu = Distribution.dirac(G, [Fraction(rng.randrange(bound)) for _ in range(G.d)], big)
        else:
            lam = random_dcoeff_distribution(G, rng, cap=big)
            mu = random_dcoeff_distribution(G, rng, cap=big)
        conv = dist_module.convolve(G, lam, mu, cap_out=cap)
        lhs, rhs = dagger_norm(conv, N).mag, dagger_norm(lam, N).mag * dagger_norm(mu, N).mag
        if not lhs <= rhs:
            bad.append({"trial": t, "lhs": lhs, "rhs": rhs})
    anchor = "level-N dual Banach norm is submultiplicative (c = 1, truncated left side)"
    params = {"group": G.name, "N": N, "trials": trials, "seed": seed, "cap": cap}
    return [record("norms/banach-submultiplicative", anchor, params, bad, ok=LOWER_BOUND_PASS)]


@pytest.mark.parametrize("faulty", [False, True], ids=["sound", "convolve-loses-p"])
@pytest.mark.parametrize("N, cap", [(1, 2), (4, 4)])
@pytest.mark.parametrize("G", CONV_GROUPS + [COCYCLE], ids=lambda G: G.name)
def test_banach_check_with_diracs_at_cap_gives_the_records_at_degmax_cap(G, N, cap, faulty, monkeypatch):
    if faulty:
        convolve_ = dist_module.convolve

        def scaled(G, lam, mu, cap_out=None, opposite=False):
            nu = convolve_(G, lam, mu, cap_out=cap_out, opposite=opposite)
            return Distribution(G, nu.cap, {b: Fraction(m, G.p) for b, m in nu.moments.items()})

        monkeypatch.setattr(dist_module, "convolve", scaled)
    got = [r.to_dict() for r in check_banach_submult_N(G, N, trials=6, seed=5, cap=cap)]
    assert got == [r.to_dict() for r in _banach_at_degmax_cap(G, N, 6, 5, cap)]
    assert got[0]["verdict"] == (FAIL if faulty else LOWER_BOUND_PASS)


def _st_submult_by_logmag(G, sigma, trials, seed, cap):
    """check_submultiplicative as it was: three LogMag norms per trial and a LogMag product on the large side."""
    rng = random.Random(f"{seed}:submult:{G.name}:{sigma}")
    bad = []
    for _ in range(trials):
        lam = dist_module.random_dcoeff_distribution(G, rng, cap=G.degmax() * cap)
        mu = dist_module.random_dcoeff_distribution(G, rng, cap=G.degmax() * cap)
        conv = dist_module.convolve(G, lam, mu, cap_out=cap)
        lhs, rhs = st_norm(conv, sigma).mag, st_norm(lam, sigma).mag * st_norm(mu, sigma).mag
        if not lhs <= rhs:
            lam_d, mu_d = ({str(a): f"{v.numerator}/{v.denominator}" for a, v in nu.dcoeffs.items()} for nu in (lam, mu))
            bad.append({"lam": lam_d, "mu": mu_d, "lhs": lhs, "rhs": rhs})
    anchor = "||lam * mu||_s <= ||lam||_s ||mu||_s (truncated left side)"
    params = {"group": G.name, "sigma": sigma, "trials": trials, "seed": seed, "cap": cap}
    return [record("norms/st-submultiplicative", anchor, params, bad, ok=LOWER_BOUND_PASS)]


@pytest.mark.parametrize("fault", [None, "convolve-loses-p", "zero-factor"])
@pytest.mark.parametrize("sigma, cap", [(Fraction(1, 4), 2), (Fraction(1), 4)])
@pytest.mark.parametrize("G", CONV_GROUPS + [COCYCLE], ids=lambda G: G.name)
def test_st_check_on_scaled_ints_gives_the_records_of_the_logmag_loop(G, sigma, cap, fault, monkeypatch):
    convolve_, sample = dist_module.convolve, dist_module.random_dcoeff_distribution
    if fault == "convolve-loses-p":

        def scaled(G, lam, mu, cap_out=None, opposite=False):
            nu = convolve_(G, lam, mu, cap_out=cap_out, opposite=opposite)
            return Distribution(G, nu.cap, {b: Fraction(m, G.p) for b, m in nu.moments.items()})

        monkeypatch.setattr(dist_module, "convolve", scaled)
    elif fault == "zero-factor":
        # every other factor is 0 (norm bottom) and the product the unit Dirac (norm p^0): the large side is bottom
        draws = count()

        def sometimes_zero(G, rng, cap):
            lam = sample(G, rng, cap)
            return Distribution.from_dcoeffs(G, {}, cap) if next(draws) % 2 else lam

        monkeypatch.setattr(dist_module, "random_dcoeff_distribution", sometimes_zero)
        monkeypatch.setattr(dist_module, "convolve", lambda G, lam, mu, cap_out: Distribution.dirac(G, G.identity, cap_out))
    got = [r.to_dict() for r in check_submultiplicative(G, sigma, trials=6, seed=5, cap=cap)]
    if fault == "zero-factor":
        draws = count()  # the oracle draws the same factors from its start
    assert got == [r.to_dict() for r in _st_submult_by_logmag(G, sigma, 6, 5, cap)]
    assert got[0]["verdict"] == (LOWER_BOUND_PASS if fault is None else FAIL)
    if fault == "zero-factor":
        assert all(v["rhs"] == "0" for v in got[0]["witness"]["violations"])


@pytest.mark.parametrize("G", [H3, A32, H_HALF], ids=lambda G: G.name)
def test_convolve_and_from_dcoeffs_fill_what_init_fills(G):
    # the outputs hold tables as they were built; __init__ on rationals must give the same attributes and table form
    def same(lam, ref):
        assert vars(lam) == vars(ref)
        for name in ("_moments", "basis_table"):
            for table in (getattr(lam, name), getattr(ref, name)):
                assert table is None or type(table) is Coefficients
                assert table is None or (table.den > 0 and all(type(n) is int and n for n in table.nums.values()))

    rng = random.Random(5)
    x, y = ([rng.randrange(G.p**4) for _ in range(G.d)] for _ in range(2))
    lam, mu = Distribution.dirac(G, x, 3), Distribution.dirac(G, y, 3)
    nu = convolve(G, lam, mu, cap_out=3)
    same(nu, Distribution(G, nu.cap, nu.moments, point=G.multiply(x, y)))
    truncated = [Distribution(G, 4, d.moments) for d in (lam, mu)]
    out = convolve(G, *truncated, cap_out=2)
    same(out, Distribution(G, 2, out.moments))
    dcoeffs = {(0,) * G.d: 3, (1,) + (0,) * (G.d - 1): Fraction(1, 2), (0, 1) + (0,) * (G.d - 2): 0}
    nonzero = {k: v for k, v in dcoeffs.items() if v}
    same(Distribution.from_dcoeffs(G, dcoeffs, 4), Distribution(G, 4, None, nonzero))


# -- compiled kernels and per-plan verdict tables against the loops they replace ----


def _heisenberg_big():
    # the Heisenberg law with quadratic coefficient -(3 * 2^70 + 3), beyond 64 bits, from a JSON config:
    # the kernels bind such a coefficient, and the products of it the plans hold, as names
    cfg = group_to_config(builtin_heisenberg(3))
    for rec in cfg["F"][2] + cfg["I"][2]:
        if Fraction(rec["coeff"]) == -3:
            rec["coeff"] = str(-3 * 2**70 - 3)
    cfg.pop("model")
    cfg["name"] = "heisenberg-big"
    return load_group(json.dumps(cfg))


H_BIG = _heisenberg_big()
KERNEL_GROUPS = ORACLE_GROUPS + [H_BIG]


def test_the_big_coefficient_law_is_a_formal_group_law():
    assert max(abs(c) for f in H_BIG.F for c in f.terms.values()) > 2**64
    assert {r.verdict for r in check_formal_group_axioms(H_BIG)} == {PASS}


def _loop_plan(G, cap_out):
    """The convolution plan as it was: per gamma, (position of i, ((position of j, c_ij), ...)) in first-seen order."""
    d, degmax = G.d, G.degmax()
    monomials = [(gamma, G.f_monomial(gamma, max(degmax * sum(gamma), 1))) for gamma in indices_up_to(d, cap_out)]
    den = math.lcm(*(f.den for _, f in monomials))
    left, right, rows = {}, {}, []
    for gamma, f in monomials:
        by_left = {}
        for idx, n in f.nums.items():
            i = left.setdefault(idx[:d], len(left))
            j = right.setdefault(idx[d:], len(right))
            by_left.setdefault(i, []).append((j, n * (den // f.den)))
        rows.append((gamma, tuple((i, tuple(pairs)) for i, pairs in by_left.items())))
    return tuple(rows), tuple(left), tuple(right), den


def _gather_moment(lam, beta):
    """Distribution.moment beyond the cap as it was: the point's monomial, or the Mahler-row gather at beta alone."""
    if lam.point is not None:
        return math.prod(c**b for c, b in zip(lam.point, beta))
    return Fraction(gather(mahler_row, lam.basis_table.nums, [beta])[0], lam.basis_table.den)


def _gather_moment_numerators(lam, indices):
    """Distribution._moment_numerators as it was: the gather loop, or the table and each moment beyond cap alone."""
    if lam._moments is None and lam.point is None:
        return gather(mahler_row, lam.basis_table.nums, indices), lam.basis_table.den
    table, cap = lam.moment_table, lam.cap
    values = [table.nums.get(b, 0) if sum(b) <= cap else _gather_moment(lam, b) * table.den for b in indices]
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], table.den * scale


def _convolve_nested_loop(G, lam, mu, cap_out):
    """convolve's nested plan loop as it was: the moments of lam * mu as (nums, den)."""
    plan, left, right, law_den = _loop_plan(G, cap_out)
    m1, den1 = _gather_moment_numerators(lam, left)
    m2, den2 = _gather_moment_numerators(mu, right)
    nums = {}
    for gamma, rows in plan:
        acc = 0
        for i, pairs in rows:
            a = m1[i]
            if a:
                inner = 0
                for j, c in pairs:
                    inner += c * m2[j]
                acc += a * inner
        if acc:
            nums[gamma] = acc
    return nums, den1 * den2 * law_den


def _gather_ensure_dcoeffs(lam):
    """ensure_dcoeffs as it was: the Taylor-row gather loop, each alpha! d_alpha scaled by cap!/alpha! after it."""
    indices, table = indices_up_to(lam.group.d, lam.cap), lam.moment_table
    lcm = math.factorial(lam.cap)
    nums = zip(indices, gather(taylor_row, table.nums, indices))
    return {a: n * (lcm // multi_factorial(a)) for a, n in nums if n}, table.den * lcm


@st.composite
def kernel_inputs(draw, G, needed=0):
    """A Dirac at a Z_p point or a basis combination at a cap of 0-8, read beyond it when the plan needs more, or a
    truncated copy of either at a cap of at least ``needed``; a basis combination may have derived its moments."""
    kind = draw(st.sampled_from(["dirac", "dcoeffs", "truncated-dirac", "truncated-dcoeffs"]))
    cap = draw(st.integers(needed, max(needed, 8)) if kind.startswith("truncated") else st.integers(0, 8))
    if kind.endswith("dirac"):
        lam = Distribution.dirac(G, draw(zp_points(G)), cap)
    else:
        index = st.tuples(*[st.integers(0, 4)] * G.d)
        coeff = st.builds(Fraction, st.integers(-(G.p**3), G.p**3), st.sampled_from([1, 2, G.p, G.p**2]))
        lam = Distribution.from_dcoeffs(G, draw(st.dictionaries(index, coeff, max_size=5)), cap)
        if draw(st.booleans()):
            lam.moments
    return Distribution(G, cap, lam.moments) if kind.startswith("truncated") else lam


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_compiled_convolution_matches_the_nested_loop(data):
    G = data.draw(st.sampled_from(KERNEL_GROUPS))
    cap_out = data.draw(st.integers(0, 8))
    lam, mu = (data.draw(kernel_inputs(G, G.degmax() * cap_out)) for _ in range(2))
    got = convolve(G, lam, mu, cap_out=cap_out)
    nums, den = _convolve_nested_loop(G, lam, mu, cap_out)
    assert list(got.moments.items()) == [(gamma, Fraction(n, den)) for gamma, n in nums.items()]
    both = lam.point is not None and mu.point is not None
    assert got.point == (G.multiply(lam.point, mu.point) if both else None)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_compiled_basis_changes_match_the_gather_loops(data):
    G = data.draw(st.sampled_from(KERNEL_GROUPS))
    lam = data.draw(kernel_inputs(G))
    d, cap = G.d, lam.cap
    if lam.point is None and lam.exact:  # a basis combination: its moments up to cap, derived through the kernel
        fresh = Distribution.from_dcoeffs(G, lam.basis_table, cap)
        nums, den = _gather_moment_numerators(fresh, indices_up_to(d, cap))
        table = fresh.moment_table
        assert (list(table.nums.items()), table.den) == (_nonzero_items(indices_up_to(d, cap), nums), den)
    # the basis table of the moments alone, through the Taylor kernel
    truncated = Distribution(G, cap, lam.moments)
    nums, den = _gather_ensure_dcoeffs(truncated)
    basis = truncated.ensure_dcoeffs()
    assert (list(basis.nums.items()), basis.den) == (list(nums.items()), den)
    # every read of a plan's index set: by position, through the gather, or from the point's powers beyond cap
    degree = data.draw(st.integers(0, cap + 2))
    if lam.exact or degree <= cap:
        got, got_den = lam._moment_numerators(degree)
        want, want_den = _gather_moment_numerators(lam, indices_up_to(d, degree))
        assert [Fraction(n, got_den) for n in got] == [Fraction(n, want_den) for n in want]
        # a single moment beyond the cap, read by position from that table
        beyond = [b for b in indices_up_to(d, degree) if sum(b) > cap]
        assert [lam.moment(b) for b in beyond] == [_gather_moment(lam, b) for b in beyond]


def _nonzero_items(indices, values):
    return [(i, v) for i, v in zip(indices, values) if v]


def _dict_moment_numerators(lam, degree):
    """Distribution._moment_numerators as it was before the lists: every table read through its dict."""
    d, table = lam.group.d, lam._moments
    if lam.point is not None and degree <= lam.cap:
        table = lam.moment_table
    if table is None or degree > lam.cap:
        if lam.point is not None:
            table = Distribution.dirac(lam.group, lam.point, degree).moment_table
        else:
            dense = [lam.basis_table.nums.get(b, 0) for b in indices_up_to(d, degree)]
            return dist_module._moment_kernel(d, degree)(dense), lam.basis_table.den
    return [table.nums.get(b, 0) for b in indices_up_to(d, degree)], table.den


def _dict_convolve(G, lam, mu, cap_out):
    """convolve's tables as they were: the form's output with its zeros dropped, as a dict, then the Taylor kernel
    over that dict read back by position; (moment table, basis table)."""
    form, left, right, law_den = G.plan(("convolution", cap_out), lambda G: dist_module._compile_plan(G, cap_out))
    m1, den1 = _dict_moment_numerators(lam, left)
    m2, den2 = _dict_moment_numerators(mu, right)
    indices = indices_up_to(G.d, cap_out)
    nums = dict(_nonzero_items(indices, form(m1, m2)))
    moments = Coefficients.from_numerators(G.d, cap_out, nums, den1 * den2 * law_den)
    dense = [moments.nums.get(b, 0) for b in indices]
    nums = dict(_nonzero_items(indices, dist_module._basis_kernel(G.d, cap_out)(dense)))
    return moments, Coefficients.from_numerators(G.d, cap_out, nums, moments.den * math.factorial(cap_out))


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_dense_convolution_matches_the_dict_tables(data):
    G = data.draw(st.sampled_from(CONV_GROUPS))
    cap_out = data.draw(st.integers(0, 4))
    lam, mu = (data.draw(kernel_inputs(G, G.degmax() * cap_out)) for _ in range(2))
    want_moments, want_basis = _dict_convolve(G, lam, mu, cap_out)
    got = convolve(G, lam, mu, cap_out=cap_out)
    # the form's list is the moment table, and the Taylor kernel's list the basis table, each over every index
    size = len(indices_up_to(G.d, cap_out))
    assert len(got.moment_table.dense) == size and got.basis_table is None
    basis = got.ensure_dcoeffs()
    assert len(basis.dense) == size
    for table, want in ((got.moment_table, want_moments), (basis, want_basis)):
        assert (list(table.nums.items()), table.den) == (list(want.nums.items()), want.den)
        assert table == want and want == table
    # every read of it by position: a prefix of the list, or the dict beyond it
    for degree in range(cap_out + 2):
        if degree <= cap_out or got.exact:
            assert list(got._moment_numerators(degree)[0]) == list(_dict_moment_numerators(got, degree)[0])


@pytest.mark.parametrize("G", ORACLE_GROUPS, ids=lambda G: G.name)
def test_a_dirac_norm_reads_one_valuation(G, monkeypatch):
    # at an int point binom(x, 0) = 1 over den 1 gives the sup 0, and with weights >= 0 no later bound exceeds it
    rng = random.Random(f"one-valuation:{G.name}")
    reads, int_valuation = [], padic_module.int_valuation
    monkeypatch.setattr(padic_module, "int_valuation", lambda n, p: reads.append(n) or int_valuation(n, p))
    for cap in (4, 8):
        lam = Distribution.dirac(G, [rng.randrange(-(G.p**6), G.p**6) for _ in range(G.d)], cap)
        lam.ensure_dcoeffs()
        reads.clear()
        # st_norm_prime at sigma = 0 has every weight 0: all bounds tie with the sup
        for norm, arg in ((dagger_norm, 1), (dagger_norm, 8), (st_norm, Fraction(1, 2)), (st_norm_prime, 0)):
            assert norm(lam, arg).mag == LogMag(0)
            assert reads == [1, 1]  # the denominator's valuation, then alpha = 0's
            reads.clear()


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_a_sup_over_a_floor_is_the_exact_sup_or_none(data):
    # every basis table, given (converted to a list) or derived (a Dirac's, a truncated copy's), is read as a list
    G = data.draw(st.sampled_from(CONV_GROUPS))
    lam = data.draw(kernel_inputs(G))
    table = dist_module._dagger_table(G, data.draw(st.sampled_from([1, 2, 8])))
    best = dist_module._sup_num(lam, table)
    valuations = {a: valuation(c, G.p) for a, c in lam.dcoeffs.items()}
    assert _magnitude(best, table) == _magnitude(_dict_sup_num(valuations, G.p, table), table)
    for floor in [] if best is None else [best - 1, best, best + 1]:
        assert dist_module._sup_num(lam, table, floor) == (best if best > floor else None)


def _per_moment_eq(lam, mu):
    """Distribution.__eq__ as it was: one Fraction per moment of degree <= the smaller cap, read through moment()."""
    cap = min(lam.cap, mu.cap)
    for beta in indices_up_to(lam.group.d, cap):
        if lam.moment(beta) != mu.moment(beta):
            return False
    return True


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_the_moment_comparison_matches_the_per_moment_loop(data):
    G = data.draw(st.sampled_from(ORACLE_GROUPS))
    lam = data.draw(oracle_distributions(G))
    kind = data.draw(st.sampled_from(["independent", "truncated", "from-basis", "unreduced", "perturbed"]))
    cap = data.draw(st.integers(0, lam.cap + 2))  # below, at or above lam's own
    if kind == "independent":
        mu = data.draw(oracle_distributions(G))
    elif kind == "truncated":  # lam's moments at another cap: cut below lam's cap, unknown (so zero) above it
        mu = Distribution(G, cap, lam.moments)
    elif kind == "from-basis":  # the same moments up to lam's cap, derived from its basis table
        mu = Distribution.from_dcoeffs(G, lam.ensure_dcoeffs(), cap)
    else:
        table = lam.moment_table
        nums = {b: 3 * n for b, n in table.nums.items()}  # the same ratios over an unreduced denominator
        if kind == "perturbed":
            beta = data.draw(st.sampled_from(indices_up_to(G.d, min(cap, lam.cap))))
            nums[beta] = nums.get(beta, 0) + table.den
        mu = Distribution(G, cap, Coefficients.from_numerators(G.d, lam.cap, nums, 3 * table.den))
    want = _per_moment_eq(lam, mu)
    assert (lam == mu) == (mu == lam) == want and lam == lam
    assert not want if kind == "perturbed" else want or kind == "independent"


def test_distributions_on_groups_of_two_dimensions_differ():
    # the moments of degree <= 1 are 1, 0, 0 over abelian(3,2) and 1, 0, 0, 0 over heisenberg(3): two lengths
    assert Distribution.dirac(A32, (0, 0), 1) != Distribution.dirac(H3, (0, 0, 0), 1)
    assert Distribution.dirac(H3, (0, 0, 0), 1) != Distribution.dirac(A32, (0, 0), 1)
    assert Distribution.dirac(H3, (0, 0, 0), 1) == Distribution.from_dcoeffs(H3, {(0, 0, 0): 1}, 3)


def _dict_dense_up_to(nums, d, cap):
    """Coefficients.dense_up_to's dict branch as it was: each index of indices_up_to(d, cap) read from the dict."""
    return [nums.get(b, 0) for b in indices_up_to(d, cap)]


@st.composite
def given_tables(draw, G):
    """(given, sparse): a table as a caller gives it, as rationals or as a sparse table, and its sparse table as
    the old __init__ kept it; zero entries raise the cap above the largest nonzero degree, or leave no term."""
    p, d = G.p, G.d
    index = st.tuples(*[st.integers(0, 3)] * d)
    coeff = st.builds(Fraction, st.integers(-(p**3), p**3), st.sampled_from([1, 2, p, p**2]))
    values = draw(st.dictionaries(index, st.one_of(st.just(Fraction(0)), coeff), max_size=5))
    sparse = Coefficients(d, max([0, *map(sum, values)]), values)
    if draw(st.booleans()):
        return values, sparse
    # a sparse table such as random_dcoeff_distribution gives, its cap at or above its largest degree
    sparse = Coefficients.from_numerators(d, sparse.cap + draw(st.integers(0, 2)), dict(sparse.nums), sparse.den)
    return sparse, sparse


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_a_given_table_is_read_as_its_dict_was(data):
    G = data.draw(st.sampled_from(ORACLE_GROUPS))
    p, d = G.p, G.d
    given, sparse = data.draw(given_tables(G))
    cap = data.draw(st.integers(0, 6))  # the distribution's cap: below, at or above the table's own
    lam, truncated = Distribution.from_dcoeffs(G, given, cap), Distribution(G, cap, given)
    for table in (lam.basis_table, truncated.moment_table):
        assert table.dense is not None and (table.cap, table.den) == (sparse.cap, sparse.den)
        assert table == sparse and list(table.nums) == sorted(sparse.nums, key=grlex_key)
        for c in range(sparse.cap + 3):  # caps below, at and above the table's own
            assert list(table.dense_up_to(c)) == _dict_dense_up_to(sparse.nums, d, c)
    # the norms as the dict path read the given terms: the weight subtracted, every valuation read
    valuations = {a: int_valuation(n, p) for a, n in sparse.nums.items()}
    sigma, N = data.draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2)])), data.draw(st.integers(1, 8))
    for table in (dist_module._dagger_table(G, N), dist_module._st_table(G, sigma)):
        assert dist_module._sup_num(lam, table) == _dict_sup_num(valuations, p, table, sparse.den)
    # the moments, read by position from the given table or derived from it, past its cap too
    for degree in range(cap + 3):
        assert list(lam._moment_numerators(degree)[0]) == list(_dict_moment_numerators(lam, degree)[0])
        if degree <= cap:
            assert list(truncated._moment_numerators(degree)[0]) == _dict_dense_up_to(sparse.nums, d, degree)


@pytest.mark.parametrize("G", [H3, A32], ids=lambda G: G.name)
def test_an_all_zero_table_is_a_list_of_zeros(G):
    # no nonzero term: the table's cap is its largest degree, 0 for no term at all, and it reads as zeros past it
    for given, own in (({}, 0), ({(1,) + (0,) * (G.d - 1): 0}, 1)):
        lam = Distribution.from_dcoeffs(G, given, 3)
        table = lam.basis_table
        assert table.cap == own and list(table.dense) == [0] * len(indices_up_to(G.d, own))
        assert list(table.dense_up_to(3)) == [0] * len(indices_up_to(G.d, 3)) and not table.nums
        assert dist_module._sup_num(lam, dist_module._dagger_table(G, 1)) is None and not lam.moments
        assert lam == Distribution.from_dcoeffs(G, {}, 5) and lam != Distribution.dirac(G, G.identity, 3)
    # random_dcoeff_distribution's table when every draw cancels: p over p at alpha = 0, its cap the support's
    fallback = Coefficients.from_numerators(G.d, 3, {(0,) * G.d: G.p}, G.p)
    lam = Distribution.from_dcoeffs(G, fallback, 2)
    assert list(lam.basis_table.dense) == [G.p] + [0] * (len(indices_up_to(G.d, 3)) - 1)
    assert lam == Distribution.dirac(G, G.identity, 2) and dagger_norm(lam, 1).mag == LogMag(0)


def test_a_given_tables_witnesses_come_in_grlex_order():
    # a given table is kept as a list, so its valuations come in grlex order, not in the order of the caller's
    # dict, and that order decides which witnesses a failing check keeps
    given = {(0, 0, 3): 1, (2, 0, 0): 3, (0, 1, 0): 9, (1, 0, 0): 1, (0, 0, 1): 5}
    lam = Distribution.from_dcoeffs(H3, given, 4)
    want = [((0, 0, 1), 0), ((0, 1, 0), 2), ((1, 0, 0), 0), ((2, 0, 0), 1), ((0, 0, 3), 0)]
    assert list(lam.valuations().items()) == want
    check = dist_module._CoefficientCheck(weight_table((0, 0, 0), None), weight_table((1, 1, 1), None))
    kept = record("embeddings/contact", "every alpha > 0 fails", {}, check.violations(lam)).witness["violations"]
    assert [w["alpha"] for w in kept] == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]

def _weight_violations(valuations, small, large):
    """The per-call loop as it was: the alpha where |d_alpha| p^(-small(alpha)) <= |d_alpha| p^(-large(alpha)) fails."""
    bad = []
    for alpha, v in valuations.items():
        if _exceeds(large, small, alpha):
            lhs, rhs = -v - small.weight(alpha), -v - large.weight(alpha)
            bad.append({"alpha": list(alpha), "lhs": LogMag(lhs), "rhs": LogMag(rhs)})
    return bad


def _continuity_loop(valuations, level, damped, p):
    """The inline continuity loop as it was: one gap and one factor per alpha of the sample, on every call."""
    bad = []
    for alpha, v in valuations.items():
        gap = damped[alpha] * level.den - level[alpha] * damped.den
        factor = math.prod(p * a for a in alpha if a)
        if not padic_module.p_power_at_most(gap, damped.den * level.den, factor, p):
            lhs, rhs = LogMag(-v - level.weight(alpha)), LogMag(-v - damped.weight(alpha))
            bad.append({"alpha": list(alpha), "lhs": lhs, "rhs": rhs, "factor": factor})
    return bad


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_verdict_tables_give_the_witnesses_of_the_per_call_loops(data):
    # a fresh copy of the group, so its plans are built here; v(alpha!) may be broken by +-100 |alpha|, as in
    # test_embedding_checks_fail_with_witnesses_on_a_broken_factorial, so that witnesses appear
    base = data.draw(st.sampled_from(KERNEL_GROUPS))
    G = load_group(json.dumps(group_to_config(base)))
    shift = data.draw(st.sampled_from([0, 100, -100]))
    lams = [data.draw(kernel_inputs(G)) for _ in range(data.draw(st.integers(1, 3)))]
    sigma = data.draw(st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1), 2]))
    N = data.draw(st.integers(1, 12))
    p, eps, tau = G.p, Fraction(1, G.p - 1), G.neighborhood_params(N).tau
    damping = -sigma * min(G.omega) + eps
    regime2 = [sigma * max(G.omega) - t - eps for t in tau]
    with pytest.MonkeyPatch.context() as mp:
        if shift:
            mp.setattr(padic_module, "multi_factorial_valuation", lambda alpha, p: shift * sum(alpha))
            mp.setattr(dist_module, "weight_table", padic_module.WeightTable)
        # the tables as the loops built them, uncached, under the same v(alpha!)
        completion = padic_module.WeightTable(tuple(sigma * w for w in G.omega), None)
        level = padic_module.WeightTable(tau, p)
        # the tables of a plan serve every sample after the first, each in its own order
        for lam in lams:
            valuations = lam.valuations()
            contact = check_contact_embedding(lam, sigma)[0]
            if damping < 0:
                large = padic_module.WeightTable((-damping,) * G.d, p)
                _assert_witnesses(contact, _weight_violations(valuations, completion, large))
            contraction, continuity = check_comparison_maps(G, N, sigma, lam)
            if contraction.verdict != REGIME_UNMET:
                _assert_witnesses(contraction, _weight_violations(valuations, completion, level))
            if continuity.verdict != REGIME_UNMET:
                damped = padic_module.WeightTable(tuple(c - r for c, r in zip(completion.weights, regime2)), None)
                _assert_witnesses(continuity, _continuity_loop(valuations, level, damped, p))


def _assert_witnesses(rec, violations):
    """rec is the record of these violations, in their order: verdict, witness and all."""
    assert rec.to_dict() == record(rec.check_id, rec.anchor, rec.params, violations).to_dict()


def _per_alpha_weight(weights, p, alpha):
    """A WeightTable entry as it was filled: den * ([v_p(alpha!)] + sum_i w_i alpha_i) from one alpha at a time."""
    weights = [Fraction(w) for w in weights]
    den = math.lcm(*(w.denominator for w in weights))
    value = sum(w.numerator * (den // w.denominator) * a for w, a in zip(weights, alpha))
    return value + (0 if p is None else den * multi_factorial_valuation(alpha, p))


@settings(deadline=None, max_examples=150)
@given(data=st.data(), d=st.integers(1, 4), p=st.sampled_from([2, 3, 5, 7]))
def test_weight_table_columns_match_the_per_alpha_fill(data, d, p):
    weights = tuple(data.draw(st.lists(st.fractions(-3, 3, max_denominator=12), min_size=d, max_size=d)))
    factorial = data.draw(st.sampled_from([None, p]))
    table = padic_module.WeightTable(weights, factorial)  # uncached: every entry is filled here
    alphas = data.draw(st.lists(st.tuples(*[st.integers(0, 40)] * d), min_size=1, max_size=12))
    assert [table[a] for a in alphas] == [_per_alpha_weight(weights, factorial, a) for a in alphas]
    assert all(type(v) is int for v in table.values())


def _assert_generated_source(kernel, names=r"[xyk]\d+|t\d+_\d+|t\d+"):
    """The kernel source holds only int literals and generated names; every name bound beside it is generated."""
    for tok in tokenize.generate_tokens(io.StringIO(kernel.source).readline):
        if tok.type == tokenize.NAME:
            assert tok.string in {"def", "kernel", "return", "x", "y"} or re.fullmatch(names, tok.string)
        elif tok.type == tokenize.NUMBER:
            assert re.fullmatch(r"\d+", tok.string) and int(tok.string).bit_length() <= 64
        elif tok.type == tokenize.OP:
            assert tok.string in {"(", ")", ",", ":", "=", "+", "-", "*"}
    assert all(re.fullmatch(r"k\d+", k) for k in kernel.__globals__ if k != "__builtins__" and k != "kernel")


@pytest.mark.parametrize("G", KERNEL_GROUPS, ids=lambda G: G.name)
def test_plan_kernels_hold_only_int_literals_and_generated_names(G):
    for cap in (0, 1, 4):
        form, left, right, den = dist_module._compile_plan(G, cap)
        moment_kernels = [dist_module._moment_kernel(G.d, top) for top in (left, right, cap)]
        for kernel in [form, *moment_kernels, dist_module._basis_kernel(G.d, cap)]:
            _assert_generated_source(kernel)
    # a law coefficient beyond 64 bits is bound as a name, never formatted
    form = dist_module._compile_plan(G, 4)[0]
    big = [c for c in form.__globals__.values() if type(c) is int]
    assert (G is H_BIG) == bool(big) and all(c.bit_length() > 64 for c in big)


def test_a_form_with_an_output_of_more_than_256_terms():
    # no builtin plan reaches this (the largest output sums 135 terms at cap 8): one flat sum of these
    # terms would exceed the compiler's recursion limit, so the kernel writer nests them in groups
    rng = random.Random(11)
    x, y = [rng.randrange(-99, 99) for _ in range(400)], [rng.randrange(-99, 99) for _ in range(300)]
    wide = [(i, [(j, rng.randrange(-5, 6) or 1) for j in range(i % 3 + 1)]) for i in range(400)]
    deep = [(7, [(j, 2**70 + j) for j in range(300)])]
    rows = [wide, deep, []]
    form = padic_module.bilinear_kernel(rows, (400, 300))
    assert form(x, y) == tuple(sum(x[i] * sum(c * y[j] for j, c in pairs) for i, pairs in row) for row in rows)
    linear_rows = [[(k, k - 300) for k in range(600)], [(3, 1)]]
    linear = padic_module.linear_kernel(linear_rows, 600)
    z = [rng.randrange(-99, 99) for _ in range(600)]
    assert linear(z) == tuple(sum(w * z[k] for k, w in row) for row in linear_rows)
    for kernel in (form, linear):
        _assert_generated_source(kernel)


# -- axis certificates of the weight-only checks and lazy Dirac tables --------

DEFAULT_SIGMAS = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]


def _fresh(G, **changes):
    """A copy of G through its JSON config, so its plans are built here; ``changes`` replace config fields."""
    return load_group(json.dumps({**group_to_config(G), **changes}))


H_MIXED = _fresh(H3, name="heisenberg-mixed-omega", omega=["1", "1", "3/2"])


def _default_grid_samples(G):
    """The samples of the norms and embeddings suites as the CLI draws them at its defaults (seed 7, cap 4)."""
    draw = cli_module._sample_distributions
    return draw(G, random.Random(f"7:norms:{G.name}"), 10, 8) + draw(G, random.Random(f"7:embeddings:{G.name}"), 6, 8)


def _weight_only_records(samples, max_N=8):
    """The tower over the samples, and the sandwich, contact and comparison records of each on the default grid."""
    G, records = samples[0].group, check_norm_tower(samples, max_N=max_N)
    for lam, sigma in product(samples, DEFAULT_SIGMAS):
        records += check_sandwich(lam, sigma) + check_contact_embedding(lam, sigma)
        records += [r for N in range(1, max_N + 1) for r in check_comparison_maps(G, N, sigma, lam)]
    return [r.to_dict() for r in records]


def _counted_valuations(monkeypatch):
    reads, valuations = [], Distribution.valuations
    monkeypatch.setattr(Distribution, "valuations", lambda lam: reads.append(lam) or valuations(lam))
    return reads


@pytest.mark.parametrize("G", [H3, A32, H_MIXED], ids=lambda G: G.name)
def test_certified_plans_read_no_valuations_and_give_the_per_alpha_records(G, monkeypatch):
    samples = _default_grid_samples(_fresh(G))
    reads = _counted_valuations(monkeypatch)
    got = _weight_only_records(samples)
    assert reads == [] and got
    # the Diracs among the samples never built a table, so the tensor kernel at their cap was not needed
    diracs = [lam for lam in samples if lam.point is not None]
    assert diracs and all(lam._moments is None and lam._basis is None for lam in diracs)
    # the per-alpha path, which reads every sample's valuations, gives the same records, empty violations and all
    monkeypatch.setattr(dist_module._CoefficientCheck, "certifies", lambda check, cap: False)
    assert _weight_only_records(samples) == got
    assert {id(lam) for lam in reads} == {id(lam) for lam in samples}


@pytest.mark.parametrize("shift", [100, -100])
def test_a_factorial_broken_at_one_axis_entry_refuses_the_certificate(shift, monkeypatch):
    # v_3(6!) is off by +-100 and every other v_3(k!) is right: only an alpha with some alpha_i = 6 can fail
    G, p = _fresh(H3), H3.p

    def broken(alpha, p):
        return multi_factorial_valuation(alpha, p) + shift * (alpha == (6,))

    monkeypatch.setattr(padic_module, "multi_factorial_valuation", broken)
    monkeypatch.setattr(dist_module, "weight_table", padic_module.WeightTable)
    reads = _counted_valuations(monkeypatch)
    below = Distribution.dirac(G, [3, 9, 27], 5)
    assert {r["verdict"] for r in _weight_only_records([below])} <= {PASS, REGIME_UNMET} and reads == []
    # a Dirac whose cap reaches 6, and a basis combination whose own table does although its cap does not
    lams = [Distribution.dirac(G, [3, 9, 27], 8), Distribution.from_dcoeffs(G, {(0, 6, 0): 1, (1, 0, 0): 3}, 2)]
    verdicts = []
    for lam, sigma, N in product(lams, DEFAULT_SIGMAS, range(1, 9)):
        eps, tau = Fraction(1, p - 1), G.neighborhood_params(N).tau
        valuations = lam.valuations()
        completion = padic_module.WeightTable(tuple(sigma * w for w in G.omega), None)
        level = padic_module.WeightTable(tau, p)
        contact = check_contact_embedding(lam, sigma)[0]
        if contact.verdict != REGIME_UNMET:
            damping = -sigma * min(G.omega) + eps
            large = padic_module.WeightTable((-damping,) * G.d, p)
            _assert_witnesses(contact, _weight_violations(valuations, completion, large))
        contraction, continuity = check_comparison_maps(G, N, sigma, lam)
        if contraction.verdict != REGIME_UNMET:
            _assert_witnesses(contraction, _weight_violations(valuations, completion, level))
        if continuity.verdict != REGIME_UNMET:
            regime2 = [sigma * max(G.omega) - t - eps for t in tau]
            damped = padic_module.WeightTable(tuple(c - r for c, r in zip(completion.weights, regime2)), None)
            _assert_witnesses(continuity, _continuity_loop(valuations, level, damped, p))
        verdicts += [contact.verdict, contraction.verdict, continuity.verdict]
    assert FAIL in verdicts


def test_the_tower_falls_back_and_fails_when_tau_grows_with_N(monkeypatch):
    G = _fresh(H3)

    def growing(N):
        tau = (Fraction(N, 4),) * G.d
        return groups_module.NeighborhoodParams(N=N, tau=tau, rho=tau + tau)

    monkeypatch.setattr(G, "neighborhood_params", growing)
    samples = _default_grid_samples(G)
    rec = check_norm_tower(samples, max_N=4)[0]
    bad = []
    for k, lam in enumerate(samples):
        for N in range(1, 5):
            lo, hi = dagger_norm(lam, N).mag, dagger_norm(lam, N + 1).mag
            if not lo <= hi:
                bad.append({"sample": k, "N": N, "lower": lo, "upper": hi})
    assert rec.verdict == FAIL and bad
    _assert_witnesses(rec, bad)


def test_the_sandwich_holds_in_its_corrected_order_where_omega_is_mixed():
    G, rng = H_MIXED, random.Random(21)
    old_order_fails = 0
    for _ in range(10):
        lam = random_dcoeff_distribution(G, rng, cap=8)
        for sigma in DEFAULT_SIGMAS:
            assert check_sandwich(lam, sigma)[0].verdict == PASS
            low, high = (st_norm_prime(lam, sigma * w) for w in (min(G.omega), max(G.omega)))
            mid = st_norm(lam, sigma)
            old_order_fails += not low.mag <= mid.mag <= high.mag
            assert high.mag <= mid.mag <= low.mag
        # for s = p^-sigma > 1 the two ends swap
        assert check_sandwich(lam, Fraction(-1, 2))[0].verdict == PASS
    assert old_order_fails == 10 * len(DEFAULT_SIGMAS)


def test_dirac_tables_are_built_on_first_read_as_they_were_built_eagerly():
    x, cap = [3, -6, Fraction(9, 2)], 4
    lam = Distribution.dirac(H3, x, cap)
    assert lam._moments is None and lam._basis is None
    assert lam.basis_table is lam.ensure_dcoeffs() and lam._moments is None
    eager = _dirac_per_index(H3, x, cap)
    assert lam.basis_table == eager.basis_table and lam.moment_table == eager.moment_table
    # a product of Diracs has its moments: its basis table is still derived from them, never from its point
    nu = convolve(H3, Distribution.dirac(H3, [1, 2, 3], 2), Distribution.dirac(H3, [4, 5, 6], 2), cap_out=2)
    assert nu.point is not None and nu.dcoeffs is None

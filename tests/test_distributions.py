import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from daggerdist import distributions as dist_module, padic as padic_module
from daggerdist.distributions import (
    Distribution,
    InsufficientCap,
    basis_moment,
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
from daggerdist.groups import builtin_abelian, builtin_heisenberg
from daggerdist.padic import LogMag, multi_binom_value, stirling_second, valuation

H3 = builtin_heisenberg(3)
A32 = builtin_abelian(3, 2)


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
    assert from_moments.ensure_dcoeffs() == {
        a: v for a, v in lam.dcoeffs.items() if sum(a) <= 4
    }


def test_basis_moment_values():
    # moment of b^(2) at Z^3 in one variable: s(3,2) * 2! = 3 * 2 = 6
    assert basis_moment((3,), (2,)) == 6
    assert basis_moment((1,), (2,)) == 0


def test_b_monomial_and_from_dcoeffs():
    lam = Distribution.b_monomial(A32, (1, 1), 4)
    assert lam.dcoeffs == {(1, 1): 1}
    assert lam.moment((1, 1)) == 1
    assert lam.moment((2, 1)) == basis_moment((2,), (1,))
    with pytest.raises(ValueError):
        Distribution.b_monomial(A32, (3, 3), 4)


def test_truncated_moment_raises_beyond_cap():
    lam = Distribution(H3, 2, {(1, 0, 0): Fraction(1)})
    with pytest.raises(InsufficientCap):
        lam.moment((3, 0, 0))


def test_convolution_matches_group_multiplication():
    x, y = [3, 0, 9], [6, 3, 0]
    conv = convolve(H3, Distribution.dirac(H3, x, 4), Distribution.dirac(H3, y, 4), cap_out=4)
    expect = Distribution.dirac(H3, H3.multiply(x, y), 4)
    assert conv.moments == expect.moments
    assert conv.point == H3.multiply(x, y)


def test_convolution_opposite_flag():
    x, y = [1, 0, 0], [0, 1, 0]
    conv = convolve(H3, Distribution.dirac(H3, x, 3), Distribution.dirac(H3, y, 3), opposite=True)
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
    solved = Distribution(H3, cap, lam.moments).ensure_dcoeffs()
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
    padic_module.weight_table.cache_clear()
    try:
        dcoeffs = {(1, 0, 0): Fraction(1, 3), (0, 2, 1): Fraction(9)}
        lam = Distribution.from_dcoeffs(H3, dcoeffs, 4)
        found = {
            "contact": check_contact_embedding(lam, Fraction(3, 4))[0],
            "contraction": check_comparison_maps(H3, 4, Fraction(1), lam)[0],
            "continuity": check_comparison_maps(H3, 1, Fraction(1, 4), lam)[1],
        }
    finally:
        padic_module.weight_table.cache_clear()
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

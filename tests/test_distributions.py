import json
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
from daggerdist.cli import run_suites
from daggerdist.functions import DaggerFunction, pair
from daggerdist.groups import builtin_abelian, builtin_heisenberg, group_to_config, load_group
from daggerdist.padic import LogMag, multi_binom_value, stirling_second, valuation
from daggerdist.series import TruncatedSeries

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


def _convolve_per_term(G, lam, mu, cap_out=None, opposite=False):
    """convolve as a loop over the terms of each F^gamma, reading every moment through moment()."""
    if opposite:
        return _convolve_per_term(G, mu, lam, cap_out=cap_out)
    degmax = G.degmax()
    if cap_out is None:
        cap_out = min(lam.cap, mu.cap) if lam.exact and mu.exact else min(lam.cap, mu.cap) // degmax
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
    return Distribution(G, cap_out, moments, exact=point is not None, point=point)


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
    cap_out = data.draw(st.sampled_from([None, 0, 1, 2, 3]))
    opposite = data.draw(st.booleans())
    needed = G.degmax() * (cap_out if cap_out is not None else 2)
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


# -- moments derived on demand ---------------------------------------------


def _eager_moment(dcoeffs, beta):
    return sum((d * _basis_moment_reference(beta, a) for a, d in dcoeffs.items()), Fraction(0))


@settings(deadline=None, max_examples=40)
@given(dcoeff_maps, st.integers(0, 6))
def test_lazy_moments_match_eager_formula(dcoeffs, cap):
    expect = {beta: _eager_moment(dcoeffs, beta) for beta in _all_indices(3, cap + 2)}
    inside = {b: v for b, v in expect.items() if sum(b) <= cap and v != 0}
    beyond = [b for b in expect if sum(b) > cap]
    f = DaggerFunction(H3, TruncatedSeries(3, cap + 2, {b: 1 + sum(b) for b in expect}))

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
        solved = Distribution(H3, cap, make().moments).ensure_dcoeffs()
        assert solved == {a: d for a, d in dcoeffs.items() if d != 0 and sum(a) <= cap}
        assert pair(make(), f) == sum(c * expect[b] for b, c in f.body.terms.items())


def test_lazy_moment_table_is_built_at_most_once(monkeypatch):
    cap = 5
    full = set(_all_indices(3, cap))
    builds = []
    gather = dist_module.gather

    def counting(row, nums, indices):
        if row is dist_module.mahler_row and set(indices) == full:
            builds.append(len(indices))
        return gather(row, nums, indices)

    monkeypatch.setattr(dist_module, "gather", counting)
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
    pair(lam, DaggerFunction(H3, TruncatedSeries(3, 2, {(1, 0, 1): 1, (0, 1, 0): 2})))
    convolve(H3, lam, dirac, cap_out=2)
    assert builds == [len(full)]

"""Acceptance suite: one test per criterion, one printed verdict line each.

Every comparison below is exact (rational exponents / exact rationals); there
are no tolerances anywhere.  Verdict lines are echoed in a terminal-summary
section (see conftest.py) so they survive pytest's output capture.
"""
import json
import random
import sys
from fractions import Fraction

from daggerdist import distributions as dist
from daggerdist.cli import SUITES, run_suites, DEFAULT_SIGMAS
from daggerdist.distributions import Distribution, convolve, random_dcoeff_distribution
from daggerdist.groups import (
    builtin_abelian,
    builtin_heisenberg,
    check_coefficient_bound,
    check_formal_group_axioms,
    check_model_consistency,
    check_polydisc_bound,
    check_pvaluation,
    group_to_config,
    load_group,
)
from daggerdist.mahler import mahler_to_taylor, taylor_to_mahler, verify_norm_identity
from daggerdist.padic import factorial_valuation, parse_fraction, valuation
from daggerdist.report import emit_json
from daggerdist.series import TruncatedSeries

SEED = 20260824
SIGMAS = [parse_fraction(s) for s in DEFAULT_SIGMAS.split(",")]


def builtins():
    return [builtin_abelian(3, 3), builtin_heisenberg(3), builtin_heisenberg(5)]


VERDICT_LINES = []


def _verdict(num, ok, desc):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {desc}"
    VERDICT_LINES.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    assert ok, line


def _random_poly(rng, dim, deg, p, cap):
    terms = {}
    for _ in range(rng.randrange(1, 7)):
        idx = tuple(rng.randrange(deg + 1) for _ in range(dim))
        if sum(idx) <= deg:
            terms[idx] = Fraction(rng.randrange(-(p**3), p**3 + 1), p ** rng.randrange(3))
    terms = {i: c for i, c in terms.items() if c != 0} or {(0,) * dim: Fraction(1)}
    return TruncatedSeries(dim, cap, terms)


def test_criterion_01_gauss_multiplicativity():
    rng = random.Random(f"{SEED}:c1")
    radii = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)]
    failures = 0
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        dim = rng.randrange(1, 4)
        f = _random_poly(rng, dim, 8, p, cap=16)
        g = _random_poly(rng, dim, 8, p, cap=16)
        rho = [rng.choice(radii) for _ in range(dim)]
        lhs = (f * g).gauss_norm(rho, p).mag
        rhs = f.gauss_norm(rho, p).mag * g.gauss_norm(rho, p).mag
        if lhs != rhs:
            failures += 1
    _verdict(1, failures == 0, "Gauss-norm multiplicativity on 200 random pairs")


def test_criterion_02_formal_group_axioms():
    ok = True
    for G in builtins():
        recs = check_formal_group_axioms(G)
        ok &= bool(recs) and all(r.verdict == "pass" for r in recs)
    # mutated law: drop the -p quadratic term from the third polynomial
    cfg = group_to_config(builtin_heisenberg(3))
    cfg["F"][2] = [rec for rec in cfg["F"][2] if sum(rec["index"]) == 1]
    cfg["model"] = None
    recs = check_formal_group_axioms(load_group(cfg))
    failures = [r for r in recs if r.verdict == "fail"]
    # the mutation is detected with a concrete witness monomial (the breakage
    # surfaces on the inverse identity: the mutated law is additive, hence
    # associative, while I keeps its quadratic term)
    ok &= bool(failures) and all(
        r.witness is not None and "index" in r.witness for r in failures
    )
    _verdict(2, ok, "formal group axioms hold; mutated law fails with witness monomial")


def test_criterion_03_model_consistency():
    ok = True
    for G in builtins():
        recs = check_model_consistency(G, samples=100, seed=SEED)
        ok &= all(r.verdict == "pass" for r in recs)
    _verdict(3, ok, "chart law agrees with the matrix model on 100 samples per group")


def test_criterion_04_pvaluation_axioms():
    ok = True
    for G in builtins():
        recs = check_pvaluation(G, samples=100, seed=SEED)
        ok &= len(recs) == 3 and all(r.verdict == "pass" for r in recs)
    _verdict(4, ok, "p-valuation axioms (quotient, commutator, p-th power) on samples")


def test_criterion_05_coefficient_bound():
    ok = True
    for G in builtins():
        recs = check_coefficient_bound(G)
        ok &= all(r.verdict == "pass" for r in recs)
    # spot check: the quadratic coefficient -p of the Heisenberg law at p = 3
    H = builtin_heisenberg(3)
    c = H.F[2].coefficient((0, 1, 0, 1, 0, 0))
    ok &= c == -3 and valuation(c, 3) == 1 and valuation(c, 3) >= Fraction(1, 2)
    _verdict(5, ok, "every group-law coefficient meets the weighted valuation bound")


def test_criterion_06_polydisc_bound():
    ok = True
    for G in builtins():
        for N in range(1, 9):
            recs = check_polydisc_bound(G, N)
            ok &= all(r.verdict == "pass" for r in recs)
    _verdict(6, ok, "polydisc norm bound for F and I at levels N = 1..8")


def test_criterion_07_mahler_norm_identity():
    rng = random.Random(f"{SEED}:c7")
    radii = [Fraction(1, 4), Fraction(1, 2), Fraction(1)]
    ok = True
    for t in range(100):
        p = rng.choice([2, 3, 5])
        dim, deg = (1, 12) if t % 2 == 0 else (2, 6)
        f = _random_poly(rng, dim, deg, p, cap=deg)
        rho = [rng.choice(radii)] * dim
        equal, _, _ = verify_norm_identity(f, rho, p)
        ok &= equal
        ok &= mahler_to_taylor(taylor_to_mahler(f)) == f
    _verdict(7, ok, "Gauss norm equals binomial-basis norm; conversion round-trips")


def test_criterion_08_factorial_valuation():
    ok = True
    for p in (2, 3, 5):
        v = 0
        for n in range(1, 2001):
            m = n
            while m % p == 0:
                v += 1
                m //= p
            ok &= factorial_valuation(n, p) == v
        ok &= factorial_valuation(0, p) == 0
    _verdict(8, ok, "v(n!) closed form matches direct factorization, n <= 2000")


def test_criterion_09_convolution_algebra():
    G = builtin_heisenberg(3)
    rng = random.Random(f"{SEED}:c9")
    cap = 4
    ok = True

    def pt():
        return [Fraction(rng.randrange(3**6)) for _ in range(3)]

    for _ in range(50):
        x, y = pt(), pt()
        conv = convolve(G, Distribution.dirac(G, x, cap), Distribution.dirac(G, y, cap), cap_out=cap)
        ok &= conv.moments == Distribution.dirac(G, G.multiply(x, y), cap).moments
    for _ in range(25):
        x, y, z = pt(), pt(), pt()
        dx, dy, dz = (Distribution.dirac(G, v, cap) for v in (x, y, z))
        left = convolve(G, convolve(G, dx, dy, cap_out=cap), dz, cap_out=cap)
        right = convolve(G, dx, convolve(G, dy, dz, cap_out=cap), cap_out=cap)
        ok &= left.moments == right.moments
    unit = Distribution.dirac(G, G.identity, cap)
    lam = Distribution.dirac(G, pt(), cap)
    ok &= convolve(G, unit, lam, cap_out=cap).moments == lam.moments
    ok &= convolve(G, lam, unit, cap_out=cap).moments == lam.moments
    for _ in range(10):
        x, y = pt(), pt()
        conv = convolve(
            G, Distribution.dirac(G, x, cap), Distribution.dirac(G, y, cap), cap_out=cap, opposite=True
        )
        ok &= conv.moments == Distribution.dirac(G, G.multiply(y, x), cap).moments
    _verdict(9, ok, "Dirac convolution: homomorphism, associativity, unit, opposite order")


def test_criterion_10_st_norm_submultiplicative():
    G = builtin_heisenberg(3)
    # (HYP): 2 * min(omega) = 2 > p/(p-1) = 3/2
    assert 2 * min(G.omega) > Fraction(G.p, G.p - 1)
    ok = True
    for sigma in SIGMAS:
        recs = dist.check_submultiplicative(G, sigma, trials=100, seed=SEED, cap=4)
        ok &= all(r.verdict == "lower-bound-pass" for r in recs)
    _verdict(10, ok, "||lam * mu||_s <= ||lam||_s ||mu||_s on 100 pairs per sigma")


def test_criterion_11_banach_bound():
    G = builtin_heisenberg(3)
    ok = True
    for N in (1, 2, 4, 8):
        recs = dist.check_banach_submult_N(G, N, trials=100, seed=SEED, cap=4)
        ok &= all(r.verdict == "lower-bound-pass" for r in recs)
    _verdict(11, ok, "level-N dual Banach norm submultiplicative (c = 1), N in {1,2,4,8}")


def test_criterion_12_tower_and_comparison():
    G = builtin_heisenberg(3)
    rng = random.Random(f"{SEED}:c12")
    samples = [random_dcoeff_distribution(G, rng, cap=8) for _ in range(8)]
    samples.append(Distribution.dirac(G, [3, 9, 27], 8))
    ok = all(r.verdict == "pass" for r in dist.check_norm_tower(samples, max_N=8))

    qualifying = {"embeddings/comparison-contraction": 0, "embeddings/comparison-continuity": 0}
    for N in range(1, 9):
        for sigma in SIGMAS:
            for lam in samples:
                for rec in dist.check_comparison_maps(G, N, sigma, lam):
                    if rec.verdict == "regime-unmet":
                        continue
                    ok &= rec.verdict == "pass"
                    qualifying[rec.check_id] += 1
    # the two-sided comparison needs at least one qualifying grid point in
    # each direction
    ok &= all(count > 0 for count in qualifying.values())
    _verdict(12, ok, "norm tower monotone; two-sided comparison on the (N, sigma) grid")


def test_criterion_13_determinism():
    G = builtin_heisenberg(3)
    n_range = list(range(1, 9))

    def run():
        rep = run_suites(
            G, list(SUITES), n_range, SIGMAS, cap=8, trials=100, seed=7
        )
        return emit_json(rep)

    first, second = run(), run()
    ok = first == second and json.loads(first)["schema"] == 1
    ok &= not json.loads(first)["counts"]["fail"]
    _verdict(13, ok, "full suite emits byte-identical JSON across runs")

"""Distributions on a p-valued group: Diracs, basis monomials, convolution,
and the three norm families.

A distribution carries truncated moment data mu_beta = lambda(Z^beta) as the
primary representation; the coefficients d_alpha in the (g_i - 1)-monomial
basis are derived exactly as d_alpha = lambda(binom(Z, alpha)).  A finite
basis combination derives its moments only when they are read.  Convolution
consumes the moment side through the expanded group-law monomials F^gamma,
compiled once per group and output cap into a plan that names the moments it
reads; the basis side feeds every norm.  Norms computed from truncated data
are certified lower bounds and are only ever placed on the small side of
asserted inequalities.  Both basis changes gather int numerators over a
common denominator through the basis rows of :mod:`daggerdist.padic`, the
transpose of the Mahler conversions; the norm weights are tabled per index.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .groups import PValuedGroup, Point
from .padic import (
    LogMag,
    MultiIndex,
    WeightTable,
    binom_value,
    format_fraction,
    gather,
    grlex_key,
    mahler_row,
    multi_factorial,
    numerators,
    p_power_at_most,
    taylor_row,
    valuation,
    weight_table,
    weighted_sup,
)
from .report import FAIL, LOWER_BOUND_PASS, PASS, REGIME_UNMET, CheckRecord, record
from .series import NormValue


class InsufficientCap(ValueError):
    pass


@lru_cache(maxsize=None)
def _indices_up_to(d: int, cap: int) -> Tuple[MultiIndex, ...]:
    """All multi-indices of dimension d with total degree <= cap, grlex order."""

    def gen(rest: int, budget: int):
        if rest == 0:
            yield ()
            return
        for k in range(budget + 1):
            for tail in gen(rest - 1, budget - k):
                yield (k,) + tail

    return tuple(sorted(gen(d, cap), key=grlex_key))


def _ratio(num: int, den: int):
    """num / den exactly: an int when den divides num, else a Fraction."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def basis_moment(beta: MultiIndex, alpha: MultiIndex) -> int:
    """Moment of the basis monomial b^alpha at Z^beta: prod s(beta_i, alpha_i) * alpha!."""
    if len(beta) != len(alpha):
        raise ValueError("length mismatch")
    return gather(mahler_row, {tuple(alpha): 1}, [tuple(beta)])[0]


def _binomials(x, cap: int) -> list:
    """binom(x, k) for k = 0..cap; at an int x by math.comb, using (-1)^k C(k - x - 1, k) for x < 0."""
    if type(x) is not int:
        return [binom_value(x, k) for k in range(cap + 1)]
    if x >= 0:
        return [math.comb(x, k) for k in range(cap + 1)]
    return [(-1) ** k * math.comb(k - x - 1, k) for k in range(cap + 1)]


def _exact(v):
    """Ints are kept as they are (exact, and equal to the same Fraction); the rest become Fractions."""
    return v if type(v) is int else Fraction(v)


class Distribution:
    """Truncated moment family with optional basis coefficients.

    ``exact`` means the stored data determines the whole distribution: either
    ``point`` is set (a Dirac, moments are monomial evaluations) or ``dcoeffs``
    is the complete finite basis expansion.  Exact distributions can produce
    moments of any degree on demand.  Moments and coefficients are exact
    rationals, stored as ``int`` where they are integers.

    ``moments`` may be None for an exact basis expansion without a point: the
    moments up to cap are then derived from ``dcoeffs`` on first read, once.
    """

    def __init__(
        self,
        group: PValuedGroup,
        cap: int,
        moments: Optional[Dict[MultiIndex, Fraction]],
        dcoeffs: Optional[Dict[MultiIndex, Fraction]] = None,
        exact: bool = False,
        point: Optional[Point] = None,
    ):
        self.group = group
        self.cap = cap
        self._moments = None if moments is None else {tuple(k): _exact(v) for k, v in moments.items()}
        self.dcoeffs = None if dcoeffs is None else {tuple(k): _exact(v) for k, v in dcoeffs.items()}
        self.exact = bool(exact)
        self.point = None if point is None else tuple(Fraction(c) for c in point)
        if self.exact and self.point is None and self.dcoeffs is None:
            raise ValueError("an exact distribution needs a point or a full basis expansion")
        if moments is None and not (self.exact and self.point is None and self.dcoeffs is not None):
            raise ValueError("only an exact basis expansion without a point can derive its moments")

    # -- construction ------------------------------------------------------

    @classmethod
    def dirac(cls, G: PValuedGroup, x: Sequence, cap: int) -> "Distribution":
        """The point mass at x: mu_beta = x^beta and d_beta = binom(x, beta) for |beta| <= cap.

        It is exact, and so are its norms although ``dcoeffs`` stop at cap:
        |binom(x, alpha)|_p <= 1 on Z_p with equality at alpha = 0, so every
        norm with positive weights is p^0, attained at alpha = 0.
        """
        x = G.check_point(x)
        # per-coordinate tables of x_i^k and binom(x_i, k), in int arithmetic at integer coordinates
        coords = [c.numerator if c.denominator == 1 else c for c in x]
        powers = [[c**k for k in range(cap + 1)] for c in coords]
        binoms = [_binomials(c, cap) for c in coords]
        moments, dcoeffs = {}, {}
        for beta in _indices_up_to(G.d, cap):
            mu = dv = 1
            for pw, bn, b in zip(powers, binoms, beta):
                mu *= pw[b]
                dv *= bn[b]
            if mu:
                moments[beta] = mu
            if dv:
                dcoeffs[beta] = dv
        return cls(G, cap, moments, dcoeffs, exact=True, point=x)

    @classmethod
    def b_monomial(cls, G: PValuedGroup, alpha: Sequence[int], cap: int) -> "Distribution":
        alpha = tuple(int(a) for a in alpha)
        if sum(alpha) > cap:
            raise ValueError(f"|alpha|={sum(alpha)} exceeds cap {cap}")
        return cls.from_dcoeffs(G, {alpha: Fraction(1)}, cap)

    @classmethod
    def from_dcoeffs(cls, G: PValuedGroup, dcoeffs: Dict[MultiIndex, Fraction], cap: int) -> "Distribution":
        """A finite basis combination; exact by construction, its moments derived when read."""
        dcoeffs = {tuple(k): _exact(v) for k, v in dcoeffs.items() if v != 0}
        return cls(G, cap, None, dcoeffs, exact=True)

    # -- moments and basis coefficients ------------------------------------

    @property
    def moments(self) -> Dict[MultiIndex, Fraction]:
        """The nonzero moments of degree <= cap; a basis combination derives them on first read."""
        if self._moments is None:
            indices = _indices_up_to(self.group.d, self.cap)
            nums, den = self._moment_numerators(indices)
            self._moments = {beta: _ratio(num, den) for beta, num in zip(indices, nums) if num}
        return self._moments

    def moment(self, beta: MultiIndex) -> Fraction:
        beta = tuple(beta)
        if sum(beta) <= self.cap:
            return self.moments.get(beta, 0)
        if self.point is not None:
            mu = Fraction(1)
            for c, b in zip(self.point, beta):
                if b:
                    mu *= c**b
            return mu
        if self.exact and self.dcoeffs is not None:
            nums, den = numerators(self.dcoeffs)
            return _ratio(gather(mahler_row, nums, [beta])[0], den)
        raise InsufficientCap(f"moment {beta} beyond cap {self.cap} of a truncated distribution")

    def _moment_numerators(self, indices: Sequence[MultiIndex]) -> Tuple[List[int], int]:
        """The moments at indices, of any degree, as int numerators over one common denominator."""
        if self._moments is None:
            nums, den = numerators(self.dcoeffs)
            return gather(mahler_row, nums, indices), den
        table, cap = self._moments, self.cap
        values = [table.get(beta, 0) if sum(beta) <= cap else self.moment(beta) for beta in indices]
        den = math.lcm(*(v.denominator for v in values))
        return [v.numerator * (den // v.denominator) for v in values], den

    def ensure_dcoeffs(self) -> Dict[MultiIndex, Fraction]:
        """Derive d_alpha = lambda(binom(Z, alpha)) from the moments, for |alpha| <= cap."""
        if self.dcoeffs is None:
            indices = _indices_up_to(self.group.d, self.cap)
            moments, den = numerators(self.moments)
            nums = zip(indices, gather(taylor_row, moments, indices))
            self.dcoeffs = {alpha: _ratio(num, den * multi_factorial(alpha)) for alpha, num in nums if num}
        return self.dcoeffs

    def total_mass(self) -> Fraction:
        return self.moment((0,) * self.group.d)

    def __eq__(self, other):
        if not isinstance(other, Distribution):
            return NotImplemented
        cap = min(self.cap, other.cap)
        for beta in _indices_up_to(self.group.d, cap):
            if self.moment(beta) != other.moment(beta):
                return False
        return True

    def __repr__(self):
        tag = "exact" if self.exact else "truncated"
        return f"Distribution(cap={self.cap}, {tag}, mass={self.total_mass()})"


def _compile_plan(G: PValuedGroup, cap_out: int) -> tuple:
    """The law monomials F^gamma, |gamma| <= cap_out, as sums over the moments they pair.

    F^gamma = sum_{i, j} c_ij X^i Y^j / den, so (lam x mu)(F^gamma) =
    sum_i lam(Z^i) sum_j c_ij mu(Z^j) / den.  Returns (rows, left, right,
    den): ``rows`` holds, per gamma in grlex order, the pairs (position of i
    in ``left``, ((position of j in ``right``, c_ij), ...)); the c_ij are int
    numerators over the common denominator ``den`` of the law coefficients
    (1 for integral laws).
    """
    d, degmax = G.d, G.degmax()
    monomials = [
        (gamma, G.f_monomial(gamma, cap=max(degmax * sum(gamma), 1)).terms)
        for gamma in _indices_up_to(d, cap_out)
    ]
    den = math.lcm(*(c.denominator for _, terms in monomials for c in terms.values()))
    left: Dict[MultiIndex, int] = {}
    right: Dict[MultiIndex, int] = {}
    rows = []
    for gamma, terms in monomials:
        by_left: Dict[int, list] = {}
        for idx, c in terms.items():
            i = left.setdefault(idx[:d], len(left))
            j = right.setdefault(idx[d:], len(right))
            by_left.setdefault(i, []).append((j, c.numerator * (den // c.denominator)))
        rows.append((gamma, tuple((i, tuple(pairs)) for i, pairs in by_left.items())))
    return tuple(rows), tuple(left), tuple(right), den


def convolve(
    G: PValuedGroup,
    lam: Distribution,
    mu: Distribution,
    cap_out: Optional[int] = None,
    opposite: bool = False,
) -> Distribution:
    """Convolution through the group law: nu_gamma = (lam x mu)(F^gamma).

    The primary convention pairs Diracs as delta_x * delta_y = delta_{xy};
    ``opposite=True`` selects the reversed convention delta_x * delta_y =
    delta_{yx} by swapping the factors.  The sum runs from the group's cached
    plan for cap_out, in ints over one common denominator, and reads each
    input's moments once, at the indices the plan names.
    """
    if opposite:
        return convolve(G, mu, lam, cap_out=cap_out, opposite=False)
    if lam.group is not G or mu.group is not G:
        raise ValueError("distributions must live on the given group")
    degmax = G.degmax()
    if cap_out is None:
        if lam.exact and mu.exact:
            cap_out = min(lam.cap, mu.cap)
        else:
            cap_out = min(lam.cap, mu.cap) // degmax
    needed = degmax * cap_out
    for side in (lam, mu):
        if not side.exact and side.cap < needed:
            raise InsufficientCap(
                f"truncated input of cap {side.cap} cannot support output cap {cap_out} "
                f"(needs moments up to degree {needed})"
            )
    plan, left, right, law_den = G.plan(("convolution", cap_out), lambda G: _compile_plan(G, cap_out))
    m1, den1 = lam._moment_numerators(left)
    m2, den2 = mu._moment_numerators(right)
    den = den1 * den2 * law_den
    moments: Dict[MultiIndex, Fraction] = {}
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
            moments[gamma] = _ratio(acc, den)
    point = None
    exact = False
    if lam.point is not None and mu.point is not None:
        point = G.multiply(lam.point, mu.point)
        exact = True
    return Distribution(G, cap_out, moments, exact=exact, point=point)


# -- norm families ---------------------------------------------------------


def _weighted_sup(lam: Distribution, weights: Sequence[Fraction], factorial: bool) -> NormValue:
    """sup over the basis coefficients of -v(d_alpha) - [v(alpha!)] - sum_i w_i alpha_i."""
    p = lam.group.p
    table = weight_table(tuple(weights), p if factorial else None)
    return NormValue(weighted_sup(lam.ensure_dcoeffs(), p, table, sign=-1), lam.exact)


def st_norm(lam: Distribution, sigma: Fraction) -> NormValue:
    """sup |d_alpha| s^(tau alpha) with s = p^-sigma and tau(alpha) = sum omega_i alpha_i."""
    sigma = Fraction(sigma)
    return _weighted_sup(lam, [sigma * w for w in lam.group.omega], factorial=False)


def st_norm_prime(lam: Distribution, sigma: Fraction) -> NormValue:
    """sup |d_alpha| s^|alpha|."""
    return _weighted_sup(lam, [Fraction(sigma)] * lam.group.d, factorial=False)


def dagger_seminorm(lam: Distribution, sigma: Fraction) -> NormValue:
    """sup |alpha! d_alpha| s^|alpha|."""
    return _weighted_sup(lam, [Fraction(sigma)] * lam.group.d, factorial=True)


def dagger_norm(lam: Distribution, N: int) -> NormValue:
    """Dual Banach norm at level N: sup |alpha! d_alpha| p^(-sum tau_{N,i} alpha_i)."""
    return _weighted_sup(lam, lam.group.neighborhood_params(N).tau, factorial=True)


# -- randomized families for property checks -------------------------------


def random_dcoeff_distribution(
    G: PValuedGroup, rng: random.Random, cap: int, support_degree: int = 3, nterms: int = 4
) -> Distribution:
    """Seeded finitely-supported basis combination with p-power-scaled coefficients."""
    indices = [a for a in _indices_up_to(G.d, support_degree) if sum(a) > 0]
    dcoeffs: Dict[MultiIndex, Fraction] = {}
    for _ in range(nterms):
        alpha = indices[rng.randrange(len(indices))]
        num = rng.randrange(-(G.p**3), G.p**3) or 1
        shift = rng.randrange(-1, 2)
        dcoeffs[alpha] = dcoeffs.get(alpha, Fraction(0)) + Fraction(num) * Fraction(G.p) ** shift
    dcoeffs = {a: v for a, v in dcoeffs.items() if v != 0}
    if not dcoeffs:
        dcoeffs = {(0,) * G.d: Fraction(1)}
    return Distribution.from_dcoeffs(G, dcoeffs, cap)


# -- inequality checkers ---------------------------------------------------


def _large_side(a: NormValue, b: NormValue) -> LogMag:
    """The product ||a|| ||b|| on the large side of an inequality; both must be exact norms.

    A truncated norm is only a lower bound, and a lower bound on the large
    side would make a pass unsound.
    """
    if not (a.is_exact and b.is_exact):
        raise ValueError("a truncated norm (a lower bound) cannot sit on the large side of an inequality")
    return a.mag * b.mag


def check_submultiplicative(
    G: PValuedGroup,
    sigma: Fraction,
    trials: int = 100,
    seed: int = 0,
    cap: int = 4,
) -> List[CheckRecord]:
    """Truncated ||lam * mu||_s <= ||lam||_s ||mu||_s on random exact pairs.

    Requires 0 < sigma <= 1 (that is s in [1/p, 1)); the left side is a
    certified lower bound so a pass is sound.
    """
    sigma = Fraction(sigma)
    if not 0 < sigma <= 1:
        return [
            CheckRecord(
                check_id="norms/st-submultiplicative",
                anchor="submultiplicativity is only claimed for s in [1/p, 1)",
                verdict=REGIME_UNMET,
                params={"group": G.name, "sigma": sigma},
                details={"reason": "sigma outside (0, 1]"},
            )
        ]
    rng = random.Random(f"{seed}:submult:{G.name}:{sigma}")
    bad = []
    for _ in range(trials):
        lam = random_dcoeff_distribution(G, rng, cap=G.degmax() * cap)
        mu = random_dcoeff_distribution(G, rng, cap=G.degmax() * cap)
        conv = convolve(G, lam, mu, cap_out=cap)
        lhs = st_norm(conv, sigma)
        rhs = _large_side(st_norm(lam, sigma), st_norm(mu, sigma))
        if not lhs.mag <= rhs:
            bad.append(
                {
                    "lam": {str(a): format_fraction(v) for a, v in lam.dcoeffs.items()},
                    "mu": {str(a): format_fraction(v) for a, v in mu.dcoeffs.items()},
                    "lhs": lhs.mag,
                    "rhs": rhs,
                }
            )
    return [
        record(
            "norms/st-submultiplicative",
            "||lam * mu||_s <= ||lam||_s ||mu||_s (truncated left side)",
            {"group": G.name, "sigma": sigma, "trials": trials, "seed": seed, "cap": cap},
            bad,
            ok=LOWER_BOUND_PASS,
        )
    ]


def check_banach_submult_N(
    G: PValuedGroup, N: int, trials: int = 100, seed: int = 0, cap: int = 4
) -> List[CheckRecord]:
    """Truncated ||lam * mu||_N <= ||lam||_N ||mu||_N on random exact pairs."""
    rng = random.Random(f"{seed}:banach:{G.name}:{N}")
    bad = []
    bound = G.p**6
    for t in range(trials):
        if t % 2 == 0:
            lam = Distribution.dirac(G, [Fraction(rng.randrange(bound)) for _ in range(G.d)], G.degmax() * cap)
            mu = Distribution.dirac(G, [Fraction(rng.randrange(bound)) for _ in range(G.d)], G.degmax() * cap)
        else:
            lam = random_dcoeff_distribution(G, rng, cap=G.degmax() * cap)
            mu = random_dcoeff_distribution(G, rng, cap=G.degmax() * cap)
        conv = convolve(G, lam, mu, cap_out=cap)
        lhs = dagger_norm(conv, N)
        rhs = _large_side(dagger_norm(lam, N), dagger_norm(mu, N))
        if not lhs.mag <= rhs:
            bad.append({"trial": t, "lhs": lhs.mag, "rhs": rhs})
    return [
        record(
            "norms/banach-submultiplicative",
            "level-N dual Banach norm is submultiplicative (c = 1, truncated left side)",
            {"group": G.name, "N": N, "trials": trials, "seed": seed, "cap": cap},
            bad,
            ok=LOWER_BOUND_PASS,
        )
    ]


def check_norm_tower(lams: Sequence[Distribution], max_N: int = 8) -> List[CheckRecord]:
    """||lam||_N <= ||lam||_{N+1} for every stored distribution."""
    bad = []
    group_name = lams[0].group.name if lams else "-"
    for k, lam in enumerate(lams):
        for N in range(1, max_N + 1):
            lo = dagger_norm(lam, N).mag
            hi = dagger_norm(lam, N + 1).mag
            if not lo <= hi:
                bad.append({"sample": k, "N": N, "lower": lo, "upper": hi})
    return [
        record(
            "norms/tower-monotone",
            "dual Banach norms increase with the level N",
            {"group": group_name, "max_N": max_N, "samples": len(lams)},
            bad,
        )
    ]


def check_sandwich(lam: Distribution, sigma: Fraction) -> List[CheckRecord]:
    """||.||'_{s^min omega} <= ||.||_s <= ||.||'_{s^max omega}."""
    sigma = Fraction(sigma)
    G = lam.group
    lo = st_norm_prime(lam, sigma * min(G.omega))
    mid = st_norm(lam, sigma)
    hi = st_norm_prime(lam, sigma * max(G.omega))
    ok = lo.mag <= mid.mag <= hi.mag
    return [
        CheckRecord(
            check_id="norms/sandwich",
            anchor="the weighted basis norm sits between the two unweighted scalings",
            verdict=PASS if ok else FAIL,
            params={"group": G.name, "sigma": sigma},
            witness=None if ok else {"lower": lo.mag, "mid": mid.mag, "upper": hi.mag},
        )
    ]


def _weight_violations(
    dcoeffs: Dict[MultiIndex, Fraction], p: int, small: WeightTable, large: WeightTable
) -> List[dict]:
    """The alpha at which |d_alpha| p^(-small(alpha)) <= |d_alpha| p^(-large(alpha)) fails.

    -v(d_alpha) is on both sides, so the weights decide; valuations are taken
    only for the witnesses.
    """
    bad = []
    for alpha, dv in dcoeffs.items():
        if large.exceeds(small, alpha):
            nv = -valuation(dv, p)
            lhs, rhs = nv - small.weight(alpha), nv - large.weight(alpha)
            bad.append({"alpha": list(alpha), "lhs": LogMag(lhs), "rhs": LogMag(rhs)})
    return bad


def check_contact_embedding(lam: Distribution, sigma: Fraction) -> List[CheckRecord]:
    """Per-coefficient inequality behind the inclusion into the Banach completion.

    Regime: sigma * min(omega) > 1/(p-1).  Checked per alpha on the support:
    |d_alpha| s^(tau alpha) <= |alpha! d_alpha| (s^{min omega} theta^-1)^|alpha|.
    """
    sigma = Fraction(sigma)
    G = lam.group
    eps = Fraction(1, G.p - 1)
    min_omega = min(G.omega)
    damping = -sigma * min_omega + eps  # exponent of s^{min omega} theta^-1
    params = {"group": G.name, "sigma": sigma, "damping_exponent": damping}
    if not damping < 0:
        return [
            CheckRecord(
                check_id="embeddings/contact",
                anchor="inclusion regime sigma * min(omega) > 1/(p-1)",
                verdict=REGIME_UNMET,
                params=params,
            )
        ]
    small = weight_table(tuple(sigma * w for w in G.omega), None)
    large = weight_table((-damping,) * G.d, G.p)
    return [
        record(
            "embeddings/contact",
            "per-coefficient damping bound for the inclusion into the completion",
            params,
            _weight_violations(lam.ensure_dcoeffs(), G.p, small, large),
        )
    ]


def check_comparison_maps(
    G: PValuedGroup, N: int, sigma: Fraction, lam: Distribution
) -> List[CheckRecord]:
    """Coefficient-level comparison between the level-N dual and the completion.

    Direction (1), a contraction when tau_{N,j} - sigma*min(omega) + 1/(p-1) < 0
    for all j:  |d_alpha| s^(tau alpha) <= |alpha! d_alpha| p^(-sum tau_j alpha_j).

    Direction (2), continuous when sigma*max(omega) - tau_{N,j} - 1/(p-1) < 0
    for all j, up to the polynomial factor (p * alpha_1) ... (p * alpha_d)
    absorbing the digit sums in v(alpha!); the exponent C = 1 of that factor
    is recorded in the report.
    """
    sigma = Fraction(sigma)
    eps = Fraction(1, G.p - 1)
    tau = G.neighborhood_params(N).tau
    min_omega, max_omega = min(G.omega), max(G.omega)
    dcoeffs = lam.ensure_dcoeffs()
    completion = weight_table(tuple(sigma * w for w in G.omega), None)
    level = weight_table(tuple(tau), G.p)
    records = []

    regime1 = [t - sigma * min_omega + eps for t in tau]
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
        records.append(
            record(
                "embeddings/comparison-contraction",
                "per-coefficient contraction from the level-N dual into the completion",
                params1,
                _weight_violations(dcoeffs, G.p, completion, level),
            )
        )

    regime2 = [sigma * max_omega - t - eps for t in tau]
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
            # lhs - rhs = damped.weight(alpha) - level.weight(alpha): -v(d_alpha) is on both sides
            gap = Fraction(damped[alpha] * level.den - level[alpha] * damped.den, damped.den * level.den)
            factor = math.prod(G.p * a for a in alpha if a)
            if not p_power_at_most(gap, factor, G.p):
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

"""Distributions on a p-valued group: Diracs, basis combinations, convolution,
and the three norm families.

A distribution carries truncated moment data mu_beta = lambda(Z^beta) as the
primary representation; the coefficients d_alpha in the (g_i - 1)-monomial
basis are derived exactly as d_alpha = lambda(binom(Z, alpha)).  Both tables
are :class:`~daggerdist.series.Coefficients`, int numerators over one
denominator, with read-only Fraction views ``moments`` and ``dcoeffs``.  A
Dirac builds both as tensor products of per-coordinate tables of x_i^k and
binom(x_i, k), through one compiled :func:`~daggerdist.padic.tensor_kernel`
per (d, cap).  A finite basis combination derives its moments only when they
are read.  Convolution consumes the moment side through the expanded
group-law monomials F^gamma, compiled once per group and output cap into a
plan that names the moments it reads.

The basis side feeds every norm through one cached valuation table per
distribution, alpha -> v_p(n_alpha) - v_p(den) over the basis numerators
(:meth:`Distribution.valuations`).  The norm
weights are tabled per index, one :func:`~daggerdist.padic.weight_table` per
distinct weight vector, which each (norm, radius) or (norm, N) finds through
its own key in the group's plans; the comparison maps keep their regime data
per (N, sigma) there too.
Norms computed from truncated data are certified lower bounds and are only
ever placed on the small side of asserted inequalities.  Both basis
changes gather int numerators over a common denominator through the basis
rows of :mod:`daggerdist.padic`, the transpose of the Mahler conversions.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .groups import PValuedGroup, Point
from .padic import (
    LogMag,
    MultiIndex,
    WeightTable,
    binom_value,
    format_fraction,
    gather,
    indices_up_to,
    int_valuation,
    mahler_row,
    multi_factorial,
    numerators,
    p_power_at_most,
    taylor_row,
    tensor_kernel,
    valuation_pairs,
    weight_table,
    weighted_sup,
)
from .report import FAIL, LOWER_BOUND_PASS, PASS, REGIME_UNMET, CheckRecord, record
from .series import Coefficients, NormValue


class InsufficientCap(ValueError):
    pass


def _nonzero(indices, values) -> dict:
    """{index: value} over the nonzero values, in index order."""
    return {i: v for i, v in zip(indices, values) if v}


def _powers(x, cap: int) -> Tuple[List[int], int]:
    """x^k for k = 0..cap, as int numerators over den(x)^cap."""
    a, b = x.numerator, x.denominator
    return [a**k * b ** (cap - k) for k in range(cap + 1)], b**cap


def _binomials(x, cap: int) -> Tuple[List[int], int]:
    """binom(x, k) for k = 0..cap as int numerators over one den, 1 at an int x: math.comb, or (-1)^k C(k-x-1, k)."""
    if type(x) is not int:
        nums, den = numerators({k: binom_value(x, k) for k in range(cap + 1)})
        return list(nums.values()), den
    if x >= 0:
        return [math.comb(x, k) for k in range(cap + 1)], 1
    return [(-1) ** k * math.comb(k - x - 1, k) for k in range(cap + 1)], 1


def _as_table(d: int, values) -> Coefficients:
    """A table as it is, or rationals as a checked table whose cap is its own largest degree."""
    if isinstance(values, Coefficients):
        return values
    return Coefficients(d, max([0, *map(sum, values)]), values)


def _tensor_table(d: int, cap: int, tables: Sequence[Tuple[List[int], int]]) -> Coefficients:
    """The tensor product of d per-coordinate (numerators, den) tables, over the product of their dens."""
    nums, dens = zip(*tables)
    values = tensor_kernel(d, cap)(*nums)
    return Coefficients.from_numerators(d, cap, _nonzero(indices_up_to(d, cap), values), math.prod(dens))


class Distribution:
    """Truncated moment family with optional basis coefficients.

    ``exact`` means the stored data determines the whole distribution: either
    ``point`` is set (a Dirac, moments are monomial evaluations) or
    ``basis_table`` is the complete finite basis expansion.  Exact
    distributions can produce moments of any degree on demand.  The point's
    coordinates are exact rationals, kept as ``int`` where they are integers
    (as :meth:`PValuedGroup.check_point` or ``multiply`` gives it).

    Either table is given as rationals or as a table, kept as it is.  The
    moment table may be None for an exact basis expansion without a point:
    the moments up to cap are then derived on first read, once.
    """

    def __init__(
        self,
        group: PValuedGroup,
        cap: int,
        moments: Optional[Mapping[MultiIndex, Fraction] | Coefficients],
        dcoeffs: Optional[Mapping[MultiIndex, Fraction] | Coefficients] = None,
        exact: bool = False,
        point: Optional[Point] = None,
    ):
        self.group = group
        self.cap = cap
        self._moments = None if moments is None else _as_table(group.d, moments)
        self.basis_table = None if dcoeffs is None else _as_table(group.d, dcoeffs)
        self.exact = bool(exact)
        self.point = None if point is None else group.check_point(point)
        self._valuations = None
        if self.exact and self.point is None and self.basis_table is None:
            raise ValueError("an exact distribution needs a point or a full basis expansion")
        if moments is None and not (self.exact and self.point is None and self.basis_table is not None):
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
        # per-coordinate tables of x_i^k and binom(x_i, k) as int numerators (over 1 at integer
        # coordinates), multiplied out by the tensor kernel
        moments = _tensor_table(G.d, cap, [_powers(c, cap) for c in x])
        basis = _tensor_table(G.d, cap, [_binomials(c, cap) for c in x])
        return cls(G, cap, moments, basis, exact=True, point=x)

    @classmethod
    def from_dcoeffs(
        cls, G: PValuedGroup, dcoeffs: Mapping[MultiIndex, Fraction] | Coefficients, cap: int
    ) -> "Distribution":
        """A finite basis combination, as rationals or as a table; exact, its moments derived when read."""
        return cls(G, cap, None, dcoeffs, exact=True)

    # -- moments and basis coefficients ------------------------------------

    @property
    def moment_table(self) -> Coefficients:
        """The nonzero moments of degree <= cap; a basis combination derives them on first read."""
        if self._moments is None:
            indices = indices_up_to(self.group.d, self.cap)
            nums, den = self._moment_numerators(indices)
            self._moments = Coefficients.from_numerators(self.group.d, self.cap, _nonzero(indices, nums), den)
        return self._moments

    @property
    def moments(self) -> Mapping[MultiIndex, Fraction]:
        """The moment table as read-only Fractions."""
        return self.moment_table.terms

    @property
    def dcoeffs(self) -> Optional[Mapping[MultiIndex, Fraction]]:
        """The basis table as read-only Fractions; None until it is given or derived."""
        return None if self.basis_table is None else self.basis_table.terms

    def moment(self, beta: MultiIndex) -> Fraction:
        beta = tuple(beta)
        if sum(beta) <= self.cap:
            return self.moments.get(beta, 0)
        if self.point is not None:
            return math.prod(c**b for c, b in zip(self.point, beta))
        if self.exact and self.basis_table is not None:
            return Fraction(gather(mahler_row, self.basis_table.nums, [beta])[0], self.basis_table.den)
        raise InsufficientCap(f"moment {beta} beyond cap {self.cap} of a truncated distribution")

    def _moment_numerators(self, indices: Sequence[MultiIndex]) -> Tuple[List[int], int]:
        """The moments at indices, of any degree, as int numerators over one common denominator."""
        if self._moments is None:
            return gather(mahler_row, self.basis_table.nums, indices), self.basis_table.den
        table, cap = self._moments, self.cap
        # the moments beyond cap come from the point or the basis table, and are scaled over den too
        values = [table.nums.get(b, 0) if sum(b) <= cap else self.moment(b) * table.den for b in indices]
        scale = math.lcm(*(v.denominator for v in values))
        return [v.numerator * (scale // v.denominator) for v in values], table.den * scale

    def ensure_dcoeffs(self) -> Coefficients:
        """The basis table, derived without one as d_alpha = lambda(binom(Z, alpha)) for |alpha| <= cap.

        alpha! d_alpha gathers the Taylor rows, so the table is over den * lcm(alpha!) = den * cap!.
        """
        if self.basis_table is None:
            indices, table = indices_up_to(self.group.d, self.cap), self.moment_table
            lcm = math.factorial(self.cap)
            nums = zip(indices, gather(taylor_row, table.nums, indices))
            nums = {alpha: n * (lcm // multi_factorial(alpha)) for alpha, n in nums if n}
            self.basis_table = Coefficients.from_numerators(self.group.d, self.cap, nums, table.den * lcm)
        return self.basis_table

    def valuations(self) -> Dict[MultiIndex, int]:
        """alpha -> v_p(d_alpha) = v_p(n_alpha) - v_p(den) over the basis table, in its order; computed once."""
        if self._valuations is None:
            p, table = self.group.p, self.ensure_dcoeffs()
            v_den = int_valuation(table.den, p)
            self._valuations = {a: v - v_den for a, v in valuation_pairs(table.nums, p)}
        return self._valuations

    def total_mass(self) -> Fraction:
        return self.moment((0,) * self.group.d)

    def __eq__(self, other):
        if not isinstance(other, Distribution):
            return NotImplemented
        cap = min(self.cap, other.cap)
        for beta in indices_up_to(self.group.d, cap):
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
    numerators over ``den``, the lcm of the stored denominators of the F^gamma
    (1 for integral laws).
    """
    d, degmax = G.d, G.degmax()
    monomials = [(gamma, G.f_monomial(gamma, max(degmax * sum(gamma), 1))) for gamma in indices_up_to(d, cap_out)]
    den = math.lcm(*(f.den for _, f in monomials))
    left: Dict[MultiIndex, int] = {}
    right: Dict[MultiIndex, int] = {}
    rows = []
    for gamma, f in monomials:
        scale = den // f.den
        by_left: Dict[int, list] = {}
        for idx, n in f.nums.items():
            i = left.setdefault(idx[:d], len(left))
            j = right.setdefault(idx[d:], len(right))
            by_left.setdefault(i, []).append((j, n * scale))
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
    nums: Dict[MultiIndex, int] = {}
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
    moments = Coefficients.from_numerators(G.d, cap_out, nums, den1 * den2 * law_den)
    # a product of Diracs is the Dirac at the product of the points
    point = None
    if lam.point is not None and mu.point is not None:
        point = G.multiply(lam.point, mu.point)
    return Distribution(G, cap_out, moments, exact=point is not None, point=point)


# -- norm families ---------------------------------------------------------


def _table(G: PValuedGroup, key: tuple, weights, factorial: bool) -> WeightTable:
    """:func:`~daggerdist.padic.weight_table` of ``weights(G)``, found through ``key``: a norm call builds no vector."""
    return G.plan(key, lambda G: weight_table(tuple(weights(G)), G.p if factorial else None))


def _st_table(G: PValuedGroup, sigma: Fraction) -> WeightTable:
    """The weights sigma * omega_i of ||.||_s, shared by the norm and the embedding checks."""
    return _table(G, ("st_norm", sigma), lambda G: (Fraction(sigma) * w for w in G.omega), False)


def _dagger_table(G: PValuedGroup, N: int) -> WeightTable:
    """The weights tau_{N,i} plus v_p(alpha!) of ||.||_N, shared by the norm and the comparison maps."""
    return _table(G, ("dagger_norm", N), lambda G: G.neighborhood_params(N).tau, True)


def _weighted_sup(lam: Distribution, table: WeightTable) -> NormValue:
    """sup over the basis coefficients of -v(d_alpha) - table.weight(alpha)."""
    return NormValue(weighted_sup(lam.valuations().items(), lam.group.p, table, sign=-1), lam.exact)


def st_norm(lam: Distribution, sigma: Fraction) -> NormValue:
    """sup |d_alpha| s^(tau alpha) with s = p^-sigma and tau(alpha) = sum omega_i alpha_i."""
    return _weighted_sup(lam, _st_table(lam.group, sigma))


def st_norm_prime(lam: Distribution, sigma: Fraction) -> NormValue:
    """sup |d_alpha| s^|alpha|."""
    return _weighted_sup(lam, _table(lam.group, ("st_norm_prime", sigma), lambda G: [Fraction(sigma)] * G.d, False))


def dagger_seminorm(lam: Distribution, sigma: Fraction) -> NormValue:
    """sup |alpha! d_alpha| s^|alpha|."""
    return _weighted_sup(lam, _table(lam.group, ("dagger_seminorm", sigma), lambda G: [Fraction(sigma)] * G.d, True))


def dagger_norm(lam: Distribution, N: int) -> NormValue:
    """Dual Banach norm at level N: sup |alpha! d_alpha| p^(-sum tau_{N,i} alpha_i)."""
    return _weighted_sup(lam, _dagger_table(lam.group, N))


# -- randomized families for property checks -------------------------------


def random_dcoeff_distribution(
    G: PValuedGroup, rng: random.Random, cap: int, support_degree: int = 3, nterms: int = 4
) -> Distribution:
    """Seeded finitely-supported basis combination with p-power-scaled coefficients."""
    indices = [a for a in indices_up_to(G.d, support_degree) if sum(a) > 0]
    p = G.p
    nums: Dict[MultiIndex, int] = {}
    for _ in range(nterms):
        alpha = indices[rng.randrange(len(indices))]
        num = rng.randrange(-(p**3), p**3) or 1
        shift = rng.randrange(-1, 2)
        # num * p^shift for shift in {1, 0, -1}, as a numerator over p
        nums[alpha] = nums.get(alpha, 0) + num * p ** (shift + 1)
    nums = {a: n for a, n in nums.items() if n} or {(0,) * G.d: p}
    return Distribution.from_dcoeffs(G, Coefficients.from_numerators(G.d, support_degree, nums, p), cap)


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
        anchor = "submultiplicativity is only claimed for s in [1/p, 1)"
        params = {"group": G.name, "sigma": sigma}
        return [_regime_unmet("norms/st-submultiplicative", anchor, params, reason="sigma outside (0, 1]")]
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
        if t % 2 == 0:  # Diracs at cap: exact, read beyond it from the point, of norm p^0 at every cap
            lam = Distribution.dirac(G, [rng.randrange(bound) for _ in range(G.d)], cap)
            mu = Distribution.dirac(G, [rng.randrange(bound) for _ in range(G.d)], cap)
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


def _regime_unmet(check_id: str, anchor: str, params: dict, **details) -> CheckRecord:
    """The record of a conditional check whose hypothesis, the regime ``anchor`` names, fails."""
    return CheckRecord(check_id=check_id, anchor=anchor, verdict=REGIME_UNMET, params=params, details=details)


def _weight_violations(valuations: Dict[MultiIndex, int], small: WeightTable, large: WeightTable) -> List[dict]:
    """The alpha at which |d_alpha| p^(-small(alpha)) <= |d_alpha| p^(-large(alpha)) fails.

    -v(d_alpha) is on both sides, so the weights decide; the valuations are
    read only for the witnesses.
    """
    bad = []
    for alpha, v in valuations.items():
        if large.exceeds(small, alpha):
            lhs, rhs = -v - small.weight(alpha), -v - large.weight(alpha)
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
        return [_regime_unmet("embeddings/contact", "inclusion regime sigma * min(omega) > 1/(p-1)", params)]
    small = _st_table(G, sigma)
    large = _table(G, ("contact", sigma), lambda G: (-damping,) * G.d, True)
    return [
        record(
            "embeddings/contact",
            "per-coefficient damping bound for the inclusion into the completion",
            params,
            _weight_violations(lam.valuations(), small, large),
        )
    ]


def _comparison_plan(G: PValuedGroup, N: int, sigma: Fraction) -> tuple:
    """(regime1, contraction, regime2, completion, level, damped) for check_comparison_maps at (N, sigma).

    The regime exponents of both directions, whether the first regime holds,
    and the weight tables of the three norms compared (``damped`` is None
    outside the continuity regime).
    """
    eps = Fraction(1, G.p - 1)
    tau = G.neighborhood_params(N).tau
    regime1 = tuple(t - sigma * min(G.omega) + eps for t in tau)
    regime2 = tuple(sigma * max(G.omega) - t - eps for t in tau)
    completion = _st_table(G, sigma)
    damped = None
    if all(r < 0 for r in regime2):
        damped = weight_table(tuple(c - r for c, r in zip(completion.weights, regime2)), None)
    return regime1, all(r < 0 for r in regime1), regime2, completion, _dagger_table(G, N), damped


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
    p = G.p
    regime1, contraction, regime2, completion, level, damped = G.plan(
        ("comparison", N, sigma), lambda G: _comparison_plan(G, N, sigma)
    )

    params = {"group": G.name, "N": N, "sigma": sigma, "regime_exponents": list(regime1)}
    if not contraction:
        anchor = "contraction regime: each polydisc radius beats the damping"
        first = _regime_unmet("embeddings/comparison-contraction", anchor, params)
    else:
        first = record(
            "embeddings/comparison-contraction",
            "per-coefficient contraction from the level-N dual into the completion",
            params,
            _weight_violations(lam.valuations(), completion, level),
        )

    params = {"group": G.name, "N": N, "sigma": sigma, "regime_exponents": list(regime2), "poly_factor_exponent": 1}
    if damped is None:
        anchor = "continuity regime: the completion radius beats each polydisc radius"
        return [first, _regime_unmet("embeddings/comparison-continuity", anchor, params)]
    level_den, damped_den = level.den, damped.den
    bad = []
    for alpha, v in lam.valuations().items():
        # lhs - rhs = damped.weight(alpha) - level.weight(alpha): -v(d_alpha) is on both sides
        gap = damped[alpha] * level_den - level[alpha] * damped_den
        factor = math.prod(p * a for a in alpha if a)
        if not p_power_at_most(gap, damped_den * level_den, factor, p):
            lhs, rhs = LogMag(-v - level.weight(alpha)), LogMag(-v - damped.weight(alpha))
            bad.append({"alpha": list(alpha), "lhs": lhs, "rhs": rhs, "factor": factor})
    anchor = "per-coefficient continuity with the explicit polynomial factor"
    return [first, record("embeddings/comparison-continuity", anchor, params, bad)]

"""Distributions on a p-valued group: Diracs, basis combinations, convolution,
and the three norm families.

A distribution carries truncated moment data mu_beta = lambda(Z^beta) as the
primary representation; the coefficients d_alpha in the (g_i - 1)-monomial
basis are derived exactly as d_alpha = lambda(binom(Z, alpha)).  Both tables
are :class:`~daggerdist.series.Coefficients`, int numerators over one
denominator, with read-only Fraction views ``moments`` and ``dcoeffs``.  A
Dirac builds each on first read, as the tensor product of per-coordinate
tables of x_i^k or binom(x_i, k), through one compiled
:func:`~daggerdist.padic.tensor_kernel` per (d, cap).  A finite basis
combination derives its moments only when they are read.  Convolution
consumes the moment side through the expanded group-law monomials F^gamma,
compiled once per group and output cap into a plan: the straight-line
bilinear form sum_i m1_i sum_j c_ij m2_j over the moments of the degrees it
names, which a covering table gives by position.
Both basis changes are straight-line kernels per (d, cap) over the basis rows
of :mod:`daggerdist.padic`, the transpose of the Mahler conversions: the
Mahler rows derive a basis combination's moments, the Taylor rows (cap!/alpha!
folded into their weights) a moment table's basis coefficients.

Every table is a list in indices_up_to order over one denominator
(:meth:`~daggerdist.series.Coefficients.from_dense`), a given one converted
once, read by position by the next kernel and by ``==``; its dict is built
only when read.  A norm reads the basis list in ascending weight, each
valuation only while a weight can still beat the sup
(:func:`~daggerdist.padic.ordered_sup_num`).  The norm weights are tabled
per index, one :func:`~daggerdist.padic.weight_table` per distinct weight
vector, which each (norm, radius) or (norm, N) finds through its own key in
the group's plans.  The contact check, the comparison maps,
the norm tower and the sandwich compare two weights per alpha, and each
weight is a sum over the coordinates, so a plan certified on the axes k e_i
up to a sample's support cap passes every alpha of it; a sample's valuations
are read only when that certificate fails.
Norms computed from truncated data are certified lower bounds and are only
ever placed on the small side of asserted inequalities.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import mul, sub
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .groups import PValuedGroup, Point, randbelow, sample_points
from .padic import (
    INFINITY,
    LogMag,
    MultiIndex,
    WeightTable,
    binom_value,
    bilinear_kernel,
    cap_scaled_row,
    format_fraction,
    indices_up_to,
    int_valuation,
    mahler_row,
    numerators,
    ordered_sup_num,
    p_power_at_most,
    row_kernel,
    same_dense_ratios,
    taylor_row,
    tensor_kernel,
    weight_table,
)
from .report import FAIL, LOWER_BOUND_PASS, PASS, REGIME_UNMET, CheckRecord, record
from .series import Coefficients, NormValue, check_index


class InsufficientCap(ValueError):
    pass


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
    """A kernel's list as it is; rationals (checked, the cap their largest degree) or a sparse table as the list."""
    if not isinstance(values, Coefficients):
        values = Coefficients(d, max([0, *map(sum, values)]), values)
    elif values.dense is not None:
        return values
    dense = tuple(map(values.nums.get, indices_up_to(d, values.cap), repeat(0)))
    return Coefficients.from_dense(d, values.cap, dense, values.den)


def _tensor_table(point: Point, column, cap: int) -> Coefficients:
    """The tensor product of the per-coordinate (numerators, den) tables column(x_i, cap), over the dens' product,
    kept as the kernel's list."""
    nums, dens = zip(*(column(c, cap) for c in point))
    return Coefficients.from_dense(len(point), cap, tensor_kernel(len(point), cap)(*nums), math.prod(dens))


@lru_cache(maxsize=None)
def _moment_kernel(d: int, cap: int):
    """The moments of degree <= cap of a basis expansion: the Mahler-row gather over indices_up_to(d, cap)."""
    return row_kernel(mahler_row, d, cap)


@lru_cache(maxsize=None)
def _basis_kernel(d: int, cap: int):
    """cap! d_alpha for |alpha| <= cap from the moments: the Taylor rows of alpha! d_alpha, each times cap!/alpha!."""
    return row_kernel(cap_scaled_row(taylor_row, cap), d, cap)


class Distribution:
    """Truncated moment family with optional basis coefficients.

    ``exact``, derived, means the stored data determines the whole
    distribution: ``point`` is set (a Dirac or a product of Diracs; moments are
    monomial evaluations), or no moments are given and ``basis_table`` is the
    complete finite basis expansion.  Exact distributions can produce moments
    of any degree on demand.  The point's coordinates are exact rationals,
    kept as ``int`` where they are integers (as
    :meth:`PValuedGroup.check_point` or ``multiply`` gives it).

    Either table is given as rationals or as a table, and kept as a list
    (:func:`_as_table`).  The moment table may be None for an exact
    distribution, built on first read, once: a Dirac (a point without
    moments) tables both sides from its point.
    """

    def __init__(
        self,
        group: PValuedGroup,
        cap: int,
        moments: Optional[Mapping[MultiIndex, Fraction] | Coefficients],
        dcoeffs: Optional[Mapping[MultiIndex, Fraction] | Coefficients] = None,
        point: Optional[Point] = None,
    ):
        if moments is None and point is None and dcoeffs is None:
            raise ValueError("a distribution needs moments, a point or a basis expansion")
        self.group = group
        self.cap = cap
        self._moments = None if moments is None else _as_table(group.d, moments)
        self._basis = None if dcoeffs is None else _as_table(group.d, dcoeffs)
        self.exact = moments is None or point is not None
        self.point = None if point is None else group.check_point(point)
        self._dirac = moments is None and self.point is not None
        self._valuations = None

    # -- construction ------------------------------------------------------

    @classmethod
    def dirac(cls, G: PValuedGroup, x: Sequence, cap: int) -> "Distribution":
        """The point mass at x: mu_beta = x^beta and d_beta = binom(x, beta) for |beta| <= cap.

        Each table is built on first read, the tensor product of per-coordinate
        tables of x_i^k or binom(x_i, k).  It is exact, and so are its norms
        although ``dcoeffs`` stop at cap: |binom(x, alpha)|_p <= 1 on Z_p with
        equality at alpha = 0, so every norm with positive weights is p^0.
        """
        return cls(G, cap, None, point=x)

    @classmethod
    def from_dcoeffs(
        cls, G: PValuedGroup, dcoeffs: Mapping[MultiIndex, Fraction] | Coefficients, cap: int
    ) -> "Distribution":
        """A finite basis combination, as rationals or as a table; exact, its moments derived when read."""
        return cls(G, cap, None, dcoeffs)

    # -- moments and basis coefficients ------------------------------------

    @property
    def moment_table(self) -> Coefficients:
        """The nonzero moments of degree <= cap; a Dirac or a basis combination builds them on first read."""
        if self._moments is None:
            if self.point is not None:
                self._moments = _tensor_table(self.point, _powers, self.cap)
            else:
                self._moments = Coefficients.from_dense(self.group.d, self.cap, *self._moment_numerators(self.cap))
        return self._moments

    @property
    def basis_table(self) -> Optional[Coefficients]:
        """The basis table; a Dirac builds it on first read, any other distribution has it once given or derived."""
        if self._basis is None and self._dirac:
            self._basis = _tensor_table(self.point, _binomials, self.cap)
        return self._basis

    @property
    def moments(self) -> Mapping[MultiIndex, Fraction]:
        """The moment table as read-only Fractions."""
        return self.moment_table.terms

    @property
    def dcoeffs(self) -> Optional[Mapping[MultiIndex, Fraction]]:
        """The basis table as read-only Fractions; None until it is given or derived."""
        return None if self.basis_table is None else self.basis_table.terms

    def moment(self, beta: MultiIndex) -> Fraction:
        """lambda(Z^beta); beyond the cap, read by position from the moments of degree |beta|."""
        beta = check_index(self.group.d, beta)
        degree = sum(beta)
        if degree <= self.cap:
            return self.moments.get(beta, 0)
        nums, den = self._moment_numerators(degree)
        return Fraction(nums[indices_up_to(self.group.d, degree).index(beta)], den)

    def _moment_numerators(self, degree: int) -> Tuple[Sequence[int], int]:
        """The moments of degree <= ``degree``, in indices_up_to order, as int numerators over one denominator.

        A moment table that covers ``degree`` is read by position.  Beyond it,
        a basis expansion runs the compiled Mahler-row gather over its
        numerators, and a Dirac tables the powers of its point.
        """
        table = self._moments
        if self.point is not None and degree <= self.cap:
            table = self.moment_table
        if table is None or degree > self.cap:
            if self.point is not None:
                table = _tensor_table(self.point, _powers, degree)
            elif self.exact:
                basis = self.basis_table
                return _moment_kernel(self.group.d, degree)(basis.dense_up_to(degree)), basis.den
            else:
                raise InsufficientCap(f"moments of degree {degree} beyond cap {self.cap} of a truncated distribution")
        return table.dense_up_to(degree), table.den

    def ensure_dcoeffs(self) -> Coefficients:
        """The basis table, derived without one as d_alpha = lambda(binom(Z, alpha)) for |alpha| <= cap.

        alpha! d_alpha gathers the Taylor rows, so the table is over den * lcm(alpha!) = den * cap!;
        one compiled kernel per (d, cap) folds cap!/alpha! into the rows.
        """
        if self.basis_table is None:
            d, cap = self.group.d, self.cap
            moments, den = self._moment_numerators(cap)
            self._basis = Coefficients.from_dense(d, cap, _basis_kernel(d, cap)(moments), den * math.factorial(cap))
        return self._basis

    def valuations(self) -> Dict[MultiIndex, int]:
        """alpha -> v_p(d_alpha) = v_p(n_alpha) - v_p(den) over the basis table, in grlex order; computed once."""
        if self._valuations is None:
            p, table = self.group.p, self.ensure_dcoeffs()
            v_den, values = int_valuation(table.den, p), map(int_valuation, table.nums.values(), repeat(p))
            self._valuations = dict(zip(table.nums, map(sub, values, repeat(v_den)) if v_den else values))
        return self._valuations

    def support_cap(self) -> int:
        """The largest degree the basis support can reach: cap, or a given basis table's own cap if larger."""
        return self.cap if self._basis is None else max(self.cap, self._basis.cap)

    def total_mass(self) -> Fraction:
        return self.moment((0,) * self.group.d)

    def __eq__(self, other):
        if not isinstance(other, Distribution):
            return NotImplemented
        cap = min(self.cap, other.cap)
        return same_dense_ratios(*self._moment_numerators(cap), *other._moment_numerators(cap))

    def __repr__(self):
        tag = "exact" if self.exact else "truncated"
        return f"Distribution(cap={self.cap}, {tag}, mass={self.total_mass()})"


def _compile_plan(G: PValuedGroup, cap_out: int) -> tuple:
    """The law monomials F^gamma, |gamma| <= cap_out, compiled into the convolution's bilinear form.

    F^gamma = sum_{i, j} c_ij X^i Y^j / den, so (lam x mu)(F^gamma) =
    sum_i lam(Z^i) sum_j c_ij mu(Z^j) / den.  Returns (form, left, right,
    den): ``form`` is the :func:`~daggerdist.padic.bilinear_kernel` of that
    sum, one output per gamma in grlex order, of the moments of degree <=
    ``left`` and <= ``right`` in :func:`~daggerdist.padic.indices_up_to`
    order, the index sets the plan reads; the c_ij are int numerators over
    ``den``, the lcm of the stored denominators of the F^gamma (1 for
    integral laws).
    """
    d, degmax = G.d, G.degmax()
    monomials = [G.f_monomial(gamma, max(degmax * sum(gamma), 1)) for gamma in indices_up_to(d, cap_out)]
    den = math.lcm(*(f.den for f in monomials))
    left, right = (max(sum(idx[part]) for f in monomials for idx in f.nums) for part in (slice(d), slice(d, None)))
    lpos, rpos = ({k: n for n, k in enumerate(indices_up_to(d, top))} for top in (left, right))
    rows = []
    for f in monomials:
        scale, by_left = den // f.den, {}
        for idx, n in f.nums.items():
            by_left.setdefault(lpos[idx[:d]], []).append((rpos[idx[d:]], n * scale))
        rows.append(by_left.items())
    return bilinear_kernel(rows, (len(lpos), len(rpos))), left, right, den


def convolve(G: PValuedGroup, lam: Distribution, mu: Distribution, cap_out: int, opposite: bool = False) -> Distribution:
    """Convolution through the group law: nu_gamma = (lam x mu)(F^gamma).

    The primary convention pairs Diracs as delta_x * delta_y = delta_{xy};
    ``opposite=True`` selects the reversed convention delta_x * delta_y =
    delta_{yx} by swapping the factors.  The sum is the compiled form of the
    group's cached plan for cap_out, in ints over one common denominator, and
    reads each input's moments once, at the indices the plan names.
    """
    if opposite:
        return convolve(G, mu, lam, cap_out=cap_out, opposite=False)
    if lam.group is not G or mu.group is not G:
        raise ValueError("distributions must live on the given group")
    needed = G.degmax() * cap_out
    for side in (lam, mu):
        if not side.exact and side.cap < needed:
            raise InsufficientCap(
                f"truncated input of cap {side.cap} cannot support output cap {cap_out} "
                f"(needs moments up to degree {needed})"
            )
    form, left, right, law_den = G.plan(("convolution", cap_out), lambda G: _compile_plan(G, cap_out))
    m1, den1 = lam._moment_numerators(left)
    m2, den2 = mu._moment_numerators(right)
    moments = Coefficients.from_dense(G.d, cap_out, form(m1, m2), den1 * den2 * law_den)
    # a product of Diracs is the Dirac at the product of the points
    point = None
    if lam.point is not None and mu.point is not None:
        point = G.multiply(lam.point, mu.point)
    return Distribution(G, cap_out, moments, point=point)


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


def _sup_num(lam: Distribution, table: WeightTable, floor=-INFINITY) -> Optional[int]:
    """table.den * sup over the basis coefficients of -v(d_alpha) - table.weight(alpha), None being bottom.

    None too when the sup does not exceed ``floor``; a value returned is the
    exact sup.  The basis list is read in ascending weight
    (:func:`~daggerdist.padic.ordered_sup_num`).
    """
    basis = lam.ensure_dcoeffs()
    return ordered_sup_num(basis.dense, basis.den, lam.group.p, table.order(basis.cap), table.den, floor)


def _weighted_sup(lam: Distribution, table: WeightTable) -> NormValue:
    """sup over the basis coefficients of -v(d_alpha) - table.weight(alpha)."""
    best = _sup_num(lam, table)
    return NormValue(LogMag(None if best is None else Fraction(best, table.den)), lam.exact)


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
    indices = indices_up_to(G.d, support_degree)[1:]  # every nonzero index, in grlex order
    p, p3 = G.p, G.p**3
    nums: Dict[MultiIndex, int] = {}
    for _ in range(nterms):  # each draw as rng.randrange drew it
        alpha = indices[randbelow(rng, len(indices))]
        num = randbelow(rng, 2 * p3) - p3 or 1
        shift = randbelow(rng, 3) - 1
        # num * p^shift for shift in {1, 0, -1}, as a numerator over p
        nums[alpha] = nums.get(alpha, 0) + num * p ** (shift + 1)
    nums = {a: n for a, n in nums.items() if n} or {(0,) * G.d: p}
    return Distribution.from_dcoeffs(G, Coefficients.from_numerators(G.d, support_degree, nums, p), cap)


# -- inequality checkers ---------------------------------------------------


def _product_violation(table: WeightTable, conv: Distribution, lam: Distribution, mu: Distribution) -> dict:
    """{} if ||conv|| <= ||lam|| ||mu|| in table's norm, else the two sides as magnitudes.

    The sups are ints over table.den, None being bottom, so a pass builds no
    Fraction: conv's is read in ascending weight only while a weight can
    exceed ||lam|| ||mu||, and is exact on a failure.  Both factors must be
    exact: a truncated norm is only a lower bound, and a lower bound on the
    large side would make a pass unsound.
    """
    if not (lam.exact and mu.exact):
        raise ValueError("a truncated norm (a lower bound) cannot sit on the large side of an inequality")
    a, b = _sup_num(lam, table), _sup_num(mu, table)
    rhs = None if a is None or b is None else a + b
    lhs = _sup_num(conv, table, -INFINITY if rhs is None else rhs)
    if lhs is None:
        return {}
    return {"lhs": LogMag(Fraction(lhs, table.den)), "rhs": LogMag(None if rhs is None else Fraction(rhs, table.den))}


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
    bad, table = [], _st_table(G, sigma)
    for _ in range(trials):
        lam = random_dcoeff_distribution(G, rng, cap=G.degmax() * cap)
        mu = random_dcoeff_distribution(G, rng, cap=G.degmax() * cap)
        violation = _product_violation(table, convolve(G, lam, mu, cap_out=cap), lam, mu)
        if violation:
            lam_d, mu_d = ({str(a): format_fraction(v) for a, v in nu.dcoeffs.items()} for nu in (lam, mu))
            bad.append({"lam": lam_d, "mu": mu_d, **violation})
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
    bad, table = [], _dagger_table(G, N)
    for t in range(trials):
        if t % 2 == 0:  # Diracs at cap: exact, read beyond it from the point, of norm p^0 at every cap
            lam, mu = (Distribution.dirac(G, x, cap) for x in sample_points(G, rng, 2, 6))
        else:
            lam = random_dcoeff_distribution(G, rng, cap=G.degmax() * cap)
            mu = random_dcoeff_distribution(G, rng, cap=G.degmax() * cap)
        violation = _product_violation(table, convolve(G, lam, mu, cap_out=cap), lam, mu)
        if violation:
            bad.append({"trial": t, **violation})
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
    """||lam||_N <= ||lam||_{N+1} for every stored distribution; the norms only where the axes do not certify it."""
    bad = []
    group_name = lams[0].group.name if lams else "-"
    for k, lam in enumerate(lams):
        for N in range(1, max_N + 1):
            check = lam.group.plan(("tower", N), lambda G: _CoefficientCheck(_dagger_table(G, N), _dagger_table(G, N + 1)))
            if check.certifies(lam.support_cap()):
                continue
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
    """||.||'_{s^max omega} <= ||.||_s <= ||.||'_{s^min omega} term by term for s = p^-sigma < 1, the ends swapped
    for s > 1; the norms are computed only where the axes do not certify it."""
    sigma = Fraction(sigma)
    G = lam.group
    lower, upper = sorted((sigma * min(G.omega), sigma * max(G.omega)), reverse=True)
    tables = weight_table((lower,) * G.d, None), _st_table(G, sigma), weight_table((upper,) * G.d, None)
    checks = G.plan(("sandwich", sigma), lambda G: tuple(map(_CoefficientCheck, tables, tables[1:])))
    ok = all(check.certifies(lam.support_cap()) for check in checks)
    if not ok:
        lo, mid, hi = st_norm_prime(lam, lower), st_norm(lam, sigma), st_norm_prime(lam, upper)
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


class _CoefficientCheck:
    """Whether |d_alpha| p^(-small(alpha)) <= |d_alpha| p^(-large(alpha)) holds, per alpha or for a box of them.

    With ``p`` given the right side carries the factor (p alpha_1) ... (p
    alpha_d) over its nonzero alpha_i.  -v(d_alpha) is on both sides, so the
    weights alone decide; a table entry is a sum of per-coordinate terms, so
    the gap large - small adds over the coordinates and the factor multiplies
    over them, and the axes decide a whole box (:meth:`certifies`).
    """

    def __init__(self, small: WeightTable, large: WeightTable, p: Optional[int] = None):
        self.small, self.large, self.p = small, large, p
        self.certified: Dict[int, bool] = {}

    def fails(self, alpha: MultiIndex) -> bool:
        small, large, p = self.small, self.large, self.p
        gap = large[alpha] * small.den - small[alpha] * large.den  # (lhs - rhs) * small.den * large.den
        return gap > 0 if p is None else not p_power_at_most(gap, small.den * large.den, _factor(alpha, p), p)

    def certifies(self, cap: int) -> bool:
        """Whether no alpha with every alpha_i <= cap fails: no axis entry k e_i, 1 <= k <= cap, does; once per cap."""
        ok = self.certified.get(cap)
        if ok is None:
            d = len(self.small.weights)
            axes = ((0,) * i + (k,) + (0,) * (d - i - 1) for i in range(d) for k in range(1, cap + 1))
            self.certified[cap] = ok = not any(map(self.fails, axes))
        return ok

    def violations(self, lam: Distribution) -> List[dict]:
        """The witnesses of the failing alpha on lam's support, in grlex order; read only if uncertified."""
        if self.certifies(lam.support_cap()):
            return []
        valuations, bad = lam.valuations(), []
        for alpha in filter(self.fails, valuations):
            v = valuations[alpha]
            lhs, rhs = LogMag(-v - self.small.weight(alpha)), LogMag(-v - self.large.weight(alpha))
            witness = {"alpha": list(alpha), "lhs": lhs, "rhs": rhs}
            if self.p is not None:
                witness["factor"] = _factor(alpha, self.p)
            bad.append(witness)
        return bad


def _factor(alpha: MultiIndex, p: int) -> int:
    """(p alpha_1) ... (p alpha_d) over the nonzero alpha_i."""
    return math.prod(map(mul, filter(None, alpha), repeat(p)))


def _contact_plan(G: PValuedGroup, sigma: Fraction) -> tuple:
    """(damping, check) for check_contact_embedding at sigma; ``check`` is None outside the inclusion regime."""
    damping = -sigma * min(G.omega) + Fraction(1, G.p - 1)  # exponent of s^{min omega} theta^-1
    if not damping < 0:
        return damping, None
    return damping, _CoefficientCheck(_st_table(G, sigma), weight_table((-damping,) * G.d, G.p))


def check_contact_embedding(lam: Distribution, sigma: Fraction) -> List[CheckRecord]:
    """Per-coefficient inequality behind the inclusion into the Banach completion.

    Regime: sigma * min(omega) > 1/(p-1).  Checked per alpha on the support:
    |d_alpha| s^(tau alpha) <= |alpha! d_alpha| (s^{min omega} theta^-1)^|alpha|.
    """
    sigma = Fraction(sigma)
    G = lam.group
    damping, check = G.plan(("contact", sigma), lambda G: _contact_plan(G, sigma))
    params = {"group": G.name, "sigma": sigma, "damping_exponent": damping}
    if check is None:
        return [_regime_unmet("embeddings/contact", "inclusion regime sigma * min(omega) > 1/(p-1)", params)]
    anchor = "per-coefficient damping bound for the inclusion into the completion"
    return [record("embeddings/contact", anchor, params, check.violations(lam))]


def _comparison_plan(G: PValuedGroup, N: int, sigma: Fraction) -> tuple:
    """(regime1, contraction, regime2, continuity) for check_comparison_maps at (N, sigma).

    The regime exponents of both directions, and the check of each
    direction, None outside its regime: the contraction compares the
    completion with the level-N dual, the continuity the level-N dual with
    the damped completion, up to the polynomial factor.
    """
    eps = Fraction(1, G.p - 1)
    tau = G.neighborhood_params(N).tau
    regime1 = tuple(t - sigma * min(G.omega) + eps for t in tau)
    regime2 = tuple(sigma * max(G.omega) - t - eps for t in tau)
    completion, level = _st_table(G, sigma), _dagger_table(G, N)
    contraction = continuity = None
    if all(r < 0 for r in regime1):
        contraction = _CoefficientCheck(completion, level)
    if all(r < 0 for r in regime2):
        damped = weight_table(tuple(c - r for c, r in zip(completion.weights, regime2)), None)
        continuity = _CoefficientCheck(level, damped, G.p)
    return regime1, contraction, regime2, continuity


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
    regime1, contraction, regime2, continuity = G.plan(
        ("comparison", N, sigma), lambda G: _comparison_plan(G, N, sigma)
    )

    params = {"group": G.name, "N": N, "sigma": sigma, "regime_exponents": list(regime1)}
    if contraction is None:
        anchor = "contraction regime: each polydisc radius beats the damping"
        first = _regime_unmet("embeddings/comparison-contraction", anchor, params)
    else:
        first = record(
            "embeddings/comparison-contraction",
            "per-coefficient contraction from the level-N dual into the completion",
            params,
            contraction.violations(lam),
        )

    params = {"group": G.name, "N": N, "sigma": sigma, "regime_exponents": list(regime2), "poly_factor_exponent": 1}
    if continuity is None:
        anchor = "continuity regime: the completion radius beats each polydisc radius"
        return [first, _regime_unmet("embeddings/comparison-continuity", anchor, params)]
    anchor = "per-coefficient continuity with the explicit polynomial factor"
    return [first, record("embeddings/comparison-continuity", anchor, params, continuity.violations(lam))]

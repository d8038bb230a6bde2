"""Binomial (Mahler) basis versus monomial (Taylor) basis.

The conversion in both directions goes through the Stirling tables, one
variable at a time; the multivariate maps are tensor products of the
one-variable maps.  Only exact polynomials are converted: the formulas sum
over all dominating indices, so a truncated tail would silently corrupt the
output coefficients.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Mapping, Optional, Sequence

from .padic import (
    LogMag,
    MultiIndex,
    Rational,
    falling_coeff,
    grlex_key,
    multi_factorial_valuation,
    stirling_second,
    valuation,
)
from .series import DimensionMismatch, NormValue, TruncatedSeries


class MahlerFamily:
    """Finite family of binomial-basis coefficients m_alpha."""

    __slots__ = ("dim", "cap", "coeffs", "exact")

    def __init__(self, dim: int, cap: int, coeffs: Mapping[MultiIndex, Rational], exact: bool = True):
        self.dim = dim
        self.cap = cap
        self.coeffs: Dict[MultiIndex, Fraction] = {}
        for idx, c in coeffs.items():
            idx = tuple(int(i) for i in idx)
            if len(idx) != dim:
                raise DimensionMismatch(f"index {idx} has length {len(idx)}, expected {dim}")
            if sum(idx) > cap:
                raise ValueError(f"index {idx} exceeds cap {cap}")
            c = Fraction(c)
            if c != 0:
                self.coeffs[idx] = c
        self.exact = bool(exact)

    def coefficient(self, idx: MultiIndex) -> Fraction:
        return self.coeffs.get(tuple(idx), Fraction(0))

    def sorted_coeffs(self):
        return sorted(self.coeffs.items(), key=lambda kv: grlex_key(kv[0]))

    def __eq__(self, other):
        if not isinstance(other, MahlerFamily):
            return NotImplemented
        return (self.dim, self.coeffs) == (other.dim, other.coeffs)

    def __repr__(self):
        return f"MahlerFamily({dict(self.sorted_coeffs())})"


def _stirling_product(beta: MultiIndex, alpha: MultiIndex) -> int:
    out = 1
    for b, a in zip(beta, alpha):
        out *= stirling_second(b, a)
        if out == 0:
            break
    return out


def _falling_product(alpha: MultiIndex, beta: MultiIndex) -> int:
    out = 1
    for a, b in zip(alpha, beta):
        out *= falling_coeff(a, b)
        if out == 0:
            break
    return out


def multi_factorial(alpha: MultiIndex) -> int:
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


def taylor_to_mahler(f: TruncatedSeries) -> MahlerFamily:
    """m_alpha = sum_{beta >= alpha} c_beta * prod_i s(beta_i, alpha_i) * alpha!

    Summed as ints over the common denominator of the c_beta.
    """
    if not f.exact:
        raise ValueError("only exact polynomials admit Mahler conversion")
    den = math.lcm(*(c.denominator for c in f.terms.values()))
    scaled = [(beta, c.numerator * (den // c.denominator)) for beta, c in f.terms.items()]
    totals: Dict[MultiIndex, int] = {}
    for beta, num in scaled:
        for alpha in _indices_below(beta):
            totals[alpha] = totals.get(alpha, 0) + num * _stirling_product(beta, alpha)
    coeffs = {alpha: Fraction(t * multi_factorial(alpha), den) for alpha, t in totals.items() if t}
    return MahlerFamily(f.dim, f.cap, coeffs, exact=True)


def mahler_to_taylor(m: MahlerFamily) -> TruncatedSeries:
    """c_beta = sum_{alpha >= beta} m_alpha / alpha! * prod_i a(alpha_i, beta_i)

    Summed as ints over the common denominator of the m_alpha / alpha!.
    """
    if not m.exact:
        raise ValueError("only exact Mahler families admit conversion")
    dens = {alpha: ma.denominator * multi_factorial(alpha) for alpha, ma in m.coeffs.items()}
    den = math.lcm(*dens.values())
    scaled = [(alpha, ma.numerator * (den // dens[alpha])) for alpha, ma in m.coeffs.items()]
    totals: Dict[MultiIndex, int] = {}
    for alpha, num in scaled:
        for beta in _indices_below(alpha):
            totals[beta] = totals.get(beta, 0) + num * _falling_product(alpha, beta)
    terms = {beta: Fraction(t, den) for beta, t in totals.items() if t}
    return TruncatedSeries(m.dim, m.cap, terms, exact=True)


def _indices_below(beta: MultiIndex):
    """All multi-indices componentwise <= beta."""
    if not beta:
        yield ()
        return
    head, tail = beta[0], beta[1:]
    for rest in _indices_below(tail):
        for k in range(head + 1):
            yield (k,) + rest


def mahler_norm(m: MahlerFamily, rho: Sequence[Rational], p: int) -> NormValue:
    """sup_alpha |m_alpha| / |alpha!| * p^(sum rho_i alpha_i)."""
    if len(rho) != m.dim:
        raise DimensionMismatch(f"expected {m.dim} radii, got {len(rho)}")
    rho = [Fraction(r) for r in rho]
    best: Optional[Fraction] = None
    for alpha, ma in m.coeffs.items():
        e = -valuation(ma, p) + multi_factorial_valuation(alpha, p)
        e += sum(r * a for r, a in zip(rho, alpha))
        if best is None or e > best:
            best = e
    mag = LogMag.bottom() if best is None else LogMag(best)
    return NormValue(mag, m.exact)


def evaluate_mahler(m: MahlerFamily, x: Sequence[Rational]) -> Fraction:
    """sum m_alpha * binom(x, alpha) over the support."""
    from .padic import multi_binom_value

    x = tuple(Fraction(v) for v in x)
    total = Fraction(0)
    for alpha, ma in m.coeffs.items():
        total += ma * multi_binom_value(x, alpha)
    return total


def binomial_poly(alpha: MultiIndex, cap: Optional[int] = None) -> TruncatedSeries:
    """The polynomial binom(x, alpha) = prod_i binom(x_i, alpha_i)."""
    alpha = tuple(int(a) for a in alpha)
    dim = max(len(alpha), 1)
    if len(alpha) == 0:
        alpha = (0,)
    if cap is None:
        cap = max(sum(alpha), 0)
    out = TruncatedSeries.constant(1, dim, cap)
    for i, a in enumerate(alpha):
        if a == 0:
            continue
        fact = math.factorial(a)
        coord = TruncatedSeries(
            dim,
            cap,
            {
                tuple(b if j == i else 0 for j in range(dim)): Fraction(falling_coeff(a, b), fact)
                for b in range(a + 1)
            },
        )
        out = out * coord
    return out


def verify_norm_identity(f: TruncatedSeries, rho: Sequence[Rational], p: int):
    """Compare the Gauss norm of f with the Mahler-side norm, exactly.

    Returns (equal, gauss_mag, mahler_mag).  Requires positive radii.
    """
    rho = [Fraction(r) for r in rho]
    if any(r <= 0 for r in rho):
        raise ValueError("norm identity requires positive radii")
    g = f.gauss_norm(rho, p)
    m = mahler_norm(taylor_to_mahler(f), rho, p)
    return g.mag == m.mag, g.mag, m.mag

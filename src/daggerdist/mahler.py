"""Binomial (Mahler) basis versus monomial (Taylor) basis.

Both conversions scatter int numerators through the basis-row tables of
:mod:`daggerdist.padic` (``mahler_row`` for Taylor to Mahler, ``taylor_row``
for the way back), the same tables the distributions gather through.  Only
exact polynomials are converted: the formulas sum over all dominating
indices, so a truncated tail would silently corrupt the output coefficients.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .padic import (
    MultiIndex,
    Rational,
    grlex_key,
    mahler_row,
    multi_binom_value,
    multi_factorial,
    numerators,
    scatter,
    taylor_row,
    weight_table,
    weighted_sup,
)
from .series import DimensionMismatch, NormValue, TruncatedSeries, clean_terms


class MahlerFamily:
    """Finite family of binomial-basis coefficients m_alpha."""

    __slots__ = ("dim", "cap", "coeffs", "exact")

    def __init__(self, dim: int, cap: int, coeffs: Mapping[MultiIndex, Rational], exact: bool = True):
        self.dim = dim
        self.cap = cap
        self.coeffs = clean_terms(dim, cap, coeffs)
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


def taylor_to_mahler(f: TruncatedSeries) -> MahlerFamily:
    """m_alpha = sum_{beta >= alpha} c_beta * prod_i s(beta_i, alpha_i) * alpha!

    Scattered through the Mahler rows as ints over the common denominator of the c_beta.
    """
    if not f.exact:
        raise ValueError("only exact polynomials admit Mahler conversion")
    nums, den = numerators(f.terms)
    coeffs = {alpha: Fraction(t, den) for alpha, t in scatter(mahler_row, nums).items()}
    return MahlerFamily(f.dim, f.cap, coeffs, exact=True)


def mahler_to_taylor(m: MahlerFamily) -> TruncatedSeries:
    """c_beta = sum_{alpha >= beta} m_alpha / alpha! * prod_i a(alpha_i, beta_i)

    Scattered through the Taylor rows as ints over the common denominator of the m_alpha / alpha!.
    """
    if not m.exact:
        raise ValueError("only exact Mahler families admit conversion")
    dens = {alpha: ma.denominator * multi_factorial(alpha) for alpha, ma in m.coeffs.items()}
    den = math.lcm(*dens.values())
    nums = {alpha: ma.numerator * (den // dens[alpha]) for alpha, ma in m.coeffs.items()}
    terms = {beta: Fraction(t, den) for beta, t in scatter(taylor_row, nums).items()}
    return TruncatedSeries(m.dim, m.cap, terms, exact=True)


def mahler_norm(m: MahlerFamily, rho: Sequence[Rational], p: int) -> NormValue:
    """sup_alpha |m_alpha| / |alpha!| * p^(sum rho_i alpha_i)."""
    if len(rho) != m.dim:
        raise DimensionMismatch(f"expected {m.dim} radii, got {len(rho)}")
    table = weight_table(tuple(Fraction(r) for r in rho), p)
    return NormValue(weighted_sup(m.coeffs, p, table), m.exact)


def evaluate_mahler(m: MahlerFamily, x: Sequence[Rational]) -> Fraction:
    """sum m_alpha * binom(x, alpha) over the support."""
    x = tuple(Fraction(v) for v in x)
    total = Fraction(0)
    for alpha, ma in m.coeffs.items():
        total += ma * multi_binom_value(x, alpha)
    return total


def binomial_poly(alpha: MultiIndex, cap: Optional[int] = None) -> TruncatedSeries:
    """The polynomial binom(x, alpha) = prod_i binom(x_i, alpha_i), read off the Taylor row of alpha."""
    alpha = tuple(int(a) for a in alpha) or (0,)
    fact = multi_factorial(alpha)
    terms = {beta: Fraction(w, fact) for beta, w in taylor_row(alpha)}
    return TruncatedSeries(len(alpha), sum(alpha), terms).with_cap(sum(alpha) if cap is None else cap)


def verify_norm_identity(
    f: TruncatedSeries, rho: Sequence[Rational], p: int, family: Optional[MahlerFamily] = None
):
    """Compare the Gauss norm of f with the Mahler-side norm, exactly.

    ``family`` is f's Mahler family if the caller has already converted f;
    by default f is converted here.  Returns (equal, gauss_mag, mahler_mag).
    Requires positive radii.
    """
    rho = [Fraction(r) for r in rho]
    if any(r <= 0 for r in rho):
        raise ValueError("norm identity requires positive radii")
    g = f.gauss_norm(rho, p)
    m = mahler_norm(taylor_to_mahler(f) if family is None else family, rho, p)
    return g.mag == m.mag, g.mag, m.mag

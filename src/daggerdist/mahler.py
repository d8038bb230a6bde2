"""Binomial (Mahler) basis versus monomial (Taylor) basis.

A Mahler family is a :class:`~daggerdist.series.Coefficients`, as a series
is: int numerators over one positive denominator, with ``Fraction``s built
only for its read-only view ``coeffs`` and what reads it (``repr``, records).
Both conversions scatter the int numerators through the basis-row tables of
:mod:`daggerdist.padic` (``mahler_row`` for Taylor to Mahler, ``taylor_row``
for the way back), the same tables the distributions gather through, and the
Mahler norm reads the numerators directly.  Only exact polynomials are
converted: the formulas sum over all dominating indices, so a truncated tail
would silently corrupt the output coefficients.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .padic import (
    Rational,
    cap_scaled_row,
    mahler_row,
    scatter,
    taylor_row,
    valuation_pairs,
    weight_table,
    weighted_sup,
    weighted_sup_num,
)
from .series import Coefficients, DimensionMismatch, NormValue, TruncatedSeries


class MahlerFamily(Coefficients):
    """Finite family of binomial-basis coefficients m_alpha = nums[alpha] / den; ``coeffs`` is its Fraction view."""

    __slots__ = ()

    coeffs = Coefficients.terms

    def __repr__(self):
        return f"MahlerFamily({dict(self.sorted_terms())})"


def taylor_to_mahler(f: TruncatedSeries) -> MahlerFamily:
    """m_alpha = sum_{beta >= alpha} c_beta * prod_i s(beta_i, alpha_i) * alpha!

    Scattered through the Mahler rows as ints over the common denominator of the c_beta.
    """
    if not f.exact:
        raise ValueError("only exact polynomials admit Mahler conversion")
    nums, den = f.numerators()
    return MahlerFamily.from_numerators(f.dim, f.cap, scatter(mahler_row, nums, f.dim, f.cap), den)


def mahler_to_taylor(m: MahlerFamily) -> TruncatedSeries:
    """c_beta = sum_{alpha >= beta} m_alpha / alpha! * prod_i a(alpha_i, beta_i)

    Scattered through the Taylor rows scaled by cap!/alpha!, as ints over den * cap!.
    """
    if not m.exact:
        raise ValueError("only exact Mahler families admit conversion")
    nums = scatter(cap_scaled_row(taylor_row, m.cap), m.nums, m.dim, m.cap)
    return TruncatedSeries.from_numerators(m.dim, m.cap, nums, m.den * math.factorial(m.cap))


def mahler_norm(m: MahlerFamily, rho: Sequence[Rational], p: int) -> NormValue:
    """sup_alpha |m_alpha| / |alpha!| * p^(sum rho_i alpha_i)."""
    if len(rho) != m.dim:
        raise DimensionMismatch(f"expected {m.dim} radii, got {len(rho)}")
    return NormValue(weighted_sup(valuation_pairs(m.nums, p), p, weight_table(tuple(rho), p), den=m.den), m.exact)


class NormIdentity:
    """The norm identity at one radius vector rho > 0 and prime p, decided on scaled ints.

    The Gauss table (sum rho_i alpha_i) and the Mahler table (plus the int
    v_p(alpha!)) are resolved once and share the denominator lcm(rho
    denominators), so the two sups compare as ints, None being bottom.
    """

    def __init__(self, rho: Sequence[Rational], p: int):
        self.rho = tuple(r if type(r) is Fraction else Fraction(r) for r in rho)
        if any(r <= 0 for r in self.rho):
            raise ValueError("norm identity requires positive radii")
        self.p, self.gauss, self.mahler = p, weight_table(self.rho, None), weight_table(self.rho, p)

    def holds(self, f: TruncatedSeries, family: MahlerFamily) -> bool:
        """Whether the Gauss norm of f equals the Mahler-side norm of family, both of rho's dimension (unchecked)."""
        p = self.p
        nums, den = f.numerators()
        gauss = weighted_sup_num(valuation_pairs(nums, p), p, self.gauss, den=den)
        return gauss == weighted_sup_num(valuation_pairs(family.nums, p), p, self.mahler, den=family.den)


def verify_norm_identity(
    f: TruncatedSeries, rho: Sequence[Rational], p: int, family: Optional[MahlerFamily] = None
):
    """Compare the Gauss norm of f with the Mahler-side norm, exactly.

    ``family`` is f's Mahler family if the caller has already converted f;
    by default f is converted here.  Returns (equal, gauss_mag, mahler_mag); the
    norms check the dimensions, the checker that the radii are positive.
    """
    check = NormIdentity(rho, p)
    m = taylor_to_mahler(f) if family is None else family
    gauss, mahler = f.gauss_norm(check.rho, p).mag, mahler_norm(m, check.rho, p).mag
    return check.holds(f, m), gauss, mahler

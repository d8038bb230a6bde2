"""Binomial (Mahler) basis versus monomial (Taylor) basis.

A Mahler family is a :class:`~daggerdist.series.Coefficients`, as a series
is: int numerators over one positive denominator, with ``Fraction``s built
only for its read-only view ``coeffs`` and what reads it (``repr``, records).
Both conversions scatter the int numerators through the basis-row tables of
:mod:`daggerdist.padic` (``mahler_row`` for Taylor to Mahler, ``taylor_row``
for the way back), the same tables the distributions gather through, and the
Mahler norm reads the numerators directly; :meth:`NormIdentity.trial` decides
the norm identity and the round trip on the dense list of a forward scatter.
Only exact polynomials are converted: the formulas sum over all dominating
indices, so a truncated tail would silently corrupt the output coefficients.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Collection, List, Optional, Sequence, Tuple

from .padic import (
    MultiIndex,
    Rational,
    cap_scaled_row,
    int_valuation,
    mahler_row,
    scatter,
    scatter_table,
    taylor_row,
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

    Scattered through the Mahler rows (:func:`mahler_scatter`) as ints over the common denominator of the c_beta.
    """
    indices, nums = mahler_scatter(f)
    return MahlerFamily.from_numerators(f.dim, f.cap, {a: n for a, n in zip(indices, nums) if n}, f.den)


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
    return NormValue(weighted_sup(m.nums, p, weight_table(tuple(rho), p), m.den), m.exact)


def mahler_scatter(f: TruncatedSeries) -> Tuple[List[MultiIndex], List[int]]:
    """(indices, nums): f's numerators through the Mahler rows, nums[n] over f's den at indices[n], zeros kept."""
    if not f.exact:
        raise ValueError("only exact polynomials admit Mahler conversion")
    table = scatter_table(mahler_row, f.dim, f.cap)
    return table.indices, table.dense(f.nums.items())


class NormIdentity:
    """The norm identity at one radius vector rho > 0 and prime p, decided on scaled ints.

    The Gauss table (sum rho_i alpha_i) and the Mahler table (plus the int v_p(alpha!)) are resolved once, over
    one denominator.  A Mahler term is its weight less v_p(n) >= 0 for an int n, so against the Gauss sup s only
    a weight that reaches s needs a valuation: the identity holds iff no term exceeds s and some term equals it.
    """

    def __init__(self, rho: Sequence[Rational], p: int):
        self.rho = tuple(r if type(r) is Fraction else Fraction(r) for r in rho)
        if any(r <= 0 for r in self.rho):
            raise ValueError("norm identity requires positive radii")
        self.p, self.gauss, self.mahler = p, weight_table(self.rho, None), weight_table(self.rho, p)

    def _decide(self, sup: Optional[int], pairs: Collection[Tuple[MultiIndex, int]]) -> bool:
        """Whether sup (None: bottom) is the Mahler-side sup over the (alpha, nonzero numerator) pairs, without den."""
        p, table, scale, hit = self.p, self.mahler, self.mahler.den, False
        if sup is None:
            return not pairs
        for alpha, n in pairs:
            term = table[alpha]
            if term >= sup:
                term -= int_valuation(n, p) * scale
                if term > sup:
                    return False
                hit = hit or term == sup
        return hit

    def holds(self, f: TruncatedSeries, family: MahlerFamily) -> bool:
        """Whether the Gauss norm of f equals the Mahler-side norm of family, both of rho's dimension (unchecked)."""
        p = self.p
        sup = weighted_sup_num(f.nums, p, self.gauss, f.den)
        if sup is not None:  # what the terms of the family's numerators, without its den, must reach
            sup -= int_valuation(family.den, p) * self.gauss.den
        return self._decide(sup, family.nums.items())

    def trial(self, f: TruncatedSeries) -> Tuple[Optional[tuple], bool]:
        """(norm, round_trip) for an exact polynomial f and its family, kept as :func:`mahler_scatter`'s list.

        ``norm`` is None if the identity holds, else the (Gauss, Mahler) magnitudes; f and the family share den,
        whose valuation cancels.  ``round_trip`` is whether the family scatters back through the Taylor rows scaled
        by cap!/alpha! to cap! times f's numerators.
        """
        indices, nums = mahler_scatter(f)
        support, norm = [(a, n) for a, n in zip(indices, nums) if n], None
        if not self._decide(weighted_sup_num(f.nums, self.p, self.gauss), support):
            family = MahlerFamily.from_numerators(f.dim, f.cap, dict(support), f.den)
            norm = f.gauss_norm(self.rho, self.p).mag, mahler_norm(family, self.rho, self.p).mag
        back, fact = scatter_table(cap_scaled_row(taylor_row, f.cap), f.dim, f.cap), math.factorial(f.cap)
        out, position = back.dense(support), back.position
        for beta, n in f.nums.items():
            if beta not in position:  # no Taylor row reaches beta
                return norm, False
            out[position[beta]] -= fact * n
        return norm, not any(out)


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

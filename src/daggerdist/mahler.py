"""Binomial (Mahler) basis versus monomial (Taylor) basis.

A Mahler family is a :class:`~daggerdist.series.Coefficients`, as a series
is: int numerators over one positive denominator, with ``Fraction``s built
only for its read-only view ``coeffs`` and what reads it (``repr``, records).
Both conversions scatter the int numerators through the basis-row tables of
:mod:`daggerdist.padic` (``mahler_row`` for Taylor to Mahler, ``taylor_row``
for the way back), the same tables the distributions gather through, and the
Mahler norm reads the numerators directly; :meth:`NormIdentity.trial` decides
the norm identity and the round trip on the dense list of a forward scatter.
Both scatters are linear, so :func:`basis_images` and :meth:`NormIdentity.certifies` decide the round trip and
the norm identity at once for every exact polynomial up to a cap, on the basis monomials.
Only exact polynomials are converted: the formulas sum over all dominating
indices, so a truncated tail would silently corrupt the output coefficients.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .padic import (
    INFINITY,
    MultiIndex,
    Rational,
    cap_scaled_row,
    indices_up_to,
    mahler_row,
    numerators,
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
    table = scatter_table(cap_scaled_row(taylor_row, m.cap), m.dim, m.cap)
    nums = {b: n for b, n in zip(table.indices, table.dense(m.nums.items())) if n}
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
    one denominator.  Against the Gauss sup s, :func:`weighted_sup_num` with floor s - 1 returns the Mahler sup
    if it reaches s and reads a valuation only for a weight that does: the identity holds iff that is s.
    """

    def __init__(self, rho: Sequence[Rational], p: int):
        self.rho = tuple(r if type(r) is Fraction else Fraction(r) for r in rho)
        if any(r <= 0 for r in self.rho):
            raise ValueError("norm identity requires positive radii")
        self.p, self.gauss, self.mahler = p, weight_table(self.rho, None), weight_table(self.rho, p)

    def trial(self, f: TruncatedSeries) -> Tuple[Optional[tuple], bool]:
        """(norm, round_trip) for an exact polynomial f and its family, kept as :func:`mahler_scatter`'s list.

        ``norm`` is None if the identity holds, else the (Gauss, Mahler) magnitudes; f and the family share den,
        whose valuation cancels.  ``round_trip`` is whether the family scatters back through the Taylor rows scaled
        by cap!/alpha! to cap! times f's numerators.
        """
        indices, nums = mahler_scatter(f)
        support, norm, p = {a: n for a, n in zip(indices, nums) if n}, None, self.p
        sup = weighted_sup_num(f.nums, p, self.gauss)
        if weighted_sup_num(support, p, self.mahler, floor=-INFINITY if sup is None else sup - 1) != sup:
            family = MahlerFamily.from_numerators(f.dim, f.cap, support, f.den)
            norm = f.gauss_norm(self.rho, p).mag, mahler_norm(family, self.rho, p).mag
        return norm, _round_trip(support, f)

    def certifies(self, images: Optional[list], cap: int) -> bool:
        """Whether M, the Mahler scatter, is an isometry at rho, so that :meth:`trial` holds on every exact polynomial
        up to ``cap``: ``images`` is :func:`basis_images` (dim, cap), and None certifies nothing.  The norms are
        ultrametric weighted sups, so M is one iff ||M e||_Mahler <= ||e||_Gauss and ||T e / cap!||_Gauss <=
        ||e||_Mahler on every basis monomial e; :func:`weighted_sup_num` with the right side as floor is None iff so.
        """
        p, gauss, mahler, fact = self.p, self.gauss, self.mahler, math.factorial(cap)
        return images is not None and all(
            weighted_sup_num(forward, p, mahler, floor=gauss[e]) is None
            and weighted_sup_num(backward, p, gauss, den * fact, floor=mahler[e]) is None
            for e, forward, (backward, den) in images
        )


def _round_trip(support: Dict[MultiIndex, int], f: TruncatedSeries) -> bool:
    """Whether the family ``support``, over f's den, scatters back through the Taylor rows scaled by cap!/alpha! to
    cap! times f's numerators."""
    back, fact = scatter_table(cap_scaled_row(taylor_row, f.cap), f.dim, f.cap), math.factorial(f.cap)
    out, position = back.dense(support.items()), back.position
    for beta, n in f.nums.items():
        if beta not in position:  # no Taylor row reaches beta
            return False
        out[position[beta]] -= fact * n
    return not any(out)


def basis_images(dim: int, cap: int) -> Optional[list]:
    """(e, M e, T e as (numerators, den)) for each basis monomial e up to ``cap``, or None if one does not round-trip.

    M e is :func:`mahler_scatter`'s family of e and T e its Taylor row scaled by cap!/alpha!, over cap! * den (den is
    1 for int rows).  The scatters are linear, so T M e = cap! e for every e makes every exact polynomial up to
    ``cap`` round-trip, with T / cap! the inverse of M.
    """
    back, images = scatter_table(cap_scaled_row(taylor_row, cap), dim, cap), []
    for e in indices_up_to(dim, cap):
        f = TruncatedSeries.from_numerators(dim, cap, {e: 1}, 1)
        forward = {a: n for a, n in zip(*mahler_scatter(f)) if n}
        if not _round_trip(forward, f):
            return None
        images.append((e, forward, numerators({back.indices[n]: w for n, w in back[e] if w})))
    return images


def verify_norm_identity(f: TruncatedSeries, rho: Sequence[Rational], p: int):
    """Compare the Gauss norm of f with the Mahler-side norm of its family, exactly.

    Returns (equal, gauss_mag, mahler_mag); the norms check the dimensions, the checker that the radii are positive.
    """
    rho = NormIdentity(rho, p).rho
    gauss, mahler = f.gauss_norm(rho, p).mag, mahler_norm(taylor_to_mahler(f), rho, p).mag
    return gauss == mahler, gauss, mahler

"""Binomial (Mahler) basis versus monomial (Taylor) basis.

A Mahler family is a :class:`~daggerdist.series.Coefficients`, as a series
is: int numerators over one positive denominator, with ``Fraction``s built
only for its read-only view ``coeffs`` and what reads it (``repr``, records).
Both conversions scatter the int numerators through the basis-row tables of
:mod:`daggerdist.padic` (``mahler_row`` for Taylor to Mahler, ``taylor_row``
for the way back, scaled by cap!/alpha!), the same tables the distributions
gather through, and the Mahler norm reads the numerators directly.  Both
scatters are linear, so the round trip and the norm identity are decided for
every exact polynomial up to a cap at once, on the basis monomials:
:func:`basis_images` scatters each one both ways, and
:meth:`NormIdentity.violations` lists each that breaks the identity, every
entry a counterexample.
Only exact polynomials are converted: the formulas sum over all dominating
indices, so a truncated tail would silently corrupt the output coefficients.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence, Tuple

from .padic import (
    MultiIndex,
    Rational,
    ScatterTable,
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
    table = _taylor_table(m.dim, m.cap)
    nums = {b: n for b, n in zip(table.indices, table.dense(m.nums.items())) if n}
    return TruncatedSeries.from_numerators(m.dim, m.cap, nums, m.den * math.factorial(m.cap))


def _taylor_table(dim: int, cap: int) -> ScatterTable:
    """The table of the Taylor rows scaled by cap!/alpha!, which take a family over den to ints over den * cap!."""
    return scatter_table(cap_scaled_row(taylor_row, cap), dim, cap)


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
    """The norm identity at one radius vector rho > 0 and prime p, decided on the basis monomials in scaled ints:
    the Gauss table (sum rho_i alpha_i) and the Mahler table (plus the int v_p(alpha!)) share one denominator."""

    def __init__(self, rho: Sequence[Rational], p: int):
        self.rho = tuple(r if type(r) is Fraction else Fraction(r) for r in rho)
        if any(r <= 0 for r in self.rho):
            raise ValueError("norm identity requires positive radii")
        self.p, self.gauss, self.mahler = p, weight_table(self.rho, None), weight_table(self.rho, p)

    def violations(self, images: list, inverse: bool) -> List[tuple]:
        """(e, side, gauss, mahler) for each basis monomial e of :func:`basis_images`'s ``images`` that breaks the
        identity, with the norms of the polynomial ``side`` names: ``"forward"``, e with ||M e||_Mahler != ||e||_Gauss;
        and if ``inverse`` (T / cap! is M's inverse), ``"backward"``, T e / cap! with ||T e / cap!||_Gauss >
        ||e||_Mahler.  The norms are ultrametric sups, so with the inverse the list is empty iff M is an isometry.
        Each sup is read over a floor (forward ||e|| less one, so it comes back iff it reaches ||e||).
        """
        p, gauss, mahler, out = self.p, self.gauss, self.mahler, []
        for e, (forward, den), (backward, back_den) in images:
            unit = {e: 1}
            if weighted_sup_num(forward, p, mahler, den, floor=gauss[e] - 1) != gauss[e]:
                out.append((e, "forward", weighted_sup(unit, p, gauss), weighted_sup(forward, p, mahler, den)))
            if inverse and weighted_sup_num(backward, p, gauss, back_den, floor=mahler[e]) is not None:
                out.append((e, "backward", weighted_sup(backward, p, gauss, back_den), weighted_sup(unit, p, mahler)))
        return out


def basis_images(dim: int, cap: int) -> Tuple[list, List[MultiIndex]]:
    """(images, broken) over the basis monomials e up to ``cap``: ``images`` lists (e, M e, T e / cap!), each image
    int numerators over one denominator (:func:`numerators`), M :func:`mahler_scatter` and T :func:`_taylor_table`;
    ``broken`` lists the e with T M e != cap! e.  Both are linear, so if none is broken every exact polynomial up to
    ``cap`` round-trips, and T / cap! is M's inverse.
    """
    back, fact, images, broken = _taylor_table(dim, cap), math.factorial(cap), [], []
    for e in indices_up_to(dim, cap):
        indices, nums = mahler_scatter(TruncatedSeries.from_numerators(dim, cap, {e: 1}, 1))
        forward = {a: n for a, n in zip(indices, nums) if n}
        out, position = back.dense(forward.items()), back.position
        if e in position:  # else no Taylor row reaches e
            out[position[e]] -= fact
        if e not in position or any(out):
            broken.append(e)
        backward, den = numerators({back.indices[n]: w for n, w in back[e] if w})
        images.append((e, numerators(forward), (backward, den * fact)))
    return images, broken


def verify_norm_identity(f: TruncatedSeries, rho: Sequence[Rational], p: int):
    """Compare the Gauss norm of f with the Mahler-side norm of its family, exactly.

    Returns (equal, gauss_mag, mahler_mag); the norms check the dimensions, the checker that the radii are positive.
    """
    rho = NormIdentity(rho, p).rho
    gauss, mahler = f.gauss_norm(rho, p).mag, mahler_norm(taylor_to_mahler(f), rho, p).mag
    return gauss == mahler, gauss, mahler

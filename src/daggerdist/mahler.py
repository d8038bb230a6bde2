"""Binomial (Mahler) basis versus monomial (Taylor) basis.

The conversion in both directions goes through the Stirling tables, one
variable at a time; the multivariate maps are tensor products of the
one-variable maps, tabled as one integer row per multi-index.  Only exact
polynomials are converted: the formulas sum over all dominating indices, so a
truncated tail would silently corrupt the output coefficients.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .padic import (
    MultiIndex,
    Rational,
    falling_coeff,
    grlex_key,
    stirling_second,
    weight_table,
    weighted_sup,
)
from .series import DimensionMismatch, NormValue, TruncatedSeries, clean_terms

#: (index, int weight) pairs of one basis row, first coordinate varying fastest.
Row = Tuple[Tuple[MultiIndex, int], ...]


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


def multi_factorial(alpha: MultiIndex) -> int:
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


def _tensor_row(factors) -> Row:
    """The nonzero entries of a tensor product of one-variable rows [(k, weight), ...]."""
    out = []
    for combo in product(*reversed(factors)):
        weight = math.prod(w for _, w in combo)
        if weight:
            out.append((tuple(k for k, _ in reversed(combo)), weight))
    return tuple(out)


@lru_cache(maxsize=1024)
def _mahler_row(beta: MultiIndex) -> Row:
    """(alpha, prod_i s(beta_i, alpha_i) * alpha_i!) for alpha <= beta: Z^beta in the binomial basis."""
    return _tensor_row([[(a, stirling_second(b, a) * math.factorial(a)) for a in range(b + 1)] for b in beta])


@lru_cache(maxsize=1024)
def _taylor_row(alpha: MultiIndex) -> Row:
    """(beta, prod_i a(alpha_i, beta_i)) for beta <= alpha: alpha! binom(Z, alpha) in monomials."""
    return _tensor_row([[(b, falling_coeff(a, b)) for b in range(a + 1)] for a in alpha])


def taylor_to_mahler(f: TruncatedSeries) -> MahlerFamily:
    """m_alpha = sum_{beta >= alpha} c_beta * prod_i s(beta_i, alpha_i) * alpha!

    Summed as ints over the common denominator of the c_beta.
    """
    if not f.exact:
        raise ValueError("only exact polynomials admit Mahler conversion")
    den = math.lcm(*(c.denominator for c in f.terms.values()))
    totals: Dict[MultiIndex, int] = {}
    for beta, c in f.terms.items():
        num = c.numerator * (den // c.denominator)
        for alpha, weight in _mahler_row(beta):
            totals[alpha] = totals.get(alpha, 0) + num * weight
    coeffs = {alpha: Fraction(t, den) for alpha, t in totals.items() if t}
    return MahlerFamily(f.dim, f.cap, coeffs, exact=True)


def mahler_to_taylor(m: MahlerFamily) -> TruncatedSeries:
    """c_beta = sum_{alpha >= beta} m_alpha / alpha! * prod_i a(alpha_i, beta_i)

    Summed as ints over the common denominator of the m_alpha / alpha!.
    """
    if not m.exact:
        raise ValueError("only exact Mahler families admit conversion")
    dens = {alpha: ma.denominator * multi_factorial(alpha) for alpha, ma in m.coeffs.items()}
    den = math.lcm(*dens.values())
    totals: Dict[MultiIndex, int] = {}
    for alpha, ma in m.coeffs.items():
        num = ma.numerator * (den // dens[alpha])
        for beta, weight in _taylor_row(alpha):
            totals[beta] = totals.get(beta, 0) + num * weight
    terms = {beta: Fraction(t, den) for beta, t in totals.items() if t}
    return TruncatedSeries(m.dim, m.cap, terms, exact=True)


def mahler_norm(m: MahlerFamily, rho: Sequence[Rational], p: int) -> NormValue:
    """sup_alpha |m_alpha| / |alpha!| * p^(sum rho_i alpha_i)."""
    if len(rho) != m.dim:
        raise DimensionMismatch(f"expected {m.dim} radii, got {len(rho)}")
    table = weight_table(tuple(Fraction(r) for r in rho), p)
    return NormValue(weighted_sup(m.coeffs, p, table), m.exact)


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

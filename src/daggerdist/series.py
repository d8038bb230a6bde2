"""Truncated multivariate power series over exact rationals.

A series is a finite association of multi-indices (total degree <= cap) to
nonzero rational coefficients.  The ``exact`` flag is True iff the stored
terms are the whole object (i.e. the series is a polynomial and nothing was
lost to truncation).  All arithmetic is exact; truncation only ever drops
high-degree tails, and the flag records when that may have happened.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, NamedTuple, Optional, Sequence, Tuple

from .padic import LogMag, MultiIndex, Rational, grlex_key, parse_int, weight_table, weighted_sup


class DimensionMismatch(ValueError):
    pass


class NormValue(NamedTuple):
    """A norm together with its certification status.

    ``is_exact`` True means the value is the norm of the represented object;
    False means it is a certified lower bound (computed from truncated data).
    """

    mag: LogMag
    is_exact: bool


def clean_terms(dim: int, cap: int, terms: Mapping[MultiIndex, Rational]) -> Dict[MultiIndex, Fraction]:
    """The nonzero terms with int-tuple indices and Fraction coefficients; a bad dim, cap or index raises."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    if cap < 0:
        raise ValueError("cap must be non-negative")
    out: Dict[MultiIndex, Fraction] = {}
    for idx, c in terms.items():
        idx = tuple(map(int, idx))
        if len(idx) != dim:
            raise DimensionMismatch(f"index {idx} has length {len(idx)}, expected {dim}")
        if min(idx, default=0) < 0:
            raise ValueError(f"negative exponent in index {idx}")
        if sum(idx) > cap:
            raise ValueError(f"index {idx} exceeds cap {cap}")
        if type(c) is not Fraction:
            c = Fraction(c)
        if c:
            out[idx] = c
    return out


class TruncatedSeries:
    """Sparse polynomial / truncated series with a total-degree cap.

    The terms are not changed after construction, so the evaluation plan is
    built once, on the first :meth:`evaluate`.
    """

    __slots__ = ("dim", "cap", "terms", "exact", "_plan")

    def __init__(self, dim: int, cap: int, terms: Mapping[MultiIndex, Rational], exact: bool = True):
        self.dim = dim
        self.cap = cap
        self.terms = clean_terms(dim, cap, terms)
        self.exact = bool(exact)
        self._plan = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int, cap: int) -> "TruncatedSeries":
        return cls(dim, cap, {})

    @classmethod
    def constant(cls, c: Rational, dim: int, cap: int) -> "TruncatedSeries":
        return cls(dim, cap, {(0,) * dim: c})

    @classmethod
    def variable(cls, i: int, dim: int, cap: int) -> "TruncatedSeries":
        if not 0 <= i < dim:
            raise ValueError(f"variable index {i} out of range for dimension {dim}")
        idx = tuple(1 if j == i else 0 for j in range(dim))
        return cls(dim, cap, {idx: 1})

    # -- basic queries -----------------------------------------------------

    def degree(self) -> int:
        """Total degree of the stored terms (-1 for the zero series)."""
        if not self.terms:
            return -1
        return max(sum(idx) for idx in self.terms)

    def coefficient(self, idx: MultiIndex) -> Fraction:
        return self.terms.get(tuple(idx), Fraction(0))

    def constant_term(self) -> Fraction:
        return self.coefficient((0,) * self.dim)

    def sorted_terms(self) -> Iterable[Tuple[MultiIndex, Fraction]]:
        """Terms in graded-lexicographic order (deterministic)."""
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.dim, self.terms) == (other.dim, other.terms)

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def __repr__(self):
        parts = [f"{c}*Z^{idx}" for idx, c in self.sorted_terms()] or ["0"]
        tag = "" if self.exact else ", truncated"
        return f"Series({' + '.join(parts)}; cap={self.cap}{tag})"

    # -- arithmetic --------------------------------------------------------

    def _require_same_dim(self, other: "TruncatedSeries"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"dimensions {self.dim} and {other.dim} differ")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._require_same_dim(other)
        cap = min(self.cap, other.cap)
        terms: Dict[MultiIndex, Fraction] = {}
        for idx, c in self.terms.items():
            if sum(idx) <= cap:
                terms[idx] = terms.get(idx, Fraction(0)) + c
        for idx, c in other.terms.items():
            if sum(idx) <= cap:
                terms[idx] = terms.get(idx, Fraction(0)) + c
        exact = self.exact and other.exact and self.degree() <= cap and other.degree() <= cap
        return TruncatedSeries(self.dim, cap, terms, exact)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.dim, self.cap, {i: -c for i, c in self.terms.items()}, self.exact)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def scale(self, c: Rational) -> "TruncatedSeries":
        c = Fraction(c)
        if c == 0:
            return TruncatedSeries(self.dim, self.cap, {}, self.exact)
        return TruncatedSeries(self.dim, self.cap, {i: c * v for i, v in self.terms.items()}, self.exact)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._require_same_dim(other)
        cap = min(self.cap, other.cap)
        terms: Dict[MultiIndex, Fraction] = {}
        for i1, c1 in self.terms.items():
            d1 = sum(i1)
            for i2, c2 in other.terms.items():
                if d1 + sum(i2) > cap:
                    continue
                idx = tuple(a + b for a, b in zip(i1, i2))
                terms[idx] = terms.get(idx, Fraction(0)) + c1 * c2
        exact = (
            self.exact
            and other.exact
            and (self.is_zero() or other.is_zero() or self.degree() + other.degree() <= cap)
        )
        return TruncatedSeries(self.dim, cap, terms, exact)

    def power(self, k: int, cap: Optional[int] = None) -> "TruncatedSeries":
        if k < 0:
            raise ValueError("negative power")
        cap = self.cap if cap is None else cap
        out = TruncatedSeries.constant(1, self.dim, cap)
        base = self.with_cap(cap)
        for _ in range(k):
            out = out * base
        return out

    def with_cap(self, cap: int) -> "TruncatedSeries":
        """Reinterpret at a different cap; dropping terms clears exactness."""
        terms = {i: c for i, c in self.terms.items() if sum(i) <= cap}
        exact = self.exact and len(terms) == len(self.terms)
        return TruncatedSeries(self.dim, cap, terms, exact)

    # -- composition and evaluation ---------------------------------------

    def substitute(self, gs: Sequence["TruncatedSeries"], cap: Optional[int] = None) -> "TruncatedSeries":
        """f(g_1, ..., g_d) truncated at ``cap``.

        Every g_i must have zero constant term (this keeps truncation
        coherent: a term of f of degree k only contributes in degrees >= k).
        """
        if len(gs) != self.dim:
            raise DimensionMismatch(f"expected {self.dim} substitution series, got {len(gs)}")
        edim = gs[0].dim
        for g in gs:
            if g.dim != edim:
                raise DimensionMismatch("substitution series have mixed dimensions")
            if g.constant_term() != 0:
                raise ValueError("substitution series must have zero constant term")
        if cap is None:
            cap = min([self.cap] + [g.cap for g in gs])
        out = TruncatedSeries.zero(edim, cap)
        powers = [{0: TruncatedSeries.constant(1, edim, cap)} for _ in gs]

        def g_power(i: int, k: int) -> TruncatedSeries:
            memo = powers[i]
            if k not in memo:
                memo[k] = g_power(i, k - 1) * gs[i].with_cap(cap)
            return memo[k]

        for idx, c in self.terms.items():
            part = TruncatedSeries.constant(c, edim, cap)
            for i, k in enumerate(idx):
                if k:
                    part = part * g_power(i, k)
            out = out + part
        exact = out.exact and self.exact
        return TruncatedSeries(edim, cap, out.terms, exact)

    def evaluate(self, xs: Sequence[Rational]) -> Rational:
        """Exact sum over the stored terms at the point ``xs``.

        The sum is an ``int`` exactly when the point and the coefficients are
        integers, and a ``Fraction`` otherwise.
        """
        if len(xs) != self.dim:
            raise DimensionMismatch(f"expected {self.dim} coordinates, got {len(xs)}")
        plan = self._plan
        if plan is None:
            # (coefficient, ((variable, exponent), ...)); integral coefficients as ints
            plan = self._plan = tuple(
                (c.numerator if c.denominator == 1 else c, tuple((i, k) for i, k in enumerate(idx) if k))
                for idx, c in self.terms.items()
            )
        total = 0
        for x in xs:
            if type(x) is not int:
                xs = [Fraction(x) for x in xs]
                total = Fraction(0)
                break
        for c, factors in plan:
            for i, k in factors:
                c *= xs[i] if k == 1 else xs[i] ** k
            total += c
        return total

    def partial_evaluate(self, fixed: Mapping[int, Rational]) -> "TruncatedSeries":
        """Fix some variables to scalars; result lives in the remaining ones."""
        fixed = {int(i): Fraction(v) for i, v in fixed.items()}
        keep = [i for i in range(self.dim) if i not in fixed]
        if not keep:
            raise ValueError("at least one variable must remain")
        terms: Dict[MultiIndex, Fraction] = {}
        for idx, c in self.terms.items():
            val = c
            for i, v in fixed.items():
                if idx[i]:
                    val *= v ** idx[i]
            if val == 0:
                continue
            new_idx = tuple(idx[i] for i in keep)
            terms[new_idx] = terms.get(new_idx, Fraction(0)) + val
        return TruncatedSeries(len(keep), self.cap, terms, self.exact)

    def embed(self, new_dim: int, positions: Sequence[int]) -> "TruncatedSeries":
        """Rename variable i to variable positions[i] in a larger ring."""
        if len(positions) != self.dim:
            raise DimensionMismatch("positions must list one slot per variable")
        terms: Dict[MultiIndex, Fraction] = {}
        for idx, c in self.terms.items():
            new_idx = [0] * new_dim
            for i, k in enumerate(idx):
                new_idx[positions[i]] += k
            terms[tuple(new_idx)] = c
        return TruncatedSeries(new_dim, self.cap, terms, self.exact)

    # -- norms -------------------------------------------------------------

    def gauss_norm(self, rho: Sequence[Rational], p: int) -> NormValue:
        """Weighted Gauss norm sup |c_alpha| p^(sum rho_i alpha_i).

        Returns bottom for the zero series.  When the series is truncated the
        result is only a certified lower bound for the true norm.
        """
        if len(rho) != self.dim:
            raise DimensionMismatch(f"expected {self.dim} radii, got {len(rho)}")
        table = weight_table(tuple(Fraction(r) for r in rho), None)
        return NormValue(weighted_sup(self.terms, p, table), self.exact)


def series_to_records(f: TruncatedSeries) -> list:
    """Deterministic serialization as {index, coeff} records."""
    from .padic import format_fraction

    return [{"index": list(idx), "coeff": format_fraction(c)} for idx, c in f.sorted_terms()]


def series_from_records(records, dim: int, cap: int, exact: bool = True) -> TruncatedSeries:
    """The inverse of :func:`series_to_records`; a non-integral index entry raises."""
    terms = {tuple(map(parse_int, rec["index"])): Fraction(rec["coeff"]) for rec in records}
    return TruncatedSeries(dim, cap, terms, exact)

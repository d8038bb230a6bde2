"""Truncated multivariate power series over exact rationals.

A series is a finite association of multi-indices (total degree <= cap) to
nonzero rational coefficients.  The ``exact`` flag is True iff the stored
terms are the whole object (i.e. the series is a polynomial and nothing was
lost to truncation).  All arithmetic is exact; truncation only ever drops
high-degree tails, and the flag records when that may have happened.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Iterable, Mapping, NamedTuple, Optional, Sequence, Tuple

from .padic import (
    LogMag,
    MultiIndex,
    Rational,
    grlex_key,
    numerators,
    parse_fraction,
    parse_int,
    same_ratios,
    valuation_pairs,
    weight_table,
    weighted_sup,
)


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

    The terms are not changed after construction, so the evaluation kernel is
    compiled once, on the first :meth:`evaluate`, and the int numerators once,
    on the first :meth:`numerators`.  A series built by :meth:`from_numerators`
    builds its Fraction ``terms`` on first read instead.
    """

    __slots__ = ("dim", "cap", "_terms", "exact", "_kernel", "_numerators")

    def __init__(self, dim: int, cap: int, terms: Mapping[MultiIndex, Rational], exact: bool = True):
        self._set(dim, cap, clean_terms(dim, cap, terms), None, exact)

    @classmethod
    def from_numerators(cls, dim: int, cap: int, nums: Dict[MultiIndex, int], den: int) -> "TruncatedSeries":
        """The exact series of terms nums[alpha] / den, unchecked: the indices must be valid and the numerators nonzero."""
        f = cls.__new__(cls)
        f._set(dim, cap, None, (nums, den), True)
        return f

    def _set(self, dim: int, cap: int, terms, nums_den, exact: bool):
        self.dim, self.cap, self._terms, self._numerators, self.exact = dim, cap, terms, nums_den, bool(exact)
        self._kernel = None

    @property
    def terms(self) -> Dict[MultiIndex, Fraction]:
        if self._terms is None:
            nums, den = self._numerators
            self._terms = {k: Fraction(n, den) for k, n in nums.items()}
        return self._terms

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

    def numerators(self) -> Tuple[Dict[MultiIndex, int], int]:
        """The terms as int numerators over a common denominator, the least one unless built :meth:`from_numerators`."""
        if self._numerators is None:
            self._numerators = numerators(self.terms)
        return self._numerators

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.dim == other.dim and same_ratios(*self.numerators(), *other.numerators())

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
        kernel = self._kernel
        if kernel is None:
            kernel = self._kernel = compile_polys((self,), self.dim)
        return kernel(*xs)[0]

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
        nums, den = self.numerators()
        return NormValue(weighted_sup(valuation_pairs(nums, p), p, weight_table(tuple(rho), None), den=den), self.exact)


#: Terms per parenthesized group in a kernel's sums: one flat chain of a few
#: thousand additions exceeds the compiler's recursion limit.
_SUM_CHUNK = 256


def _sum_text(terms: Sequence[str]) -> str:
    while len(terms) > _SUM_CHUNK:
        terms = [f"({' + '.join(terms[i : i + _SUM_CHUNK])})" for i in range(0, len(terms), _SUM_CHUNK)]
    return " + ".join(terms) or "0"


def _tuple_text(items: Sequence[str]) -> str:
    return f"({', '.join(items)}{',' if items else ''})"


def compile_polys(polys: Sequence[TruncatedSeries], nvars: int) -> Callable[..., tuple]:
    """One straight-line function of ``nvars`` coordinates that returns every ``f(x)`` as a tuple.

    The generated source, kept as the function's ``source``, holds only int
    literals and generated names: the coordinates ``v0, v1, ...``, ``F`` for
    ``Fraction``, and ``c0, c1, ...`` for the coefficients that are not small
    integers.  Those are bound as constants and never formatted into the text.

    The outputs are all ints exactly when the coordinates and every
    coefficient are integers; otherwise every output is a ``Fraction``.
    """
    names = [f"v{i}" for i in range(nvars)]
    consts: Dict[str, Rational] = {}
    exprs, fraction_exprs = [], []
    for f in polys:
        if f.dim != nvars:
            raise DimensionMismatch(f"expected {nvars} variables, got {f.dim}")
        terms = []
        for idx, c in f.sorted_terms():
            if c.denominator == 1 and c.numerator.bit_length() <= 64:
                coeff = str(c.numerator)
            else:
                coeff = f"c{len(consts)}"
                consts[coeff] = c.numerator if c.denominator == 1 else c
            factors = [n if k == 1 else f"{n}**{k}" for n, k in zip(names, idx) if k]
            if factors and coeff in ("1", "-1"):  # x for 1*x, -x for -1*x
                terms.append(coeff[:-1] + "*".join(factors))
            else:
                terms.append("*".join([coeff] + factors))
        expr = _sum_text(terms)
        exprs.append(expr)
        # a term in a variable makes the sum a Fraction; a constant needs converting
        fraction_exprs.append(expr if f.degree() > 0 else f"F({expr})")
    args = ", ".join(names)
    lines = [f"def kernel({args}):"]
    if all(c.denominator == 1 for f in polys for c in f.terms.values()):
        check = " is ".join(f"type({n})" for n in names)
        lines += [f"    if {check} is int:", f"        return {_tuple_text(exprs)}"]
    lines += [
        f"    {args}, = {', '.join(f'F({n})' for n in names)},",
        f"    return {_tuple_text(fraction_exprs)}",
    ]
    source = "\n".join(lines) + "\n"
    namespace = {"F": Fraction, **consts}
    exec(compile(source, "<compiled polynomials>", "exec"), namespace)
    kernel = namespace["kernel"]
    kernel.source = source
    return kernel


def series_to_records(f: TruncatedSeries) -> list:
    """Deterministic serialization as {index, coeff} records."""
    from .padic import format_fraction

    return [{"index": list(idx), "coeff": format_fraction(c)} for idx, c in f.sorted_terms()]


def terms_from_records(records) -> Dict[MultiIndex, Fraction]:
    """``{index: coeff}`` from ``{index, coeff}`` records, zeros kept.

    An index that is not a list of integers, or that repeats, raises.
    """
    terms: Dict[MultiIndex, Fraction] = {}
    for rec in records:
        index = rec["index"]
        if not isinstance(index, (list, tuple)):
            raise TypeError(f"index {index!r} is not a list")
        idx = tuple(map(parse_int, index))
        if idx in terms:
            raise ValueError(f"index {list(idx)} is repeated")
        terms[idx] = parse_fraction(rec["coeff"])
    return terms


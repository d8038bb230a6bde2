"""Truncated multivariate power series over exact rationals, stored as ints.

A coefficient family (a :class:`TruncatedSeries`, or a Mahler family of
:mod:`daggerdist.mahler`) has one stored form: int numerators ``nums`` over
one positive denominator ``den``, not necessarily in lowest terms.  A series
maps multi-indices of total degree <= cap to nonzero coefficients.  The
``exact`` flag is True iff the stored terms are the whole object (i.e. the
series is a polynomial and nothing was lost to truncation).  Sums, products,
scaling, truncation, embedding and substitution all run on the ints;
truncation only ever drops high-degree tails, and the flag records when that
may have happened.  A distribution's tables keep the list a kernel returns.

``Fraction``s are built only at the edges: the read-only view ``terms`` (and
from it :meth:`Coefficients.coefficient`, :meth:`Coefficients.sorted_terms`,
``repr``, :func:`series_to_records` and :func:`compile_polys`), and the
rationals a constructor or :func:`terms_from_records` reads.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress, repeat
from operator import add
from types import MappingProxyType
from typing import Callable, Dict, Iterable, Mapping, NamedTuple, Optional, Sequence, Tuple

from .padic import (
    LogMag,
    MultiIndex,
    Rational,
    _scaled_text,
    _sum_text,
    _tuple_text,
    format_fraction,
    grlex_key,
    indices_up_to,
    numerators,
    parse_fraction,
    parse_int,
    same_ratios,
    weight_table,
    weighted_sup,
    write_kernel,
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


def check_index(dim: int, idx: Sequence[int]) -> MultiIndex:
    """idx as an int tuple; a wrong length raises DimensionMismatch, a negative or non-integral entry ValueError."""
    idx = tuple(map(parse_int, idx))
    if len(idx) != dim:
        raise DimensionMismatch(f"index {idx} has length {len(idx)}, expected {dim}")
    if min(idx, default=0) < 0:
        raise ValueError(f"negative exponent in index {idx}")
    return idx


def clean_terms(dim: int, cap: int, terms: Mapping[MultiIndex, Rational]) -> Dict[MultiIndex, Fraction]:
    """The nonzero terms with int-tuple indices and Fraction coefficients; a bad dim, cap or index raises."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    if cap < 0:
        raise ValueError("cap must be non-negative")
    out: Dict[MultiIndex, Fraction] = {}
    for idx, c in terms.items():
        idx = check_index(dim, idx)
        if sum(idx) > cap:
            raise ValueError(f"index {idx} exceeds cap {cap}")
        if type(c) is not Fraction:
            c = Fraction(c)
        if c:
            out[idx] = c
    return out


def _nonzero(nums: Dict[MultiIndex, int]) -> Dict[MultiIndex, int]:
    return {i: n for i, n in nums.items() if n}


class Coefficients:
    """A finite family alpha -> nums[alpha] / den of rationals: nonzero ints over one positive int.

    Equality compares the ratios, so neither side need be reduced.  ``terms``
    is the read-only Fraction view, built on first read.  A family built by
    :meth:`from_dense` keeps its numerators as the list ``dense`` over every
    index of :func:`~daggerdist.padic.indices_up_to` (dim, cap), zeros
    included, as a kernel returns them, and builds its dict ``nums`` on first
    read; any other family has ``dense`` None.
    """

    __slots__ = ("dim", "cap", "_nums", "den", "exact", "dense", "_terms")

    def __init__(self, dim: int, cap: int, terms: Mapping[MultiIndex, Rational], exact: bool = True):
        self._set(dim, cap, *numerators(clean_terms(dim, cap, terms)), exact)

    @classmethod
    def from_numerators(cls, dim: int, cap: int, nums: Dict[MultiIndex, int], den: int, exact: bool = True):
        """The family nums[alpha] / den, unchecked: the indices must be valid and the numerators nonzero."""
        f = cls.__new__(cls)
        f._set(dim, cap, nums, den, exact)
        return f

    @classmethod
    def from_dense(cls, dim: int, cap: int, dense: Sequence[int], den: int):
        """The exact family dense[n] / den at the n-th index of indices_up_to(dim, cap), unchecked."""
        f = cls.__new__(cls)
        f.dim, f.cap, f.dense, f.den, f.exact, f._nums, f._terms = dim, cap, dense, den, True, None, None
        return f

    def _set(self, dim: int, cap: int, nums: Dict[MultiIndex, int], den: int, exact: bool):
        self.dim, self.cap, self._nums, self.den, self.exact = dim, cap, nums, den, bool(exact)
        self.dense = self._terms = None

    @property
    def nums(self) -> Dict[MultiIndex, int]:
        """alpha -> nonzero numerator; a dense family builds it from its list on first read."""
        nums = self._nums
        if nums is None:
            dense = self.dense
            self._nums = nums = dict(compress(zip(indices_up_to(self.dim, self.cap), dense), dense))
        return nums

    def dense_up_to(self, cap: int) -> Sequence[int]:
        """A dense family's numerators over indices_up_to(dim, cap), zeros included: grlex order puts every index
        of degree <= c first, so a lower cap reads a prefix of the list, and a higher one pads it with zeros."""
        dense, size = self.dense, len(indices_up_to(self.dim, cap))
        return dense[:size] if size <= len(dense) else (*dense, *repeat(0, size - len(dense)))

    @property
    def terms(self) -> Mapping[MultiIndex, Fraction]:
        if self._terms is None:
            den = self.den
            self._terms = MappingProxyType({k: Fraction(n, den) for k, n in self.nums.items()})
        return self._terms

    def coefficient(self, idx: MultiIndex) -> Fraction:
        return self.terms.get(check_index(self.dim, idx), Fraction(0))

    def sorted_terms(self) -> Iterable[Tuple[MultiIndex, Fraction]]:
        """Terms in graded-lexicographic order (deterministic)."""
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.dim == other.dim and same_ratios(self.nums, self.den, other.nums, other.den)

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))


class TruncatedSeries(Coefficients):
    """Sparse polynomial / truncated series with a total-degree cap.

    The terms are not changed after construction, so the evaluation kernel is
    compiled once, on the first :meth:`evaluate`.
    """

    __slots__ = ("_kernel",)

    # defined in this class body, where perfbench/tracing.py looks it up to wrap it
    def __init__(self, dim: int, cap: int, terms: Mapping[MultiIndex, Rational], exact: bool = True):
        super().__init__(dim, cap, terms, exact)

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
        return max(map(sum, self.nums), default=-1)

    def is_zero(self) -> bool:
        return not self.nums

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
        den = math.lcm(self.den, other.den)
        nums: Dict[MultiIndex, int] = {}
        for f in (self, other):
            scale = den // f.den
            for idx, n in f.nums.items():
                if sum(idx) <= cap:
                    nums[idx] = nums.get(idx, 0) + n * scale
        exact = self.exact and other.exact and self.degree() <= cap and other.degree() <= cap
        return TruncatedSeries.from_numerators(self.dim, cap, _nonzero(nums), den, exact)

    def __neg__(self) -> "TruncatedSeries":
        return self.scale(-1)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def scale(self, c: Rational) -> "TruncatedSeries":
        c = Fraction(c)
        a = c.numerator
        nums = {i: a * n for i, n in self.nums.items()} if a else {}
        return TruncatedSeries.from_numerators(self.dim, self.cap, nums, self.den * c.denominator, self.exact)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._require_same_dim(other)
        cap = min(self.cap, other.cap)
        nums: Dict[MultiIndex, int] = {}
        for i1, n1 in self.nums.items():
            d1 = sum(i1)
            for i2, n2 in other.nums.items():
                if d1 + sum(i2) > cap:
                    continue
                idx = tuple(map(add, i1, i2))
                nums[idx] = nums.get(idx, 0) + n1 * n2
        exact = (
            self.exact
            and other.exact
            and (self.is_zero() or other.is_zero() or self.degree() + other.degree() <= cap)
        )
        return TruncatedSeries.from_numerators(self.dim, cap, _nonzero(nums), self.den * other.den, exact)

    def with_cap(self, cap: int) -> "TruncatedSeries":
        """Reinterpret at a different cap; dropping terms clears exactness."""
        nums = {i: n for i, n in self.nums.items() if sum(i) <= cap}
        exact = self.exact and len(nums) == len(self.nums)
        return TruncatedSeries.from_numerators(self.dim, cap, nums, self.den, exact)

    # -- composition and evaluation ---------------------------------------

    def substitute(self, gs: Sequence["TruncatedSeries"], cap: Optional[int] = None) -> "TruncatedSeries":
        """f(g_1, ..., g_d) truncated at ``cap``.

        Every g_i must have zero constant term (this keeps truncation
        coherent: a term of f of degree k only contributes in degrees >= k).
        """
        if len(gs) != self.dim:
            raise DimensionMismatch(f"expected {self.dim} substitution series, got {len(gs)}")
        edim = gs[0].dim
        origin = (0,) * edim
        for g in gs:
            if g.dim != edim:
                raise DimensionMismatch("substitution series have mixed dimensions")
            if origin in g.nums:
                raise ValueError("substitution series must have zero constant term")
        if cap is None:
            cap = min([self.cap] + [g.cap for g in gs])
        gs = [g.with_cap(cap) for g in gs]
        one = TruncatedSeries.constant(1, edim, cap)
        powers = [{0: one} for _ in gs]

        def g_power(i: int, k: int) -> TruncatedSeries:
            memo = powers[i]
            if k not in memo:
                memo[k] = g_power(i, k - 1) * gs[i]
            return memo[k]

        def g_monomial(idx):  # g^idx; a zero times an exact g_i is exact, times a g_i^k past the cap it is not
            out = one
            for i, k in enumerate(idx):
                if k:
                    out = out * (gs[i] if out.is_zero() else g_power(i, k))
            return out

        # sum_idx nums[idx] g^idx in one int dict over the parts' common denominator, divided by den at the end
        parts = [(n, g_monomial(idx)) for idx, n in self.nums.items()]
        den = math.lcm(*(part.den for _, part in parts))
        nums: Dict[MultiIndex, int] = {}
        for n, part in parts:
            scale = n * (den // part.den)
            for j, m in part.nums.items():
                nums[j] = nums.get(j, 0) + m * scale
        exact = self.exact and all(part.exact for _, part in parts)
        return TruncatedSeries.from_numerators(edim, cap, _nonzero(nums), den * self.den, exact)

    def evaluate(self, xs: Sequence[Rational]) -> Rational:
        """Exact sum over the stored terms at the point ``xs``.

        The sum is an ``int`` exactly when the point and the coefficients are
        integers, and a ``Fraction`` otherwise.
        """
        if len(xs) != self.dim:
            raise DimensionMismatch(f"expected {self.dim} coordinates, got {len(xs)}")
        kernel = getattr(self, "_kernel", None)  # unset until the first call
        if kernel is None:
            kernel = self._kernel = compile_polys((self,), self.dim)
        return kernel(*xs)[0]

    def embed(self, new_dim: int, positions: Sequence[int]) -> "TruncatedSeries":
        """Rename variable i to variable positions[i] in a larger ring."""
        if len(positions) != self.dim:
            raise DimensionMismatch("positions must list one slot per variable")
        nums: Dict[MultiIndex, int] = {}
        for idx, n in self.nums.items():
            new_idx = [0] * new_dim
            for i, k in enumerate(idx):
                new_idx[positions[i]] += k
            nums[tuple(new_idx)] = n
        return TruncatedSeries.from_numerators(new_dim, self.cap, nums, self.den, self.exact)

    # -- norms -------------------------------------------------------------

    def gauss_norm(self, rho: Sequence[Rational], p: int) -> NormValue:
        """Weighted Gauss norm sup |c_alpha| p^(sum rho_i alpha_i).

        Returns bottom for the zero series.  When the series is truncated the
        result is only a certified lower bound for the true norm.
        """
        if len(rho) != self.dim:
            raise DimensionMismatch(f"expected {self.dim} radii, got {len(rho)}")
        return NormValue(weighted_sup(self.nums, p, weight_table(tuple(rho), None), self.den), self.exact)


def compile_polys(polys: Sequence[TruncatedSeries], nvars: int) -> Callable[..., tuple]:
    """One straight-line function of ``nvars`` coordinates that returns every ``f(x)`` as a tuple.

    The generated source, kept as the function's ``source``, holds only int
    literals and generated names: the coordinates ``v0, v1, ...``, ``F`` for
    ``Fraction``, and ``k0, k1, ...`` for the coefficients that are not ints
    of at most 64 bits.  Those are bound as constants by
    :func:`~daggerdist.padic._scaled_text`, as in the linear and bilinear
    kernels, and never formatted into the text.

    The outputs are all ints exactly when the coordinates and every
    coefficient are integers; otherwise every output is a ``Fraction``.
    """
    names = [f"v{i}" for i in range(nvars)]
    consts: Dict[str, object] = {}
    exprs, fraction_exprs = [], []
    for f in polys:
        if f.dim != nvars:
            raise DimensionMismatch(f"expected {nvars} variables, got {f.dim}")
        terms = []
        for idx, c in f.sorted_terms():
            factors = "*".join(n if k == 1 else f"{n}**{k}" for n, k in zip(names, idx) if k)
            terms.append(_scaled_text(c.numerator if c.denominator == 1 else c, factors or "1", consts))
        expr = _sum_text(terms)
        exprs.append(expr)
        # a term in a variable makes the sum a Fraction; a constant needs converting
        fraction_exprs.append(expr if f.degree() > 0 else f"F({expr})")
    args = ", ".join(names)
    body = []
    if all(c.denominator == 1 for f in polys for c in f.terms.values()):
        check = " is ".join(f"type({n})" for n in names)
        body += [f"if {check} is int:", f"    return {_tuple_text(exprs)}"]
    body += [f"{args}, = {', '.join(f'F({n})' for n in names)},", f"return {_tuple_text(fraction_exprs)}"]
    return write_kernel(args, body, {"F": Fraction, **consts}, "polynomials")


def series_to_records(f: Coefficients) -> list:
    """Deterministic serialization of a series or Mahler family as {index, coeff} records."""
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


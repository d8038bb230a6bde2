"""Exact p-adic valuations, magnitudes and the change of basis.

Every quantity in this package is an exact rational (``fractions.Fraction``)
or an integer; there is no floating point anywhere.  Norm values p^q are
represented by their exponent q (see :class:`LogMag`), so every norm
comparison reduces to an exact comparison of rationals.

The change between the monomial and binomial bases lives here once: two
cached tables of integer basis rows (:func:`mahler_row`, :func:`taylor_row`)
and one kernel pair over int numerators.  Functions :func:`scatter` through a
row table; distributions, their duals under <lam, f> = sum_alpha m_alpha(f)
d_alpha(lam), :func:`gather` through the same table.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, total_ordering
from itertools import product
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

Rational = Union[int, Fraction]
MultiIndex = Tuple[int, ...]
#: (index, int weight) pairs of one basis row, first coordinate varying fastest.
Row = Tuple[Tuple[MultiIndex, int], ...]

#: Valuation of zero.
INFINITY = math.inf


def _int_valuation(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("zero has no finite valuation")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def valuation(x: Rational, p: int):
    """p-adic valuation of an exact rational: an int, or +inf for zero."""
    if type(x) is int:
        return _int_valuation(x, p) if x else INFINITY
    if not isinstance(x, Fraction):
        x = Fraction(x)
    if x == 0:
        return INFINITY
    return _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p)


def is_prime(n: int) -> bool:
    """Primality by trial division (the primes used here are small)."""
    return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))


def digit_sum(n: int, p: int) -> int:
    """Sum of the base-p digits of n >= 0."""
    if n < 0:
        raise ValueError("n must be non-negative")
    s = 0
    while n:
        n, r = divmod(n, p)
        s += r
    return s


def factorial_valuation(n: int, p: int) -> int:
    """v_p(n!) as an int: (n - digit_sum(n)) / (p - 1), which divides exactly (Legendre)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return (n - digit_sum(n, p)) // (p - 1)


def multi_factorial_valuation(alpha: MultiIndex, p: int) -> int:
    """v_p(alpha!) as an int for a multi-index, alpha! = alpha_1! ... alpha_d!."""
    return sum(factorial_valuation(a, p) for a in alpha)


def multi_factorial(alpha: MultiIndex) -> int:
    """alpha! = alpha_1! ... alpha_d! as an int."""
    return math.prod(map(math.factorial, alpha))


@lru_cache(maxsize=None)
def stirling_second(beta: int, alpha: int) -> int:
    """Stirling number of the second kind: x^beta = sum_a s(beta,a) x_falling^a.

    Indices outside 0 <= alpha <= beta are rejected.
    """
    if not 0 <= alpha <= beta:
        raise ValueError(f"stirling_second out of range: ({beta}, {alpha})")
    if beta == 0:
        return 1
    if alpha == 0:
        return 0
    if alpha == beta:
        return 1
    # s(b, a) = a*s(b-1, a) + s(b-1, a-1)
    prev = stirling_second(beta - 1, alpha) if alpha <= beta - 1 else 0
    return alpha * prev + stirling_second(beta - 1, alpha - 1)


@lru_cache(maxsize=None)
def falling_coeff(alpha: int, beta: int) -> int:
    """Coefficient of x^beta in x(x-1)...(x-alpha+1); leading one is 1.

    Indices outside 0 <= beta <= alpha are rejected.
    """
    if not 0 <= beta <= alpha:
        raise ValueError(f"falling_coeff out of range: ({alpha}, {beta})")
    if alpha == 0:
        return 1
    if beta == 0:
        return 0
    # x_falling^a = x_falling^(a-1) * (x - (a-1))
    upper = falling_coeff(alpha - 1, beta) if beta <= alpha - 1 else 0
    return falling_coeff(alpha - 1, beta - 1) - (alpha - 1) * upper


def _product(factors) -> Row:
    """The nonzero entries of a product of one-variable rows [(k, weight), ...]."""
    out = []
    for combo in product(*reversed(factors)):
        weight = math.prod(w for _, w in combo)
        if weight:
            out.append((tuple(k for k, _ in reversed(combo)), weight))
    return tuple(out)


@lru_cache(maxsize=1024)
def mahler_row(beta: MultiIndex) -> Row:
    """(alpha, prod_i s(beta_i, alpha_i) * alpha_i!) for alpha <= beta: Z^beta in the binomial basis.

    Z^beta = sum_alpha w_alpha binom(Z, alpha); read the other way, w_alpha is
    the moment at Z^beta of the basis monomial dual to binom(Z, alpha).
    """
    return _product([[(a, stirling_second(b, a) * math.factorial(a)) for a in range(b + 1)] for b in beta])


@lru_cache(maxsize=1024)
def taylor_row(alpha: MultiIndex) -> Row:
    """(beta, prod_i a(alpha_i, beta_i)) for beta <= alpha: alpha! binom(Z, alpha) in monomials."""
    return _product([[(b, falling_coeff(a, b)) for b in range(a + 1)] for a in alpha])


def gather(row, nums: Mapping[MultiIndex, int], indices: Sequence[MultiIndex]) -> List[int]:
    """out_i = sum over (k, w) in row(i) of w * nums[k], for each i in indices; absent k read as 0."""
    out = []
    for i in indices:
        acc = 0
        for k, w in row(i):
            n = nums.get(k)
            if n:
                acc += w * n
        out.append(acc)
    return out


def scatter(row, nums: Mapping[MultiIndex, int]) -> Dict[MultiIndex, int]:
    """The transpose of :func:`gather`: out_i = sum of w * nums[k] over (i, w) in row(k); zeros dropped."""
    out: Dict[MultiIndex, int] = {}
    for k, n in nums.items():
        for i, w in row(k):
            out[i] = out.get(i, 0) + w * n
    return {i: t for i, t in out.items() if t}


def numerators(values: Mapping[MultiIndex, Rational]) -> Tuple[Dict[MultiIndex, int], int]:
    """The values as int numerators over their least common denominator, and that denominator."""
    den = math.lcm(*(v.denominator for v in values.values()))
    return {k: v.numerator * (den // v.denominator) for k, v in values.items()}, den


def binom_value(x: Rational, k: int) -> Fraction:
    """binom(x, k) = x(x-1)...(x-k+1)/k! for rational x."""
    if k < 0:
        raise ValueError("k must be non-negative")
    x = Fraction(x)
    num = Fraction(1)
    for j in range(k):
        num *= x - j
    return num / math.factorial(k)


def multi_binom_value(x: Tuple[Rational, ...], alpha: MultiIndex) -> Fraction:
    """binom(x, alpha) = prod_i binom(x_i, alpha_i)."""
    if len(x) != len(alpha):
        raise ValueError("length mismatch")
    out = Fraction(1)
    for xi, ai in zip(x, alpha):
        out *= binom_value(xi, ai)
        if out == 0:
            break
    return out


def grlex_key(alpha: MultiIndex):
    """Graded lexicographic sort key, used for deterministic iteration."""
    return (sum(alpha), alpha)


@total_ordering
class LogMag:
    """A p-power magnitude p^exponent, with a bottom element for zero.

    Bottom is absorbing under multiplication and minimal under comparison.
    For nonzero x the exponent is -v_p(x), so the magnitude equals |x|_p.
    """

    __slots__ = ("exponent",)

    def __init__(self, exponent: Rational | None):
        if exponent is None:
            self.exponent = None
        else:
            self.exponent = Fraction(exponent)

    @classmethod
    def bottom(cls) -> "LogMag":
        return cls(None)

    @classmethod
    def of(cls, x: Rational, p: int) -> "LogMag":
        """Magnitude |x|_p of an exact rational."""
        if x == 0:
            return cls.bottom()
        return cls(-valuation(x, p))

    @property
    def is_bottom(self) -> bool:
        return self.exponent is None

    def __mul__(self, other: "LogMag") -> "LogMag":
        if self.is_bottom or other.is_bottom:
            return LogMag.bottom()
        return LogMag(self.exponent + other.exponent)

    def __eq__(self, other):
        if not isinstance(other, LogMag):
            return NotImplemented
        return self.exponent == other.exponent

    def __lt__(self, other: "LogMag") -> bool:
        if self.is_bottom:
            return not other.is_bottom
        if other.is_bottom:
            return False
        return self.exponent < other.exponent

    def __hash__(self):
        return hash(("LogMag", self.exponent))

    def __repr__(self):
        if self.is_bottom:
            return "LogMag(zero)"
        return f"LogMag(p^{self.exponent})"


def leq_with_integer_factor(lhs: LogMag, rhs: LogMag, factor: int, p: int) -> bool:
    """Decide p^lhs <= factor * p^rhs exactly, for a positive integer factor.

    Reduces to an integer power comparison p^a <= factor^b with a/b the
    normalized exponent difference.
    """
    if factor < 1:
        raise ValueError("factor must be a positive integer")
    if lhs.is_bottom:
        return True
    if rhs.is_bottom:
        return False
    return p_power_at_most(lhs.exponent - rhs.exponent, factor, p)


def p_power_at_most(q: Fraction, factor: int, p: int) -> bool:
    """Decide p^q <= factor exactly, for a rational q and a positive integer factor."""
    if q <= 0:
        return True
    return p ** q.numerator <= factor ** q.denominator


class WeightTable(dict):
    """alpha -> den * ([v_p(alpha!)] + sum_i w_i alpha_i) as an int, filled on first use.

    ``den`` is the common denominator of the weights w; the factorial term
    v_p(alpha!), an int, is added only when ``p`` is given.
    """

    def __init__(self, weights: Tuple[Fraction, ...], p: Optional[int]):
        super().__init__()
        self.weights = weights
        self.p = p
        self.den = math.lcm(*(w.denominator for w in weights))

    def __missing__(self, alpha: MultiIndex) -> int:
        den = self.den
        value = sum(w.numerator * (den // w.denominator) * a for w, a in zip(self.weights, alpha))
        if self.p is not None:
            value += den * multi_factorial_valuation(alpha, self.p)
        self[alpha] = value
        return value

    def weight(self, alpha: MultiIndex) -> Fraction:
        """The unscaled weight at alpha."""
        return Fraction(self[alpha], self.den)

    def exceeds(self, other: "WeightTable", alpha: MultiIndex) -> bool:
        """Whether this table's weight at alpha is larger than other's."""
        return self[alpha] * other.den > other[alpha] * self.den


@lru_cache(maxsize=1024)
def weight_table(weights: Tuple[Fraction, ...], p: Optional[int]) -> WeightTable:
    """The weights of one norm at one radius vector; ``p`` adds v_p(alpha!)."""
    return WeightTable(weights, p)


def weighted_sup(coeffs: Mapping[MultiIndex, Rational], p: int, table: WeightTable, sign: int = 1) -> LogMag:
    """sup over the support of -v_p(c_alpha) + sign * table.weight(alpha), exactly.

    The sup runs over ints scaled by ``table.den``, and one Fraction is built
    at the end; bottom when there are no coefficients.
    """
    den = table.den
    best = max((sign * table[a] - valuation(c, p) * den for a, c in coeffs.items()), default=None)
    return LogMag.bottom() if best is None else LogMag(Fraction(best, den))


def format_fraction(x) -> str:
    """Rational (or +inf) as a "num/den" report string."""
    if x == INFINITY:
        return "inf"
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_fraction(text: str) -> Fraction:
    return Fraction(text)


def parse_int(x) -> int:
    """An int read exactly from an input value; a non-integral one raises (int() would truncate it)."""
    q = Fraction(x)
    if q.denominator != 1:
        raise ValueError(f"expected an integer, got {q}")
    return q.numerator

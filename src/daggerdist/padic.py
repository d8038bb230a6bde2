"""Exact p-adic valuations, magnitudes and the change of basis.

Every quantity in this package is an exact rational (``fractions.Fraction``)
or an integer; there is no floating point anywhere.  Norm values p^q are
represented by their exponent q (see :class:`LogMag`), so every norm
comparison reduces to an exact comparison of rationals.

The change between the monomial and binomial bases lives here once: two
integer basis rows (:func:`mahler_row`, :func:`taylor_row`), not cached, as
each table or kernel built on a row reads it once and keeps what it read,
and one kernel pair over int numerators.  Their one-variable Stirling and
falling-factorial rows are built in a loop, the last one kept
(:class:`_TriangleRows`).  Functions scatter through a row's
:class:`ScatterTable` (:func:`scatter_table`) into a dense int list;
distributions, their duals under <lam, f> = sum_alpha m_alpha(f) d_alpha(lam),
gather through the same table, compiled by :func:`row_kernel`.
The Taylor rows with cap!/alpha! folded into their weights, which take
moments or a Mahler family back to ints over one denominator, are
:func:`cap_scaled_row` of the row.

Hot paths keep rationals as int numerators over one common denominator
(:func:`numerators`); a series, a Mahler family or a distribution's table
stores only that form, and :func:`same_ratios` compares two of them without
reducing either.  Every compiled kernel of the package is written by
:func:`write_kernel`: straight-line source holding only int literals of at
most 64 bits and generated names, kept as ``kernel.source``; each term
c * factor is written by :func:`_scaled_text`, which binds any other
coefficient (a ``Fraction`` too) as a constant ``k<n>``.  Here are the
product over coordinates (:func:`tensor_kernel`, a Dirac's x^beta and
binom(x, beta)), and the linear and bilinear int forms
(:func:`linear_kernel`, :func:`bilinear_kernel`) behind the basis changes and
the convolution of distributions.  Every weighted norm is a sup over a
:class:`WeightTable`, in ints over the table's denominator, taking v_p(den)
of numerators over ``den`` once: :func:`weighted_sup_num` reads a sparse
family's numerators, and :func:`ordered_sup_num` a distribution's dense list
in ascending weight; each skips a weight that cannot beat the running sup,
which starts at an optional floor.  A table entry is a sum of per-coordinate
terms, as v_p(alpha!) is the sum of the v_p(alpha_i!).  A module cache here
is unbounded, and kept only where a run reads an entry twice.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, total_ordering
from itertools import product, repeat
from operator import eq, itemgetter, mul
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

Rational = Union[int, Fraction]
MultiIndex = Tuple[int, ...]
#: (index, int weight) pairs of one basis row, first coordinate varying fastest.
Row = Tuple[Tuple[MultiIndex, int], ...]

#: Valuation of zero.
INFINITY = math.inf


def int_valuation(n: int, p: int) -> int:
    """v_p of a nonzero int, without :func:`valuation`'s type dispatch."""
    if n == 0:
        raise ValueError("zero has no finite valuation")
    if n % p:
        return 0
    n //= p  # exact, so a negative n needs no abs
    v = 1
    while n % p == 0:
        n //= p
        v += 1
    return v


def valuation(x: Rational, p: int):
    """p-adic valuation of an exact rational: an int, or +inf for zero."""
    if type(x) is int:
        return int_valuation(x, p) if x else INFINITY
    if type(x) is not Fraction:
        x = Fraction(x)
    if not x.numerator:
        return INFINITY
    return int_valuation(x.numerator, p) - int_valuation(x.denominator, p)


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


class _TriangleRows:
    """n -> row n of the triangle with row 0 [1] and row b step(b, row b - 1), read only.  Only the last row built
    is kept, and a later one continues from it: ascending rows cost one pass, and a deep row holds no triangle."""

    def __init__(self, step: Callable[[int, List[int]], List[int]]):
        self.step, self.n, self.row = step, 0, [1]

    def __call__(self, n: int) -> List[int]:
        if n < self.n:
            self.n, self.row = 0, [1]
        while self.n < n:
            self.n += 1
            self.row = self.step(self.n, self.row)
        return self.row


#: s(b, a) for 0 <= a <= b: s(b, a) = a*s(b-1, a) + s(b-1, a-1).
_stirling_row = _TriangleRows(lambda b, row: [0, *[a * row[a] + row[a - 1] for a in range(1, b)], 1])
#: The coefficients of x_falling^a in ascending degree: x_falling^a = x_falling^(a-1) * (x - (a-1)).
_falling_row = _TriangleRows(lambda a, row: [0, *[row[b - 1] - (a - 1) * row[b] for b in range(1, a)], 1])


def stirling_second(beta: int, alpha: int) -> int:
    """Stirling number of the second kind: x^beta = sum_a s(beta,a) x_falling^a.

    Indices outside 0 <= alpha <= beta are rejected.
    """
    if not 0 <= alpha <= beta:
        raise ValueError(f"stirling_second out of range: ({beta}, {alpha})")
    return _stirling_row(beta)[alpha]


def falling_coeff(alpha: int, beta: int) -> int:
    """Coefficient of x^beta in x(x-1)...(x-alpha+1); leading one is 1.

    Indices outside 0 <= beta <= alpha are rejected.
    """
    if not 0 <= beta <= alpha:
        raise ValueError(f"falling_coeff out of range: ({alpha}, {beta})")
    return _falling_row(alpha)[beta]


@lru_cache(maxsize=None)
def indices_up_to(d: int, cap: int) -> Tuple[MultiIndex, ...]:
    """All multi-indices of dimension d with total degree <= cap, grlex order."""

    def gen(rest: int, budget: int):
        if rest == 0:
            yield ()
            return
        for k in range(budget + 1):
            for tail in gen(rest - 1, budget - k):
                yield (k,) + tail

    return tuple(sorted(gen(d, cap), key=grlex_key))


#: Terms per parenthesized group in a kernel's sums: one flat chain of a few
#: thousand additions exceeds the compiler's recursion limit.
_SUM_CHUNK = 256


def _sum_text(terms: Sequence[str]) -> str:
    while len(terms) > _SUM_CHUNK:
        terms = [f"({' + '.join(terms[i : i + _SUM_CHUNK])})" for i in range(0, len(terms), _SUM_CHUNK)]
    return " + ".join(terms) or "0"


def _tuple_text(items: Sequence[str]) -> str:
    return f"({', '.join(items)}{',' if items else ''})"


def _unpack_text(name: str, size: int) -> List[str]:
    """The line that unpacks the sequence ``name`` into name0, name1, ...; none if it is empty."""
    return [f"{', '.join(f'{name}{k}' for k in range(size))}, = {name}"] if size else []


def _scaled_text(c: Rational, factor: str, consts: Dict[str, object]) -> str:
    """c * factor as source, c an int literal of at most 64 bits or else (a Fraction too) bound in ``consts``
    as k0, k1, ..."""
    if type(c) is not int or c.bit_length() > 64:
        name = f"k{len(consts)}"
        consts[name], c = c, name
    return factor if c == 1 else f"-{factor}" if c == -1 else f"{c}*{factor}"


def write_kernel(args: str, body: Sequence[str], namespace: Dict[str, object], label: str) -> Callable[..., tuple]:
    """``def kernel(args)`` over the body lines, compiled in ``namespace`` (which binds every name the body
    reads that is not generated) and kept as ``kernel.source``: the one writer of the package's kernels."""
    source = "\n".join([f"def kernel({args}):", *(f"    {line}" for line in body)]) + "\n"
    exec(compile(source, f"<compiled {label}>", "exec"), namespace)
    kernel = namespace["kernel"]
    kernel.source = source
    return kernel


@lru_cache(maxsize=None)
def tensor_kernel(d: int, cap: int) -> Callable[..., tuple]:
    """One straight-line function of d tables t_0, ..., t_{d-1} of length cap + 1 each.

    It returns t_0[beta_0] * ... * t_{d-1}[beta_{d-1}] for every beta in
    :func:`indices_up_to` order.
    """
    names = [[f"t{i}_{k}" for k in range(cap + 1)] for i in range(d)]
    exprs = ["*".join(names[i][b] for i, b in enumerate(beta)) for beta in indices_up_to(d, cap)]
    body = [f"{', '.join(row)}, = t{i}" for i, row in enumerate(names)] + [f"return {_tuple_text(exprs)}"]
    return write_kernel(", ".join(f"t{i}" for i in range(d)), body, {}, "tensor")


def linear_kernel(rows: Sequence[Sequence[Tuple[int, int]]], size: int) -> Callable[[Sequence[int]], tuple]:
    """One straight-line function of a sequence x of ``size`` ints: out_r = sum of w * x[k] over (k, w) in rows[r]."""
    consts: Dict[str, object] = {}
    exprs = [_sum_text([_scaled_text(w, f"x{k}", consts) for k, w in row]) for row in rows]
    return write_kernel("x", [*_unpack_text("x", size), f"return {_tuple_text(exprs)}"], consts, "linear form")


def bilinear_kernel(rows: Sequence[Iterable[Tuple[int, Sequence[Tuple[int, int]]]]], sizes: Tuple[int, int]):
    """One straight-line function of sequences x and y of ``sizes`` ints:
    out_r = sum over (i, pairs) in rows[r] of x[i] * (sum of c * y[j] over (j, c) in pairs)."""
    consts: Dict[str, object] = {}
    exprs = []
    for row in rows:
        terms = []
        for i, pairs in row:
            inner = [_scaled_text(c, f"y{j}", consts) for j, c in pairs]
            terms.append(f"x{i}*{inner[0]}" if len(inner) == 1 else f"x{i}*({_sum_text(inner)})")
        exprs.append(_sum_text(terms))
    body = [*_unpack_text("x", sizes[0]), *_unpack_text("y", sizes[1]), f"return {_tuple_text(exprs)}"]
    return write_kernel("x, y", body, consts, "bilinear form")


def _product(factors) -> Row:
    """The nonzero entries of a product of one-variable rows [(k, weight), ...]."""
    out = []
    for combo in product(*reversed(factors)):
        weight = math.prod(w for _, w in combo)
        if weight:
            out.append((tuple(k for k, _ in reversed(combo)), weight))
    return tuple(out)


def mahler_row(beta: MultiIndex) -> Row:
    """(alpha, prod_i s(beta_i, alpha_i) * alpha_i!) for alpha <= beta: Z^beta in the binomial basis.

    Z^beta = sum_alpha w_alpha binom(Z, alpha); read the other way, w_alpha is
    the moment at Z^beta of the basis monomial dual to binom(Z, alpha).
    """
    return _product([[(a, s * math.factorial(a)) for a, s in enumerate(_stirling_row(b))] for b in beta])


def taylor_row(alpha: MultiIndex) -> Row:
    """(beta, prod_i a(alpha_i, beta_i)) for beta <= alpha: alpha! binom(Z, alpha) in monomials."""
    return _product([list(enumerate(_falling_row(a))) for a in alpha])


@lru_cache(maxsize=None)  # one function per (row, cap), so the tables built on it are shared
def cap_scaled_row(row, cap: int):
    """alpha -> row(alpha) with each weight times cap!/alpha!, an int since alpha! divides |alpha|! and so cap!."""
    fact = math.factorial(cap)

    def scaled(alpha):
        scale = fact // multi_factorial(alpha)
        return tuple((beta, w * scale) for beta, w in row(alpha))

    return scaled


def row_kernel(row, d: int, cap: int) -> Callable[[Sequence[int]], tuple]:
    """out_i = sum over (k, w) in row(i) of w * nums[k] at every index i of :func:`indices_up_to` (d, cap),
    as one :func:`linear_kernel`.

    The kernel reads the numerators at those indices by position; a basis
    row of an index lies among them.
    """
    indices = indices_up_to(d, cap)
    position = {k: n for n, k in enumerate(indices)}
    return linear_kernel([[(position[k], w) for k, w in row(i)] for i in indices], len(indices))


class ScatterTable(dict):
    """k -> ((position of i, w) for (i, w) in row(k)): a row table over dense output positions.

    A position is handed to each output index when a row first reaches it (``indices`` lists
    them by position), and a row is filled on first use, so a table costs only what its scatters touch.
    """

    def __init__(self, row):
        super().__init__()
        self.row = row
        self.position: Dict[MultiIndex, int] = {}
        self.indices: List[MultiIndex] = []

    def __missing__(self, k: MultiIndex) -> Tuple[Tuple[int, int], ...]:
        position, indices, entries = self.position, self.indices, []
        for i, w in self.row(k):
            if i not in position:
                position[i] = len(indices)
                indices.append(i)
            entries.append((position[i], w))
        self[k] = entries = tuple(entries)
        return entries

    def dense(self, pairs: Iterable[Tuple[MultiIndex, int]]) -> List[int]:
        """out[n] = sum of w * c over (k, c) in pairs and (n, w) in self[k]: a list over every position, zeros kept."""
        rows = [(self[k], c) for k, c in pairs]  # first, as a new row may add output positions
        out = [0] * len(self.indices)
        for entries, c in rows:
            for n, w in entries:
                out[n] += w * c
        return out


@lru_cache(maxsize=None)
def scatter_table(row, dim: int, cap: int) -> ScatterTable:
    """The one table of ``row`` for families of dimension ``dim`` and cap ``cap``, which keeps its output list short."""
    return ScatterTable(row)


def numerators(values: Mapping[MultiIndex, Rational]) -> Tuple[Dict[MultiIndex, int], int]:
    """The values as int numerators over their least common denominator, and that denominator."""
    den = math.lcm(*(v.denominator for v in values.values()))
    return {k: v.numerator * (den // v.denominator) for k, v in values.items()}, den


def same_ratios(a: Mapping[MultiIndex, int], da: int, b: Mapping[MultiIndex, int], db: int) -> bool:
    """Whether a[k] / da == b[k] / db for every k, the keys being the same; no fraction need be reduced."""
    return a.keys() == b.keys() and all(n * db == b[k] * da for k, n in a.items())


def same_dense_ratios(a: Sequence[int], da: int, b: Sequence[int], db: int) -> bool:
    """Whether two lists have one length and a[n] / da == b[n] / db at every position, zeros included."""
    return len(a) == len(b) and all(map(eq, map(mul, a, repeat(db)), map(mul, b, repeat(da))))


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
        if exponent is None or type(exponent) is Fraction:
            self.exponent = exponent
        else:
            self.exponent = Fraction(exponent)

    @classmethod
    def bottom(cls) -> "LogMag":
        return cls(None)

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


def p_power_at_most(g: int, D: int, factor: int, p: int) -> bool:
    """Decide p^(g/D) <= factor exactly, for ints g and D > 0 and a positive integer factor."""
    if g <= 0:
        return True
    k = math.gcd(g, D)
    return p ** (g // k) <= factor ** (D // k)


class _FactorialColumn(dict):
    """k -> den * v_p(k!) as an int, filled on first use; a non-integral v_p(k!) raises."""

    def __init__(self, den: int, p: int):
        self.den, self.p = den, p

    def __missing__(self, k: int) -> int:
        self[k] = value = self.den * parse_int(multi_factorial_valuation((k,), self.p))
        return value


class WeightTable(dict):
    """alpha -> den * ([v_p(alpha!)] + sum_i w_i alpha_i) as an int, filled on first use.

    ``den`` is the common denominator of the weights w; the factorial term
    v_p(alpha!) is added only when ``p`` is given.  It is the sum of the
    v_p(alpha_i!), so an entry is a sum of per-coordinate terms read from
    one column k -> den * v_p(k!), each v_p(k!) read once as an int (a
    non-integral value raises, so every entry stays an int).
    """

    def __init__(self, weights: Tuple[Rational, ...], p: Optional[int]):
        super().__init__()
        self.weights = tuple(map(Fraction, weights))
        self.p = p
        self.den = den = math.lcm(*(w.denominator for w in self.weights))
        self.nums = tuple(w.numerator * (den // w.denominator) for w in self.weights)
        self.factorials = None if p is None else _FactorialColumn(den, p)
        self.orders: Dict[int, Tuple[Tuple[int, int], ...]] = {}

    def __missing__(self, alpha: MultiIndex) -> int:
        value = sum(map(mul, self.nums, alpha))
        if self.factorials is not None:
            value += sum(map(self.factorials.__getitem__, alpha))
        self[alpha] = value
        return value

    def weight(self, alpha: MultiIndex) -> Fraction:
        """The unscaled weight at alpha."""
        return Fraction(self[alpha], self.den)

    def order(self, cap: int) -> Tuple[Tuple[int, int], ...]:
        """(position, -entry) over :func:`indices_up_to` (d, cap), in ascending entry, ties by position: the
        visit of :func:`ordered_sup_num`, sorted once per cap."""
        order = self.orders.get(cap)
        if order is None:
            negated = enumerate(-self[alpha] for alpha in indices_up_to(len(self.nums), cap))
            self.orders[cap] = order = tuple(sorted(negated, key=itemgetter(1), reverse=True))
        return order


@lru_cache(maxsize=None)
def weight_table(weights: Tuple[Rational, ...], p: Optional[int]) -> WeightTable:
    """The weights of one norm at one radius vector; ``p`` adds v_p(alpha!).

    The one cache of weight tables, for the series, Mahler and distribution
    norms alike.  The weights are read as Fractions once, when the table is
    built; equal radius vectors share one table whether given as ints or Fractions.
    """
    return WeightTable(weights, p)


def weighted_sup_num(
    nums: Mapping[MultiIndex, int], p: int, table: WeightTable, den: int = 1, floor=-INFINITY
) -> Optional[int]:
    """table.den * sup over alpha of -v_p(nums[alpha] / den) + table.weight(alpha) for a sparse family's nonzero
    numerators over the positive ``den``, or None: :func:`ordered_sup_num`'s contract, in the family's own order,
    so a weight that cannot exceed the running sup (at first ``floor``) reads no valuation."""
    scale = table.den
    shift = int_valuation(den, p) * scale
    start = top = floor - shift
    for a, n in nums.items():
        term = table[a]
        if term > top:
            term -= int_valuation(n, p) * scale
            if term > top:
                top = term
    return top + shift if top > start else None


def ordered_sup_num(
    nums: Sequence[int], den: int, p: int, order: Sequence[Tuple[int, int]], scale: int, floor=-INFINITY
) -> Optional[int]:
    """scale * sup over the positions n of -v_p(nums[n] / den) + bound(n), read in ``order``, or None.

    ``order`` lists (position, bound) over every position in descending
    bound, as :meth:`WeightTable.order` gives it for a dense family, the
    bound being minus the weight times ``scale``.  A term is its bound less
    v_p(nums[n]) * scale, and v_p(n) >= 0 for an int n, so the visit stops
    once a bound is at most the running sup: a Dirac whose weights are >= 0
    reads one valuation.  None when no term exceeds ``floor`` (bottom, with
    no floor); a value returned is the exact sup.
    """
    shift = int_valuation(den, p) * scale
    start = top = floor - shift
    for n, bound in order:
        if bound <= top:
            break
        c = nums[n]
        if c:
            term = bound - int_valuation(c, p) * scale
            if term > top:
                top = term
    return top + shift if top > start else None


def weighted_sup(nums: Mapping[MultiIndex, int], p: int, table: WeightTable, den: int = 1) -> LogMag:
    """:func:`weighted_sup_num` as a magnitude: one Fraction is built at the end, bottom when there are no terms."""
    best = weighted_sup_num(nums, p, table, den)
    return LogMag(None if best is None else Fraction(best, table.den))


def format_fraction(x) -> str:
    """Rational (or +inf) as a "num/den" report string."""
    if type(x) is not Fraction and type(x) is not int:  # both carry numerator and denominator
        if x == INFINITY:
            return "inf"
        x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_fraction(x) -> Fraction:
    """A rational read exactly from an input value; a boolean raises (Fraction(True) would read 1)."""
    if isinstance(x, bool):
        raise TypeError(f"expected a number, got the boolean {x}")
    return Fraction(x)


def parse_int(x) -> int:
    """An int read exactly from an input value; a non-integral one raises (int() would truncate it)."""
    if type(x) is int:
        return x
    q = parse_fraction(x)
    if q.denominator != 1:
        raise ValueError(f"expected an integer, got {q}")
    return q.numerator

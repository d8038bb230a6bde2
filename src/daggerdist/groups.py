"""Saturated p-valued groups given by polynomial group-law data.

A group is the chart Z_p^d with multiplication x * y = F(x, y) and inversion
I(x), where F and I are exact polynomials with p-integral coefficients.  The
built-ins (abelian Z_p^d and a Heisenberg group) also carry an independent
coordinate model used to cross-check the polynomial law.

All checkers return :class:`~daggerdist.report.CheckRecord` lists; every
inequality is decided by exact rational-exponent comparison.
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from .padic import INFINITY, LogMag, Rational, format_fraction, is_prime, parse_int, valuation
from .report import FAIL, INCONCLUSIVE, PASS, CheckRecord, record, settled
from .series import TruncatedSeries, series_from_records, series_to_records

# Coordinates are p-adic integers: ints, or Fractions whose denominator is prime to p.
Point = Tuple[Rational, ...]


class GroupConfigError(ValueError):
    """Raised when group data violates an invariant; lists every violation."""

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("invalid group data: " + "; ".join(self.violations))


class CoordinateModel:
    """External multiplication oracle on model coordinates."""

    def psi(self, x: Point) -> Point:
        raise NotImplementedError

    def multiply(self, a: Point, b: Point) -> Point:
        raise NotImplementedError

    def invert(self, a: Point) -> Point:
        raise NotImplementedError


class AbelianModel(CoordinateModel):
    """Z_p^d written additively; psi is the identity chart."""

    def psi(self, x: Point) -> Point:
        return tuple(x)

    def multiply(self, a: Point, b: Point) -> Point:
        return tuple(u + v for u, v in zip(a, b))

    def invert(self, a: Point) -> Point:
        return tuple(-u for u in a)


class HeisenbergModel(CoordinateModel):
    """Unitriangular 3x3 matrices (a, b, c) in (pZ_p)^3.

    (a, b, c)(a', b', c') = (a + a', b + b', c + c' + a b'), inverses are
    (-a, -b, -c + a b).  The chart basis is (p,0,0), (0,p,0), (0,0,p), so
    psi(x, y, z) = (p x, p y, p (z + p x y)).
    """

    def __init__(self, p: int):
        self.p = p

    def psi(self, x: Point) -> Point:
        p = self.p
        return (p * x[0], p * x[1], p * (x[2] + p * x[0] * x[1]))

    def multiply(self, a: Point, b: Point) -> Point:
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[0] * b[1])

    def invert(self, a: Point) -> Point:
        return (-a[0], -a[1], -a[2] + a[0] * a[1])


@dataclass(frozen=True)
class NeighborhoodParams:
    """Radii of the N-th strict neighborhood polydisc."""

    N: int
    tau: Tuple[Fraction, ...]  # per chart coordinate
    rho: Tuple[Fraction, ...]  # duplicated across the two variable blocks of F

    @property
    def dim(self) -> int:
        return len(self.tau)


class PValuedGroup:
    """Prime p, rank d, omega values, group law F, inversion I, optional model."""

    def __init__(
        self,
        name: str,
        p: int,
        d: int,
        omega: Sequence[Fraction],
        F: Sequence[TruncatedSeries],
        I: Sequence[TruncatedSeries],
        model: Optional[CoordinateModel] = None,
    ):
        self.name = name
        self.p = p
        self.d = d
        self.omega = tuple(Fraction(w) for w in omega)
        self.F = tuple(F)
        self.I = tuple(I)
        self.model = model
        self._fi_powers: Dict[Tuple[int, int], TruncatedSeries] = {}
        self._f_monomials: Dict[Tuple[int, ...], TruncatedSeries] = {}
        self._plans: Dict[Hashable, object] = {}
        violations = self.validate()
        if violations:
            raise GroupConfigError(violations)

    # -- invariants --------------------------------------------------------

    def validate(self) -> List[str]:
        v: List[str] = []
        p, d = self.p, self.d
        if not is_prime(p):
            return [f"p={p} must be a prime"]
        if d < 1:
            return [f"d={d} must be positive"]
        eps = Fraction(1, p - 1)
        if len(self.omega) != d:
            v.append(f"expected {d} omega values, got {len(self.omega)}")
            return v
        for i, w in enumerate(self.omega):
            if not w > eps:
                v.append(f"omega[{i}]={w} must exceed 1/(p-1)={eps}")
            if w - eps > 1:
                v.append(f"omega[{i}]={w} violates saturation: omega - 1/(p-1) <= 1")
        if len(self.F) != d or len(self.I) != d:
            v.append(f"expected {d} group-law and {d} inversion polynomials")
            return v
        for i, f in enumerate(self.F):
            if f.dim != 2 * d:
                v.append(f"F[{i}] must live in 2d={2 * d} variables")
                continue
            if not f.exact:
                v.append(f"F[{i}] must be an exact polynomial")
            for idx, c in f.terms.items():
                if valuation(c, p) < 0:
                    v.append(f"F[{i}] coefficient {c} at {idx} not in Z_p")
            # unit axioms: F(X, 0) = X_i and F(0, Y) = Y_i
            x_part = {idx[:d]: c for idx, c in f.terms.items() if sum(idx[d:]) == 0}
            y_part = {idx[d:]: c for idx, c in f.terms.items() if sum(idx[:d]) == 0}
            unit_x = {tuple(1 if j == i else 0 for j in range(d)): Fraction(1)}
            if x_part != unit_x:
                v.append(f"F[{i}](X, 0) != X_{i + 1} (unit axiom)")
            if y_part != unit_x:
                v.append(f"F[{i}](0, Y) != Y_{i + 1} (unit axiom)")
        for i, g in enumerate(self.I):
            if g.dim != d:
                v.append(f"I[{i}] must live in d={d} variables")
                continue
            if not g.exact:
                v.append(f"I[{i}] must be an exact polynomial")
            if g.constant_term() != 0:
                v.append(f"I[{i}] must vanish at the origin")
            for idx, c in g.terms.items():
                if valuation(c, p) < 0:
                    v.append(f"I[{i}] coefficient {c} at {idx} not in Z_p")
        return v

    # -- group operations --------------------------------------------------

    @property
    def identity(self) -> Point:
        return (0,) * self.d

    def check_point(self, x: Sequence) -> Point:
        """x as a tuple of ints and, where a coordinate is a real fraction, Fractions."""
        x = tuple(x)
        if len(x) != self.d:
            raise ValueError(f"point has {len(x)} coordinates, expected {self.d}")
        for c in x:
            if type(c) is not int:
                break
        else:
            return x
        out = []
        for c in x:
            if type(c) is not int:
                c = Fraction(c)
                if c.denominator == 1:
                    c = c.numerator
                elif valuation(c, self.p) < 0:
                    raise ValueError(f"coordinate {c} is not a p-adic integer")
            out.append(c)
        return tuple(out)

    def multiply(self, x: Sequence, y: Sequence) -> Point:
        x, y = self.check_point(x), self.check_point(y)
        args = x + y
        return tuple(f.evaluate(args) for f in self.F)

    def invert(self, x: Sequence) -> Point:
        x = self.check_point(x)
        return tuple(g.evaluate(x) for g in self.I)

    def power(self, x: Sequence, n: int) -> Point:
        if n < 0:
            return self.power(self.invert(x), -n)
        out = self.identity
        for _ in range(n):
            out = self.multiply(out, x)
        return out

    def commutator(self, x: Sequence, y: Sequence) -> Point:
        # x^-1 y^-1 x y
        xi, yi = self.invert(x), self.invert(y)
        return self.multiply(self.multiply(self.multiply(xi, yi), x), y)

    def omega_of(self, x: Sequence):
        """min_i omega_i + v(x_i); +inf exactly at the identity."""
        x = self.check_point(x)
        best = INFINITY
        for w, c in zip(self.omega, x):
            val = valuation(c, self.p)
            if val is INFINITY:
                continue
            cand = w + val
            if best is INFINITY or cand < best:
                best = cand
        return best

    def degmax(self) -> int:
        return max(f.degree() for f in self.F)

    def neighborhood_params(self, N: int) -> NeighborhoodParams:
        if N < 1:
            raise ValueError("N must be >= 1")
        eps = Fraction(1, self.p - 1)
        tau = tuple((w - eps) / (N + 1) for w in self.omega)
        return NeighborhoodParams(N=N, tau=tau, rho=tau + tau)

    # -- cached group-law expansions --------------------------------------

    def f_monomial(self, gamma: Sequence[int], cap: int) -> TruncatedSeries:
        """Exact expansion of prod_i F_i^gamma_i in the 2d variables."""
        gamma = tuple(int(g) for g in gamma)
        key = gamma + (cap,)
        if key in self._f_monomials:
            return self._f_monomials[key]
        out = TruncatedSeries.constant(1, 2 * self.d, cap)
        for i, k in enumerate(gamma):
            if k:
                out = out * self._fi_power(i, k, cap)
        self._f_monomials[key] = out
        return out

    def plan(self, key: Hashable, build: Callable[["PValuedGroup"], object]) -> object:
        """build(self), computed once per key: tables compiled from the law, such as a convolution plan."""
        if key not in self._plans:
            self._plans[key] = build(self)
        return self._plans[key]

    def _fi_power(self, i: int, k: int, cap: int) -> TruncatedSeries:
        key = (i, k, cap)
        if key in self._fi_powers:
            return self._fi_powers[key]
        if k == 1:
            out = self.F[i].with_cap(cap)
        else:
            out = self._fi_power(i, k - 1, cap) * self.F[i].with_cap(cap)
        self._fi_powers[key] = out
        return out

    def __repr__(self):
        return f"PValuedGroup({self.name}, p={self.p}, d={self.d})"


# -- built-ins -------------------------------------------------------------


def builtin_abelian(p: int, d: int) -> PValuedGroup:
    """Z_p^d with the additive law; omega = 1 for p > 2, omega = 2 for p = 2."""
    eps = 2 if p == 2 else 1
    cap = 1
    F = []
    for i in range(d):
        xi = TruncatedSeries.variable(i, 2 * d, cap)
        yi = TruncatedSeries.variable(d + i, 2 * d, cap)
        F.append(xi + yi)
    I = [TruncatedSeries.variable(i, d, cap).scale(-1) for i in range(d)]
    return PValuedGroup(
        name=f"abelian({p},{d})",
        p=p,
        d=d,
        omega=[Fraction(eps)] * d,
        F=F,
        I=I,
        model=AbelianModel(),
    )


def builtin_heisenberg(p: int) -> PValuedGroup:
    """Unitriangular 3x3 group over pZ_p with omega = (1, 1, 1); needs p >= 3."""
    if p < 3:
        raise GroupConfigError(["the Heisenberg built-in requires p >= 3 (omega = 1 fails at p = 2)"])
    d, cap = 3, 2
    X = [TruncatedSeries.variable(i, 2 * d, cap) for i in range(d)]
    Y = [TruncatedSeries.variable(d + i, 2 * d, cap) for i in range(d)]
    F = [X[0] + Y[0], X[1] + Y[1], X[2] + Y[2] - (Y[0] * X[1]).scale(p)]
    Z = [TruncatedSeries.variable(i, d, cap) for i in range(d)]
    I = [Z[0].scale(-1), Z[1].scale(-1), Z[2].scale(-1) - (Z[0] * Z[1]).scale(p)]
    return PValuedGroup(
        name=f"heisenberg({p})",
        p=p,
        d=3,
        omega=[Fraction(1)] * 3,
        F=F,
        I=I,
        model=HeisenbergModel(p),
    )


BUILTIN_TAGS = {
    "abelian": builtin_abelian,
    "heisenberg": builtin_heisenberg,
}


# -- config round-trip -----------------------------------------------------


def group_to_config(G: PValuedGroup) -> dict:
    cfg = {
        "name": G.name,
        "p": G.p,
        "d": G.d,
        "omega": [format_fraction(w) for w in G.omega],
        "F": [series_to_records(f) for f in G.F],
        "I": [series_to_records(g) for g in G.I],
    }
    if isinstance(G.model, AbelianModel):
        cfg["model"] = "abelian"
    elif isinstance(G.model, HeisenbergModel):
        cfg["model"] = "heisenberg"
    return cfg


def load_group(config) -> PValuedGroup:
    """Build and eagerly validate a group from a config mapping or JSON text."""
    if isinstance(config, (str, bytes)):
        try:
            config = json.loads(config, parse_float=Fraction)
        except json.JSONDecodeError as e:
            raise GroupConfigError([f"config is not valid JSON: {e}"]) from e
    if not isinstance(config, dict):
        raise GroupConfigError(["config must be a JSON object"])
    problems: List[str] = []
    for field in ("name", "p", "d", "omega", "F", "I"):
        if field not in config:
            problems.append(f"missing field {field!r}")
    if problems:
        raise GroupConfigError(problems)
    try:
        p, d = parse_int(config["p"]), parse_int(config["d"])
    except (ValueError, TypeError, ZeroDivisionError) as e:
        raise GroupConfigError([f"bad p or d: {e}"]) from e
    try:
        omega = [Fraction(w) for w in config["omega"]]
    except (ValueError, TypeError, ZeroDivisionError) as e:
        raise GroupConfigError([f"bad omega entry: {e}"]) from e
    try:
        cap = 0
        for poly in list(config["F"]) + list(config["I"]):
            for rec in poly:
                cap = max(cap, parse_int(sum(rec["index"])))
        F = [series_from_records(poly, 2 * d, cap) for poly in config["F"]]
        I = [series_from_records(poly, d, cap) for poly in config["I"]]
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as e:
        raise GroupConfigError([f"bad polynomial record: {e}"]) from e
    model: Optional[CoordinateModel] = None
    tag = config.get("model")
    if tag == "abelian":
        model = AbelianModel()
    elif tag == "heisenberg":
        model = HeisenbergModel(p)
    elif tag is not None:
        raise GroupConfigError([f"unknown model tag {tag!r}"])
    return PValuedGroup(str(config["name"]), p, d, omega, F, I, model)


# -- checkers --------------------------------------------------------------


def _witness_monomial(diff: TruncatedSeries) -> Optional[dict]:
    for idx, c in diff.sorted_terms():
        return {"index": list(idx), "coeff": format_fraction(c)}
    return None


def check_formal_group_axioms(G: PValuedGroup, cap: Optional[int] = None) -> List[CheckRecord]:
    """Associativity, unit, and inverse identities as exact polynomial identities."""
    d = G.d
    if cap is None:
        cap = max(2, G.degmax() ** 2)
    records: List[CheckRecord] = []

    def add(name: str, anchor: str, diff: TruncatedSeries, i: int):
        witness = _witness_monomial(diff)
        records.append(
            CheckRecord(
                check_id=f"group-axioms/{name}",
                anchor=anchor,
                verdict=PASS if witness is None else FAIL,
                params={"group": G.name, "i": i + 1, "cap": cap},
                witness=witness,
            )
        )

    # embeddings of the chart variables into a 3d-variable ring
    xs3 = [TruncatedSeries.variable(i, 3 * d, cap) for i in range(3 * d)]
    f_xy = [f.embed(3 * d, list(range(2 * d))).with_cap(cap) for f in G.F]
    f_yz = [f.embed(3 * d, list(range(d, 3 * d))).with_cap(cap) for f in G.F]
    for i in range(d):
        lhs = G.F[i].substitute(f_xy + xs3[2 * d :], cap=cap)
        rhs = G.F[i].substitute(xs3[:d] + f_yz, cap=cap)
        add("associativity", "F(F(X,Y),Z) = F(X,F(Y,Z)) coefficientwise", lhs - rhs, i)

    zero_d = [TruncatedSeries.zero(d, cap) for _ in range(d)]
    xs = [TruncatedSeries.variable(i, d, cap) for i in range(d)]
    for i in range(d):
        left_unit = G.F[i].substitute(xs + zero_d, cap=cap) - xs[i]
        add("unit-left", "F(X, 0) = X coefficientwise", left_unit, i)
        right_unit = G.F[i].substitute(zero_d + xs, cap=cap) - xs[i]
        add("unit-right", "F(0, Y) = Y coefficientwise", right_unit, i)

    inv = [g.with_cap(cap) for g in G.I]
    for i in range(d):
        right_inv = G.F[i].substitute(xs + inv, cap=cap)
        add("inverse-right", "F(X, I(X)) = 0 coefficientwise", right_inv, i)
        left_inv = G.F[i].substitute(inv + xs, cap=cap)
        add("inverse-left", "F(I(X), X) = 0 coefficientwise", left_inv, i)
    return records


def sample_points(G: PValuedGroup, rng: random.Random, count: int, precision: int) -> List[Point]:
    """Seeded pseudorandom points with integer coordinates mod p^precision."""
    bound = G.p**precision
    return [tuple(rng.randrange(bound) for _ in range(G.d)) for _ in range(count)]


def check_model_consistency(
    G: PValuedGroup, samples: int = 100, seed: int = 0, precision: int = 12
) -> List[CheckRecord]:
    """Chart-level multiply/invert must agree exactly with the coordinate model."""
    if G.model is None:
        return [
            CheckRecord(
                check_id="model/available",
                anchor="coordinate model present for cross-checks",
                verdict=PASS,
                params={"group": G.name, "note": "no model configured; nothing to check"},
            )
        ]
    rng = random.Random(f"{seed}:model:{G.name}")
    pts = sample_points(G, rng, 2 * samples, precision)
    bad = []
    for k in range(samples):
        x, y = pts[2 * k], pts[2 * k + 1]
        via_chart = G.model.psi(G.multiply(x, y))
        via_model = G.model.multiply(G.model.psi(x), G.model.psi(y))
        if via_chart != via_model:
            bad.append({"x": [format_fraction(c) for c in x], "y": [format_fraction(c) for c in y]})
        inv_chart = G.model.psi(G.invert(x))
        inv_model = G.model.invert(G.model.psi(x))
        if inv_chart != inv_model:
            bad.append({"x": [format_fraction(c) for c in x], "op": "invert"})
    return [
        record(
            "model/consistency",
            "chart multiply/invert agree exactly with the matrix model",
            {"group": G.name, "samples": samples, "seed": seed, "precision": precision},
            bad,
        )
    ]


def check_pvaluation(
    G: PValuedGroup, samples: int = 100, seed: int = 0, precision: int = 12
) -> List[CheckRecord]:
    """Sample-level filtration axioms for omega."""
    rng = random.Random(f"{seed}:pval:{G.name}")
    pts = sample_points(G, rng, 2 * samples, precision)
    bad: Dict[str, list] = {"quotient": [], "commutator": [], "power": []}
    for k in range(samples):
        x, y = pts[2 * k], pts[2 * k + 1]
        wx, wy = G.omega_of(x), G.omega_of(y)
        q = G.multiply(x, G.invert(y))
        if G.omega_of(q) < min(wx, wy):
            bad["quotient"].append([format_fraction(c) for c in x + y])
        if wx is not INFINITY and wy is not INFINITY:
            c = G.commutator(x, y)
            if G.omega_of(c) < wx + wy:
                bad["commutator"].append([format_fraction(v) for v in x + y])
        if wx is not INFINITY:
            xp = G.power(x, G.p)
            if G.omega_of(xp) != wx + 1:
                bad["power"].append([format_fraction(v) for v in x])
    anchors = {
        "quotient": "omega(x y^-1) >= min(omega(x), omega(y)) on samples",
        "commutator": "omega([x, y]) >= omega(x) + omega(y) on samples",
        "power": "omega(x^p) = omega(x) + 1 on samples",
    }
    params = {"group": G.name, "samples": samples, "seed": seed, "precision": precision}
    return [record(f"pvaluation/{name}", anchor, params, bad[name]) for name, anchor in anchors.items()]


def _congruent(x, y, p: int, k: int) -> bool:
    diff = x - y
    if type(diff) is int:
        return diff % p**k == 0
    return diff == 0 or valuation(diff, p) >= k


#: Candidates a p-th root search may try before it gives up.
ROOT_SEARCH_BUDGET = 20000


class RootSearchExhausted(Exception):
    """A p-th root search spent its budget before it found a root or ran out of digits."""


def _linear_digit(x: Point, yp: Point, p: int, j: int) -> Optional[Tuple[int, ...]]:
    """The digit e solving p^(j+1) e = x - y^p (mod p^(j+2)), or None if x - y^p is not 0 mod p^(j+1)."""
    scale = p ** (j + 1)
    digit = []
    for a, b in zip(x, yp):
        q = Fraction(a - b, scale)
        if q.denominator % p == 0:
            return None
        digit.append(q.numerator * pow(q.denominator, -1, p) % p)
    return tuple(digit)


def pth_root_mod(G: PValuedGroup, x: Point, precision: int) -> Optional[Point]:
    """Find y with y^p = x mod p^precision by digit-wise lifting through F.

    y is built one p-adic digit tuple e at a time, y -> y + p^j e, keeping
    y^p = x mod p^min(j+2, precision) at level j.

    * Linear step first.  Where the target is p^(j+2), the digit solving the
      linearized congruence P(y + p^j e) = P(y) + p^(j+1) e (mod p^(j+2)) of
      the p-power map P is read off x - P(y) and tried before any other.
      The congruence holds exactly on the abelian and Heisenberg laws, where
      the linear digit is then the only one that meets the target.
    * Then the search: the remaining p^d digit tuples, depth first, with
      backtracking.  Each candidate's p-th power is computed once, exactly
      through F, and reused by the next level's check, so a returned y is a
      certificate whichever way it was found.
    * The top digit is unconstrained: at target == precision, i.e. at the
      last level j = precision - 1, every digit meets p^(j+1), and the
      search keeps e = 0.

    When the linear digit is the only one meeting its target at every level,
    this returns the same root as the search alone.

    Returns None if every branch dead-ends, i.e. no digit tuple meets its
    target (a counterexample at this precision).  Raises
    :class:`RootSearchExhausted`, a distinct outcome, once
    ``ROOT_SEARCH_BUDGET`` candidates have been tried without either result.
    """
    p, d = G.p, G.d
    x = G.check_point(x)
    zero = (0,) * d
    budget = [ROOT_SEARCH_BUDGET]

    def candidates(guess: Optional[Tuple[int, ...]]):
        if guess is not None:
            yield guess
        for e in itertools.product(range(p), repeat=d):
            e = e[::-1]  # the search order lets the first coordinate vary fastest
            if e != guess:
                yield e

    def extend(y: Point, yp: Point, j: int) -> Optional[Point]:
        # yp = y^p, computed once per candidate and reused at the next level
        if j >= precision:
            return y if all(_congruent(a, b, p, precision) for a, b in zip(yp, x)) else None
        target = min(j + 2, precision)
        guess = _linear_digit(x, yp, p, j) if target == j + 2 else None
        scale = p**j
        for e in candidates(guess):
            budget[0] -= 1
            if budget[0] <= 0:
                raise RootSearchExhausted(f"no p-th root settled within {ROOT_SEARCH_BUDGET} candidates")
            if e == zero:
                cand, cand_p = y, yp
            else:
                cand = tuple(c + scale * ei for c, ei in zip(y, e))
                cand_p = G.power(cand, p)
            if all(_congruent(a, b, p, target) for a, b in zip(cand_p, x)):
                found = extend(cand, cand_p, j + 1)
                if found is not None:
                    return found
        return None

    # the unit axioms validated on F make the identity its own p-th power
    return extend(G.identity, G.identity, 0)


def check_saturation(
    G: PValuedGroup, samples: int = 10, seed: int = 0, precision: int = 12
) -> List[CheckRecord]:
    """Finite-precision p-th root lifting for sampled x with omega(x) > p/(p-1).

    This is a mod-p^precision certificate, never a proof over Z_p.  A sample
    on which no digit works makes the check ``fail``; a sample whose root
    search spent its budget makes it ``inconclusive``, never ``fail``.
    """
    rng = random.Random(f"{seed}:sat:{G.name}")
    threshold = Fraction(G.p, G.p - 1)
    stalls, spent = [], []
    found = 0
    skipped = 0
    attempts = 0
    while found + len(stalls) + len(spent) < samples and attempts < 20 * samples:
        attempts += 1
        # bias sampling into the deep filtration so the hypothesis holds
        x = tuple(G.p * rng.randrange(G.p ** (precision - 1)) for _ in range(G.d))
        if not G.omega_of(x) > threshold:
            skipped += 1
            continue
        try:
            y = pth_root_mod(G, x, precision)
        except RootSearchExhausted:
            spent.append([format_fraction(c) for c in x])
            continue
        if y is None:
            stalls.append([format_fraction(c) for c in x])
        else:
            found += 1
    witness: Dict[str, list] = {}
    if stalls:
        witness["stalled"] = stalls[:3]
    if spent:
        witness["budget_spent"] = spent[:3]
    details = {"roots_found": found, "skipped": skipped}
    if spent:
        details["budget_spent"] = len(spent)
    params = {"group": G.name, "samples": samples, "seed": seed, "precision": precision}
    return [
        CheckRecord(
            check_id="saturation/pth-roots",
            anchor="omega(x) > p/(p-1) admits a p-th root mod p^precision (finite-precision only)",
            verdict=FAIL if stalls else INCONCLUSIVE if spent else settled(params),
            params=params,
            witness=witness or None,
            details=details,
        )
    ]


def check_coefficient_bound(G: PValuedGroup) -> List[CheckRecord]:
    """Per-coefficient valuation bound for every stored term of F and I.

    v(coeff at alpha) >= -(omega_i - 1/(p-1)) + sum_j alpha_j (omega_j - 1/(p-1)),
    with the weight list duplicated across the two blocks for F.  omega is
    invariant under inversion, so the same weights apply to I.
    """
    eps = Fraction(1, G.p - 1)
    weights_F = [w - eps for w in G.omega] * 2
    weights_I = [w - eps for w in G.omega]
    bad = []
    for label, polys, weights in (("F", G.F, weights_F), ("I", G.I, weights_I)):
        for i, f in enumerate(polys):
            slack = G.omega[i] - eps
            for idx, c in f.sorted_terms():
                rhs = -slack + sum(w * a for w, a in zip(weights, idx))
                if valuation(c, G.p) < rhs:
                    bad.append(
                        {
                            "poly": f"{label}{i + 1}",
                            "index": list(idx),
                            "coeff": format_fraction(c),
                            "required": format_fraction(rhs),
                        }
                    )
    return [
        record(
            "coeff-bound/valuation",
            "every group-law coefficient meets the weighted valuation bound",
            {"group": G.name},
            bad,
            keep=5,
        )
    ]


def check_polydisc_bound(G: PValuedGroup, N: int) -> List[CheckRecord]:
    """Weighted Gauss-norm bound ||F_i|| <= p^tau_i and ||I_i|| <= p^tau_i on the N-th polydisc."""
    params = G.neighborhood_params(N)
    bad = []
    tau = params.tau
    for i, f in enumerate(G.F):
        norm = f.gauss_norm(params.rho, G.p)
        if not norm.mag <= LogMag(tau[i]):
            bad.append({"poly": f"F{i + 1}", "norm": norm.mag, "bound": LogMag(tau[i])})
    for i, g in enumerate(G.I):
        norm = g.gauss_norm(tau, G.p)
        if not norm.mag <= LogMag(tau[i]):
            bad.append({"poly": f"I{i + 1}", "norm": norm.mag, "bound": LogMag(tau[i])})
    return [
        record(
            "polydisc/gauss-bound",
            "group law maps the strict neighborhood polydisc into itself (norm bound)",
            {"group": G.name, "N": N, "tau": list(tau)},
            bad,
            keep=5,
        )
    ]

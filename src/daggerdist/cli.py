"""Command-line verification driver.

Single entry point with three subcommands:

* ``verify``         -- run named suites on a group and emit a report;
* ``describe-group`` -- print the resolved group data (law, weights, radii);
* ``convert``        -- polynomial <-> binomial-basis conversion on a JSON file.

Reports are byte-deterministic for a fixed (config, seed); the process exits
1 iff some check has verdict ``fail``, and 2 with a one-line error for a bad
group tag or config, a bad ``verify`` option or a repeated entry in one, a
``convert`` input that cannot be read or parsed, or an ``--out`` path that
cannot be written.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import List, Optional, Sequence

from . import distributions as dist
from .distributions import Distribution, convolve, random_dcoeff_distribution
from .groups import (
    BUILTIN_TAGS,
    GroupConfigError,
    PValuedGroup,
    check_coefficient_bound,
    check_formal_group_axioms,
    check_model_consistency,
    check_polydisc_bound,
    check_pvaluation,
    check_saturation,
    group_to_config,
    load_group,
    sample_points,
)
from .mahler import MahlerFamily, NormIdentity, basis_images, mahler_to_taylor, taylor_to_mahler
from .padic import format_fraction, parse_fraction, parse_int
from .report import FAIL, INCONCLUSIVE, PASS, CheckRecord, Report, emit_json, emit_text, record
from .series import TruncatedSeries, series_to_records, terms_from_records

DEFAULT_SIGMAS = "1/4,1/2,3/4,1"


def resolve_group(tag: str) -> PValuedGroup:
    """A builtin tag like heisenberg(3) / abelian(3,2), or a JSON config path.

    A malformed tag, an unreadable file or invalid group data raises
    :class:`GroupConfigError`.
    """
    tag = tag.strip()
    name, paren, rest = tag.partition("(")
    if paren and name in BUILTIN_TAGS:
        code = BUILTIN_TAGS[name].__code__
        params = code.co_varnames[: code.co_argcount]
        try:
            args = [int(a) for a in rest[:-1].split(",")] if rest.endswith(")") else []
        except ValueError:
            args = []
        if len(args) != len(params):
            raise GroupConfigError([f"malformed group tag {tag!r}, expected {name}({','.join(params)})"])
        return BUILTIN_TAGS[name](*args)
    try:
        with open(tag) as fh:
            text = fh.read()
    except OSError as e:
        raise GroupConfigError([f"cannot read group config {tag!r}: {e.strerror}"]) from e
    return load_group(text)


#: The mahler suite's grid: the (dim, cap) shapes whose basis monomials it decides, and the radii of each.
MAHLER_GRID = ((1, 12), (2, 6)), (Fraction(1, 4), Fraction(1, 2), Fraction(1))


def suite_mahler(G: PValuedGroup, trials: int, seed: int) -> List[CheckRecord]:
    """Gauss-vs-binomial norm identity and conversion round trips at G's prime for every exact polynomial of each
    shape, decided on the basis monomials e (:func:`basis_images`, :meth:`NormIdentity.violations`): nothing is drawn.

    A witness names its polynomial by shape and index: e, or T e / cap! on the ``backward`` side.  Where a shape does
    not round-trip, T / cap! is not M's inverse, so the norm identity is ``inconclusive`` unless a witness fails it.
    ``trials`` and ``seed`` only fill the params, as when the suite sampled; ``trials`` 0 is ``inconclusive``.
    """
    shapes, radii = MAHLER_GRID
    bad_norm, bad_round = [], []
    for dim, cap in shapes:
        images, broken = basis_images(dim, cap)
        bad_round += [{"dim": dim, "cap": cap, "index": e} for e in broken]
        for r in radii:
            check = NormIdentity((r,) * dim, G.p)
            bad_norm += [
                {"dim": dim, "cap": cap, "rho": check.rho, "index": e, "side": side, "gauss": gauss, "mahler": mahler}
                for e, side, gauss, mahler in check.violations(images, inverse=not broken)
            ]
    params = {"p": G.p, "trials": trials, "seed": seed}
    anchor = "the Gauss norm equals the binomial-basis norm with the factorial weight"
    return [
        record("mahler/norm-identity", anchor, params, bad_norm, ok=INCONCLUSIVE if bad_round else PASS),
        record("mahler/roundtrip", "binomial-basis conversion is invertible on exact polynomials", params, bad_round),
    ]


def suite_convolution(G: PValuedGroup, trials: int, seed: int, cap: int) -> List[CheckRecord]:
    """Dirac homomorphism, associativity, unit, and the opposite product."""
    rng = random.Random(f"{seed}:convolution:{G.name}")
    records = []

    def witness(t, **points):  # the coordinates as Fractions, which the report writes as "n/1"
        return {"trial": t, **{k: list(map(Fraction, v)) for k, v in points.items()}}

    def dirac_products(check_id, anchor, count, opposite):
        """delta_x * delta_y against the Dirac at xy, or at yx for the opposite product."""
        bad = []
        for t in range(count):
            x, y = sample_points(G, rng, 2, 6)
            dx, dy = Distribution.dirac(G, x, cap), Distribution.dirac(G, y, cap)
            conv = convolve(G, dx, dy, cap_out=cap, opposite=opposite)
            expect = Distribution.dirac(G, G.multiply(y, x) if opposite else G.multiply(x, y), cap)
            if conv != expect:
                bad.append(witness(t, x=x, y=y))
        records.append(record(check_id, anchor, {"group": G.name, "trials": count, "seed": seed, "cap": cap}, bad))

    anchor = "the convolution of point masses is the point mass of the product"
    dirac_products("convolution/dirac-homomorphism", anchor, trials, opposite=False)

    bad = []
    for t in range(max(trials // 2, 1)):
        x, y, z = sample_points(G, rng, 3, 6)
        dx, dy, dz = (Distribution.dirac(G, v, cap) for v in (x, y, z))
        left = convolve(G, convolve(G, dx, dy, cap_out=cap), dz, cap_out=cap)
        right = convolve(G, dx, convolve(G, dy, dz, cap_out=cap), cap_out=cap)
        if left != right:
            bad.append(witness(t, x=x, y=y, z=z))
    records.append(
        record(
            "convolution/associativity",
            "convolution is associative on sampled point masses",
            {"group": G.name, "trials": max(trials // 2, 1), "seed": seed, "cap": cap},
            bad,
        )
    )

    unit = Distribution.dirac(G, G.identity, cap)
    lam = random_dcoeff_distribution(G, rng, cap=G.degmax() * cap)
    # == reads the moments up to the smaller cap, cap, so lam's whole table is not derived
    left_ok = convolve(G, unit, lam, cap_out=cap) == lam
    right_ok = convolve(G, lam, unit, cap_out=cap) == lam
    records.append(
        CheckRecord(
            check_id="convolution/unit",
            anchor="the point mass at the identity is a two-sided unit",
            verdict=PASS if left_ok and right_ok else FAIL,
            params={"group": G.name, "seed": seed, "cap": cap},
            witness=None if left_ok and right_ok else {"left_ok": left_ok, "right_ok": right_ok},
        )
    )

    anchor = "the order-flagged product reverses the factors on point masses"
    dirac_products("convolution/opposite", anchor, max(trials // 4, 1), opposite=True)
    return records


def _sample_distributions(G: PValuedGroup, rng: random.Random, count: int, cap: int):
    out = []
    for k in range(count):
        if k % 3 == 0:
            out.append(Distribution.dirac(G, sample_points(G, rng, 1, 6)[0], cap))
        else:
            out.append(random_dcoeff_distribution(G, rng, cap=cap))
    return out


def suite_norms(
    G: PValuedGroup, sigmas: Sequence[Fraction], n_range: Sequence[int], trials: int, seed: int, cap: int
) -> List[CheckRecord]:
    records = []
    for sigma in sigmas:
        records.extend(dist.check_submultiplicative(G, sigma, trials=trials, seed=seed, cap=cap))
    banach_levels = sorted({n for n in (1, 2, 4, 8) if n_range[0] <= n <= n_range[-1]}) or [n_range[0]]
    for N in banach_levels:
        records.extend(dist.check_banach_submult_N(G, N, trials=trials, seed=seed, cap=cap))
    rng = random.Random(f"{seed}:norms:{G.name}")
    samples = _sample_distributions(G, rng, 10, cap=G.degmax() * cap)
    records.extend(dist.check_norm_tower(samples, max_N=max(n_range)))
    for sigma in sigmas:
        records.extend(dist.check_sandwich(samples[0], sigma))
    return records


def suite_embeddings(
    G: PValuedGroup, sigmas: Sequence[Fraction], n_range: Sequence[int], seed: int, cap: int
) -> List[CheckRecord]:
    rng = random.Random(f"{seed}:embeddings:{G.name}")
    samples = _sample_distributions(G, rng, 6, cap=G.degmax() * cap)
    records = []
    for sigma in sigmas:
        for lam in samples[:1]:
            records.extend(dist.check_contact_embedding(lam, sigma))
        for N in n_range:
            by_direction = {}
            for lam in samples:
                for rec in dist.check_comparison_maps(G, N, sigma, lam):
                    by_direction.setdefault(rec.check_id, []).append(rec)
            for recs in by_direction.values():
                if recs[0].verdict == "regime-unmet":
                    # the regime depends only on (N, sigma); one record suffices
                    records.append(recs[0])
                else:
                    records.extend(recs)
    return records


# Suite name -> runner(G, o), o holding run_suites' options; each runner applies
# its own clamps.  A runner looks its checker up by name in this module on every
# call, so rebinding that name (as a tracer does) takes effect.
SUITES = {
    "group-axioms": lambda G, o: check_formal_group_axioms(G)
    + check_model_consistency(G, samples=o.trials, seed=o.seed),
    "pvaluation": lambda G, o: check_pvaluation(G, samples=o.trials, seed=o.seed),
    "saturation": lambda G, o: check_saturation(G, samples=min(10, max(o.trials // 10, 3)), seed=o.seed),
    "coeff-bound": lambda G, o: check_coefficient_bound(G),
    "polydisc": lambda G, o: [r for N in o.n_range for r in check_polydisc_bound(G, N)],
    "mahler": lambda G, o: suite_mahler(G, trials=o.trials, seed=o.seed),
    "convolution": lambda G, o: suite_convolution(
        G, trials=min(o.trials, 50), seed=o.seed, cap=min(o.cap, 4)
    ),
    "norms": lambda G, o: suite_norms(
        G, o.sigmas, o.n_range, trials=min(o.trials, 100), seed=o.seed, cap=min(o.cap, 4)
    ),
    "embeddings": lambda G, o: suite_embeddings(G, o.sigmas, o.n_range, seed=o.seed, cap=min(o.cap, 4)),
}


class InputError(ValueError):
    """An option or input that cannot be read, parsed or is out of range, or an unwritable output."""


def run_suites(
    G: PValuedGroup,
    suites: Sequence[str],
    n_range: Sequence[int],
    sigmas: Sequence[Fraction],
    cap: int,
    trials: int,
    seed: int,
) -> Report:
    report = Report(group=G.name, seed=seed)
    options = SimpleNamespace(n_range=n_range, sigmas=sigmas, cap=cap, trials=trials, seed=seed)
    for suite in suites:
        report.extend(SUITES[suite](G, options))
    return report


def _parse_suites(text: str) -> List[str]:
    if text.strip() == "all":
        return list(SUITES)
    suites = [s.strip() for s in text.split(",") if s.strip()]
    for s in suites:
        if s not in SUITES:
            raise InputError(f"unknown suite: {s} (choose from {', '.join(SUITES)})")
    _reject_repeats("--suites", suites)
    return suites


def _reject_repeats(option: str, values: list):
    """An :class:`InputError` naming the first value that repeats (equal rationals count as one)."""
    for k, v in enumerate(values):
        if v in values[:k]:
            raise InputError(f"{option} lists {v} more than once")


def _parse_range(text: str) -> List[int]:
    lo, sep, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError:
        lo = hi = 0
    if lo < 1 or hi < lo:
        raise InputError(f"bad N range {text!r}, expected lo..hi with 1 <= lo <= hi")
    return list(range(lo, hi + 1))


def _parse_sigmas(text: str) -> List[Fraction]:
    try:
        sigmas = [parse_fraction(s) for s in text.split(",") if s.strip()]
    except (ValueError, ZeroDivisionError):
        sigmas = []
    if not sigmas:
        raise InputError(f"bad --sigma {text!r}, expected a comma list of rationals a/b")
    _reject_repeats("--sigma", sigmas)
    return sigmas


def _write_out(data: bytes, out: Optional[str]):
    if out in (None, "-"):
        sys.stdout.write(data.decode())
        return
    try:
        with open(out, "wb") as fh:
            fh.write(data)
    except OSError as e:
        raise InputError(f"cannot write {out!r}: {e.strerror}") from e


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="daggerdist", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    v = sub.add_parser("verify", help="run verification suites and emit a report")
    v.add_argument("--group", default="heisenberg(3)", help="builtin tag or JSON config path")
    v.add_argument("--suites", default="all", help=f"comma list from: {', '.join(SUITES)}")
    v.add_argument("--N", dest="n_range", default="1..8", help="level range, e.g. 1..8")
    v.add_argument("--sigma", default=DEFAULT_SIGMAS, help="comma list of rationals a/b")
    v.add_argument("--cap", type=int, default=8, help="truncation degree D")
    v.add_argument("--trials", type=int, default=100)
    v.add_argument("--seed", type=int, default=7)
    v.add_argument("--format", choices=("json", "text"), default="json")
    v.add_argument("--out", default=None, help="output path (default stdout)")

    d = sub.add_parser("describe-group", help="print the resolved group data")
    d.add_argument("--group", required=True)

    c = sub.add_parser("convert", help="convert a polynomial JSON between bases")
    c.add_argument("--direction", choices=("taylor-to-mahler", "mahler-to-taylor"), required=True)
    c.add_argument("--in", dest="infile", required=True, help="JSON: {dim, cap, terms: [{index, coeff}]}")
    c.add_argument("--out", default=None)
    return parser


def cmd_verify(args) -> int:
    suites = _parse_suites(args.suites)
    n_range = _parse_range(args.n_range)
    sigmas = _parse_sigmas(args.sigma)
    for name in ("cap", "trials"):
        if getattr(args, name) < 1:
            raise InputError(f"--{name} must be at least 1, got {getattr(args, name)}")
    G = resolve_group(args.group)
    report = run_suites(G, suites, n_range, sigmas, cap=args.cap, trials=args.trials, seed=args.seed)
    data = emit_json(report) if args.format == "json" else emit_text(report)
    _write_out(data, args.out)
    return 1 if report.failed else 0


def cmd_describe_group(args) -> int:
    G = resolve_group(args.group)
    config = group_to_config(G)
    config["neighborhoods"] = {
        str(N): {"tau": [format_fraction(t) for t in G.neighborhood_params(N).tau]}
        for N in range(1, 5)
    }
    sys.stdout.write(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return 0


def _read_terms(path: str):
    """(dim, cap, {index: coeff}) from a convert input file {dim, cap, terms: [{index, coeff}]}."""
    try:
        with open(path) as fh:
            payload = json.load(fh, parse_float=Fraction)
    except OSError as e:
        raise InputError(f"cannot read {path!r}: {e.strerror}") from e
    except json.JSONDecodeError as e:
        raise InputError(f"{path!r} is not valid JSON: {e}") from e
    try:
        dim, cap = parse_int(payload["dim"]), parse_int(payload["cap"])
        terms = terms_from_records(payload["terms"])
    except KeyError as e:
        raise InputError(f"{path!r} lacks the key {e}") from e
    except (ValueError, TypeError, ZeroDivisionError) as e:
        raise InputError(f"bad record in {path!r}: {e}") from e
    return dim, cap, terms


def cmd_convert(args) -> int:
    dim, cap, terms = _read_terms(args.infile)
    to_mahler = args.direction == "taylor-to-mahler"
    try:
        source = TruncatedSeries(dim, cap, terms) if to_mahler else MahlerFamily(dim, cap, terms)
    except (ValueError, TypeError) as e:
        raise InputError(f"bad polynomial in {args.infile!r}: {e}") from e
    records = series_to_records(taylor_to_mahler(source) if to_mahler else mahler_to_taylor(source))
    out = json.dumps({"dim": dim, "cap": cap, "terms": records}, indent=2) + "\n"
    _write_out(out.encode(), args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 0
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "describe-group":
            return cmd_describe_group(args)
        return cmd_convert(args)
    except (GroupConfigError, InputError) as e:
        sys.stderr.write(f"{parser.prog}: error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

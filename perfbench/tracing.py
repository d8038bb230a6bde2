"""Spans and counters around the public functions of each daggerdist module.

The tracer wraps functions from outside the package: every module-level name
bound to a traced function is replaced where it is looked up (``valuation``
is bound in four modules, the suite checkers in ``cli``), and methods are
replaced on their class.  Wrapping changes no argument and no result, so the
traced report is byte-identical to the untraced one.

Spans (name, start, end, parent) are kept in flat arrays while the program
runs and are written out once it has finished; ``self_s`` is computed from
them.  The ``padic`` primitives are called hundreds of thousands of times, so
they are leaf counters (calls and inclusive time) rather than spans.
"""
from __future__ import annotations

import functools
import json
import sys
import weakref
from array import array
from time import perf_counter

# (module, attribute as looked up, metric prefix) for every span-traced name.
SPANS = [
    ("distributions", "Distribution.dirac", "distributions.dirac"),
    ("distributions", "Distribution.from_dcoeffs", "distributions.from_dcoeffs"),
    ("distributions", "random_dcoeff_distribution", "distributions.random_dcoeff_distribution"),
    ("distributions", "convolve", "distributions.convolve"),
    ("distributions", "Distribution.ensure_dcoeffs", "distributions.ensure_dcoeffs"),
    ("distributions", "st_norm", "distributions.st_norm"),
    ("distributions", "st_norm_prime", "distributions.st_norm_prime"),
    ("distributions", "dagger_norm", "distributions.dagger_norm"),
    ("distributions", "dagger_seminorm", "distributions.dagger_seminorm"),
    ("distributions", "check_comparison_maps", "distributions.check_comparison_maps"),
    ("distributions", "check_contact_embedding", "distributions.check_contact_embedding"),
    ("groups", "PValuedGroup.multiply", "groups.multiply"),
    ("groups", "PValuedGroup.invert", "groups.invert"),
    ("groups", "PValuedGroup.power", "groups.power"),
    ("groups", "pth_root_mod", "groups.pth_root_mod"),
    ("groups", "PValuedGroup.f_monomial", "groups.f_monomial"),
    ("series", "TruncatedSeries.__init__", "series.TruncatedSeries.__init__"),
    ("series", "TruncatedSeries.__mul__", "series.TruncatedSeries.__mul__"),
    ("series", "TruncatedSeries.__add__", "series.TruncatedSeries.__add__"),
    ("series", "TruncatedSeries.substitute", "series.TruncatedSeries.substitute"),
    ("series", "TruncatedSeries.evaluate", "series.TruncatedSeries.evaluate"),
    ("series", "TruncatedSeries.gauss_norm", "series.TruncatedSeries.gauss_norm"),
    ("mahler", "taylor_to_mahler", "mahler.taylor_to_mahler"),
    ("mahler", "mahler_to_taylor", "mahler.mahler_to_taylor"),
    ("mahler", "mahler_norm", "mahler.mahler_norm"),
    ("mahler", "verify_norm_identity", "mahler.verify_norm_identity"),
    ("report", "Report.to_dict", "report.Report.to_dict"),
    ("report", "emit_json", "report.emit_json"),
]

# Spans reported as {calls, s} only: they hold almost no time of their own.
CALLS_AND_S_ONLY = {"report.Report.to_dict", "report.emit_json"}

LEAVES = [
    ("padic", "valuation", "padic.valuation"),
    ("padic", "multi_factorial_valuation", "padic.multi_factorial_valuation"),
    ("padic", "multi_binom_value", "padic.multi_binom_value"),
]

# The names ``cli.run_suites`` calls for each suite, as bound in ``cli``.
SUITES = {
    "group-axioms": ["check_formal_group_axioms", "check_model_consistency"],
    "pvaluation": ["check_pvaluation"],
    "saturation": ["check_saturation"],
    "coeff-bound": ["check_coefficient_bound"],
    "polydisc": ["check_polydisc_bound"],
    "mahler": ["suite_mahler"],
    "convolution": ["suite_convolution"],
    "norms": ["suite_norms"],
    "embeddings": ["suite_embeddings"],
}


def metric_names():
    """Every per-layer metric a traced run reports, in output order, with its unit."""
    names = [(f"cli.suite.{suite}.s", "s") for suite in SUITES]
    for _, _, prefix in SPANS:
        names += [(f"{prefix}.calls", "count"), (f"{prefix}.s", "s")]
        if prefix not in CALLS_AND_S_ONLY:
            names.append((f"{prefix}.self_s", "s"))
    for _, _, prefix in LEAVES:
        names += [(f"{prefix}.calls", "count"), (f"{prefix}.s", "s")]
    names += [
        ("distributions.moments_built", "count"),
        ("distributions.moments_read", "count"),
        ("distributions.moment_use_ratio", "ratio"),
        ("distributions.ensure_dcoeffs.solves", "count"),
        ("distributions.ensure_dcoeffs.solve_ratio", "ratio"),
        ("groups.pth_root_mod.power_calls", "count"),
        ("groups.pth_root_mod.roots", "count"),
        ("groups.pth_root_mod.power_per_root", "ratio"),
        ("groups.f_monomial.distinct_keys", "count"),
        ("groups.f_monomial.distinct_ratio", "ratio"),
        ("report.bytes", "bytes"),
    ]
    return names


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Records spans and counters for one run of the program in this process."""

    def __init__(self):
        self.labels = []
        self.span_label = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.leaf_calls = {}
        self.leaf_s = {}
        self.counts = dict.fromkeys(
            ("moments_built", "moments_read", "solves", "root_power_calls", "roots", "open_roots"), 0
        )
        self.built = {}  # id(distribution) -> (weakref, set of moment indices convolve read)
        self.f_monomial_keys = set()

    # -- wrappers ----------------------------------------------------------

    def _label(self, name):
        self.labels.append(name)
        return len(self.labels) - 1

    def span(self, fn, name):
        label = self._label(name)
        stack, labels, parents = self.stack, self.span_label, self.span_parent
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(labels)
            labels.append(label)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return wrapper

    def leaf(self, fn, name):
        calls, total = self.leaf_calls, self.leaf_s
        calls[name] = 0
        total[name] = 0.0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                total[name] += perf_counter() - t0
                calls[name] += 1

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every traced name in the imported daggerdist modules."""
        pkg = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "daggerdist"}
        cli = pkg["daggerdist.cli"]
        for suite, fnames in SUITES.items():
            for fname in fnames:
                setattr(cli, fname, self.span(getattr(cli, fname), f"cli.suite.{suite}"))
        for module, attr, name in SPANS:
            self._replace(pkg, f"daggerdist.{module}", attr, lambda fn, n=name: self.span(fn, n))
        for module, attr, name in LEAVES:
            self._replace(pkg, f"daggerdist.{module}", attr, lambda fn, n=name: self.leaf(fn, n))
        self._install_counters(pkg)

    @staticmethod
    def _replace(pkg, module, attr, make):
        """Wrap ``module.attr`` in place; a function is rebound in every module that imported it."""
        owner = pkg[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(make(raw.__func__)))
            else:
                setattr(cls, meth, make(raw))
            return
        original = getattr(owner, attr)
        wrapped = make(original)
        for mod in pkg.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    def _install_counters(self, pkg):
        """Counters behind the four work ratios, wrapped around the spans."""
        Distribution = pkg["daggerdist.distributions"].Distribution
        PValuedGroup = pkg["daggerdist.groups"].PValuedGroup
        groups = pkg["daggerdist.groups"]
        counts, built, keys = self.counts, self.built, self.f_monomial_keys
        convolve_labels = {i for i, n in enumerate(self.labels) if n == "distributions.convolve"}
        stack, span_label = self.stack, self.span_label

        def count_built(fn):
            @functools.wraps(fn)
            def wrapper(cls, *args, **kwargs):
                lam = fn(cls, *args, **kwargs)
                counts["moments_built"] += len(lam.moments)
                old = built.get(id(lam))
                if old is not None:
                    counts["moments_read"] += len(old[1])
                built[id(lam)] = (weakref.ref(lam), set())
                return lam

            return classmethod(wrapper)

        for meth in ("dirac", "from_dcoeffs"):
            setattr(Distribution, meth, count_built(Distribution.__dict__[meth].__func__))

        moment = Distribution.moment

        @functools.wraps(moment)
        def counted_moment(lam, beta):
            if stack and span_label[stack[-1]] in convolve_labels:
                entry = built.get(id(lam))
                if entry is not None and entry[0]() is lam and sum(beta) <= lam.cap:
                    entry[1].add(tuple(beta))
            return moment(lam, beta)

        Distribution.moment = counted_moment

        ensure = Distribution.ensure_dcoeffs

        @functools.wraps(ensure)
        def counted_ensure(lam):
            if lam.dcoeffs is None:
                counts["solves"] += 1
            return ensure(lam)

        Distribution.ensure_dcoeffs = counted_ensure

        f_monomial = PValuedGroup.f_monomial

        @functools.wraps(f_monomial)
        def counted_f_monomial(G, gamma, cap):
            keys.add((id(G), tuple(int(g) for g in gamma), cap))
            return f_monomial(G, gamma, cap)

        PValuedGroup.f_monomial = counted_f_monomial

        power = PValuedGroup.power

        @functools.wraps(power)
        def counted_power(G, x, n):
            if counts["open_roots"]:
                counts["root_power_calls"] += 1
            return power(G, x, n)

        PValuedGroup.power = counted_power

        pth_root_mod = groups.pth_root_mod

        @functools.wraps(pth_root_mod)
        def counted_root(G, x, precision):
            counts["open_roots"] += 1
            try:
                root = pth_root_mod(G, x, precision)
            finally:
                counts["open_roots"] -= 1
            if root is not None:
                counts["roots"] += 1
            return root

        for mod in pkg.values():
            if getattr(mod, "pth_root_mod", None) is pth_root_mod:
                mod.pth_root_mod = counted_root

    # -- results -----------------------------------------------------------

    def metrics(self, report_bytes):
        """Per-layer metrics as {name: value}, computed from the recorded spans."""
        labels, parents = self.span_label, self.span_parent
        starts, ends = self.span_start, self.span_end
        n = len(labels)
        child_s = [0.0] * n
        for i in range(n):
            if parents[i] >= 0:
                child_s[parents[i]] += ends[i] - starts[i]
        names = self.labels
        calls, incl, self_s = {}, {}, {}
        for i in range(n):
            name = names[labels[i]]
            dur = ends[i] - starts[i]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - child_s[i]
            # inclusive time counts a recursive call (convolve with opposite=True) once
            j = parents[i]
            while j >= 0 and names[labels[j]] != name:
                j = parents[j]
            if j < 0:
                incl[name] = incl.get(name, 0.0) + dur

        c = self.counts
        reads = c["moments_read"] + sum(len(entry[1]) for entry in self.built.values())
        f_calls = calls.get("groups.f_monomial", 0)
        solves_den = calls.get("distributions.ensure_dcoeffs", 0)
        out = {}
        for suite in SUITES:
            out[f"cli.suite.{suite}.s"] = incl.get(f"cli.suite.{suite}", 0.0)
        for _, _, prefix in SPANS:
            out[f"{prefix}.calls"] = calls.get(prefix, 0)
            out[f"{prefix}.s"] = incl.get(prefix, 0.0)
            if prefix not in CALLS_AND_S_ONLY:
                out[f"{prefix}.self_s"] = self_s.get(prefix, 0.0)
        for _, _, prefix in LEAVES:
            out[f"{prefix}.calls"] = self.leaf_calls[prefix]
            out[f"{prefix}.s"] = self.leaf_s[prefix]
        out.update(
            {
                "distributions.moments_built": c["moments_built"],
                "distributions.moments_read": reads,
                "distributions.moment_use_ratio": _ratio(reads, c["moments_built"]),
                "distributions.ensure_dcoeffs.solves": c["solves"],
                "distributions.ensure_dcoeffs.solve_ratio": _ratio(c["solves"], solves_den),
                "groups.pth_root_mod.power_calls": c["root_power_calls"],
                "groups.pth_root_mod.roots": c["roots"],
                "groups.pth_root_mod.power_per_root": _ratio(c["root_power_calls"], c["roots"]),
                "groups.f_monomial.distinct_keys": len(self.f_monomial_keys),
                "groups.f_monomial.distinct_ratio": _ratio(len(self.f_monomial_keys), f_calls),
                "report.bytes": report_bytes,
            }
        )
        return out

    def write_spans(self, path, run_id):
        """Write every recorded span; times are seconds on the perf_counter clock."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "run": run_id,
                    "labels": self.labels,
                    "label": self.span_label.tolist(),
                    "parent": self.span_parent.tolist(),
                    "start": self.span_start.tolist(),
                    "end": self.span_end.tolist(),
                },
                fh,
            )

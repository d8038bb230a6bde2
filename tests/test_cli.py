import collections
import functools
import hashlib
import importlib.util
import json
import os
import random
import runpy
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from daggerdist import cli, distributions as dist_module, groups as groups_module, report as report_module
from daggerdist.cli import SUITES, main, resolve_group, run_suites, suite_convolution, suite_mahler
from daggerdist.distributions import (
    Distribution,
    check_banach_submult_N,
    check_norm_tower,
    check_submultiplicative,
    random_dcoeff_distribution,
)
from daggerdist.groups import (
    builtin_abelian,
    builtin_heisenberg,
    check_model_consistency,
    check_pvaluation,
    check_saturation,
    group_to_config,
    load_group,
    sample_points,
)
from daggerdist.padic import INFINITY, LogMag, format_fraction, indices_up_to
from daggerdist.report import (
    FAIL,
    INCONCLUSIVE,
    LOWER_BOUND_PASS,
    PASS,
    REGIME_UNMET,
    CheckRecord,
    Report,
    emit_json,
    emit_text,
)
from daggerdist.series import Coefficients
from test_distributions import H_HALF


def test_resolve_group_tags():
    assert resolve_group("heisenberg(3)").name == "heisenberg(3)"
    G = resolve_group("abelian(5,2)")
    assert (G.p, G.d) == (5, 2)


def test_resolve_group_from_config_file(tmp_path):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(group_to_config(builtin_heisenberg(3))))
    assert resolve_group(str(path)).multiply([1, 1, 0], [0, 0, 1]) == (1, 1, 1)


def _render(value):
    """The report's value normalization as it was before emit_json wrote every value itself: the oracle."""
    if isinstance(value, bool):
        return value
    if isinstance(value, Fraction):
        return format_fraction(value)
    if isinstance(value, LogMag):
        return "0" if value.is_bottom else "p^" + format_fraction(value.exponent)
    if value == INFINITY:
        return "inf"
    if isinstance(value, (list, tuple)):
        return [_render(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _render(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    return value


def _record_dict(r):
    """CheckRecord.to_dict as it was, field by field through _render: the oracle."""
    out = {"check": r.check_id, "anchor": r.anchor, "params": _render(r.params), "verdict": r.verdict}
    if r.witness is not None:
        out["witness"] = _render(r.witness)
    if r.details:
        out["details"] = _render(r.details)
    return out


def test_render_normalizes_exact_values():
    def rendered(value):
        return CheckRecord("x/y", "s", PASS, {"v": value}).to_dict()["params"]["v"]

    assert rendered(Fraction(1, 3)) == "1/3"
    assert rendered(LogMag(Fraction(-2, 5))) == "p^-2/5"
    assert rendered(LogMag.bottom()) == "0"
    assert rendered({"b": Fraction(1), "a": 2}) == {"a": 2, "b": "1/1"}
    assert rendered(INFINITY) == "inf"
    assert rendered(True) is True and rendered(False) is False


def test_report_json_fields():
    rep = Report(group="g", seed=1)
    rep.extend(
        [
            CheckRecord(
                check_id="x/y",
                anchor="something holds",
                verdict="pass",
                params={"N": 2, "tau": Fraction(1, 4)},
            )
        ]
    )
    data = json.loads(emit_json(rep))
    assert data["schema"] == 1
    assert data["counts"]["pass"] == 1
    assert data["checks"][0]["params"]["tau"] == "1/4"


def _double_render_to_dict(report):
    """Report.to_dict as it was: params rendered once for the sort key and again for the output."""
    ordered = sorted(report.records, key=lambda r: (r.check_id, json.dumps(_render(r.params), sort_keys=True)))
    verdicts = (PASS, LOWER_BOUND_PASS, REGIME_UNMET, INCONCLUSIVE, FAIL)
    counts = {v: sum(r.verdict == v for r in report.records) for v in verdicts}
    if not counts[INCONCLUSIVE]:
        del counts[INCONCLUSIVE]
    checks = [_record_dict(r) for r in ordered]
    return {"schema": 1, "group": report.group, "seed": report.seed, "counts": counts, "checks": checks}


# strings json.dumps escapes: a quote, a backslash, a newline, non-ASCII
_escaped = st.sampled_from(['a "quoted" word', "back\\slash", "two\nlines", "na\u00efve \u221e", ""]) | st.text(max_size=4)
_exact_leaves = st.one_of(
    st.integers(-9, 9),
    st.integers(2**64, 2**70) | st.integers(-(2**70), -(2**64)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
    st.builds(LogMag, st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))),
    st.just(LogMag.bottom()),
    st.just(INFINITY),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["a", "b", "1/2"]) | _escaped,
)
# int and tuple keys, and pairs of keys that render to the same string
_keys = st.sampled_from(["x", "alpha", 1, "1", (1, 0), "(1, 0)", -2, 'a "key"', "\u00e9"])
_report_values = st.recursive(
    _exact_leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_keys, inner, max_size=3),
    max_leaves=6,
)
_records = st.builds(
    CheckRecord,
    check_id=st.sampled_from(["norms/a", "norms/b", "embeddings/c"]),
    anchor=st.just("a statement") | _escaped,
    verdict=st.sampled_from([PASS, LOWER_BOUND_PASS, REGIME_UNMET, INCONCLUSIVE, FAIL]),
    params=st.dictionaries(st.sampled_from(["N", "sigma", "group"]) | _keys, _report_values, max_size=3),
    witness=st.none() | st.fixed_dictionaries({"violations": st.lists(_report_values, max_size=3)}),
    details=st.dictionaries(st.sampled_from(["tail", "M"]), _report_values, max_size=2),
)


def _json_dumps_writer(report):
    """emit_json as it was: the rendered report through json.dumps(indent=2)."""
    return json.dumps(_double_render_to_dict(report), indent=2).encode() + b"\n"


_NESTED = {"violations": [{"alpha": [1, 0], "lhs": LogMag(Fraction(-1, 2)), "rhs": LogMag.bottom()}, INFINITY]}


@settings(deadline=None, max_examples=50)
@given(st.lists(_records, max_size=8))
@example(
    [
        CheckRecord("norms/a", "s", FAIL, {"sigma": Fraction(3, 4), "N": 2}, _NESTED),
        CheckRecord("norms/a", "s", PASS, {"sigma": Fraction(1, 4), "N": 2}),
        CheckRecord("norms/a", "s", REGIME_UNMET, {"sigma": Fraction(3, 4), "N": 2}, details={"M": [INFINITY]}),
        CheckRecord("embeddings/c", "s", PASS, {"N": [Fraction(1, 3), LogMag(1)]}),
    ]
)
def test_report_renders_each_record_once_in_the_order_of_the_double_render(records):
    # records share check ids and often params, so the stable sort's tie order is exercised too
    report = Report(group="g", seed=3, records=records)
    assert report.to_dict() == _double_render_to_dict(report)
    assert [r.to_dict() for r in records] == [_record_dict(r) for r in records]
    assert emit_json(report) == _json_dumps_writer(report)


@settings(deadline=None, max_examples=100)
@given(st.lists(_records, max_size=8), st.just("g") | _escaped, st.none() | st.integers(0, 2**70))
@example([CheckRecord("norms/a", 'a "b"\n', PASS, {1: "one", "1": "uno", (1, 0): [], "e": {}}, {}, {"t": (None, 0.5)})], "g", 0)
@example([], "\u00e9", None)
# the compact key puts [1, 2] before [1], the indented text [1] before [1, 2]
@example([CheckRecord("norms/a", "s", PASS, {"N": [1]}), CheckRecord("norms/a", "s", PASS, {"N": [1, 2]})], "g", 1)
def test_emit_json_writes_the_bytes_json_dumps_wrote(records, group, seed):
    report = Report(group=group, seed=seed, records=records)
    assert emit_json(report) == _json_dumps_writer(report)
    # each record's sort key is the compact sorted-key JSON of its rendered params
    for r in records:
        assert report_module._record_json(r)[:2] == (r.check_id, json.dumps(_render(r.params), sort_keys=True))


def test_empty_suites_empty_report_exit_zero(tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = main(["verify", "--group", "heisenberg(3)", "--suites", "", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["checks"] == []
    rc = main(
        ["verify", "--group", "heisenberg(3)", "--suites", "coeff-bound", "--out", str(out)]
    )
    assert rc == 0


def _assert_one_line_error(captured):
    assert captured.out == ""
    assert captured.err.startswith("daggerdist: error: ") and captured.err.count("\n") == 1


def test_unknown_suite_rejected(capsys):
    assert main(["verify", "--suites", "nonsense"]) == 2
    _assert_one_line_error(capsys.readouterr())


BAD_VERIFY_OPTIONS = [
    ["--sigma", "abc"],
    ["--sigma", "1/0"],
    ["--sigma", ","],
    ["--N", "x"],
    ["--N", "0"],
    ["--N", "3..1"],
    ["--suites", "foo"],
    ["--suites", "coeff-bound,coeff-bound"],
    ["--sigma", "1/2,2/4"],
    ["--cap", "0"],
    ["--cap", "-1"],
    ["--trials", "0"],
]


@pytest.mark.parametrize("option", BAD_VERIFY_OPTIONS, ids=" ".join)
def test_bad_verify_option_gives_one_line_error(option, capsys):
    assert main(["verify", "--group", "abelian(3,1)", *option]) == 2
    _assert_one_line_error(capsys.readouterr())


def test_zero_work_is_inconclusive():
    """A sampled check that attempted no instance is inconclusive, never a pass or a failure."""
    G = builtin_abelian(3, 1)
    records = [
        *suite_mahler(G, trials=0, seed=1),
        *suite_convolution(G, trials=0, seed=1, cap=2),
        *check_model_consistency(G, samples=0, seed=1),
        *check_pvaluation(G, samples=0, seed=1),
        *check_saturation(G, samples=0, seed=1),
        *check_submultiplicative(G, Fraction(1, 2), trials=0, seed=1, cap=2),
        *check_banach_submult_N(G, 2, trials=0, seed=1, cap=2),
        *check_norm_tower([]),
    ]
    idle = [r for r in records if 0 in (r.params.get("trials"), r.params.get("samples"))]
    assert len(idle) == 11
    assert all(r.verdict == "inconclusive" for r in idle)
    rep = Report(group=G.name, seed=1)
    rep.extend(records)
    assert not rep.failed


def _benchmark_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_suites_run_through_the_names_the_benchmark_traces(monkeypatch):
    """Every checker name perfbench/tracing.py rebinds in ``cli`` is what run_suites calls."""
    tracing = _benchmark_tracing()
    assert list(tracing.SUITES) == list(SUITES)
    calls = {}

    def counting(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    names = [name for fnames in tracing.SUITES.values() for name in fnames]
    for name in names:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    G = builtin_abelian(3, 1)
    run_suites(G, list(SUITES), n_range=[1, 2], sigmas=[Fraction(1, 2)], cap=2, trials=2, seed=1)
    assert sorted(calls) == sorted(names)


def test_every_name_the_benchmark_wraps_resolves():
    """The spans, the leaves and the counters of perfbench/tracing.py name functions that exist.

    A method is wrapped on its class, so it must be found in the class ``__dict__``.
    """
    tracing = _benchmark_tracing()
    counters = [
        ("distributions", "Distribution.moment"),
        ("groups", "PValuedGroup.power"),
        ("groups", "pth_root_mod"),
        ("groups", "PValuedGroup.f_monomial"),
    ]
    for module, attr in [entry[:2] for entry in tracing.SPANS + tracing.LEAVES] + counters:
        owner = importlib.import_module(f"daggerdist.{module}")
        if "." in attr:
            cls, attr = attr.split(".")
            owner = vars(owner)[cls]
        assert attr in vars(owner), (module, attr)


def test_corrupted_config_fails_with_witness(tmp_path):
    cfg = group_to_config(builtin_heisenberg(3))
    cfg["F"][2] = [rec for rec in cfg["F"][2] if sum(rec["index"]) == 1]
    cfg["model"] = None
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "rep.json"
    rc = main(
        ["verify", "--group", str(path), "--suites", "group-axioms", "--out", str(out)]
    )
    assert rc == 1
    data = json.loads(out.read_text())
    failing = [r for r in data["checks"] if r["verdict"] == "fail"]
    assert failing and all("witness" in r for r in failing)
    assert all("index" in r["witness"] for r in failing)


def test_json_determinism_small(tmp_path):
    args = [
        "verify",
        "--group",
        "abelian(3,2)",
        "--suites",
        "group-axioms,polydisc,norms",
        "--N",
        "1..4",
        "--trials",
        "10",
        "--seed",
        "3",
    ]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_text_format_includes_anchor(tmp_path):
    out = tmp_path / "r.txt"
    rc = main(
        [
            "verify",
            "--group",
            "heisenberg(3)",
            "--suites",
            "coeff-bound",
            "--format",
            "text",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    text = out.read_text()
    assert "valuation bound" in text
    assert "totals:" in text


def test_run_suites_soundness_of_verdicts():
    G = builtin_heisenberg(3)
    rep = run_suites(
        G,
        ["norms"],
        n_range=[1, 2],
        sigmas=[Fraction(1, 2)],
        cap=3,
        trials=10,
        seed=5,
    )
    # truncated-norm inequalities must not claim a full pass
    for rec in rep.records:
        if rec.check_id in ("norms/st-submultiplicative", "norms/banach-submultiplicative"):
            assert rec.verdict in ("lower-bound-pass", "fail", "regime-unmet")


def test_describe_group_and_convert(tmp_path, capsys):
    rc = main(["describe-group", "--group", "heisenberg(3)"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["p"] == 3 and "neighborhoods" in data

    payload = {
        "dim": 1,
        "cap": 3,
        "terms": [{"index": [3], "coeff": "1/1"}],
    }
    src = tmp_path / "poly.json"
    src.write_text(json.dumps(payload))
    mid = tmp_path / "mahler.json"
    rc = main(["convert", "--direction", "taylor-to-mahler", "--in", str(src), "--out", str(mid)])
    assert rc == 0
    back = tmp_path / "taylor.json"
    rc = main(["convert", "--direction", "mahler-to-taylor", "--in", str(mid), "--out", str(back)])
    assert rc == 0
    assert json.loads(back.read_text())["terms"] == payload["terms"]


# sha256 of `describe-group --group G`, captured before the neighborhood radii were cached
DESCRIBE_GROUP_DIGESTS = {
    "heisenberg(3)": "fad13a63ccaac989e177290f07c46a1b73dbab9901a12d99945078d799df8a8a",
    "abelian(5,2)": "7e257928adb8fd81e4260b212322b2ffcd8f653e568d8ab61f9b238b19951e89",
}


@pytest.mark.parametrize("group", sorted(DESCRIBE_GROUP_DIGESTS))
def test_describe_group_bytes_pinned(group, capsys):
    assert main(["describe-group", "--group", group]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == DESCRIBE_GROUP_DIGESTS[group]


def test_emit_text_matches_json_verdicts():
    rep = Report(group="g", seed=0)
    rep.extend([CheckRecord(check_id="a/b", anchor="anchor text", verdict="pass")])
    text = emit_text(rep).decode()
    assert "anchor text" in text and "PASS" in text


@pytest.mark.parametrize("command", ["verify", "describe-group"])
@pytest.mark.parametrize(
    "tag",
    ["heisenberg(3", "abelian(3)", "abelian(x,2)", "abelian(4,1)", "abelian(1,1)", "abelian(3,0)", "missing.json"],
)
def test_bad_group_gives_one_line_error(command, tag, capsys):
    assert main([command, "--group", tag]) != 0
    err = capsys.readouterr().err
    assert err.startswith("daggerdist: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("how", ["tag", "config"])
def test_a_prime_of_2_to_the_40_or_more_is_rejected_at_once(how, tmp_path, capsys):
    # 2^61 - 1 is prime, and trial division up to its square root would run for minutes
    p, group = 2**61 - 1, f"heisenberg({2**61 - 1})"
    if how == "config":
        config = tmp_path / "group.json"
        config.write_text(json.dumps({**group_to_config(builtin_heisenberg(3)), "p": p}))
        group = str(config)
    start = time.perf_counter()
    assert main(["describe-group", "--group", group]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == f"daggerdist: error: invalid group data: p={p} must be below 2^40\n"


def test_a_prime_below_2_to_the_40_is_still_accepted(capsys):
    assert main(["describe-group", "--group", "heisenberg(1000000000039)"]) == 0
    assert json.loads(capsys.readouterr().out)["p"] == 10**12 + 39


# the error lines as they read when the expected arity came from inspect.signature of the builtin
WRONG_ARITY_ERRORS = {
    "abelian(3)": "malformed group tag 'abelian(3)', expected abelian(p,d)",
    "heisenberg(3,4)": "malformed group tag 'heisenberg(3,4)', expected heisenberg(p)",
    "heisenberg()": "malformed group tag 'heisenberg()', expected heisenberg(p)",
}


@pytest.mark.parametrize("tag", sorted(WRONG_ARITY_ERRORS))
def test_wrong_arity_tag_error_is_pinned(tag, capsys):
    assert main(["verify", "--group", tag]) == 2
    assert capsys.readouterr().err == f"daggerdist: error: invalid group data: {WRONG_ARITY_ERRORS[tag]}\n"


def test_cli_loads_no_dataclasses_or_inspect():
    """Every CLI call pays for what importing the package loads, so these stdlib modules stay out."""
    code = (
        "import sys\n"
        "from daggerdist.cli import main\n"
        "main(['verify', '--group', 'abelian(3,1)', '--suites', 'coeff-bound'])\n"
        "sys.stderr.write(repr(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules))))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 and done.stderr == "[]", done.stderr


def test_check_record_and_report_compare_field_by_field():
    fields = ("check_id", "anchor", "verdict", "params", "witness", "details")
    values = ("a/b", "anchor", FAIL, {"N": 1}, {"violations": [1]}, {"M": [2]})
    rec = CheckRecord(*values)
    assert rec == CheckRecord(**dict(zip(fields, values))) and not rec != CheckRecord(*values)
    for i, other in enumerate(("a/c", "other", PASS, {"N": 2}, None, {})):
        changed = CheckRecord(*values[:i], other, *values[i + 1 :])
        assert changed != rec and not changed == rec
    bare, again = CheckRecord("a/b", "anchor", PASS), CheckRecord("a/b", "anchor", PASS)
    assert (bare.params, bare.witness, bare.details) == ({}, None, {})
    assert bare.params is not again.params and bare.details is not again.details
    assert repr(bare) == (
        "CheckRecord(check_id='a/b', anchor='anchor', verdict='pass', params={}, witness=None, details={})"
    )
    with pytest.raises(TypeError):
        hash(bare)
    first, second = Report("g", 1), Report(group="g", seed=1)
    assert first.records == [] and first.records is not second.records and first == second
    first.extend([bare])
    assert first != second and first == Report("g", 1, [again])


def test_bad_config_file_gives_one_line_error(tmp_path, capsys):
    path = tmp_path / "group.json"
    bad_p = {"name": "g", "p": "x", "d": 1, "omega": [], "F": [], "I": []}
    for text in ("{not json", "[1, 2]", json.dumps(bad_p)):
        path.write_text(text)
        assert main(["verify", "--group", str(path)]) != 0
        err = capsys.readouterr().err
        assert err.startswith("daggerdist: error: ") and err.count("\n") == 1


_POLY = {"dim": 1, "cap": 2, "terms": [{"index": [2], "coeff": "1/1"}]}
BAD_CONVERT_INPUTS = {
    "missing-file": None,
    "invalid-json": "{not json",
    "no-dim": json.dumps({k: v for k, v in _POLY.items() if k != "dim"}),
    "no-cap": json.dumps({k: v for k, v in _POLY.items() if k != "cap"}),
    "no-terms": json.dumps({k: v for k, v in _POLY.items() if k != "terms"}),
    "bad-coeff": json.dumps({**_POLY, "terms": [{"index": [1], "coeff": "x"}]}),
    "index-above-cap": json.dumps({**_POLY, "terms": [{"index": [3], "coeff": "1/1"}]}),
    "dim-zero": json.dumps({**_POLY, "dim": 0, "terms": []}),
    "cap-negative": json.dumps({**_POLY, "cap": -1, "terms": []}),
    "fractional-dim": json.dumps({**_POLY, "dim": 1.5}),
    "fractional-index": json.dumps({**_POLY, "terms": [{"index": [1.5], "coeff": "1/1"}]}),
    "repeated-index": json.dumps({**_POLY, "terms": [{"index": [1], "coeff": "1"}, {"index": [1.0], "coeff": "2"}]}),
    "string-index": json.dumps({**_POLY, "terms": [{"index": "1", "coeff": "1/1"}]}),
    "bool-dim": json.dumps({**_POLY, "dim": True}),
    "bool-cap": json.dumps({**_POLY, "cap": True, "terms": []}),
    "bool-index": json.dumps({**_POLY, "terms": [{"index": [True], "coeff": "1/1"}]}),
    "bool-coeff": json.dumps({**_POLY, "terms": [{"index": [1], "coeff": True}]}),
    "all-bool": json.dumps({"dim": True, "cap": 2, "terms": [{"index": [True], "coeff": True}]}),
}


@pytest.mark.parametrize("direction", ["taylor-to-mahler", "mahler-to-taylor"])
@pytest.mark.parametrize("case", sorted(BAD_CONVERT_INPUTS))
def test_bad_convert_input_gives_one_line_error(direction, case, tmp_path, capsys):
    path = tmp_path / "in.json"
    if BAD_CONVERT_INPUTS[case] is not None:
        path.write_text(BAD_CONVERT_INPUTS[case])
    assert main(["convert", "--direction", direction, "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("daggerdist: error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--group", "abelian(3,1)", "--suites", "coeff-bound"],
        ["convert", "--direction", "taylor-to-mahler", "--in", "POLY"],
    ],
    ids=["verify", "convert"],
)
def test_unwritable_out_gives_one_line_error(argv, tmp_path, capsys):
    src = tmp_path / "poly.json"
    src.write_text(json.dumps(_POLY))
    argv = [str(src) if a == "POLY" else a for a in argv]
    assert main([*argv, "--out", str(tmp_path / "missing" / "r.json")]) == 2
    _assert_one_line_error(capsys.readouterr())
    assert main([*argv, "--out", "-"]) == 0
    assert json.loads(capsys.readouterr().out)


def test_convert_reads_a_float_coefficient_exactly(tmp_path):
    src, out = tmp_path / "poly.json", tmp_path / "mahler.json"
    src.write_text('{"dim": 1, "cap": 1, "terms": [{"index": [1], "coeff": 0.1}]}')
    assert main(["convert", "--direction", "taylor-to-mahler", "--in", str(src), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["terms"] == [{"index": [1], "coeff": "1/10"}]


# sha256 of `verify --group G --format json` with the listed options, G the first word of the
# key.  The heisenberg(3) and abelian(3,2) digests were captured from the Fraction-only
# construction path, heisenberg(5) and abelian(11,3) from the Fraction-only pointwise path with
# the plain depth-first p-th root search, abelian(2,2) and heisenberg(7) from the Fraction-only
# Gauss and Mahler norm loops with two Mahler conversions per trial, abelian(5,3) and
# "heisenberg(7) convolution" from the per-term convolution loop over eagerly built moments,
# abelian(2,3) from the distribution-side Stirling and falling tables before they were merged
# into the basis rows of padic, heisenberg-half (the -3/2 law of test_distributions.H_HALF, read
# from a config file) from the law evaluated term by term before it was compiled to kernels, and
# the three "defaults" reports (every suite at the CLI defaults) from the verdict tables filled
# per alpha, before the weight-only checks were decided on the axes.
PINNED_REPORTS = {
    "heisenberg(3)": (
        ["--trials", "5"],
        "5e6427b53534e700a4b3fdfb7962aa7e13a5e5c3667332b74e003b5222f42350",
    ),
    "abelian(3,2)": (
        ["--trials", "5"],
        "c56570c22713a0c19ddf2ea5b16995d58f8fdac50e2a84ba590159cdbe6410a3",
    ),
    "heisenberg(5)": (
        ["--trials", "5"],
        "74153c1867874d7d08f59ff4ac509227b8f9fa8f4e94730c26854b67f0db7470",
    ),
    "abelian(11,3)": (
        ["--suites", "saturation", "--trials", "30"],
        "2901ca4f68b2c3522420da4ac907054fb9a371db9cf4e0ec8e46b8bb66510278",
    ),
    "abelian(2,2)": (
        ["--suites", "mahler,pvaluation,polydisc", "--trials", "300"],
        "a54a56a74dfd91af96b9b26516a7b8985156f52a490db10533ec3569945f4a6a",
    ),
    "heisenberg(7)": (
        ["--suites", "mahler,pvaluation", "--trials", "200"],
        "97767992a712c9f922ae937ddfa98140bedeaef6459461309e99940fb9fcb461",
    ),
    "abelian(5,3)": (
        ["--suites", "convolution,norms,embeddings", "--trials", "20"],
        "de3e048217adabc439edca0cdd3aa5d7efe3cc672dc2428f5bb5b1788ed6ebc5",
    ),
    "heisenberg(7) convolution": (
        ["--suites", "convolution,norms", "--trials", "20"],
        "ca0545b44b901de48942f5fe065fb9ec5b64f68f353591c2d86dd2fa0a3b3ea4",
    ),
    "abelian(2,3)": (
        ["--suites", "convolution,norms,embeddings", "--trials", "10"],
        "c4e55c4e4a7b14426d916867ec8868b6d79e21d4b2a81ab546c68b91b3120ead",
    ),
    "heisenberg-half": (
        ["--suites", "group-axioms,pvaluation,saturation,mahler", "--trials", "200"],
        "458351615422f8576ce6c0b67b43065594701fa1ee285954f10e3d56c8d665ac",
    ),
    "heisenberg(3) defaults": ([], "4d3284df53f105d4f22313867c15de27dc090aa919ace75b1e514d48d4bb2524"),
    "abelian(3,2) defaults": ([], "dbe0c5bfceacbc2e6e3e31044c57a9397f7c389bd1cabbc791aa5e42465ba1b8"),
    "heisenberg(5) defaults": ([], "160abbacb71716db3d6109f4f997b6629094afbadd80380eb91d317a9d3c57fc"),
    "broken-heisenberg(3)": (
        ["--trials", "20", "--seed", "3"],
        "ac09e63eb2850456b9282a31d03fa8cf6adb303bd70950282585c229e2704129",
    ),
}


def _broken_heisenberg():
    """heisenberg(3) with F3's coefficient at (0,1,0,1,0,0) and I3's at (1,1,0) set from -3 to -1: not a group law."""
    config = group_to_config(builtin_heisenberg(3))
    config["name"] = "broken-heisenberg(3)"
    for key, index in (("F", [0, 1, 0, 1, 0, 0]), ("I", [1, 1, 0])):
        (term,) = [t for t in config[key][2] if t["index"] == index]
        assert term["coeff"] == "-3/1"
        term["coeff"] = "-1/1"
    return load_group(json.dumps(config))


# groups of PINNED_REPORTS that are not builtin tags, written to a config file for the run
PINNED_CONFIGS = {"heisenberg-half": H_HALF, "broken-heisenberg(3)": _broken_heisenberg()}


def _pinned_group(key, tmp_path):
    """The --group argument of a pin: the builtin tag, or a config file of PINNED_CONFIGS."""
    group = key.split()[0]
    if group in PINNED_CONFIGS:
        config = tmp_path / "group.json"
        config.write_text(json.dumps(group_to_config(PINNED_CONFIGS[group])))
        group = str(config)
    return group


@pytest.mark.parametrize("key", sorted(PINNED_REPORTS))
def test_report_bytes_pinned(key, tmp_path):
    options, digest = PINNED_REPORTS[key]
    out = tmp_path / "report.json"
    status = main(["verify", "--group", _pinned_group(key, tmp_path), *options, "--format", "json", "--out", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert status == (1 if json.loads(out.read_bytes())["counts"]["fail"] else 0)


# text reports: key -> (options, sha256, exit status); emit_text reads the parsed JSON of emit_json
PINNED_TEXT_REPORTS = {
    "heisenberg(3)": (
        ["--trials", "5"],
        "013cb8fb40e34eb692606b199b79011f25654191c7e9ec592c037e6dd835eb00",
        0,
    ),
    "broken-heisenberg(3)": (
        ["--trials", "20", "--seed", "3"],
        "d0fbf114a74991bfe444a3a7344d25798ca0ba191c831e10ef99052c3887a46c",
        1,
    ),
}


@pytest.mark.parametrize("key", sorted(PINNED_TEXT_REPORTS))
def test_text_report_bytes_pinned(key, tmp_path):
    options, digest, want = PINNED_TEXT_REPORTS[key]
    out = tmp_path / "report.txt"
    status = main(["verify", "--group", _pinned_group(key, tmp_path), *options, "--format", "text", "--out", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert status == want


def test_the_broken_law_fails_every_check_it_breaks_with_a_witness(tmp_path):
    """The failing pin: every fail record carries a witness, and the submultiplicativity checks fail at every sigma and N."""
    config = tmp_path / "group.json"
    config.write_text(json.dumps(group_to_config(_broken_heisenberg())))
    out = tmp_path / "report.json"
    assert main(["verify", "--group", str(config), "--trials", "20", "--seed", "3", "--out", str(out)]) == 1
    failed = [rec for rec in json.loads(out.read_bytes())["checks"] if rec["verdict"] == FAIL]
    assert all(rec["witness"] for rec in failed)
    assert sorted(collections.Counter(rec["check"] for rec in failed).items()) == [
        ("coeff-bound/valuation", 1),
        ("model/consistency", 1),
        ("norms/banach-submultiplicative", 4),
        ("norms/st-submultiplicative", 4),
        ("polydisc/gauss-bound", 8),
        ("pvaluation/commutator", 1),
    ]
    violations = [v for rec in failed if rec["check"].endswith("submultiplicative") for v in rec["witness"]["violations"]]
    assert violations and all(LogMag(Fraction(v["lhs"][2:])) > LogMag(Fraction(v["rhs"][2:])) for v in violations)


@pytest.mark.parametrize("workload", ["allsuites-h3", "lawcheck-h5"])
def test_benchmark_workloads_reproduce_their_reference_reports(workload, tmp_path, monkeypatch):
    """The arguments perfbench/run.py runs, at its reference seed, give the digests of perfbench/reference.json."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))  # run.py imports its sibling tracing.py
    spec = importlib.util.spec_from_file_location("perfbench_run", bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    reference = json.loads((bench / "reference.json").read_text())
    assert reference["seed"] == run.REFERENCE_SEED
    out = tmp_path / "report.json"
    assert main(["verify", *run.WORKLOADS[workload], "--seed", str(run.REFERENCE_SEED), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == reference["workloads"][workload]["sha256"]


# -- the samplers as they drew with rng.randrange and rng.choice ------------


def _randrange_dcoeff_distribution(G, rng, cap, support_degree=3, nterms=4):
    """random_dcoeff_distribution as it was: a filtered index list and three rng.randrange calls per term."""
    indices = [a for a in indices_up_to(G.d, support_degree) if sum(a) > 0]
    nums = {}
    for _ in range(nterms):
        alpha = indices[rng.randrange(len(indices))]
        num = rng.randrange(-(G.p**3), G.p**3) or 1
        shift = rng.randrange(-1, 2)
        nums[alpha] = nums.get(alpha, 0) + num * G.p ** (shift + 1)
    nums = {a: n for a, n in nums.items() if n} or {(0,) * G.d: G.p}
    return Distribution.from_dcoeffs(G, Coefficients.from_numerators(G.d, support_degree, nums, G.p), cap)


def _randrange_point(G, rng, precision=6):
    return tuple(rng.randrange(G.p**precision) for _ in range(G.d))


def _randrange_draws(G, site, rng, trials, cap):
    """What a sampling site drew with rng.randrange, in order: points and basis coefficients."""
    big, drawn = G.degmax() * cap, []

    def dcoeffs(cap):
        drawn.append(dict(_randrange_dcoeff_distribution(G, rng, cap).dcoeffs))

    if site == "banach":
        for t in range(trials):
            for _ in range(2):
                if t % 2:
                    dcoeffs(big)
                else:
                    drawn.append(_randrange_point(G, rng))
    elif site == "convolution":
        drawn.extend(_randrange_point(G, rng) for _ in range(2 * trials + 3 * max(trials // 2, 1)))
        dcoeffs(big)
        drawn.extend(_randrange_point(G, rng) for _ in range(2 * max(trials // 4, 1)))
    elif site == "samples":
        for k in range(trials):
            if k % 3 == 0:
                drawn.append(_randrange_point(G, rng))
            else:
                dcoeffs(cap)
    elif site == "saturation":  # every sample over the threshold settles, as found, stalled or spent
        threshold, attempts = Fraction(G.p, G.p - 1), 0
        while len(drawn) < trials and attempts < 20 * trials:
            attempts += 1
            x = tuple(G.p * rng.randrange(G.p**11) for _ in range(G.d))
            if G.omega_of(x) > threshold:
                drawn.append(x)
    return drawn


def _run_site(G, site, trials, cap, monkeypatch):
    """What the site draws now, logged where it is drawn, and the state of the site's generator afterwards."""
    drawn, made = [], []

    def points(G, rng, count, precision):
        pts = sample_points(G, rng, count, precision)
        drawn.extend(pts)
        return pts

    def dcoeffs(G, rng, cap):
        lam = random_dcoeff_distribution(G, rng, cap)
        drawn.append(dict(lam.dcoeffs))
        return lam

    def generator(seed):
        made.append(random.Random(seed))
        return made[-1]

    for module in (cli, dist_module, groups_module):
        monkeypatch.setattr(module, "random", SimpleNamespace(Random=generator))
    for module in (cli, dist_module):
        monkeypatch.setattr(module, "sample_points", points)
        monkeypatch.setattr(module, "random_dcoeff_distribution", dcoeffs)
    root = groups_module.pth_root_mod
    monkeypatch.setattr(groups_module, "pth_root_mod", lambda G, x, precision: drawn.append(x) or root(G, x, precision))
    if site == "banach":
        check_banach_submult_N(G, 1, trials=trials, seed=2, cap=cap)
    elif site == "convolution":
        suite_convolution(G, trials, seed=2, cap=cap)
    elif site == "samples":
        cli._sample_distributions(G, generator("2:norms"), trials, cap)
    elif site == "saturation":
        check_saturation(G, samples=trials, seed=2, precision=12)
    (rng,) = made
    return drawn, rng


_SITE_SEEDS = {
    "banach": "2:banach:{}:1",
    "convolution": "2:convolution:{}",
    "samples": "2:norms",
    "saturation": "2:sat:{}",
}


@pytest.mark.parametrize("site", sorted(_SITE_SEEDS))
@pytest.mark.parametrize(
    "G",
    # 41^6 > 2^32: sample_points draws one coordinate at a time
    [builtin_heisenberg(3), builtin_heisenberg(5), builtin_abelian(3, 2), builtin_heisenberg(41)],
    ids=lambda G: G.name,
)
def test_the_sampling_sites_draw_what_randrange_and_choice_drew(G, site, monkeypatch):
    trials, cap = (6, 2) if G.p < 41 else (4, 1)
    want_rng = random.Random(_SITE_SEEDS[site].format(G.name))
    want = _randrange_draws(G, site, want_rng, trials, cap)
    got, got_rng = _run_site(G, site, trials, cap, monkeypatch)
    assert got == want and len(want) >= trials
    assert got_rng.getstate() == want_rng.getstate()


def test_inconclusive_counted_only_when_present():
    rep = Report(group="g", seed=0)
    rep.extend([CheckRecord(check_id="a/b", anchor="a", verdict="pass")])
    assert list(rep.to_dict()["counts"]) == ["pass", "lower-bound-pass", "regime-unmet", "fail"]
    rep.extend([CheckRecord(check_id="a/c", anchor="a", verdict="inconclusive")])
    assert rep.to_dict()["counts"]["inconclusive"] == 1
    assert not rep.failed
    assert "regime-unmet=0 inconclusive=1 fail=0" in emit_text(rep).decode()


@pytest.mark.parametrize("group, status", [("abelian(3,1)", 0), ("abelian(3)", 2)])
def test_python_m_runs_the_cli(monkeypatch, capsys, group, status):
    monkeypatch.setattr(sys, "argv", ["daggerdist", "verify", "--group", group, "--suites", "coeff-bound"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("daggerdist", run_name="__main__")
    assert exc.value.code == status
    captured = capsys.readouterr()
    if status == 0:
        assert json.loads(captured.out)["counts"]["pass"] == 1
    else:
        assert captured.out == "" and captured.err.startswith("daggerdist: error: ")

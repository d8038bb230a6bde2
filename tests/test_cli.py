import functools
import hashlib
import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

from daggerdist import cli
from daggerdist.cli import ALL_SUITES, main, resolve_group, run_suites, suite_convolution, suite_mahler
from daggerdist.distributions import check_banach_submult_N, check_norm_tower, check_submultiplicative
from daggerdist.groups import (
    builtin_abelian,
    builtin_heisenberg,
    check_model_consistency,
    check_pvaluation,
    check_saturation,
    group_to_config,
)
from daggerdist.padic import LogMag
from daggerdist.report import CheckRecord, Report, emit_json, emit_text, render


def test_resolve_group_tags():
    assert resolve_group("heisenberg(3)").name == "heisenberg(3)"
    G = resolve_group("abelian(5,2)")
    assert (G.p, G.d) == (5, 2)


def test_resolve_group_from_config_file(tmp_path):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(group_to_config(builtin_heisenberg(3))))
    assert resolve_group(str(path)).multiply([1, 1, 0], [0, 0, 1]) == (1, 1, 1)


def test_render_normalizes_exact_values():
    assert render(Fraction(1, 3)) == "1/3"
    assert render(LogMag(Fraction(-2, 5))) == "p^-2/5"
    assert render(LogMag.bottom()) == "0"
    assert render({"b": Fraction(1), "a": 2}) == {"a": 2, "b": "1/1"}


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


def test_suites_run_through_the_names_the_benchmark_traces(monkeypatch):
    """Every checker name perfbench/tracing.py rebinds in ``cli`` is what run_suites calls."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert list(tracing.SUITES) == ALL_SUITES
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
    run_suites(G, ALL_SUITES, n_range=[1, 2], sigmas=[Fraction(1, 2)], cap=2, trials=2, seed=1)
    assert sorted(calls) == sorted(names)


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
# into the basis rows of padic.
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
}


@pytest.mark.parametrize("key", sorted(PINNED_REPORTS))
def test_report_bytes_pinned(key, tmp_path):
    options, digest = PINNED_REPORTS[key]
    out = tmp_path / "report.json"
    group = key.split()[0]
    assert main(["verify", "--group", group, *options, "--format", "json", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_inconclusive_counted_only_when_present():
    rep = Report(group="g", seed=0)
    rep.extend([CheckRecord(check_id="a/b", anchor="a", verdict="pass")])
    assert list(rep.to_dict()["counts"]) == ["pass", "lower-bound-pass", "regime-unmet", "fail"]
    rep.extend([CheckRecord(check_id="a/c", anchor="a", verdict="inconclusive")])
    assert rep.to_dict()["counts"]["inconclusive"] == 1
    assert not rep.failed
    assert "regime-unmet=0 inconclusive=1 fail=0" in emit_text(rep).decode()

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from daggerdist import groups as groups_module
from daggerdist.cli import main
from daggerdist.groups import (
    GroupConfigError,
    RootSearchExhausted,
    builtin_abelian,
    builtin_heisenberg,
    check_coefficient_bound,
    check_formal_group_axioms,
    check_model_consistency,
    check_polydisc_bound,
    check_pvaluation,
    check_saturation,
    group_to_config,
    load_group,
    pth_root_mod,
)
from daggerdist.padic import INFINITY, valuation


H3 = builtin_heisenberg(3)


def test_heisenberg_multiply_against_hand_value():
    # (1,1,0) * (0,0,1): F = (1, 1, 0 + 1 - 3 * 0 * 1) = (1, 1, 1)
    assert H3.multiply([1, 1, 0], [0, 0, 1]) == (1, 1, 1)
    # inverse of (1,1,0): (-1, -1, -0 - 3 * 1 * 1) = (-1, -1, -3)
    assert H3.invert([1, 1, 0]) == (-1, -1, -3)
    assert H3.multiply([1, 1, 0], H3.invert([1, 1, 0])) == H3.identity


def test_abelian_builtin_basics():
    G = builtin_abelian(5, 2)
    assert G.multiply([2, 3], [4, 1]) == (6, 4)
    assert G.invert([2, 3]) == (-2, -3)
    assert G.omega == (1, 1)
    assert builtin_abelian(2, 1).omega == (2,)


def test_heisenberg_rejects_p2():
    with pytest.raises(ValueError):
        builtin_heisenberg(2)


@pytest.mark.parametrize("p", [4, 1, 0, -3])
def test_non_prime_p_rejected(p):
    with pytest.raises(GroupConfigError, match="must be a prime"):
        builtin_abelian(p, 1)
    cfg = group_to_config(builtin_abelian(3, 1))
    cfg["p"] = p
    with pytest.raises(GroupConfigError, match="must be a prime"):
        load_group(cfg)


def test_omega_of():
    assert H3.omega_of([0, 0, 0]) == INFINITY
    assert H3.omega_of([3, 0, 0]) == 2
    assert H3.omega_of([3, 1, 9]) == 1
    assert H3.commutator([1, 0, 0], [0, 1, 0]) == (0, 0, 3)


def test_formal_group_axioms_pass():
    for G in (H3, builtin_abelian(2, 2), builtin_heisenberg(5)):
        recs = check_formal_group_axioms(G)
        assert recs and all(r.verdict == "pass" for r in recs)


def _mutated_config():
    """Drop the -p quadratic term from the third group-law polynomial."""
    cfg = group_to_config(builtin_heisenberg(3))
    cfg["F"][2] = [rec for rec in cfg["F"][2] if sum(rec["index"]) == 1]
    cfg["model"] = None
    return cfg


def test_mutated_group_fails_axioms_with_witness():
    G = load_group(_mutated_config())
    recs = check_formal_group_axioms(G)
    failures = [r for r in recs if r.verdict == "fail"]
    assert failures
    for r in failures:
        assert r.witness is not None and "index" in r.witness
    # the surviving additive law is associative; the inverse axiom breaks
    # because I still carries its quadratic term
    failing_ids = {r.check_id for r in failures}
    assert failing_ids <= {"group-axioms/inverse-left", "group-axioms/inverse-right"}


def test_config_roundtrip():
    cfg = group_to_config(H3)
    G2 = load_group(json.dumps(cfg))
    assert G2.F == H3.F and G2.I == H3.I and G2.omega == H3.omega


def test_load_group_reports_violations():
    with pytest.raises(GroupConfigError) as exc:
        load_group({"name": "x", "p": 3})
    assert any("missing field" in v for v in exc.value.violations)
    cfg = group_to_config(H3)
    cfg["omega"] = ["1/3", "1", "1"]  # below 1/(p-1) = 1/2
    with pytest.raises(GroupConfigError) as exc:
        load_group(cfg)
    assert any("must exceed" in v for v in exc.value.violations)


def test_load_group_reads_json_numbers_exactly():
    cfg = group_to_config(H3)
    assert load_group(json.dumps({**cfg, "omega": [1.1, 1, 1]})).omega[0] == Fraction(11, 10)
    for field, value in (("p", 3.5), ("d", 1.5)):
        with pytest.raises(GroupConfigError, match="expected an integer"):
            load_group(json.dumps({**cfg, field: value}))
    for index in ([1.5, 0, 0, 0, 0, 0], [0.5, 0.5, 0, 0, 0, 0]):
        bad = json.loads(json.dumps(cfg))
        bad["F"][0][0]["index"] = index
        with pytest.raises(GroupConfigError, match="expected an integer"):
            load_group(json.dumps(bad))


def test_non_integral_coefficient_rejected():
    cfg = group_to_config(H3)
    cfg["F"][2].append({"index": [1, 0, 0, 1, 0, 0], "coeff": "1/3"})
    with pytest.raises(GroupConfigError) as exc:
        load_group(cfg)
    assert any("not in Z_p" in v for v in exc.value.violations)


def test_model_consistency_all_builtins():
    for G in (H3, builtin_abelian(2, 3), builtin_heisenberg(5)):
        recs = check_model_consistency(G, samples=25, seed=11)
        assert all(r.verdict == "pass" for r in recs)


def test_pvaluation_samples():
    for G in (H3, builtin_abelian(2, 2)):
        recs = check_pvaluation(G, samples=40, seed=5)
        assert len(recs) == 3
        assert all(r.verdict == "pass" for r in recs)


def test_pth_root_known_value():
    # x = (3, 0, 0) has omega = 2 > 3/2; y = (1, 0, 0) is an exact cube root
    y = pth_root_mod(H3, (Fraction(3), Fraction(0), Fraction(0)), precision=6)
    assert y is not None
    assert all((a - b) % 3**6 == 0 for a, b in zip(H3.power(y, 3), (3, 0, 0)))


def test_saturation_check():
    recs = check_saturation(H3, samples=4, seed=3, precision=8)
    assert recs[0].verdict == "pass"
    assert recs[0].details["roots_found"] == 4


def _reference_pth_root_mod(G, x, precision):
    """The depth-first digit search without the linear step, kept as an oracle."""
    p, d = G.p, G.d

    def digit_tuples(d):
        if d == 0:
            yield ()
            return
        for rest in digit_tuples(d - 1):
            for c in range(p):
                yield (c,) + rest

    digits = list(digit_tuples(d))

    def matches(y, k):
        yp = G.power(y, p)
        return all(a - b == 0 or valuation(a - b, p) >= k for a, b in zip(yp, x))

    budget = [20000]

    def extend(y, j):
        if j >= precision:
            return y if matches(y, precision) else None
        target = min(j + 2, precision)
        scale = Fraction(p**j)
        for e in digits:
            budget[0] -= 1
            if budget[0] <= 0:
                return None
            cand = tuple(c + scale * ei for c, ei in zip(y, e))
            if matches(cand, target):
                found = extend(cand, j + 1)
                if found is not None:
                    return found
        return None

    return extend(G.identity, 0)


@pytest.mark.parametrize(
    "G",
    [H3, builtin_heisenberg(5), builtin_heisenberg(7), builtin_abelian(3, 2), builtin_abelian(5, 3)],
    ids=lambda G: G.name,
)
def test_pth_root_matches_reference_search(G):
    precision = 8
    rng = random.Random(f"roots:{G.name}")
    for _ in range(15):
        # the sampling of check_saturation: omega(x) = 1 + min v(x_i) >= 2 > p/(p-1)
        x = tuple(G.p * rng.randrange(G.p ** (precision - 1)) for _ in range(G.d))
        y = pth_root_mod(G, x, precision)
        assert y is not None and y == _reference_pth_root_mod(G, x, precision)
        assert all((a - b) % G.p**precision == 0 for a, b in zip(G.power(y, G.p), x))


def test_pth_root_stall_is_none():
    # every cube in heisenberg(3) is 0 mod 3, so no digit reaches (1, 0, 0)
    assert pth_root_mod(H3, (1, 0, 0), 3) is None


def test_pth_root_budget_is_not_a_stall():
    # no digit works, but 13^4 = 28,561 candidates at the first level exceed the budget
    with pytest.raises(RootSearchExhausted):
        pth_root_mod(builtin_abelian(13, 4), (1, 0, 0, 0), 2)


def test_saturation_abelian_13_4_passes():
    recs = check_saturation(builtin_abelian(13, 4), samples=3, precision=4)
    assert recs[0].verdict == "pass"
    assert recs[0].details["roots_found"] == 3


def _exhausted(G, x, precision):
    raise RootSearchExhausted("budget spent")


@pytest.mark.parametrize(
    "root, verdict, witness_key, exit_status",
    [
        (lambda G, x, precision: x, "pass", None, 0),
        (lambda G, x, precision: None, "fail", "stalled", 1),
        (_exhausted, "inconclusive", "budget_spent", 0),
    ],
    ids=["root", "stall", "budget"],
)
def test_saturation_maps_root_search_results(monkeypatch, tmp_path, root, verdict, witness_key, exit_status):
    monkeypatch.setattr(groups_module, "pth_root_mod", root)
    rec = check_saturation(H3, samples=3, seed=1, precision=4)[0]
    assert rec.verdict == verdict
    if witness_key is None:
        assert rec.witness is None
    else:
        assert list(rec.witness) == [witness_key] and len(rec.witness[witness_key]) == 3
    out = tmp_path / "report.json"
    args = ["verify", "--group", "heisenberg(3)", "--suites", "saturation", "--trials", "30"]
    assert main(args + ["--out", str(out)]) == exit_status
    counts = json.loads(out.read_text())["counts"]
    assert counts[verdict] == 1
    assert ("inconclusive" in counts) == (verdict == "inconclusive")


def _coordinates():
    """ints, Fractions with denominator 1, and real fractions, some with 3 in the denominator."""
    return st.one_of(
        st.integers(-(10**6), 10**6),
        st.integers(-(10**6), 10**6).map(Fraction),
        st.builds(Fraction, st.integers(-(10**6), 10**6), st.sampled_from([2, 3, 4, 5, 7, 9, 25])),
    )


@settings(max_examples=200, deadline=None)
@given(x=st.tuples(_coordinates(), _coordinates(), _coordinates()))
def test_check_point_keeps_integers_and_rejects_non_integral(x):
    if any(Fraction(c).denominator % 3 == 0 for c in x):
        with pytest.raises(ValueError, match="not a p-adic integer"):
            H3.check_point(x)
        return
    out = H3.check_point(x)
    assert out == x
    for c in out:
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction)


def test_check_point_fraction_cases():
    with pytest.raises(ValueError):
        H3.check_point((Fraction(1, 3), 0, 0))
    c = H3.check_point((Fraction(1, 2), Fraction(4, 1), 5))
    assert c == (Fraction(1, 2), 4, 5) and type(c[0]) is Fraction and type(c[1]) is int


@settings(max_examples=100, deadline=None)
@given(
    group=st.sampled_from([H3, builtin_heisenberg(5), builtin_abelian(2, 3)]),
    data=st.data(),
)
def test_multiply_and_invert_agree_on_int_and_fraction_points(group, data):
    coords = st.lists(st.integers(-(10**9), 10**9), min_size=group.d, max_size=group.d)
    x, y = data.draw(coords), data.draw(coords)
    fx, fy = [Fraction(c) for c in x], [Fraction(c) for c in y]
    prod, inv = group.multiply(x, y), group.invert(x)
    assert prod == group.multiply(fx, fy) == group.multiply(fx, y)
    assert inv == group.invert(fx)
    assert all(type(c) is int for c in prod + inv)


def test_coefficient_bound_builtin():
    for G in (H3, builtin_abelian(2, 2), builtin_heisenberg(5)):
        recs = check_coefficient_bound(G)
        assert all(r.verdict == "pass" for r in recs)


def test_coefficient_bound_catches_unit_coefficient():
    # replace -p by -1 in the quadratic term: v = 0 < 1/2 required
    cfg = group_to_config(builtin_heisenberg(3))
    for rec in cfg["F"][2]:
        if sum(rec["index"]) == 2:
            rec["coeff"] = "-1/1"
    for rec in cfg["I"][2]:
        if sum(rec["index"]) == 2:
            rec["coeff"] = "-1/1"
    cfg["model"] = None
    G = load_group(cfg)
    recs = check_coefficient_bound(G)
    assert recs[0].verdict == "fail"
    assert recs[0].witness["violations"]


def test_polydisc_bound_levels():
    for G in (H3, builtin_abelian(2, 2)):
        for N in (1, 3, 8):
            recs = check_polydisc_bound(G, N)
            assert all(r.verdict == "pass" for r in recs)


def test_neighborhood_params():
    params = H3.neighborhood_params(1)
    assert params.tau == (Fraction(1, 4),) * 3
    assert params.rho == (Fraction(1, 4),) * 6
    assert builtin_abelian(2, 1).neighborhood_params(3).tau == (Fraction(1, 4),)

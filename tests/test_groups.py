import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from daggerdist import groups as groups_module
from daggerdist.cli import main
from daggerdist.groups import (
    GroupConfigError,
    NeighborhoodParams,
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
from daggerdist.padic import INFINITY, LogMag, format_fraction, valuation
from daggerdist.report import record
from test_distributions import H_HALF


H3 = builtin_heisenberg(3)


def _commutator(G, x, y):
    """[x, y] = x^-1 y^-1 x y through multiply and invert, nested from the left."""
    return G.multiply(G.multiply(G.multiply(G.invert(x), G.invert(y)), x), y)


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


@pytest.mark.parametrize("fn", ["omega_num", "omega_of"])
def test_public_omega_still_checks_the_point(fn):
    omega = getattr(H3, fn)
    with pytest.raises(ValueError, match="coordinates"):
        omega([3, 0])
    with pytest.raises(ValueError, match="not a p-adic integer"):
        omega([Fraction(1, 3), 0, 0])
    assert omega([Fraction(3), Fraction(2, 5), 0]) == omega([3, Fraction(2, 5), 0])


def test_omega_of():
    assert H3.omega_of([0, 0, 0]) == INFINITY
    assert H3.omega_of([3, 0, 0]) == 2
    assert H3.omega_of([3, 1, 9]) == 1
    assert H3.omega_num([0, 0, 0]) is INFINITY
    assert (H3.omega_num([3, 0, 0]), H3.omega_num([3, 1, 9])) == (2, 1)
    # omegas 5/4, 1, 3/4 over the common denominator 4
    G = _shifted_omega(builtin_heisenberg(5), [Fraction(5, 4), 1, Fraction(3, 4)])
    assert (G.omega_num([0, 5, 1]), G.omega_num([1, 0, 25]), G.omega_num([0, 25, 0])) == (3, 5, 12)
    assert G.omega_of([0, 5, 1]) == Fraction(3, 4)
    assert _commutator(H3, [1, 0, 0], [0, 1, 0]) == (0, 0, 3)


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


def test_load_group_rejects_json_booleans():
    cfg = group_to_config(H3)
    bad_f = json.loads(json.dumps(cfg))
    bad_f["F"][0][0]["index"] = [True, 0, 0, 0, 0, 0]
    bad_coeff = json.loads(json.dumps(cfg))
    bad_coeff["F"][0][0]["coeff"] = True
    for bad in ({**cfg, "p": True}, {**cfg, "d": True}, {**cfg, "omega": [True, 1, 1]}, bad_f, bad_coeff):
        with pytest.raises(GroupConfigError, match="boolean"):
            load_group(json.dumps(bad))


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda F: F[0].append(dict(F[0][0])), "is repeated"),
        (lambda F: F[0][0].update(index="000100"), "is not a list"),
    ],
    ids=["repeated-index", "string-index"],
)
def test_load_group_rejects_bad_index_records(mutate, message):
    cfg = group_to_config(H3)
    mutate(cfg["F"])
    with pytest.raises(GroupConfigError, match=message):
        load_group(json.dumps(cfg))


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


def _shifted_omega(G, omega):
    """G with its law and inverse kept and its omega values replaced."""
    return groups_module.PValuedGroup(G.name, G.p, G.d, omega, G.F, G.I, G.model)


def _fraction_check_pvaluation(G, samples, seed, precision=12):
    """check_pvaluation before the integer comparison: omega as Fractions, + 1 for the p-th power."""
    rng = random.Random(f"{seed}:pval:{G.name}")
    pts = groups_module.sample_points(G, rng, 2 * samples, precision)
    bad = {"quotient": [], "commutator": [], "power": []}
    for k in range(samples):
        x, y = pts[2 * k], pts[2 * k + 1]
        wx, wy = _reference_omega_of(G, x), _reference_omega_of(G, y)
        if _reference_omega_of(G, G.multiply(x, G.invert(y))) < min(wx, wy):
            bad["quotient"].append([format_fraction(c) for c in x + y])
        if wx is not INFINITY and wy is not INFINITY:
            if _reference_omega_of(G, _commutator(G, x, y)) < wx + wy:
                bad["commutator"].append([format_fraction(v) for v in x + y])
        if wx is not INFINITY and _reference_omega_of(G, G.power(x, G.p)) != wx + 1:
            bad["power"].append([format_fraction(v) for v in x])
    anchors = {
        "quotient": "omega(x y^-1) >= min(omega(x), omega(y)) on samples",
        "commutator": "omega([x, y]) >= omega(x) + omega(y) on samples",
        "power": "omega(x^p) = omega(x) + 1 on samples",
    }
    params = {"group": G.name, "samples": samples, "seed": seed, "precision": precision}
    return [record(f"pvaluation/{name}", anchor, params, bad[name]) for name, anchor in anchors.items()]


def _group_id(G):
    return f"{G.name}-omega={','.join(map(str, G.omega))}"


_H5 = builtin_heisenberg(5)
# heisenberg(5) with one omega one step (1/4) too high or too low: omega is then no p-valuation
_H5_OFF_BY_A_STEP = [
    _shifted_omega(_H5, [Fraction(5, 4), 1, 1]),
    _shifted_omega(_H5, [1, 1, Fraction(3, 4)]),
]


@pytest.mark.parametrize(
    "G", [H3, _H5, builtin_abelian(2, 3), builtin_abelian(3, 2), H_HALF, *_H5_OFF_BY_A_STEP], ids=_group_id
)
def test_check_pvaluation_matches_the_fraction_loop(G):
    for seed in (0, 7):
        assert check_pvaluation(G, samples=60, seed=seed) == _fraction_check_pvaluation(G, samples=60, seed=seed)


@pytest.mark.parametrize("G", _H5_OFF_BY_A_STEP, ids=_group_id)
def test_pvaluation_fails_on_an_omega_off_by_one_step(G):
    records = {rec.check_id: rec for rec in check_pvaluation(G, samples=40, seed=7)}
    rec = records["pvaluation/commutator"]
    assert rec.verdict == "fail"
    assert rec.witness["violations"]
    for pair in rec.witness["violations"]:
        x, y = [Fraction(c) for c in pair[:3]], [Fraction(c) for c in pair[3:]]
        assert _reference_omega_of(G, _commutator(G, x, y)) < _reference_omega_of(G, x) + _reference_omega_of(G, y)
    assert check_pvaluation(_H5, samples=40, seed=7)[1].verdict == "pass"


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


# -- compiled kernels against the term walk they replaced --------------------


def _evaluate_terms(f, xs):
    """TruncatedSeries.evaluate before kernels: a walk over the terms, all Fractions unless all ints."""
    total = 0
    if any(type(x) is not int for x in xs):
        xs = [Fraction(x) for x in xs]
        total = Fraction(0)
    for idx, c in f.terms.items():
        c = c.numerator if c.denominator == 1 else c
        for x, k in zip(xs, idx):
            if k:
                c *= x**k
        total += c
    return total


def _reference_multiply(G, x, y):
    return tuple(_evaluate_terms(f, G.check_point(x) + G.check_point(y)) for f in G.F)


def _reference_invert(G, x):
    return tuple(_evaluate_terms(g, G.check_point(x)) for g in G.I)


def _reference_power(G, x, n):
    if n < 0:
        return _reference_power(G, _reference_invert(G, x), -n)
    out = G.identity
    for _ in range(n):
        out = _reference_multiply(G, out, x)
    return out


def _reference_omega_of(G, x):
    """omega_of before the integer comparison: one Fraction addition per coordinate."""
    best = INFINITY
    for w, c in zip(G.omega, G.check_point(x)):
        val = valuation(c, G.p)
        if val is INFINITY:
            continue
        cand = w + val
        if best is INFINITY or cand < best:
            best = cand
    return best


def _p_integral(p):
    """ints (some deep in the filtration), Fractions with denominator 1, and fractions prime to p."""
    ints = st.integers(-(10**6), 10**6)
    return st.one_of(
        ints,
        ints.map(lambda k: k * p**4),
        ints.map(Fraction),
        st.builds(Fraction, ints, st.sampled_from([q for q in (2, 3, 4, 5, 7, 9, 25) if q % p])),
    )


@settings(max_examples=300, deadline=None)
@given(group=st.sampled_from([H3, builtin_heisenberg(5), builtin_abelian(2, 3), H_HALF]), data=st.data())
def test_group_operations_match_the_term_walk(group, data):
    point = st.tuples(*[_p_integral(group.p)] * group.d)
    x, y = data.draw(point), data.draw(point)
    n = data.draw(st.integers(-2, group.p + 1))
    integral_law = all(c.denominator == 1 for f in group.F + group.I for c in f.terms.values())
    integral_x = integral_law and all(Fraction(c).denominator == 1 for c in x)
    integral_xy = integral_x and all(Fraction(c).denominator == 1 for c in y)
    cases = [
        (group.multiply(x, y), _reference_multiply(group, x, y), integral_xy),
        (group.invert(x), _reference_invert(group, x), integral_x),
        (group.power(x, n), _reference_power(group, x, n), integral_x or n == 0),
    ]
    for got, expect, integral in cases:
        # outputs are all ints exactly when the point and the law are integral, else all Fractions
        assert got == expect
        assert {type(c) for c in got} == {int if integral else Fraction}
    for z in (x, y, group.identity):
        omega = group.omega_of(z)
        assert omega == _reference_omega_of(group, z) and type(omega) is type(_reference_omega_of(group, z))
        num = group.omega_num(z)
        assert num is INFINITY if omega is INFINITY else (type(num) is int and num == omega * group._omega_den)
    assert group.omega_of(group.identity) is INFINITY


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


def test_polydisc_bound_catches_a_unit_quadratic_term_in_the_inverse():
    # -p Z1 Z2 in I3 replaced by -Z1 Z2: its Gauss norm at tau = 1/4 is p^(1/2) > p^(1/4)
    cfg = group_to_config(builtin_heisenberg(3))
    for rec in cfg["I"][2]:
        if sum(rec["index"]) == 2:
            rec["coeff"] = "-1/1"
    cfg["model"] = None
    G = load_group(cfg)
    recs = check_polydisc_bound(G, 1)
    assert recs[0].check_id == "polydisc/gauss-bound" and recs[0].verdict == "fail"
    (violation,) = recs[0].witness["violations"]
    assert violation["poly"] == "I3"
    assert (violation["norm"], violation["bound"]) == (LogMag(Fraction(1, 2)), LogMag(Fraction(1, 4)))
    assert all(r.verdict == "pass" for r in check_polydisc_bound(H3, 1))


def _randrange_points(G, rng, count, precision):
    """sample_points as first written: one rng.randrange call per coordinate."""
    bound = G.p**precision
    return [tuple(rng.randrange(bound) for _ in range(G.d)) for _ in range(count)]


@pytest.mark.parametrize(
    "G, precision",
    [
        (H3, 12),
        (builtin_heisenberg(5), 12),
        (builtin_heisenberg(7), 12),  # 7^12 > 2^32: one draw at a time
        (H3, 2),  # 9 = 2^3 + 1: nearly half the words rejected
        (builtin_abelian(2, 2), 5),  # 2^5 has 6 bits: half the words rejected
        (builtin_abelian(2, 2), 31),  # 2^31 has 32 bits: a whole word per draw
        (builtin_abelian(2, 3), 32),  # 2^32 has 33 bits: one draw at a time
        (builtin_abelian(3, 1), 0),  # the bound 1
    ],
    ids=lambda v: getattr(v, "name", v),
)
@pytest.mark.parametrize("seed", [0, 7, "11:pval:heisenberg(5)"])
def test_sample_points_draws_what_randrange_drew(G, precision, seed):
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    for count in (0, 1, 200):
        points = groups_module.sample_points(G, rng, count, precision)
        assert points == _randrange_points(G, oracle_rng, count, precision)
        assert rng.getstate() == oracle_rng.getstate()


@given(seed=st.integers(0, 2**32), bound=st.one_of(st.integers(1, 2**40), st.sampled_from([1, 2, 2**32, 2**32 + 1])))
def test_randbelow_draws_what_randrange_drew(seed, bound):
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    assert [groups_module.randbelow(rng, bound) for _ in range(20)] == [oracle_rng.randrange(bound) for _ in range(20)]
    assert rng.getstate() == oracle_rng.getstate()


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
    assert len(params.tau) == 3
    assert builtin_heisenberg(3).neighborhood_params(1) == params == NeighborhoodParams(1, params.tau, params.rho)
    with pytest.raises(AttributeError):
        params.N = 2


def test_neighborhood_params_built_once_per_level():
    G = builtin_heisenberg(3)
    with pytest.raises(ValueError):
        G.neighborhood_params(0)
    assert not G._plans
    first = G.neighborhood_params(2)
    assert G.neighborhood_params(2) is first and first.tau == (Fraction(1, 6),) * 3
    assert G.neighborhood_params(3).tau == (Fraction(1, 8),) * 3
    assert len(G._plans) == 2

import json
from fractions import Fraction

import pytest

from daggerdist.groups import (
    GroupConfigError,
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
from daggerdist.padic import INFINITY


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

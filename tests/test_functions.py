import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from daggerdist.distributions import Distribution, convolve
from daggerdist.functions import DaggerFunction, pair
from daggerdist.groups import builtin_abelian, builtin_heisenberg
from daggerdist.mahler import taylor_to_mahler
from daggerdist.series import DimensionMismatch, TruncatedSeries

H3 = builtin_heisenberg(3)


def f_example():
    # f(z) = z1 * z3 + 2 * z2
    return DaggerFunction(
        H3, TruncatedSeries(3, 2, {(1, 0, 1): 1, (0, 1, 0): 2})
    )


def test_eval_at():
    f = f_example()
    assert f.eval_at([3, 6, 9]) == 27 + 12


def test_dimension_checked():
    with pytest.raises(DimensionMismatch):
        DaggerFunction(H3, TruncatedSeries(2, 2, {(1, 0): 1}))


def test_comul_evaluates_to_product():
    f = f_example()
    two = f.comul()
    rng = random.Random(4)
    for _ in range(10):
        x = [Fraction(3 * rng.randrange(27)) for _ in range(3)]
        y = [Fraction(3 * rng.randrange(27)) for _ in range(3)]
        assert two.evaluate(x + y) == f.eval_at(H3.multiply(x, y))


def test_comul_counit():
    f = f_example()
    two = f.comul()
    # setting the second block to the identity recovers f
    restricted = two.partial_evaluate({3: 0, 4: 0, 5: 0})
    assert restricted == f.body.with_cap(restricted.cap)


def test_inv_pullback():
    f = f_example()
    g = f.inv_pullback()
    for x in ([1, 1, 0], [3, 0, 9], [0, 2, 5]):
        assert g.eval_at(x) == f.eval_at(H3.invert(x))
    # pulling back twice along an involutive-free inversion still composes to id
    assert g.inv_pullback().eval_at([1, 2, 3]) == f.eval_at([1, 2, 3])


def test_right_translate_values_and_composition():
    f = f_example()
    h1 = (Fraction(1), Fraction(2), Fraction(0))
    h2 = (Fraction(0), Fraction(1), Fraction(3))
    r1 = f.right_translate(h1)
    for x in ([0, 0, 0], [1, 0, 2], [2, 2, 2]):
        assert r1.eval_at(x) == f.eval_at(H3.multiply(x, h1))
    # R_{h2}(R_{h1} f) = R_{h2 h1} f
    lhs = r1.right_translate(h2)
    rhs = f.right_translate(H3.multiply(h2, h1))
    assert lhs.body == rhs.body


def test_pair_dirac_is_evaluation():
    f = f_example()
    for x in ([3, 6, 9], [1, 1, 1]):
        lam = Distribution.dirac(H3, x, 4)
        assert pair(lam, f) == f.eval_at(x)


def test_pair_convolution_vs_comul():
    # (lam * mu)(f) agrees with evaluating f at the product of the two points
    f = f_example()
    x, y = [3, 0, 6], [0, 9, 3]
    conv = convolve(H3, Distribution.dirac(H3, x, 4), Distribution.dirac(H3, y, 4), cap_out=4)
    assert pair(conv, f) == f.eval_at(H3.multiply(x, y))


def test_monomial_and_arithmetic():
    G = builtin_abelian(5, 2)
    f = DaggerFunction.monomial(G, (2, 0), 3) + DaggerFunction.coordinate(G, 1)
    g = f * DaggerFunction.coordinate(G, 0)
    assert g.eval_at([2, 7]) == (3 * 4 + 7) * 2
    assert f.scale(Fraction(1, 5)).eval_at([5, 0]) == 15


@st.composite
def _pairing_cases(draw):
    """A Dirac or a basis combination at cap >= deg f, and a polynomial f on the same chart."""
    G = draw(st.sampled_from([H3, builtin_abelian(5, 2), builtin_abelian(2, 3)]))
    deg = draw(st.integers(0, 4))
    cap = draw(st.integers(deg, deg + 2))

    def indices(top):
        index = st.lists(st.integers(0, top), min_size=G.d, max_size=G.d).map(tuple)
        return index.filter(lambda i: sum(i) <= top)

    coeff = st.builds(Fraction, st.integers(-(G.p**3), G.p**3), st.sampled_from([1, G.p, G.p**2]))
    f = DaggerFunction(G, TruncatedSeries(G.d, deg, draw(st.dictionaries(indices(deg), coeff, max_size=4))))
    if draw(st.booleans()):
        x = draw(st.lists(st.integers(-(G.p**4), G.p**4), min_size=G.d, max_size=G.d))
        return Distribution.dirac(G, x, cap), f
    return Distribution.from_dcoeffs(G, draw(st.dictionaries(indices(cap), coeff, max_size=4)), cap), f


@settings(max_examples=120, deadline=None)
@given(case=_pairing_cases())
def test_pairing_is_the_mahler_coefficients_against_the_basis_coefficients(case):
    # <lam, f> = sum_alpha m_alpha(f) d_alpha(lam): the two basis changes are transposes
    lam, f = case
    dcoeffs = lam.ensure_dcoeffs()
    m = taylor_to_mahler(f.body).coeffs
    assert pair(lam, f) == sum((c * dcoeffs.get(alpha, 0) for alpha, c in m.items()), Fraction(0))

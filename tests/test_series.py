"""The series kernels against naive references.

`powers` is checked against square-and-multiply (`poly.power`),
`compose_univariate` against sum_k f_k g^k with every power computed that
way, `reversion` by f(g) = x and g(f) = x under that naive composition,
and `multiplicative_inverse` by f * (1/f) = 1 on a bivariate series.
Inputs are seeded random series over a small graded
ring (generators of degree 1 and 2, truncated at degree 4), with int or
Fraction coefficients, sparse outer series with gaps, and univariate or
bivariate inner series.  `mon_mul`, the monomial product under them, is
checked against the dict-and-sort product on seeded random monomials.
"""

import random
from fractions import Fraction

import pytest

from stemcharts.hopf import build_p_typical
from stemcharts.poly import Poly, PolyRing, mon_mul, power
from stemcharts.series import (Series, compose_univariate, multiplicative_inverse,
                               powers, reversion)

RING = PolyRing(["a", "b"], [1, 2], 4)
MONOMIALS = [m for d in range(RING.bound + 1) for m in RING.monomials_of_degree(d)]


def random_poly(rng: random.Random, fractions: bool) -> Poly:
    terms = {}
    for m in rng.sample(MONOMIALS, rng.randint(1, 3)):
        c = rng.randint(-3, 3)
        if fractions:
            c = Fraction(c, rng.randint(1, 4))
        if c:
            terms[m] = c
    return Poly(RING, terms)


def random_series(rng, nvars, order, fractions, density=0.6, lowest=1):
    """No constant term; each exponent of total degree lowest..order is
    present with probability `density`."""
    terms = {}
    for e in _exponents(nvars, order):
        if sum(e) >= lowest and rng.random() < density:
            terms[e] = random_poly(rng, fractions)
    return Series(RING, nvars, order, terms)


def _exponents(nvars, order):
    if nvars == 0:
        return [()]
    return [e + (k,) for e in _exponents(nvars - 1, order)
            for k in range(order + 1) if sum(e) + k <= order]


def naive_power(g: Series, k: int) -> Series:
    """g^k by square-and-multiply, independent of the `powers` table."""
    one = Series(g.ring, g.nvars, g.order, {(0,) * g.nvars: g.ring.one()})
    return power(g, k, one, Series.__mul__)


def naive_compose(f: Series, g: Series) -> Series:
    out = Series.zero(g.ring, g.nvars, g.order)
    for (k,), c in f.terms.items():
        out = out + Series(g.ring, g.nvars, g.order,
                           {e: q * c for e, q in naive_power(g, k).terms.items()})
    return out


def x_series(order: int) -> Series:
    return Series.variable(RING, 1, order, 0)


CASES = [(order, nvars, fractions)
         for order in range(1, 13) for nvars in (1, 2) for fractions in (False, True)]


@pytest.mark.parametrize("order,nvars,fractions", CASES)
def test_compose_matches_naive(order, nvars, fractions):
    rng = random.Random(1000 * order + 10 * nvars + fractions)
    # outer series sparse, with gaps, and reaching past the inner order
    f = random_series(rng, 1, order + 2, fractions, density=0.5)
    g = random_series(rng, nvars, order, fractions)
    assert compose_univariate(f, g) == naive_compose(f, g)


@pytest.mark.parametrize("order,nvars,fractions", CASES)
def test_powers_match_square_and_multiply(order, nvars, fractions):
    rng = random.Random(1000 * order + 10 * nvars + fractions + 5)
    g = random_series(rng, nvars, order, fractions)
    table = powers(g, order)
    assert len(table) == order
    for k, gk in enumerate(table, 1):
        assert gk == naive_power(g, k)
    assert powers(g, 0) == []


@pytest.mark.parametrize("order", range(1, 9))
def test_multiplicative_inverse_of_bivariate_series(order):
    # 2 + x - 3a xy + y^2: a constant unit 2 and a Poly coefficient
    f = Series(RING, 2, order, {(0, 0): RING.one().scale(2), (1, 0): RING.one(),
                                (1, 1): RING.gen(0).scale(-3), (0, 2): RING.one()})
    one = Series(RING, 2, order, {(0, 0): RING.one()})
    assert f * multiplicative_inverse(f) == one


def test_multiplicative_inverse_rejects_non_scalar_constant():
    f = Series(RING, 1, 4, {(0,): RING.gen(0), (1,): RING.one()})
    with pytest.raises(ValueError, match="scalar unit"):
        multiplicative_inverse(f)


@pytest.mark.parametrize("order", range(1, 13))
@pytest.mark.parametrize("fractions", [False, True])
def test_reversion_is_two_sided_inverse(order, fractions):
    rng = random.Random(7 * order + fractions)
    f = random_series(rng, 1, order, fractions, density=0.7, lowest=2)
    f = f + x_series(order)
    g = reversion(f)
    assert g.coefficient((1,)) == RING.one()
    assert naive_compose(f, g) == x_series(order)
    assert naive_compose(g, f) == x_series(order)


def test_reversion_of_sparse_series():
    # f = x + x^3 + x^7: only odd powers, so the inverse has only odd powers
    one = RING.one()
    f = Series(RING, 1, 11, {(1,): one, (3,): one, (7,): one})
    g = reversion(f)
    assert all(n % 2 for (n,) in g.terms)
    assert naive_compose(f, g) == x_series(11)


def test_reversion_rejects_non_unit_leading_coefficient():
    f = Series(RING, 1, 5, {(1,): RING.one().scale(2), (2,): RING.one()})
    with pytest.raises(ValueError, match="leading coefficient 1"):
        reversion(f)
    f = Series(RING, 1, 5, {(1,): RING.gen(0)})
    with pytest.raises(ValueError, match="leading coefficient 1"):
        reversion(f)


def test_reversion_rejects_multivariate_series():
    with pytest.raises(ValueError, match="univariate"):
        reversion(Series.variable(RING, 2, 4, 0))


def test_compose_rejects_constant_term():
    f = x_series(4)
    g = x_series(4) + Series(RING, 1, 4, {(0,): RING.one()})
    with pytest.raises(ValueError, match="zero constant term"):
        compose_univariate(f, g)


def test_compose_rejects_multivariate_outer_series():
    with pytest.raises(ValueError, match="outer series must be univariate"):
        compose_univariate(Series.variable(RING, 2, 4, 0), x_series(4))


def test_powers_reject_negative_exponents():
    # one square-and-multiply serves Poly and the algebroid tensors
    alg = build_p_typical(3, 4)
    t1 = {((), (((0, 1),),)): 1}
    for pw in (RING.gen(0).pow, lambda n: alg.tensor_pow(t1, n, 1)):
        with pytest.raises(ValueError, match="negative power"):
            pw(-1)


def test_mon_mul_matches_dict_reference():
    def reference(a, b):
        out = dict(a)
        for g, e in b:
            out[g] = out.get(g, 0) + e
        return tuple(sorted(out.items()))

    rng = random.Random(0)

    def monomial():
        gens = rng.sample(range(8), rng.randint(0, 5))
        return tuple(sorted((g, rng.randint(1, 4)) for g in gens))

    x, y = ((0, 1), (2, 3)), ((1, 2), (4, 1))
    cases = [((), ()), ((), x), (x, ()), (x, y), (y, x), (x, x),
             (x, ((2, 1), (5, 2)))]
    for _ in range(500):
        a = monomial()
        cases += [(a, monomial()), (a, a)]
    for a, b in cases:
        assert mon_mul(a, b) == reference(a, b)

"""Golden guard for the series layer's outputs at bound 10.

`test_lazard_golden.py` pins eta_R and Delta.  This file pins what the
series kernels compute beyond them: the antipode on the Gamma generators
(the universal one is the compositional inverse of b(x), computed by
`reversion`; the p-typical ones are solved degree by degree), and the
universal law's exponential and F = exp(log x + log y), and the formal
inverse i(x) of the universal law on the integral Lazard generators at
bounds 6 and 10 (the digests were recorded from the solver that evaluated
the whole F(x, i(x)) once per degree).  The coefficients enter the digests
through repr, so an int turning into an equal Fraction changes them too.

The p-typical antipodes at (p, bound) = (2, 15), (3, 26) and (5, 24), the
first bounds that reach v_4, v_3 and v_2, and i(x) of the 2-typical
multiplicative law at bound 10 were recorded from the power-table solvers
that `build_p_typical` and `fgl_inverse` used before.  That i(x) is hashed
on Fraction values: its integer coefficients were Fraction(n, 1) then and
are int now.
"""

import hashlib

import pytest

from fractions import Fraction

from stemcharts.fgl import (fgl_inverse, multiplicative_fgl, p_typical_reduction,
                            universal_fgl)
from stemcharts.hopf import build_p_typical, build_universal

ANTIPODE_DIGESTS = {
    "universal": "a36e83a76fcc1a31956398f5e9473a13356bc6ea69b254bfe992c17852251d38",
    2: "bc40085c5ae313a44d5455fbc34cb1e0707c6252d343d75de4c9e2b274ff0706",
    3: "044999a9fcdf2967694ce9a9762ae6355bf6d6e36006d81c959933cdcbd4948e",
    5: "9c7ea8ac618400e0bb7f6464761eb28837cda8161cc5c04719eaa807c385cb7e",
}
EXP_DIGEST = "091843b88ace77be91d12957f4ff59933566a2ed3d74292d230cf890a6680746"
F_DIGEST = "5299ec5465014e8ca01253dec9a57181cfe44753cfe5444cd372bd5b2c443604"
INVERSE_DIGESTS = {
    6: "3c8da455e484e86a8b5e558c8af6cb5037fabc8f4e58b11a7383137b947580be",
    10: "3aadb1e662af4669abf4b5f7f81b0ec66733e7fcbf48ff2c094cd76ac03f8950",
}
DEEP_ANTIPODE_DIGESTS = {
    (2, 15): "61e48c84ce04277cabfdee59b61ff9c9a26d316995e5433c8d245a8b126f3786",
    (3, 26): "7c5f34bf948f772217988b88f307e8b31e9603ea50c31302c8ddc6fa379f3ffa",
    (5, 24): "e3b2ef218d49819995d61e14dfa0299e0e7596a84be59746bea6a981cd953adf",
}
P_TYPICAL_INVERSE_DIGEST = (
    "91d03f640025dbc63bce008c683cf420d82ce63d7e76db1fe9aaf3366e673915")


def antipode_digest(alg) -> str:
    """sha256 over the antipode on the generators, in sorted key order."""
    h = hashlib.sha256()
    for g in sorted(alg.antipode_gen):
        elem = alg.antipode_gen[g]
        for key in sorted(elem):
            h.update(f"{g} {key!r} {elem[key]!r}\n".encode())
    return h.hexdigest()


def series_digest(s, value=repr) -> str:
    """sha256 over a series' terms, in sorted exponent and monomial order."""
    h = hashlib.sha256()
    for e in sorted(s.terms):
        poly = s.terms[e]
        for m in sorted(poly.terms):
            h.update(f"{e!r} {m!r} {value(poly.terms[m])}\n".encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def universal10():
    return build_universal(10)


def test_universal_antipode_bound_10(universal10):
    assert antipode_digest(universal10) == ANTIPODE_DIGESTS["universal"]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_p_typical_antipode_bound_10(p):
    assert antipode_digest(build_p_typical(p, 10)) == ANTIPODE_DIGESTS[p]


def test_universal_exp_bound_10(universal10):
    assert series_digest(universal10._universal_model.exp) == EXP_DIGEST


def test_universal_formal_sum_bound_10(universal10):
    assert series_digest(universal10._universal_model.F) == F_DIGEST


@pytest.mark.parametrize("bound", [6, 10])
def test_universal_inverse(bound):
    _, law = universal_fgl(bound)
    assert series_digest(fgl_inverse(law)) == INVERSE_DIGESTS[bound]


@pytest.mark.parametrize("p,bound", sorted(DEEP_ANTIPODE_DIGESTS))
def test_p_typical_antipode_deep(p, bound):
    assert antipode_digest(build_p_typical(p, bound)) == DEEP_ANTIPODE_DIGESTS[p, bound]


def test_p_typical_multiplicative_inverse():
    _, law = p_typical_reduction(multiplicative_fgl(10), 2, 10)
    inverse = fgl_inverse(law)
    assert series_digest(inverse, Fraction) == P_TYPICAL_INVERSE_DIGEST

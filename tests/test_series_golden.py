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
"""

import hashlib

import pytest

from stemcharts.fgl import fgl_series, universal_fgl
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


def antipode_digest(alg) -> str:
    """sha256 over the antipode on the generators, in sorted key order."""
    h = hashlib.sha256()
    for g in sorted(alg.antipode_gen):
        elem = alg.antipode_gen[g]
        for key in sorted(elem):
            h.update(f"{g} {key!r} {elem[key]!r}\n".encode())
    return h.hexdigest()


def series_digest(s) -> str:
    """sha256 over a series' terms, in sorted exponent and monomial order."""
    h = hashlib.sha256()
    for e in sorted(s.terms):
        poly = s.terms[e]
        for m in sorted(poly.terms):
            h.update(f"{e!r} {m!r} {poly.terms[m]!r}\n".encode())
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
    assert series_digest(fgl_series(law, "inverse")) == INVERSE_DIGESTS[bound]

"""Golden guard for the Lazard lattice: integral generators and the
universal Hopf algebroid at bound 10, pinned byte for byte, and eta_R and
Delta of the p-typical algebroids at bound 10 for p = 2, 3, 5.

The universal values were recorded from the Fraction Gauss-Jordan
implementation of the lattice step; any rewrite of that step must
reproduce them exactly.  The p-typical digests were recorded before the
sparse tensors of `hopf` were accumulated in place; those at (p, bound) =
(2, 15), (3, 26) and (5, 24), the first bounds that reach v_4, v_3 and v_2,
before `build_p_typical` solved straight into the generator maps.
"""

import hashlib
from fractions import Fraction

import pytest

from stemcharts.hopf import build_p_typical, build_universal
from stemcharts.poly import format_poly

X_GENERATORS = {
    1: "2*m1",
    2: "3*m2",
    3: "4*m1^3 + 2*m3",
    4: "5*m4",
    5: "-9*m1*m2^2 + 8*m1^3*m2 + 12*m2*m3 + m5",
    6: "7*m6",
    7: "-4*m1*m3^2 - 16*m1^7 + 2*m7",
    8: "54*m2^4 + 3*m8",
    9: "-75*m1*m4^2 + 64*m1^5*m4 + m9",
    10: "11*m10",
}

STRUCTURE_DIGEST = "559e556629d795b96839a4eb7e452ac8315c92f40b3826c9743a5655cf456a07"

P_TYPICAL_DIGESTS = {
    2: "9ddd6eb12e544a686f98a866640876763a4f854d9b589cafd15e9780dfed9c4d",
    3: "5f459eb703065526b5d7d7dfe4d4dc433a365fd4c30766a2e6fdb78ea01c4993",
    5: "bb7ca45c543778063f4bf1cb1bddbbffdff77c37c6daa7bada57546dee14d5a7",
}
DEEP_P_TYPICAL_DIGESTS = {
    (2, 15): "5364f08e9225075bcb7f47cd600d7b9877513ccd666403220185dc3e6a9a9fd4",
    (3, 26): "d6f4a5d195142cfe7e2b2fdb6f777a01716de80572aee4f55ca0808670be6cf8",
    (5, 24): "adc060f78a7bfcb73b3b005ce8d995b14b2cc398fdbe41bb24359a3c7a9ae044",
}


def structure_digest(alg) -> str:
    """sha256 over eta_R and Delta on the generators, in sorted key order."""
    h = hashlib.sha256()
    for name, maps in (("eta_r", alg.eta_r_gen), ("delta", alg.coproduct_gen)):
        for g in sorted(maps):
            for key in sorted(maps[g]):
                h.update(f"{name} {g} {key!r} {Fraction(maps[g][key])}\n".encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def universal10():
    return build_universal(10)


def test_x_generators_bound_10(universal10):
    u = universal10._universal_model
    got = {n: format_poly(u.x_generator(n)) for n in range(1, 11)}
    assert got == X_GENERATORS


def test_universal_structure_digest_bound_10(universal10):
    assert structure_digest(universal10) == STRUCTURE_DIGEST


@pytest.mark.parametrize("p", sorted(P_TYPICAL_DIGESTS))
def test_p_typical_structure_digest_bound_10(p):
    assert structure_digest(build_p_typical(p, 10)) == P_TYPICAL_DIGESTS[p]


@pytest.mark.parametrize("p,bound", sorted(DEEP_P_TYPICAL_DIGESTS))
def test_p_typical_structure_digest_deep(p, bound):
    assert structure_digest(build_p_typical(p, bound)) == DEEP_P_TYPICAL_DIGESTS[p, bound]

import random
import re
from fractions import Fraction

import pytest

from stemcharts import fgl
from stemcharts.fgl import (QQ, EngineError, FGLAxiomError, FormalGroupLaw,
                            GradedRingPresentation,
                            _echelon_coordinates, _integer_hnf, _integer_smith,
                            _lattice_quotient_generator,
                            _pivot_columns, additive_fgl, fgl_exp, fgl_inverse,
                            fgl_log, hazewinkel_lambdas, multiplicative_fgl,
                            p_typical_log, p_typical_reduction, universal_fgl,
                            UniversalFGL)
from stemcharts.poly import Poly, PolyRing, mon_deg
from stemcharts.series import Series, compose, generic_series, reversion


def nu(k: int) -> int:
    """p when k is a p-power, else 1."""
    for p in range(2, k + 1):
        if k % p == 0:
            kk = k
            while kk % p == 0:
                kk //= p
            return p if kk == 1 else 1
    return 1


def test_universal_bound1():
    pres, law = universal_fgl(1)
    assert [d for _, d in pres.generators] == [1]
    c = law.as_series().coefficient((1, 1))
    # F = x + y + c*xy with c a unit multiple of x_1
    assert c.terms in ({((0, 1),): 1}, {((0, 1),): -1})


def test_unitality_and_commutativity():
    pres, law = universal_fgl(3)
    F = law.as_series()
    assert F.coefficient((1, 0)).terms == {(): 1}
    assert F.coefficient((2, 0)).is_zero()
    assert F.coefficient((1, 2)) == F.coefficient((2, 1))


@pytest.mark.parametrize("bound", range(1, 7))
def test_axioms_all_bounds(bound):
    # construction verifies unitality, commutativity, associativity
    universal_fgl(bound)


def test_lazard_generator_leading_coefficients():
    # x_n = +-nu(n+1) m_n modulo decomposables
    u = UniversalFGL(6)
    for n in range(1, 7):
        xn = u.x_generator(n)
        lead = Fraction(xn.coefficient(((n - 1, 1),)))
        assert abs(lead) == nu(n + 1), (n, lead)


def truncate_fgl(F: FormalGroupLaw, bound: int) -> FormalGroupLaw:
    """Forget generators and coefficients above a smaller bound."""
    gens = [(n, d) for n, d in F.presentation.generators if d <= bound]
    pres = GradedRingPresentation(F.presentation.base, gens, [], bound)
    ring = pres.ring()
    series = {}
    for (i, j), c in F.series.items():
        if i + j > bound + 1:
            continue
        terms = {m: co for m, co in c.terms.items()
                 if all(g < len(gens) for g, _ in m)
                 and mon_deg(m, ring.degrees) <= bound}
        if terms:
            series[(i, j)] = Poly(ring, terms)
    return FormalGroupLaw(pres, series)


def test_truncation_consistency():
    _, law6 = universal_fgl(6)
    for smaller in (1, 2, 3, 4):
        _, law_small = universal_fgl(smaller)
        trunc = truncate_fgl(law6, smaller)
        assert trunc.series.keys() == law_small.series.keys()
        for key in trunc.series:
            assert trunc.series[key].terms == law_small.series[key].terms


@pytest.mark.parametrize("bound,extra,message", [
    (3, (2, 2), "associativity fails below the bound"),
    (4, (1, 2), "a_12 != a_21"),
    (4, (2, 0), "F(x,0) has stray term x^2"),
], ids=["associativity", "commutativity", "unitality"])
def test_axiom_failures_are_reported(bound, extra, message):
    # x + y plus one more term: x^2 y^2 breaks only associativity
    pres = GradedRingPresentation(QQ, [], [], bound)
    one = pres.ring().one()
    with pytest.raises(FGLAxiomError, match=re.escape(message)):
        FormalGroupLaw(pres, {(1, 0): one, (0, 1): one, extra: one})


def test_log_exp_roundtrip():
    m = multiplicative_fgl(5)
    log = fgl_log(m)
    exp = fgl_exp(m)
    comp = compose(exp, [log])
    assert comp.terms == {(1,): m.presentation.ring().one()}


def test_multiplicative_log():
    m = multiplicative_fgl(6)
    log = fgl_log(m)
    for n in range(1, 7):
        c = log.coefficient((n,)).constant_term()
        assert c == Fraction((-1) ** (n + 1), n)


def test_additive_inverse():
    inv = fgl_inverse(additive_fgl(4))
    assert {e: c.constant_term() for e, c in inv.terms.items()} == {(1,): -1}


def test_multiplicative_inverse_series():
    # for x + y + xy the inverse is -x + x^2 - x^3 + ... (to order bound+1)
    inv = fgl_inverse(multiplicative_fgl(5))
    vals = {e[0]: c.constant_term() for e, c in inv.terms.items()}
    assert vals == {n: (-1) ** n for n in range(1, 7)}


def test_log_requires_rational_base():
    _, law = universal_fgl(2)
    with pytest.raises(ValueError):
        fgl_log(law)


def test_universal_log_linearizes():
    # the Q-base change of the universal law is isomorphic via log to the
    # additive law: log F(x, y) = log x + log y
    u = UniversalFGL(5)
    from stemcharts.series import Series
    order = 6
    x = Series.variable(u.mring, 2, order, 0)
    y = Series.variable(u.mring, 2, order, 1)
    lx = compose(u.log, [x])
    ly = compose(u.log, [y])
    lhs = Series.zero(u.mring, 2, order)
    fpow = {0: Series(u.mring, 2, order, {(0, 0): u.mring.one()})}

    def fp(n):
        if n not in fpow:
            fpow[n] = fp(n - 1) * u.F
        return fpow[n]

    for (n,), c in u.log.terms.items():
        lhs = lhs + Series(u.mring, 2, order,
                           {e: q * c for e, q in fp(n).terms.items()})
    assert lhs == lx + ly


# -- the formal sum, coefficient by coefficient -------------------------------

def horner_sum(log, exp):
    """exp(log x + log y) by Horner composition over bivariate series, the
    construction the binomial expansion in fgl._sum_series replaced."""
    x = Series.variable(log.ring, 2, log.order, 0)
    y = Series.variable(log.ring, 2, log.order, 1)
    return compose(exp, [compose(log, [x]) + compose(log, [y])])


def coefficient_reprs(series):
    """Each coefficient as repr of its sorted terms: ints and equal
    Fractions tell apart, dict insertion order does not."""
    return {e: repr(sorted(c.terms.items())) for e, c in series.terms.items()}


def universal_log(bound):
    u_ring = PolyRing([f"m{i}" for i in range(1, bound + 1)],
                      list(range(1, bound + 1)), bound)
    return generic_series(u_ring, bound + 1, 0)


@pytest.mark.parametrize("bound", range(1, 9))
def test_formal_sum_matches_horner_universal(bound):
    log = universal_log(bound)
    exp = reversion(log)
    assert coefficient_reprs(fgl._sum_series(log, exp)) == \
        coefficient_reprs(horner_sum(log, exp))


@pytest.mark.parametrize("p,bound", [(2, 15), (3, 26), (5, 24)])
def test_formal_sum_matches_horner_p_typical(p, bound):
    # the first bounds that reach v_4, v_3 and v_2: a sparse logarithm
    _, log = p_typical_log(p, bound)
    exp = reversion(log)
    assert coefficient_reprs(fgl._sum_series(log, exp)) == \
        coefficient_reprs(horner_sum(log, exp))


@pytest.mark.parametrize("wrong", range(2, 8))
def test_formal_sum_sees_a_planted_log_coefficient(wrong):
    """One log coefficient off by 1 changes the law; summed against the
    true exp, F(x, 0) is no longer x and the axiom check refuses it."""
    bound = 6
    log = universal_log(bound)
    exp = reversion(log)
    true = coefficient_reprs(fgl._sum_series(log, exp))
    planted = Series(log.ring, 1, log.order, dict(log.terms))
    planted.terms[(wrong,)] = log.terms[(wrong,)] + log.ring.one()
    assert coefficient_reprs(fgl._sum_series(planted, reversion(planted))) != true
    law = fgl._sum_series(planted, exp)
    assert coefficient_reprs(law) != true
    pres = GradedRingPresentation(QQ, [(f"m{i}", i) for i in range(1, bound + 1)],
                                  [], bound)
    with pytest.raises(FGLAxiomError, match="F\\(x,0\\)"):
        FormalGroupLaw(pres, dict(law.terms))


@pytest.mark.parametrize("p,bound,expected_degrees", [
    (2, 1, [1]),
    (3, 8, [2, 8]),
    (2, 7, [1, 3, 7]),
    (5, 4, [4]),
])
def test_p_typical_generator_degrees(p, bound, expected_degrees):
    _, law = universal_fgl(1)
    pres, _ = p_typical_reduction(law, p, bound)
    assert [d for _, d in pres.generators] == expected_degrees


def test_p_typical_log_leading_term():
    # log coefficient of x^p is v_1 / p exactly (Hazewinkel recursion)
    from stemcharts.fgl import p_typical_log
    for p in (2, 3, 5):
        pres, log = p_typical_log(p, p * p)
        ring = pres.ring()
        lam1 = log.coefficient((p,))
        assert lam1.terms == {((0, 1),): Fraction(1, p)}


def test_p_typical_axioms_verified():
    _, law = universal_fgl(1)
    for p in (2, 3):
        _, bp = p_typical_reduction(law, p, 6)
        bp.verify_axioms()


def test_hazewinkel_recursion_degrees():
    from stemcharts.poly import PolyRing, mon_deg
    ring = PolyRing(["v1", "v2"], [2, 8], 10)
    lams = hazewinkel_lambdas(ring, 3, 2)
    for n, lam in enumerate(lams):
        for m in lam.terms:
            assert mon_deg(m, ring.degrees) == 3 ** n - 1


def test_p_typical_classifying_images():
    from fractions import Fraction as Fr
    # additive law p-typifies with all v-images zero
    _, law = p_typical_reduction(additive_fgl(8), 3, 8)
    assert all(img.is_zero() for img in law.classifying_images)
    # multiplicative law: v_1 goes to a unit, v_2 to zero (odd p)
    _, law = p_typical_reduction(multiplicative_fgl(8), 3, 8)
    img1, img2 = law.classifying_images
    assert img1.terms == {(): 1}
    assert img2.is_zero()
    # multiplicative at p = 2: v_1 image is the unit -1
    _, law2 = p_typical_reduction(multiplicative_fgl(3), 2, 3)
    assert law2.classifying_images[0].terms == {(): -1}
    # universal law at p = 2: v_1 classifies to the Lazard generator x_1
    _, uni = universal_fgl(3)
    _, lawu = p_typical_reduction(uni, 2, 3)
    assert lawu.classifying_images[0].terms == {((0, 1),): 1}
    # image of v_2 is 2-integral of algebraic degree 3
    from stemcharts.poly import mon_deg
    img = lawu.classifying_images[1]
    ring = uni.presentation.ring()
    for mon, c in img.terms.items():
        assert Fr(c).denominator % 2 != 0
        assert mon_deg(mon, ring.degrees) == 3


# -- the integer lattice kernel, against sympy as an oracle ------------------

def random_int_matrix(seed: int) -> list[list[int]]:
    """A nonzero integer matrix, rank deficient for every third seed."""
    rng = random.Random(seed)
    m, n = rng.randint(1, 6), rng.randint(1, 6)
    rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
    if seed % 3 == 0 and m > 1:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1 % m])]
    if not any(any(r) for r in rows):
        rows[0][0] = 1
    return rows


def row_lattice(rows):
    """Canonical form of the row lattice of rows (sympy HNF of the transpose)."""
    from sympy import Matrix
    from sympy.matrices.normalforms import hermite_normal_form
    return hermite_normal_form(Matrix(rows).T)


def elementary_divisors(diag) -> list[int]:
    out = []
    for d in diag:
        q, p = abs(d), 2
        while q > 1:
            pk = 1
            while q % p == 0:
                q //= p
                pk *= p
            if pk > 1:
                out.append(pk)
            p += 1
    return sorted(out)


@pytest.mark.parametrize("seed", range(24))
def test_integer_hnf_against_sympy(seed):
    pytest.importorskip("sympy")
    rows = random_int_matrix(seed)
    hnf = _integer_hnf(rows)
    assert row_lattice(hnf) == row_lattice(rows)
    pivots = _pivot_columns(hnf)
    assert pivots == sorted(set(pivots))
    for i, (h, col) in enumerate(zip(hnf, pivots)):
        assert h[col] > 0 and not any(h[:col])
        # reduced above: earlier rows lie in [0, pivot) in this column
        assert all(0 <= hnf[k][col] < h[col] for k in range(i))


@pytest.mark.parametrize("seed", range(24))
def test_integer_smith_against_sympy(seed):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form
    rows = random_int_matrix(seed)
    n = len(rows[0])
    diag, vinv = _integer_smith(rows, n)
    snf = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
    expected = [snf[i, i] for i in range(min(snf.shape)) if snf[i, i]]
    assert len(diag) == len(expected)
    assert elementary_divisors(diag) == elementary_divisors(expected)
    # V^{-1} is unimodular and its rows scaled by diag span the row lattice
    assert abs(sympy.Matrix(vinv).det()) == 1
    assert row_lattice([[d * a for a in vinv[i]] for i, d in enumerate(diag)]) \
        == row_lattice(rows)


def test_echelon_coordinates_of_lattice_rows():
    hnf = _integer_hnf([[2, 4, 0], [0, 3, 6]])
    pivots = _pivot_columns(hnf)
    for coords in ([1, 0], [0, 1], [3, -2], [-5, 7]):
        row = [sum(c * h[t] for c, h in zip(coords, hnf)) for t in range(3)]
        assert _echelon_coordinates(hnf, pivots, row) == coords


def test_echelon_coordinates_defects():
    hnf = _integer_hnf([[2, 4, 0], [0, 6, 6]])
    pivots = _pivot_columns(hnf)
    half = [a // 2 for a in hnf[0]]
    assert [2 * a for a in half] == hnf[0]
    with pytest.raises(EngineError, match="non-integral coordinates"):
        _echelon_coordinates(hnf, pivots, half)
    with pytest.raises(EngineError, match="not in lattice"):
        _echelon_coordinates(hnf, pivots, [0, 0, 1])
    # outside the Q-span wins over a non-dividing pivot
    with pytest.raises(EngineError, match="not in lattice"):
        _echelon_coordinates(hnf, pivots, [1, 0, 1])


def test_lattice_quotient_generator():
    lattice = _integer_hnf([[1, 0], [0, 1]])
    gen = _lattice_quotient_generator(lattice, [[3, 1]])
    assert abs(3 * gen[1] - gen[0]) == 1  # (3, 1) and gen are a basis of Z^2
    with pytest.raises(EngineError, match="Lazard quotient defect"):
        _lattice_quotient_generator(lattice, [[2, 0]])
    with pytest.raises(EngineError, match="not in lattice"):
        _lattice_quotient_generator(_integer_hnf([[1, 0, 0], [0, 1, 0]]), [[0, 0, 1]])


def test_wrong_generator_shows_as_later_quotient_defect(monkeypatch):
    # the decomposables of degree d are the x-monomials of x_1..x_{d-1}, so
    # the products of a doubled x_2 fall short of them at a later degree
    degrees = []
    real = fgl._lattice_quotient_generator

    def doubled_x2(hnf, dec_rows):
        degrees.append(len(degrees) + 1)
        gen = real(hnf, dec_rows)
        return [2 * a for a in gen] if degrees[-1] == 2 else gen

    monkeypatch.setattr(fgl, "_lattice_quotient_generator", doubled_x2)
    with pytest.raises(EngineError, match="Lazard quotient defect"):
        UniversalFGL(4)
    assert degrees[-1] > 2


@pytest.fixture(scope="module")
def universal10():
    return UniversalFGL(10)


def test_x_coordinates_of_generators(universal10):
    xr = universal10.x_ring()
    for n in range(1, 11):
        assert universal10.to_x_coordinates(universal10.x_generator(n)) \
            == xr.gen(n - 1)


def test_x_coordinates_reject_non_integral(universal10):
    # x_1 = 2 m_1, so m_1 = x_1 / 2 is not in the Lazard ring
    assert universal10.x_generator(1).terms == {((0, 1),): 2}
    with pytest.raises(ValueError, match="not integral"):
        universal10.to_x_coordinates(universal10.mring.gen(0))


@pytest.mark.parametrize("seed", range(4))
def test_x_coordinates_round_trip(universal10, seed):
    # a random integral x-polynomial with several terms in every degree
    rng = random.Random(seed)
    xr, mring = universal10.x_ring(), universal10.mring
    terms = {}
    for d in range(11):
        mons = xr.monomials_of_degree(d)
        for xm in rng.sample(mons, min(len(mons), rng.randint(1, 4))):
            terms[xm] = rng.choice([-1, 1]) * rng.randint(1, 30)
    xpoly = Poly(xr, terms)
    # expanded in the m's through the generators, independently of the peel
    mpoly = mring.zero()
    for xm, c in terms.items():
        q = mring.one().scale(c)
        for g, e in xm:
            q = q * universal10.x_generator(g + 1).pow(e)
        mpoly = mpoly + q
    assert universal10.to_x_coordinates(mpoly) == xpoly


def test_x_coordinates_reject_above_bound():
    # x_1^5 = 32 m_1^5 truncates to 0 at bound 4: no x-monomial reaches it
    u = UniversalFGL(4)
    with pytest.raises(ValueError, match="not in the span of x-monomials"):
        u.to_x_coordinates(Poly(u.mring, {((0, 5),): 32}))

import gc
import re
import weakref
from fractions import Fraction

import pytest

from stemcharts import extcharts, hopf
from stemcharts.cobar import CobarComplex, CobarError
from stemcharts.extcharts import ext_chart
from stemcharts.fgl import UniversalFGL
from stemcharts.hopf import (HopfAlgebroid, HopfAxiomError, _add_into,
                             build_algebroid, build_p_typical, build_universal)
from stemcharts.poly import ONE, mon_deg, mon_mul


@pytest.fixture(scope="module")
def bp3():
    return build_algebroid("p_typical", 8, p=3)


@pytest.fixture(scope="module")
def uni():
    return build_algebroid("universal", 5)


def test_counit_kills_generators(bp3):
    for gi in range(len(bp3.gamma_names)):
        elem = {(ONE, (((gi, 1),),)): 1}
        assert bp3.counit(elem).is_zero()


def test_eta_r_v1(bp3):
    # eta_R(v1) = v1 + 3 t1
    assert bp3.eta_r_gen[0] == {(((0, 1),), (ONE,)): 1, (ONE, (((0, 1),),)): 3}


def test_coproduct_t1_primitive(bp3):
    assert bp3.coproduct_gen[0] == {(ONE, (((0, 1),), ONE)): 1,
                                    (ONE, (ONE, ((0, 1),))): 1}


def test_antipode_t1(bp3):
    assert bp3.antipode_gen[0] == {(ONE, (((0, 1),),)): -1}


@pytest.mark.parametrize("kind,p,bound", [
    ("p_typical", 2, 7),
    ("p_typical", 3, 8),
    ("p_typical", 5, 4),
    ("universal", None, 5),
])
def test_axiom_verification(kind, p, bound):
    # verify() raises on any failed identity (coassociativity, counits,
    # antipode folds, unit exchange, Delta o eta_R compatibility)
    build_algebroid(kind, bound, p=p)


@pytest.mark.parametrize("structure,name,term", [
    ("coproduct_gen", "Delta", (ONE, (((0, 2),), ONE))),   # t1^2 (x) 1 in Delta(t1)
    ("eta_r_gen", "eta_R", (((0, 2),), (ONE,))),           # v1^2 in eta_R(v1)
])
def test_non_homogeneous_term_fails_verify(structure, name, term):
    alg = build_algebroid("p_typical", 4, p=3)
    getattr(alg, structure)[0][term] = 1
    with pytest.raises(HopfAxiomError, match=f"{name} is not homogeneous at"):
        alg.verify()


@pytest.mark.parametrize("g,key", [
    (1, (ONE, (((0, 2),),))),              # b1^2 in c(b2)
    (4, (((0, 1),), (((3, 1),),))),        # x1 b4 in c(b5)
])
def test_wrong_antipode_term_fails_verify(g, key):
    alg = build_universal(5)
    alg.antipode_gen[g][key] = alg.antipode_gen[g].get(key, 0) + 1
    with pytest.raises(HopfAxiomError):
        alg.verify()


def _unverified(kind, bound, p):
    return build_universal(bound) if kind == "universal" else build_p_typical(p, bound)


@pytest.mark.parametrize("kind,p,bound,structure,g,key,message", [
    # x1 b1 in eta_R(x2)
    ("universal", None, 5, "eta_r_gen", 1, (((0, 1),), (((0, 1),),)),
     "c o eta_R != eta_L at x2"),
    # v1^3 t1 in eta_R(v2)
    ("p_typical", 3, 8, "eta_r_gen", 1, (((0, 3),), (((0, 1),),)),
     "c o eta_R != eta_L at v2"),
    # b1 (x) b2 in Delta(b3)
    ("universal", None, 5, "coproduct_gen", 2, (ONE, (((0, 1),), ((1, 1),))),
     "coassociativity fails at b3"),
    # v1 in eta_R(v1) twice
    ("p_typical", 2, 4, "eta_r_gen", 0, (((0, 1),), (ONE,)),
     "counit o eta_R != id at v1"),
    # t1 (x) 1 in Delta(t1) twice
    ("p_typical", 2, 4, "coproduct_gen", 0, (ONE, (((0, 1),), ONE)),
     "(1 x eps) Delta != id at t1"),
    # t1^3 in eta_R(v2)
    ("p_typical", 2, 4, "eta_r_gen", 1, (ONE, (((0, 3),),)),
     "Delta o eta_R != 1 (x) eta_R at v2"),
])
def test_planted_fault_fails_its_axiom(kind, p, bound, structure, g, key, message):
    # a homogeneous extra term reaches the product-based identities
    alg = _unverified(kind, bound, p)
    elem = getattr(alg, structure)[g]
    elem[key] = elem.get(key, 0) + 1
    with pytest.raises(HopfAxiomError, match=re.escape(message)):
        alg.verify()


_TENSOR_MUL = HopfAlgebroid.tensor_mul


def _product_without_scale(self, a, b, out=None, scale=1):
    return _TENSOR_MUL(self, a, b, out)


def _antipode_without_eta_r(self, elem):
    # c(a tau) taken as a c(tau): the coefficient is not moved through eta_R
    out = {}
    for (am, (tm,)), c in elem.items():
        _TENSOR_MUL(self, {(am, (ONE,)): c}, self.antipode_t(tm), out)
    return out


@pytest.mark.parametrize("method,plant,message", [
    ("tensor_mul", _product_without_scale, "mu(1 x c)Delta != 0 at t2"),
    ("antipode", _antipode_without_eta_r, "c o c != id at t2"),
])
def test_planted_method_fails_its_axiom(monkeypatch, method, plant, message):
    # no single wrong term of Delta or c fails the right antipode fold or
    # c o c first: the right fold of a change is c of its left fold, and c
    # on generators is fixed by the left folds; a wrong method reaches both
    alg = build_p_typical(2, 4)
    monkeypatch.setattr(HopfAlgebroid, method, plant)
    with pytest.raises(HopfAxiomError, match=re.escape(message)):
        alg.verify()


def test_non_integral_lambda_fails_p_integrality(monkeypatch):
    # lambda_2 divided by p once too often leaves a 1/2 in eta_R(v2)
    original = hopf.hazewinkel_lambdas

    def divided_twice(ring, p, count):
        lams = original(ring, p, count)
        lams[2] = lams[2].scale(Fraction(1, p))
        return lams
    monkeypatch.setattr(hopf, "hazewinkel_lambdas", divided_twice)
    with pytest.raises(HopfAxiomError, match="eta_R has non p-integral coefficient at"):
        build_p_typical(2, 4)


@pytest.mark.parametrize("kind,p", [("universal", None), ("p_typical", 2),
                                    ("p_typical", 3), ("p_typical", 5)])
def test_structure_constants_are_ints(kind, p):
    # the premise of the integer Ext rows: every eta_R, Delta and c
    # coefficient is an int (for p-typical, Z[1/p] meets Z_(p) in Z)
    alg = build_algebroid(kind, 10, p=p)
    coefficients = [c for images in (alg.eta_r_gen, alg.coproduct_gen, alg.antipode_gen)
                    for elem in images.values() for c in elem.values()]
    assert coefficients and all(type(c) is int for c in coefficients)


@pytest.mark.parametrize("kind,p,bound,structure,g", [
    ("p_typical", 2, 8, "antipode_gen", 1),
    ("universal", None, 5, "eta_r_gen", 2),
    ("universal", None, 5, "coproduct_gen", 3),
])
def test_explicit_zero_coefficient_fails_verify(kind, p, bound, structure, g):
    # a term held with coefficient 0 is a missing term: an axiom fails,
    # and the products meet the 0 without a KeyError
    alg = _unverified(kind, bound, p)
    elem = getattr(alg, structure)[g]
    elem[min(key for key in elem if any(key[1]))] = 0
    with pytest.raises(HopfAxiomError):
        alg.verify()


def test_products_need_no_truncation(monkeypatch):
    # tensor_mul is exact: every product asked of it, while algebroids are
    # built and verified and an Ext chart is computed, has factor degrees
    # summing to at most the bound
    def degree(alg, elem):
        return max(mon_deg(am, alg.aring.degrees)
                   + sum(mon_deg(t, alg.gamma_degrees) for t in tmons)
                   for am, tmons in elem)

    calls = []
    tensor_mul = HopfAlgebroid.tensor_mul

    def checked(alg, a, b, *rest):
        if a and b:
            calls.append((alg.kind, alg.p, alg.bound, degree(alg, a), degree(alg, b)))
        return tensor_mul(alg, a, b, *rest)

    monkeypatch.setattr(HopfAlgebroid, "tensor_mul", checked)
    build_algebroid("universal", 8)
    algs = {p: build_algebroid("p_typical", 10, p=p) for p in (2, 3, 5)}
    built = len(calls)
    ext_chart(algs[2], 2, 10, 4, 20)
    assert built > 500 and len(calls) > built
    assert [c for c in calls if c[3] + c[4] > c[2]] == []


def test_grouped_antipode_matches_per_term_reference(uni):
    # c and mu(c x 1) sum eta_R(a) per Gamma-monomial before multiplying;
    # the reference multiplies term by term
    def antipode(elem):
        out = {}
        for (am, (tm,)), c in elem.items():
            _add_into(out, uni.tensor_mul(uni.eta_r(am),
                                          uni.antipode_t(tm)).items(), c)
        return out

    def fold_left(elem2):
        out = {}
        for (am, (u, w)), c in elem2.items():
            piece = uni.tensor_mul(uni.eta_r(am), uni.antipode_t(u))
            _add_into(out, uni.tensor_mul(piece, {(ONE, (w,)): 1}).items(), c)
        return out

    amons = [m for d in range(3) for m in uni.a_monomials(d)]
    tmons = [m for d in range(3) for m in uni.tensor_monomials(d)]
    folds = []
    for k, am in enumerate(amons):
        elem = {(am, (tm,)): k - j for j, tm in enumerate(tmons)}
        assert uni.antipode(elem) == antipode(elem)
        elem2 = {(am, (u, w)): k + j + 1 for j, (u, w)
                 in enumerate(zip(tmons, reversed(tmons)))}
        folds.append(uni.fold_antipode_left(elem2))
        assert folds[-1] == fold_left(elem2)
    assert all(folds)


def test_built_objects_hold_no_reference_cycle():
    # with the cyclic collector off, a queried algebroid or Lazard model is
    # freed by reference counting alone the moment its last name goes
    def queried(make):
        obj = make()
        if isinstance(obj, UniversalFGL):
            obj.to_x_coordinates(obj.x_generator(2) * obj.x_generator(3))
        else:
            cx = CobarComplex(obj)
            cx.check_d_squared(1, 3)
            obj.antipode(obj.eta_r_poly(obj.aring.gen(1)))
        return weakref.ref(obj)

    enabled = gc.isenabled()
    gc.disable()
    try:
        refs = [queried(lambda: build_algebroid("universal", 5)),
                queried(lambda: build_algebroid("p_typical", 8, p=2)),
                queried(lambda: UniversalFGL(6))]
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        if enabled:
            gc.enable()


def test_gamma_free_on_monomials(bp3):
    basis = bp3.tensor_monomials(4)
    assert ((0, 2),) in basis  # t1^2 in degree 4
    assert len(basis) == len(set(basis))


def test_cobar_s0_kernel_is_base(bp3):
    cx = CobarComplex(bp3)
    rows = cx.differential_matrix(0, 0)
    assert cx.basis(0, 0) == [(ONE, ())]
    assert all(not row for row in rows)


def test_cobar_t1_is_cocycle_p3(bp3):
    cx = CobarComplex(bp3)
    basis1 = cx.basis(1, 2)
    assert basis1 == [(ONE, (((0, 1),),))]
    rows = cx.differential_matrix(1, 2)
    assert all(not row for row in rows)


def test_d_squared_zero_everywhere(bp3):
    cx = CobarComplex(bp3)
    for d in range(0, 9):
        for s in range(0, 4):
            cx.check_d_squared(s, d)


def test_d_squared_unnormalized(bp3):
    cx = CobarComplex(bp3, normalized=False)
    for d in range(0, 5):
        for s in range(0, 3):
            cx.check_d_squared(s, d)


def test_universal_d_squared(uni):
    cx = CobarComplex(uni)
    for d in range(0, 6):
        for s in range(0, 3):
            cx.check_d_squared(s, d)


# -- the builder against every coface ----------------------------------------

def reference_migrate(alg, cmon, pos, tmons):
    """{(a_monomial, tuple): coefficient} of cmon at slot `pos`, moved to
    the left slot by slot through eta_R."""
    if pos == 1 or cmon == ONE:
        return {(cmon, tmons): 1}
    out = {}
    for (dmon, (tau,)), c in alg.eta_r(cmon).items():
        new = tmons[:pos - 2] + (mon_mul(tmons[pos - 2], tau),) + tmons[pos - 1:]
        for k, c2 in reference_migrate(alg, dmon, pos - 1, new).items():
            out[k] = out.get(k, 0) + c * c2
    return out


def reference_differential(cx, s, degree):
    """d^s as sparse rows: all s + 2 cofaces summed with their signs, and
    only then the degenerate tuples dropped (in the normalized complex)."""
    alg = cx.alg
    index = {k: i for i, k in enumerate(cx.basis(s + 1, degree))}
    rows = [{} for _ in index]
    for j, (amon, tmons) in enumerate(cx.basis(s, degree)):
        total = {}

        def add(key, c):
            total[key] = total.get(key, 0) + c
        for (cm, (sigma,)), c in alg.eta_r(amon).items():
            add((cm, (sigma,) + tmons), c)
        for i in range(1, s + 1):
            for (cm, (u, w)), c in alg.delta(tmons[i - 1]).items():
                new = tmons[:i - 1] + (u, w) + tmons[i:]
                for (em, fin), c2 in reference_migrate(alg, cm, i, new).items():
                    add((mon_mul(amon, em), fin), (-1) ** i * c * c2)
        add((amon, tmons + (ONE,)), (-1) ** (s + 1))
        for key, c in total.items():
            if c and not (cx.normalized and ONE in key[1]):
                rows[index[key]][j] = c
    return rows


def reference_basis(cx, s, degree):
    """Basis of C^s by a recursion over every slot degree, empty or not."""
    out = []
    low = 1 if cx.normalized else 0

    def slots(rem, k, acc):
        if k == 0:
            out.extend((am, tuple(acc)) for am in cx.alg.a_monomials(rem))
            return
        for d in range(low, rem + 1):
            for tm in cx.alg.tensor_monomials(d):
                slots(rem - d, k - 1, acc + [tm])
    slots(degree, s, [])
    return sorted(out)


@pytest.mark.parametrize("p,t_max", [(2, 12), (3, 24)])
@pytest.mark.parametrize("normalized", [True, False])
def test_builder_matches_every_coface(p, t_max, normalized):
    alg = build_algebroid("p_typical", t_max // 2, p=p)
    cx = CobarComplex(alg, normalized=normalized)
    for degree in range(t_max // 2 + 1):
        for s in range(6):
            assert cx.basis(s, degree) == reference_basis(cx, s, degree)
            rows = cx.differential_matrix(s, degree)
            assert rows == reference_differential(cx, s, degree), (s, degree)
            assert all(list(row) == sorted(row) for row in rows), (s, degree)


def test_terms_that_cancel_leave_no_entry():
    # every coded coproduct given as +terms, -terms builds the rows of no
    # coproduct at all, with no 0 entries left; as -terms, +terms, +terms,
    # each entry passes through 0 and comes back, and the rows and their
    # column order are those of the plain terms
    alg = build_algebroid("p_typical", 6, p=2)
    plain, bare, cancelled, tripled = (CobarComplex(alg) for _ in range(4))
    for code in range(len(plain._t.mons)):
        terms = plain._coproducts[code]
        negated = [(cm, u, w, -c) for cm, u, w, c in terms]
        bare._coproducts[code] = []
        cancelled._coproducts[code] = terms + negated
        tripled._coproducts[code] = negated + terms + terms
    for degree in range(7):
        for s in range(4):
            for cx, want in ((cancelled, bare), (tripled, plain)):
                rows = cx.differential_matrix(s, degree)
                assert rows == want.differential_matrix(s, degree), (s, degree)
                assert all(list(row) == sorted(row) for row in rows), (s, degree)


# -- planted faults in the coded builder ---------------------------------------

def plant(alg, name, mon, key):
    """Add one term key, coefficient 1, to alg's eta_r or delta of mon,
    after verification, where only the cobar builder reads it."""
    image = getattr(alg, name)

    def planted(m):
        out = image(m)
        return {**out, key: 1} if m == mon else out
    setattr(alg, name, planted)


T1 = V1 = ((0, 1),)  # t1 and v1, the first generators of Gamma and of A


@pytest.mark.parametrize("bound,name,mon,term,s,degree,where", [
    # t1 (x) t1^5 in Delta(t1): a Gamma-monomial above the bound
    (4, "delta", T1, (ONE, (T1, ((0, 5),))), 1, 1, (ONE, (T1, ((0, 5),)))),
    # t1^6 in eta_R(v1): migrating v1 left through t1 gives t1^7
    (6, "eta_r", V1, (ONE, (((0, 6),),)), 2, 4, (ONE, (((0, 7),), T1, T1))),
    # v1^4 t1 (x) t1 in Delta(t1): the coefficient of the column v1 t1
    # becomes v1^5
    (4, "delta", T1, (((0, 4),), (T1, T1)), 1, 2, (((0, 5),), (T1, T1))),
])
def test_planted_term_leaves_the_basis(bound, name, mon, term, s, degree, where):
    # a product outside the basis or above the bound is a CobarError that
    # names the nested key, never a KeyError or IndexError of the codes
    alg = build_algebroid("p_typical", bound, p=2)
    plant(alg, name, mon, term)
    cx = CobarComplex(alg)
    with pytest.raises(CobarError, match=re.escape(
            f"differential leaves the basis at {where}")):
        cx.differential_matrix(s, degree)


def test_opposite_terms_off_the_basis_cancel():
    # t1 (x) t1^5, above the bound, twice in the coded Delta(t1) with
    # opposite signs sums to 0: the build goes through; once, it leaves the
    # basis and the CobarError names the nested key
    alg = build_algebroid("p_typical", 4, p=2)
    cx = CobarComplex(alg)
    t1, off = cx._t.ids[T1], cx._t.ids[((0, 5),)]
    terms = cx._coproducts[t1]
    plain = cx.differential_matrix(1, 1)
    cx._coproducts[t1] = terms + [(0, t1, off, 1), (0, t1, off, -1)]
    assert cx.differential_matrix(1, 1) == plain
    cx._coproducts[t1] = terms + [(0, t1, off, 1)]
    with pytest.raises(CobarError, match=re.escape(
            f"differential leaves the basis at {(ONE, (T1, ((0, 5),)))}")):
        cx.differential_matrix(1, 1)


@pytest.mark.parametrize("p,bound,mon", [
    (2, 6, ((0, 2),)),      # 2 t1 (x) t1 in Delta(t1^2)
    (2, 6, ((1, 1),)),      # Delta(t2), with a v1 coefficient to migrate
    (3, 8, ((0, 3),)),      # Delta(t1^3)
])
def test_flipped_coded_coproduct_fails_d_squared(monkeypatch, p, bound, mon):
    alg = build_algebroid("p_typical", bound, p=p)
    cx = CobarComplex(alg)
    terms = cx._coproducts[cx._t.ids[mon]]
    for n, (cm, u, w, c) in enumerate(terms):
        def flipped_complex(alg, normalized=True):
            flipped = CobarComplex(alg, normalized)
            flipped._coproducts[flipped._t.ids[mon]] = \
                terms[:n] + [(cm, u, w, -c)] + terms[n + 1:]
            return flipped
        flipped = flipped_complex(alg)
        with pytest.raises(CobarError, match="d o d != 0"):
            for degree in range(bound + 1):
                for s in range(3):
                    flipped.check_d_squared(s, degree)
        # ext_chart checks only the columns that rung 1 did not cancel, and
        # still names the first failing product of the whole complex, in
        # its order: degree by degree, s = 0..5
        flipped = flipped_complex(alg)
        with pytest.raises(CobarError) as whole:
            for degree in range(bound + 1):
                for s in range(6):
                    flipped.check_d_squared(s, degree)
        monkeypatch.setattr(extcharts, "CobarComplex", flipped_complex)
        with pytest.raises(CobarError) as streamed:
            ext_chart(alg, p, 10, 6, 2 * bound)
        assert str(streamed.value) == str(whole.value)

import pytest

from stemcharts.charts import (AbGroupDesc, INF, _is_prime_power, complete_desc,
                               cyclic, free_group)
from stemcharts.fields import (FieldDescriptor, FieldError, SmallFiniteField,
                               algebraically_closed, complex_like,
                               element_order, finite_field,
                               finite_field_square_model, km_mod_p, milnor_k,
                               quadratically_closed_square_model,
                               real_closed, real_closed_square_model,
                               steinberg_k1, steinberg_k2, witt_data,
                               witt_group_table)
from stemcharts.catalog import default_catalog, get_field
from stemcharts.kmw import (NotFreeError, complete_kmw, fiber_product_order_check,
                            free_basis, milnor_witt, rebuild_from_basis)

PRIME_POWERS = [q for q in range(2, 50) if _is_prime_power(q)]


def test_finite_field_arithmetic():
    F9 = SmallFiniteField(9)
    assert len(F9.elements) == 9
    g = F9.multiplicative_generator()
    acc, seen = g, set()
    for _ in range(8):
        seen.add(acc)
        acc = F9.mul(acc, g)
    assert len(seen) == 8 and acc == g


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_small_finite_field_has_inverses(q):
    F = SmallFiniteField(q)
    assert len(F.elements) == len(set(F.elements)) == q
    assert all(any(F.mul(a, b) == F.one() for b in F.units())
               for a in F.units())


@pytest.mark.parametrize("q", [q for q in PRIME_POWERS if q <= 9])
def test_small_finite_field_is_a_commutative_ring(q):
    F = SmallFiniteField(q)
    for a in F.elements:
        assert F.add(a, F.neg(a)) == F.zero() and F.mul(a, F.one()) == a
        for b in F.elements:
            assert F.mul(a, b) == F.mul(b, a)
            for c in F.elements:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("q", [q for q in PRIME_POWERS if _is_prime_power(q)[1] > 1])
def test_small_finite_field_modulus(q):
    # monic of degree e with no root in F_p (irreducible for e <= 3)
    F = SmallFiniteField(q)
    f = F.modpoly
    assert len(f) == F.e + 1 and f[-1] == 1
    assert all(sum(c * x ** i for i, c in enumerate(f)) % F.p
               for x in range(F.p))


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_steinberg_oracle(q):
    assert steinberg_k2(q) == 1
    assert milnor_k(finite_field(q), 1)[1] == cyclic(steinberg_k1(q))


def test_milnor_k_finite():
    km = milnor_k(finite_field(5), 4)
    assert km[0].free_rank == 1
    assert km[1].torsion == (4,)
    assert 2 not in km and 3 not in km


def test_milnor_k_algclosed_divisible():
    km = milnor_k(algebraically_closed(0), 3)
    for n in (1, 2, 3):
        assert km[n].divisible
        assert complete_desc(km[n], 5).is_zero()


def test_milnor_k_custom_echo():
    fd = FieldDescriptor("custom", name="echo",
                         km_table={0: AbGroupDesc(free_rank=1),
                                   2: AbGroupDesc(torsion=(7,))})
    km = milnor_k(fd, 3)
    assert km[2].torsion == (7,)


def test_milnor_k_requires_catalog_rule():
    fd = FieldDescriptor("cyclotomic_tower", name="t", tower_prime=3)
    with pytest.raises(FieldError):
        milnor_k(fd, 2)


def test_km_mod_p_finite():
    # K^M/p is Z/p in degrees 0 and 1 iff p | q - 1, else degree 0 only;
    # cross-checked against the brute-force symbol oracle for q <= 49
    for q in PRIME_POWERS:
        for p in (2, 3, 5):
            if q % p == 0:
                continue
            dims = km_mod_p(finite_field(q), p, 3)
            k1_order = steinberg_k1(q)
            expect_deg1 = 1 if k1_order % p == 0 else 0
            assert steinberg_k2(q) == 1  # so K_2/p = 0
            if expect_deg1:
                assert dims == {0: 1, 1: 1}, (q, p, dims)
            else:
                assert dims == {0: 1}, (q, p, dims)


def test_witt_catalog_vs_enumeration():
    for q in (3, 5, 7, 9, 11, 13, 25, 27, 49):
        wd = witt_data(finite_field(q))
        reps, add = witt_group_table(finite_field_square_model(q))
        assert len(reps) == 4
        order = element_order(("1",), add, reps)
        if q % 4 == 1:
            assert wd.w.torsion == (2, 2) and order == 2
        else:
            assert wd.w.torsion == (4,) and order == 4
        binaries = [r for r in reps if len(r) == 2]
        assert len(binaries) == 1 and add[(binaries[0], binaries[0])] == ()


def test_witt_char2_error():
    with pytest.raises(FieldError):
        witt_data(finite_field(4))


def test_witt_complex_like():
    wd = witt_data(complex_like())
    assert wd.w.torsion == (2,) and wd.fundamental[1].is_zero()
    reps, add = witt_group_table(quadratically_closed_square_model())
    assert len(reps) == 2 and add[(("1",), ("1",))] == ()


def test_witt_real_closed():
    wd = witt_data(real_closed())
    assert wd.gw.free_rank == 2 and wd.w.free_rank == 1
    for n in range(1, 5):
        assert wd.fundamental[n].free_rank == 1
    reps, add = witt_group_table(real_closed_square_model(), max_dim=5)
    # signature window: classes are +-n for n <= 5
    sigs = sorted((1 if r and r[0] == "+" else -1) * len(r) for r in reps)
    assert sigs == list(range(-5, 6))
    for r1 in reps:
        for r2 in reps:
            s1 = (1 if r1 and r1[0] == "+" else -1) * len(r1)
            s2 = (1 if r2 and r2[0] == "+" else -1) * len(r2)
            if abs(s1 + s2) <= 5:
                s = add[(r1, r2)]
                assert (1 if s and s[0] == "+" else -1) * len(s) == s1 + s2


def test_kmw_complex():
    ch = milnor_witt(complex_like(), -4, 4)
    assert ch.group(0).free_rank == 1
    for n in range(-4, 0):
        assert ch.group(n).torsion == (2,)
    for n in range(1, 5):
        assert ch.group(n).divisible


def test_kmw_real_closed_degree0():
    ch = milnor_witt(real_closed(), -2, 2)
    assert ch.group(0).free_rank == 2
    assert ch.group(-1).free_rank == 1      # W(R) = Z
    assert ch.group(1).free_rank == 1       # Z (+) divisible


def test_kmw_eta_periodicity_negative():
    for k in (complex_like(), finite_field(5), real_closed()):
        ch = milnor_witt(k, -5, 1)
        wd = witt_data(k)
        for n in range(-5, 0):
            assert ch.group(n) == wd.w


def test_fiber_product_accounting():
    for q in (3, 5, 9, 13, 25):
        ch = milnor_witt(finite_field(q), 1, 4)
        for n in range(1, 5):
            assert fiber_product_order_check(ch, n), (q, n)


def test_complete_kmw_examples():
    C = complex_like()
    c2 = complete_kmw(milnor_witt(C, -5, 5), 2)
    assert c2.group(0).free_rank == 1 and c2.group(0).completed_at == 2
    for n in range(-5, 0):
        assert c2.group(n).torsion == (2,)
    for n in range(1, 6):
        assert c2.group(n).is_zero()
    c3 = complete_kmw(milnor_witt(C, -5, 5), 3)
    assert [n for n in range(-5, 6) if not c3.group(n).is_zero()] == [0]
    # zero chart stays zero
    empty = milnor_witt(complex_like(), 3, 5)
    done = complete_kmw(empty, 3)
    assert all(done.group(n).is_zero() for n in range(3, 6))


def test_complete_kmw_idempotent():
    C = complex_like()
    once = complete_kmw(milnor_witt(C, -4, 4), 2)
    twice = complete_kmw(once, 2)
    assert once == twice


def test_free_basis_examples():
    C = complex_like()
    for p in (2, 3, 5):
        ch = complete_kmw(milnor_witt(C, -6, 6), p)
        assert free_basis(ch, p, field=C) == {0: 1}
    A = algebraically_closed(7)
    ch = complete_kmw(milnor_witt(A, -6, 6), 3)
    assert free_basis(ch, 3, field=A) == {0: 1}


def test_free_basis_two_generators():
    k = default_catalog()["twogen"]
    for p in (2, 3):
        ch = complete_kmw(milnor_witt(k, -6, 6), p)
        assert free_basis(ch, p, field=k) == {0: 1, -1: 1}


def test_free_basis_roundtrip():
    k = default_catalog()["twogen"]
    ch = complete_kmw(milnor_witt(k, -6, 6), 2)
    basis = free_basis(ch, 2, field=k)
    rebuilt = rebuild_from_basis(basis, 2, ch.lo, ch.hi)
    assert rebuilt == {n: g for n, g in ch.kmw.items()}


def test_free_basis_rejects_non_tate_orientable():
    R = real_closed()
    ch = complete_kmw(milnor_witt(R, -4, 4), 2)
    with pytest.raises(FieldError):
        free_basis(ch, 2, field=R)
    # shape failure is also detected without the field guard
    with pytest.raises(NotFreeError):
        free_basis(ch, 2)


def test_roots_of_unity_and_tate():
    assert complex_like().tate_orientable(2)
    assert algebraically_closed(7).tate_orientable(5)
    assert not algebraically_closed(7).tate_orientable(7)
    assert not finite_field(5).tate_orientable(2)
    assert finite_field(5).roots_of_unity(2) == 2  # mu_4 in F_5
    assert real_closed().roots_of_unity(2) == 1
    tower = default_catalog()["F7_cyclo3"]
    assert tower.tate_orientable(3)
    assert not tower.tate_orientable(2)


def test_catalog_roundtrip(tmp_path):
    import json
    from stemcharts.catalog import catalog_to_json, load_catalog
    cat = default_catalog()
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(catalog_to_json(cat)))
    loaded = load_catalog(json.loads(path.read_text()))
    assert set(loaded) >= set(cat)
    for name, fd in cat.items():
        assert loaded[name] == fd, name
    k = loaded["twogen"]
    ch = complete_kmw(milnor_witt(k, -4, 4), 3)
    assert free_basis(ch, 3, field=k) == {0: 1, -1: 1}

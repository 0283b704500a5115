import pytest

from stemcharts.catalog import default_catalog
from stemcharts.charts import (charts_same_groups, chow_weight, complete_desc,
                               cyclic, free_group, truncate_chart)
from stemcharts.fields import algebraically_closed, complex_like, real_closed
from stemcharts.stems import (Box, PreconditionError, anss_e1, degeneration_range,
                              mgl_homotopy, morel_zero_line, synthetic_stems,
                              tensor_formula)


def test_morel_zero_line_complex():
    m = morel_zero_line(complex_like(), -3, 3)
    assert m.group(0, 0).free_rank == 1          # GW(C) = Z
    for n in range(1, 4):
        assert m.group(n, n).torsion == (2,)     # W(C) = Z/2
        assert m.group(-n, -n).divisible         # K^MW_n divisible
    # below the diagonal in the stated indexing: zero
    assert m.group(-1, 0).is_zero()


def test_morel_zero_line_real_closed():
    m = morel_zero_line(real_closed(), -2, 2)
    assert m.group(0, 0).free_rank == 2          # GW(R) = Z^2


def _partition(n):
    from stemcharts.stems import _colored_partition_counts
    return _colored_partition_counts(1, n)[n]


def test_mgl_homotopy_lazard_line():
    A = algebraically_closed(0)
    box = Box(0, 10, 0, 5)
    ch = mgl_homotopy(A, 3, box)
    # (2i, i)-line: free of rank = number of Lazard monomials of degree i,
    # checked against an independent generating-function count
    gen_counts = [1]
    for n in range(1, 6):
        gen_counts.append(_partition(n))
    for i in range(0, 6):
        g = ch.group(2 * i, i)
        assert g.free_rank == gen_counts[i], (i, g)
        assert g.completed_at == 3


def test_mgl_chow_nonnegative():
    A = algebraically_closed(0)
    ch = mgl_homotopy(A, 3, Box(-6, 8, -4, 4))
    assert truncate_chart(ch, chow_weight(), 0, "ge") == ch
    for (i, j) in ch.entries:
        assert i - 2 * j >= 0


def test_mgl_finite_field_torsion():
    from stemcharts.fields import finite_field
    ch = mgl_homotopy(finite_field(7), 3, Box(-4, 4, -3, 3))
    # K_1^M(F_7) = Z/6: 3-completed to Z/3, placed at (-1, -1) + shifts
    assert ch.group(-1, -1).torsion == (3,)
    assert ch.group(1, 0).torsion == (3,)  # x_1-shift of the K_1 class


# sha256 of the sorted-key JSON of mgl_homotopy (level None) and of the
# ANSS E_1 levels 0-2, completed at 3
MGL_DIGESTS = {
    ("F7", None): "6fe7c12f41a08158e5e922c99791a1134b44fbb436ed2b4bc7bdc625cfe8cf65",
    ("F7", 0): "94ef95794329bb76c56d78ce9bc3f859d152895456857d5f9076f0982d53a3c1",
    ("F7", 1): "20dcee1a4249fca9ff44c5df89598116e183c249103acbaf48a71085a215065d",
    ("F7", 2): "85841ff6c3d647572d78de7ffb3a71fd573287b0c37428af341139c6ddbaa038",
    ("algclosed0", None):
        "a2ce3a86c65120dcd3007971f43fc6171b111cf983e65bb64f3f26eaaae97f01",
    ("algclosed0", 0):
        "bf22825d57f1d5eaac37702857a2afce2b1305c476001aed8c7ab0837cc3e451",
    ("algclosed0", 1):
        "822472345050e68aaf4c6719dc1eb0649c28c7ccb52a88a4cf11f0debe97d356",
    ("algclosed0", 2):
        "0b4e3975ae95abeebbd4218935fa7c3a5ed480d509505b33639832affe7b56f3",
}


@pytest.mark.parametrize("field,level", MGL_DIGESTS, ids=str)
def test_mgl_and_anss_pinned(field, level):
    import hashlib
    import json
    from stemcharts.fields import finite_field
    k, box = {"F7": (finite_field(7), Box(-4, 4, -3, 3)),
              "algclosed0": (algebraically_closed(0), Box(0, 10, 0, 5))}[field]
    ch = mgl_homotopy(k, 3, box) if level is None else anss_e1(k, 3, level, box)
    text = json.dumps(ch.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == MGL_DIGESTS[field, level]


def test_mgl_char_guard():
    with pytest.raises(PreconditionError):
        mgl_homotopy(algebraically_closed(3), 3, Box(0, 2, 0, 2))


def test_anss_levels():
    A = algebraically_closed(0)
    box = Box(0, 8, 0, 4)
    e0 = anss_e1(A, 3, 0, box)
    assert e0 == mgl_homotopy(A, 3, box)
    e1 = anss_e1(A, 3, 1, box)
    # free module on the cooperations monomial basis over the s=0 line:
    # rank at (2d, d) equals the 2-colored count
    from stemcharts.stems import _colored_partition_counts
    c2 = _colored_partition_counts(2, 8)
    for d in range(0, 5):
        assert e1.group(2 * d, d).free_rank == c2[d]
    assert not anss_e1(A, 3, 1, Box(3, 2, 0, 0)).entries
    with pytest.raises(PreconditionError):
        anss_e1(A, 3, -1, box)


def test_degeneration_ranges():
    assert degeneration_range(2) == 0
    assert degeneration_range(3) == 20
    assert degeneration_range(5) == 37
    assert degeneration_range(7) == 81


def test_synthetic_p3_acceptance_entries():
    syn = synthetic_stems(3, 12)
    expected = {(0, 0): "Z3", (3, 2): "3", (7, 4): "3",
                (10, 6): "3", (11, 6): "9"}
    assert {k: g.shorthand() for k, g in syn.chart.entries.items()} == expected
    # filtration annotations live on the Adams-Novikov lanes
    assert syn.filtrations[(3, 2)] == ((1, 3),)
    assert syn.filtrations[(10, 6)] == ((2, 3),)


def test_synthetic_computed_vs_table():
    syn = synthetic_stems(3, 12)
    tbl = synthetic_stems(3, 12, source="table")
    assert charts_same_groups(syn.chart, tbl.chart)


def test_synthetic_degeneration_guard():
    with pytest.raises(PreconditionError):
        synthetic_stems(3, 25)
    with pytest.raises(PreconditionError):
        synthetic_stems(2, 5)  # computed source forbidden at p = 2


def test_synthetic_p2_pi0_row():
    syn = synthetic_stems(2, 7, source="table")
    row = {-w: g for (n, w), g in syn.chart.entries.items() if n == w}
    assert row[0].free_rank == 1 and row[0].completed_at == 2
    for twist in range(-5, 0):
        assert row[twist].torsion == (2,), twist


def test_synthetic_pi0_row_odd():
    for p in (3, 5):
        syn = synthetic_stems(p, 10 if p == 3 else 16)
        row = {-w: g for (n, w), g in syn.chart.entries.items() if n == w}
        assert set(row) == {0}
        assert row[0].free_rank == 1


def test_tensor_formula_identity_cases():
    syn3 = synthetic_stems(3, 12)
    for k in (complex_like(), algebraically_closed(0), algebraically_closed(7)):
        t = tensor_formula(k, 3, 12)
        assert charts_same_groups(t, syn3.chart), k.describe()
    syn2 = synthetic_stems(2, 7, source="table")
    t2 = tensor_formula(complex_like(), 2, 7)
    assert charts_same_groups(t2, syn2.chart)


def test_tensor_formula_two_generator_shift():
    k = default_catalog()["twogen"]
    syn = synthetic_stems(3, 10)
    t = tensor_formula(k, 3, 10)
    from stemcharts.charts import chart_shift, chart_sum
    expected = chart_sum(syn.chart, chart_shift(syn.chart, -1, -1))
    assert charts_same_groups(t, expected)


def test_tensor_formula_diagonal_agreement():
    cat = default_catalog()
    tate_fields = [(name, k) for name, k in sorted(cat.items())
                   if k.tate_orientable(3)]
    assert tate_fields
    for name, k in tate_fields:
        t = tensor_formula(k, 3, 12)
        mz = morel_zero_line(k, -5, 5)
        for n in range(-5, 6):
            lhs = t.group(n, n)
            rhs = complete_desc(mz.group(n, n), 3)
            assert lhs.same_group(rhs), (name, n, lhs, rhs)


def test_tensor_formula_recompletion_stable():
    from stemcharts.charts import complete_chart
    t = tensor_formula(complex_like(), 3, 12)
    again = complete_chart(t, 3)
    assert charts_same_groups(t, again)


def test_tensor_formula_rejects_non_orientable():
    with pytest.raises(PreconditionError):
        tensor_formula(real_closed(), 3, 8)
    from stemcharts.fields import finite_field
    with pytest.raises(PreconditionError):
        tensor_formula(finite_field(5), 3, 8)


def test_synthetic_svg_dot_positions():
    from stemcharts.render import render_svg
    syn = synthetic_stems(3, 12)
    svg = render_svg(syn.chart, view="ij")
    # one glyph group per populated stem: 0, 3, 7, 10, 11
    assert svg.count("<circle") == 5
    stems = sorted({n for (n, _) in syn.chart.entries})
    assert stems == [0, 3, 7, 10, 11]


def test_p2_table_matches_cobar_engine():
    # the built-in p=2 table stores the Ext-layer chart; the engine must
    # reproduce it entry by entry (stems <= 7 need s <= 8, t <= 16)
    from stemcharts.hopf import build_algebroid
    from stemcharts.extcharts import ext_chart
    alg = build_algebroid("p_typical", 8, p=2)
    ec = ext_chart(alg, 2, 10, s_max=8, t_max=16)
    computed = {}
    for (s, t), g in ec.chart.entries.items():
        n = t - s
        if n <= 7:
            w = t // 2
            cur = computed.get((n, w))
            computed[(n, w)] = g if cur is None else cur.direct_sum(g)
    tbl = synthetic_stems(2, 7, source="table")
    assert set(computed) == set(tbl.chart.entries)
    for key, g in computed.items():
        assert g.same_group(tbl.chart.group(*key)) or (
            g.free_rank == tbl.chart.group(*key).free_rank
            and g.torsion == tbl.chart.group(*key).torsion), key


def test_p3_full_degeneration_range_vs_classical():
    # every stem column through the full degeneration range (<= 20) has the
    # 3-primary order of the classical stable stem
    from stemcharts.hopf import build_algebroid
    from stemcharts.extcharts import ext_chart, stable_stems_reference
    alg = build_algebroid("p_typical", 14, p=3)
    ec = ext_chart(alg, 3, 10, s_max=8, t_max=28)
    ref = stable_stems_reference(3)
    for stem in range(1, 21):
        total = 1
        for (s, t), g in ec.chart.entries.items():
            if t - s == stem:
                total *= g.order()
        want = 1
        for q in ref.get(stem, ()):
            want *= q
        assert total == want, (stem, total, want)

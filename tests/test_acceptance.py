"""Acceptance suite: one test per criterion, one pass/fail line each.

Criteria 1, 3, 4, 6, 7 and 8 run the checks of `stemcharts.checks` at
`FULL` scale, the same functions `stemcharts check` runs at desk scale; a
failing criterion names the failing check lines.  Run with
`pytest tests/test_acceptance.py -s` to see the lines as they pass.  All
tolerances are exact; the timed criteria assert their stated wall-clock
budgets.
"""

import time

from stemcharts.catalog import default_catalog
from stemcharts.charts import (charts_same_groups, chart_shift, chart_sum,
                               chow_weight, truncate_chart)
from stemcharts.checks import (FULL, check_charts, check_ext, check_fpt,
                               check_hopf, check_milnor, check_stems,
                               classical_stem_mismatches, diagonal_pairs)
from stemcharts.extcharts import ext_chart
from stemcharts.fields import algebraically_closed
from stemcharts.hopf import build_algebroid
from stemcharts.stems import Box, anss_e1, mgl_homotopy, synthetic_stems, tensor_formula


def report(n: int, text: str):
    print(f"[PASS] criterion {n}: {text}")


def assert_lines_pass(check):
    """Run a shared check at full scale; fail naming every failing line."""
    failed = [line for line, ok in check(FULL) if not ok]
    assert not failed, f"failing lines: {failed}"


def test_criterion_1_anss_p3():
    t0 = time.time()
    # the E2 chart against the known table and the unnormalized cobar
    # complex, then the classical stems per stem column
    assert_lines_pass(check_ext)
    elapsed = time.time() - t0
    assert elapsed <= 300, f"criterion 1 exceeded budget: {elapsed:.1f}s"
    report(1, f"ANSS E2 at p=3 (stems <= 12, s <= 6) exact in {elapsed:.1f}s")


def test_criterion_2_anss_p5():
    t0 = time.time()
    alg = build_algebroid("p_typical", 11, p=5)
    ec = ext_chart(alg, 5, 10, s_max=6, t_max=22)
    entries = {(t - s, s): g for (s, t), g in ec.chart.entries.items()
               if t - s <= 16 and s <= 6}
    expected = {(0, 0): "free", (7, 1): 5, (15, 1): 5}
    assert set(entries) == set(expected)
    assert entries[(7, 1)].order() == 5
    assert entries[(15, 1)].order() == 5
    assert entries[(0, 0)].free_rank == 1
    ec_un = ext_chart(alg, 5, 10, s_max=6, t_max=22, normalized=False)
    assert charts_same_groups(ec.chart, ec_un.chart)
    mismatches = classical_stem_mismatches(ec, 16)
    assert not mismatches, mismatches
    elapsed = time.time() - t0
    assert elapsed <= 300, f"criterion 2 exceeded budget: {elapsed:.1f}s"
    report(2, f"ANSS E2 at p=5 (stems <= 16) exact in {elapsed:.1f}s")


def test_criterion_3_hopf_axioms_bound_10():
    t0 = time.time()
    assert_lines_pass(check_hopf)  # verify() runs on construction
    elapsed = time.time() - t0
    report(3, f"Hopf axioms at bound 10 (universal, p=2,3,5) and d^2=0 for "
              f"s <= 2, degree <= 5 in {elapsed:.1f}s")


def test_criterion_4_tensor_formula():
    assert_lines_pass(check_stems)
    cat = default_catalog()
    syn2 = synthetic_stems(2, 7, source="table")
    t2 = tensor_formula(cat["complex"], 2, 7)
    assert charts_same_groups(t2, syn2.chart)
    # custom two-generator basis {0, -1}: two-fold shifted sum
    k2 = cat["twogen"]
    for p, syn in ((2, syn2), (3, synthetic_stems(3, 12))):
        got = tensor_formula(k2, p, syn.degeneration_max)
        expected = chart_sum(syn.chart, chart_shift(syn.chart, -1, -1))
        assert charts_same_groups(got, expected), p
    tested = len(diagonal_pairs(FULL))
    assert tested >= 6
    report(4, f"tensor formula identity/shift cases and diagonal agreement "
              f"({tested} field/prime pairs)")


def test_criterion_5_pi0_rows():
    syn2 = synthetic_stems(2, 7, source="table")
    row = {-w: g for (n, w), g in syn2.chart.entries.items() if n == w}
    assert row[0].free_rank == 1 and row[0].completed_at == 2
    for twist in (-1, -2, -3, -4, -5):
        assert row[twist].torsion == (2,) and row[twist].free_rank == 0
    for p, stem_max in ((3, 12), (5, 16)):
        syn = synthetic_stems(p, stem_max)
        row = {-w: g for (n, w), g in syn.chart.entries.items() if n == w}
        assert set(row) == {0} and row[0].free_rank == 1
    report(5, "pi_0 synthetic: Z_2[eta]/2eta at p=2 (5 negative twists), "
              "Z_p at weight 0 for p=3,5")


def test_criterion_6_fpt_suite():
    t0 = time.time()
    assert_lines_pass(check_fpt)
    elapsed = time.time() - t0
    assert elapsed <= 120, f"criterion 6 exceeded budget: {elapsed:.1f}s"
    _, count, _ = FULL.random_modules
    report(6, f"F_p[[t]] suite: exhaustive dim<=4 + {count} random modules "
              f"in {elapsed:.1f}s")


def test_criterion_7_milnor_oracles():
    t0 = time.time()
    assert_lines_pass(check_milnor)
    elapsed = time.time() - t0
    assert elapsed <= 60, f"criterion 7 exceeded budget: {elapsed:.1f}s"
    report(7, f"Steinberg K_2(F_q)=0 and K_1=Z/(q-1) for q < {FULL.q_below}, "
              f"Witt enumerations in {elapsed:.1f}s")


def test_criterion_8_chow_weight_suite():
    assert_lines_pass(check_charts)
    mgl = mgl_homotopy(algebraically_closed(0), 3, Box(-6, 10, -5, 5))
    assert truncate_chart(mgl, chow_weight(), 0, "ge") == mgl
    e1 = anss_e1(algebraically_closed(0), 3, 1, Box(-6, 8, -4, 4))
    assert truncate_chart(e1, chow_weight(), 0, "ge") == e1
    report(8, f"f_d superadditivity (d<={FULL.fd_max}, window "
              f"{FULL.fd_window}), truncation algebra, Chow invariance, "
              "MGL non-negativity")


def test_criterion_9_cli_determinism(tmp_path):
    from stemcharts.cli import main

    def capture(argv, path):
        out = tmp_path / path
        rc = main(argv + ["--out", str(out)])
        assert rc == 0
        return out.read_bytes()

    commands = [
        (["ext", "--prime", "3", "--smax", "4", "--tmax", "12"], "e.json"),
        (["ext", "--prime", "3", "--smax", "4", "--tmax", "12",
          "--format", "svg"], "e.svg"),
        (["kmw", "--field", "complex", "--range=-4:4", "--complete", "2",
          "--basis"], "k.json"),
        (["stems", "--field", "complex", "--prime", "3", "--stem-max", "12"],
         "s.json"),
        (["stems", "--field", "twogen", "--prime", "2", "--stem-max", "7",
          "--format", "svg"], "s.svg"),
        (["synthetic", "--prime", "2", "--stem-max", "7", "--source", "table"],
         "y.json"),
        (["catalog"], "c.json"),
    ]
    for argv, name in commands:
        first = capture(argv, "a_" + name)
        second = capture(argv, "b_" + name)
        assert first == second, argv
    report(9, f"{len(commands)} CLI commands re-run byte-identically "
              "(JSON and SVG)")

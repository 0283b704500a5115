"""CLI outputs compared byte for byte against committed golden files.

The decompose reports pin the witnesses (inclusions, retractions and the
torsion-power witness vector), which depend on the lex-first pivoting of
the F_p linear algebra, not only on the module's isomorphism type.  The
module inputs, stored next to their reports, are the Jordan type [3, 1] at
p = 2 and four conjugated Jordan types at p = 2, 3, 5 of dimension 9 to 12.
The universal Ext charts (p = 2, t <= 16, algebroid bound 8, and p = 3,
t <= 20, algebroid bound 10) are the end-to-end runs of the Lazard
algebroid through the CLI; the second sums the universal law at bound 10.
"""

import json
import os

import pytest

from stemcharts import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _module(name):
    return ["decompose", "--module-file", os.path.join(GOLDEN, name)]


CASES = [
    (_module("module_p2_j3_1.json"), "cli_decompose_p2_j3_1.json"),
    (_module("module_p2_j8_2_1_1.json"), "cli_decompose_p2_j8_2_1_1.json"),
    (_module("module_p3_j3_3_2_1.json"), "cli_decompose_p3_j3_3_2_1.json"),
    (_module("module_p3_j9_3.json"), "cli_decompose_p3_j9_3.json"),
    (_module("module_p5_j5_4_2_1.json"), "cli_decompose_p5_j5_4_2_1.json"),
    (_module("ind_p3_pruefer.json"), "cli_decompose_ind_p3_pruefer.json"),
    (["check", "--suite", "fpt"], "cli_check_fpt.txt"),
    (["check", "--suite", "all"], "cli_check_all.txt"),
    (["stems", "--field", "complex", "--prime", "3", "--stem-max", "12",
      "--format", "svg"], "cli_stems_complex_p3_s12.svg"),
    (["synthetic", "--prime", "5", "--stem-max", "37", "--format", "json"],
     "cli_synthetic_p5_s37.json"),
    (["kmw", "--field", "twogen", "--range=-5:5", "--complete", "3", "--basis",
      "--format", "grid"], "cli_kmw_twogen_c3_grid.txt"),
    (["ext", "--kind", "universal", "--prime", "2", "--tmax", "16",
      "--format", "json"], "cli_ext_universal_p2_t16.json"),
    (["ext", "--kind", "universal", "--prime", "3", "--tmax", "20",
      "--format", "json"], "cli_ext_universal_p3_t20.json"),
    (["kmw", "--field", "F7_cyclo3", "--range=-5:5", "--complete", "3", "--basis",
      "--format", "json"], "cli_kmw_f7cyclo3_c3_basis.json"),
    (["stems", "--field", "F7_cyclo3", "--prime", "3", "--stem-max", "12",
      "--format", "json"], "cli_stems_f7cyclo3_p3_s12.json"),
    (["stems", "--field", "twogen", "--prime", "2", "--stem-max", "7",
      "--format", "json"], "cli_stems_twogen_p2_s7.json"),
    (["synthetic", "--prime", "2", "--stem-max", "7", "--source", "table",
      "--format", "json"], "cli_synthetic_p2_s7_table.json"),
]


@pytest.mark.parametrize("argv,golden", CASES, ids=[g for _, g in CASES])
def test_cli_golden(argv, golden, capsys, monkeypatch):
    monkeypatch.delenv("STEMCHARTS_CACHE_DIR", raising=False)
    assert cli.main(argv) == 0
    with open(os.path.join(GOLDEN, golden), encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()


def test_torsion_power_witness_pinned(capsys):
    assert cli.main(_module("module_p2_j3_1.json")) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["torsion_power_witness"] == {"n": 1, "vector": [0, 0, 1, 0]}

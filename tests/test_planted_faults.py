"""Planted faults for the lines of `check --suite charts`.

Each case monkeypatches one function of `stemcharts.charts` to give a
plausible wrong answer and runs `check` on the suite: the line that
guards that function must turn `[FAIL]`, and `check` must exit 1.  The
checks import these names at call time, so the patched module reaches
them.
"""

import pytest

from stemcharts import charts
from stemcharts.cli import main

SUPERADDITIVITY = "f_d superadditivity, d <= 7, window 25"
IDEMPOTENT = "truncation idempotent"
COMPLEMENTARY = "ge/lt truncation complementary"
INVARIANCE = "chow degree (2,1)-invariance"


def _without_first_cell(chart: charts.BigradedChart) -> charts.BigradedChart:
    entries = dict(chart.entries)
    entries.pop(min(entries), None)
    return charts.BigradedChart(entries, chart.label, chart.prime)


def fd_weight_off_by_one(real):
    """f_d one too large at n = 1."""
    return lambda d: (lambda n, f=real(d): f(n) + (n == 1))


def truncation_dropping_a_cell(real):
    return lambda *args: _without_first_cell(real(*args))


def sum_dropping_a_cell(real):
    return lambda a, b: _without_first_cell(real(a, b))


def chow_degree_shifted(real):
    """The Chow degree one too large for i > 0."""
    return lambda i, j: real(i, j) + (i > 0)


PLANTS = {
    "fd_weight": (fd_weight_off_by_one, SUPERADDITIVITY),
    "truncate_chart": (truncation_dropping_a_cell, IDEMPOTENT),
    "chart_sum": (sum_dropping_a_cell, COMPLEMENTARY),
    "chow_degree": (chow_degree_shifted, INVARIANCE),
}


def check_charts(capsys) -> tuple[int, list[str]]:
    code = main(["check", "--suite", "charts"])
    return code, capsys.readouterr().out.splitlines()


def test_charts_suite_passes_unplanted(capsys):
    code, lines = check_charts(capsys)
    assert code == 0
    assert lines == [f"[PASS] {line}" for line in
                     (SUPERADDITIVITY, IDEMPOTENT, COMPLEMENTARY, INVARIANCE)]


@pytest.mark.parametrize("name", PLANTS)
def test_planted_fault_fails_its_line(monkeypatch, capsys, name):
    plant, line = PLANTS[name]
    monkeypatch.setattr(charts, name, plant(getattr(charts, name)))
    code, lines = check_charts(capsys)
    assert code == 1
    assert f"[FAIL] {line}" in lines

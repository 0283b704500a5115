import json
import os
import subprocess
import sys
import time

import pytest

from stemcharts import cli, schema
from stemcharts.cache import cache_key, cache_load, cache_store
from stemcharts.catalog import get_field
from stemcharts.charts import (AbGroupDesc, BigradedChart, charts_same_groups,
                               cyclic, free_group)
from stemcharts.cli import main
from stemcharts.kmw import milnor_witt
from stemcharts.render import render_svg, render_text


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_ext_json(capsys):
    code, out = run(capsys, "ext", "--prime", "3", "--smax", "3",
                    "--tmax", "12", "--precision", "6")
    assert code == 0
    obj = json.loads(out)
    assert obj["axes"] == ["s", "t"]
    entries = {(e["i"], e["j"]): e for e in obj["entries"]}
    assert entries[(1, 4)]["torsion"] == [3]


def test_ext_grid_and_svg(capsys):
    code, grid = run(capsys, "ext", "--prime", "3", "--smax", "2",
                     "--tmax", "8", "--format", "grid")
    assert code == 0 and "Z3" in grid
    code, svg = run(capsys, "ext", "--prime", "3", "--smax", "2",
                    "--tmax", "8", "--format", "svg")
    assert code == 0 and svg.startswith("<svg") and "</svg>" in svg


def test_kmw_with_basis(capsys):
    code, out = run(capsys, "kmw", "--field", "complex", "--range=-4:4",
                    "--complete", "3", "--basis")
    assert code == 0
    obj = json.loads(out)
    assert obj["free_basis"] == {"0": 1}
    assert obj["kmw"]["0"]["completed_at"] == 3


def test_stems_command(capsys):
    code, out = run(capsys, "stems", "--field", "complex", "--prime", "3",
                    "--stem-max", "12")
    assert code == 0
    obj = json.loads(out)
    stems = {(e["i"], e["j"]) for e in obj["entries"]}
    assert (11, 6) in stems


def test_synthetic_table_p2(capsys):
    code, out = run(capsys, "synthetic", "--prime", "2", "--stem-max", "7",
                    "--source", "table")
    assert code == 0
    obj = json.loads(out)
    assert obj["source"] == "table"


def test_exit_code_precondition(capsys):
    code, _ = run(capsys, "stems", "--field", "real_closed", "--prime", "3",
                  "--stem-max", "5")
    assert code == 2
    code, _ = run(capsys, "synthetic", "--prime", "2", "--stem-max", "5")
    assert code == 2


@pytest.mark.parametrize("argv,last_stem", [
    (["synthetic", "--prime", "3", "--source", "table", "--stem-max", "20"], 12),
    (["stems", "--field", "complex", "--prime", "2"], 7)],
    ids=["synthetic", "stems"])
def test_builtin_table_ends_at_its_last_stem(capsys, argv, last_stem):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"ends at stem {last_stem}" in captured.err


def test_exit_code_precision(capsys):
    code, _ = run(capsys, "ext", "--prime", "2", "--smax", "2", "--tmax", "8",
                  "--precision", "2")
    assert code == 3


def test_exit_code_hopf_axiom_failure(monkeypatch, tmp_path, capsys):
    from stemcharts.hopf import HopfAlgebroid, HopfAxiomError

    def broken(self):
        raise HopfAxiomError("coassociativity fails at t1")
    monkeypatch.setattr(HopfAlgebroid, "verify", broken)
    cache = tmp_path / "cache"
    code = main(["ext", "--prime", "3", "--tmax", "8", "--cache-dir", str(cache)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "engine invariant broken: coassociativity fails at t1" in captured.err
    assert not list(cache.glob("*.json"))


@pytest.mark.parametrize("defect,message", [
    (lambda hnf: hnf[1:], "empty lattice"),
    (lambda hnf: hnf[1:] if len(hnf) > 1 else hnf, "decomposable not in lattice"),
    (lambda hnf: [[2 * a for a in hnf[0]], *hnf[1:]] if len(hnf) > 1 else hnf,
     "decomposable has non-integral coordinates"),
], ids=["empty", "outside", "non-integral"])
def test_exit_code_lazard_lattice_defect(monkeypatch, capsys, defect, message):
    # a Hermite form that lost or scaled a row breaks the Lazard lattice step
    from stemcharts import fgl
    integer_hnf = fgl._integer_hnf
    monkeypatch.setattr(fgl, "_integer_hnf", lambda rows: defect(integer_hnf(rows)))
    monkeypatch.delenv("STEMCHARTS_CACHE_DIR", raising=False)
    code = main(["ext", "--kind", "universal", "--prime", "2", "--tmax", "8"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert f"engine invariant broken: {message}" in captured.err


def test_exit_code_eta_r_leaves_lazard_ring(monkeypatch, capsys):
    # a halved x_2 makes eta_R(x_2) non-integral in the x-basis: the peel's
    # ValueError is an engine defect, not a traceback out of main
    from fractions import Fraction
    from stemcharts.fgl import UniversalFGL
    compute = UniversalFGL._compute_integral_generators

    def halved(self):
        compute(self)
        self._xgens[1] = self._xgens[1].scale(Fraction(1, 2))
    monkeypatch.setattr(UniversalFGL, "_compute_integral_generators", halved)
    monkeypatch.delenv("STEMCHARTS_CACHE_DIR", raising=False)
    code = main(["ext", "--kind", "universal", "--prime", "2", "--tmax", "8"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert "engine invariant broken: eta_R(x2) leaves the Lazard ring: " \
        "element is not integral in the x-basis" in captured.err


def test_exit_code_differential_leaves_the_basis(monkeypatch, capsys):
    # t1 (x) t1^5 in Delta(t1), past verification: the coded cobar builder
    # meets a Gamma-monomial above the bound
    from stemcharts.hopf import build_algebroid

    def planted_build(*args, **kwargs):
        alg = build_algebroid(*args, **kwargs)
        delta = alg.delta
        term = ((), (((0, 1),), ((0, 5),)))
        alg.delta = lambda m: {**delta(m), term: 1} if m == ((0, 1),) else delta(m)
        return alg
    monkeypatch.setattr(cli, "build_algebroid", planted_build)
    monkeypatch.delenv("STEMCHARTS_CACHE_DIR", raising=False)
    code = main(["ext", "--prime", "2", "--tmax", "8"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert "engine invariant broken: differential leaves the basis at " \
        "((), (((0, 1),), ((0, 5),)))" in captured.err


def test_exit_code_synthetic_lane_failure(monkeypatch, capsys):
    # an Ext entry at odd t sits off its lane n + s = 2w
    from types import SimpleNamespace
    from stemcharts import stems

    def odd_t(*args, **kwargs):
        return SimpleNamespace(chart=BigradedChart({(1, 3): cyclic(3)}))
    monkeypatch.setattr(stems, "ext_chart", odd_t)
    monkeypatch.delenv("STEMCHARTS_CACHE_DIR", raising=False)
    code = main(["synthetic", "--prime", "3"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "engine invariant broken: filtration annotation out of lane" \
        in captured.err


def test_decompose_command(tmp_path, capsys):
    mod = {"p": 2, "dim": 3, "t": [0, 0, 0, 1, 0, 0, 0, 1, 0]}
    path = tmp_path / "module.json"
    path.write_text(json.dumps(mod))
    code, out = run(capsys, "decompose", "--module-file", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["free_parts"] == [[3, 1]]
    assert report["torsion_power_condition"] is False


def test_decompose_decomposes_once(monkeypatch, capsys):
    import stemcharts.cli
    import stemcharts.fpt
    calls = []
    original = stemcharts.fpt.decompose

    def counted(M):
        calls.append(M)
        return original(M)
    monkeypatch.setattr(stemcharts.fpt, "decompose", counted)
    monkeypatch.setattr(stemcharts.cli, "decompose", counted)
    path = os.path.join(os.path.dirname(__file__), "golden", "module_p3_j9_3.json")
    code, _ = run(capsys, "decompose", "--module-file", path)
    assert code == 0 and len(calls) == 1


def test_decompose_inclusions_that_do_not_span(monkeypatch, capsys):
    import stemcharts.fpt
    original = stemcharts.fpt.extract_free

    def lossy(M, n):
        spl = original(M, n)
        spl.inclusion = [[0] * len(row) for row in spl.inclusion]
        return spl
    monkeypatch.setattr(stemcharts.fpt, "extract_free", lossy)
    path = os.path.join(os.path.dirname(__file__), "golden", "module_p3_j9_3.json")
    code = main(["decompose", "--module-file", path])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "the free parts do not reassemble the module" in captured.err


def test_check_failure_is_reported(monkeypatch, capsys):
    monkeypatch.setattr("stemcharts.fields.steinberg_k2", lambda q: 2)
    code, out = run(capsys, "check", "--suite", "milnor")
    assert code == 1
    assert "[FAIL] Steinberg: K2(F_q)=0 for q in [2, 3, 4, 5" in out
    assert "[PASS] Witt enumeration over F_3" in out


def test_broken_oracle_fails_its_suite(monkeypatch, capsys):
    # a reducible modulus x^2 for F_9 makes x a zero divisor, so the
    # oracle's unit order overflows: a failed check, not a rejected input
    from stemcharts import checks
    from stemcharts.fields import SmallFiniteField
    init = SmallFiniteField.__init__

    def planted(self, q):
        init(self, q)
        if q == 9:
            self.modpoly = (0, 0, 1)
    monkeypatch.setattr(SmallFiniteField, "__init__", planted)
    monkeypatch.setattr(checks, "SUITES", {"milnor": checks.check_milnor,
                                           "charts": checks.check_charts})
    for suite in ("milnor", "all"):
        code = main(["check", "--suite", suite])
        captured = capsys.readouterr()
        assert code == 1
        assert "[FAIL] milnor: FieldError: order overflow" in captured.out
        assert "precondition violated" not in captured.err
    # the next suite still runs
    assert captured.out.endswith("[PASS] chow degree (2,1)-invariance\n")


def test_decompose_ind_system(tmp_path, capsys):
    data = {
        "modules": [{"p": 2, "dim": 1, "t": [0]},
                    {"p": 2, "dim": 2, "t": [0, 0, 1, 0]}],
        "maps": [[[0], [1]]],
        "stable_from": 0,
    }
    path = tmp_path / "ind.json"
    path.write_text(json.dumps(data))
    code, out = run(capsys, "decompose", "--module-file", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "ind_system"
    assert report["divisible_rank"] == 1


def test_render_roundtrip(tmp_path, capsys):
    chart = BigradedChart({(0, 0): free_group(1), (3, 2): cyclic(3)},
                          label="demo")
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(chart.to_json()))
    code, out = run(capsys, "render", "--chart-file", str(path),
                    "--format", "grid")
    assert code == 0 and "demo" in out and "Z" in out


def test_render_large_prime_torsion(tmp_path, capsys):
    q = 2 ** 61 - 1
    chart = BigradedChart({(0, 0): free_group(1), (1, 1): AbGroupDesc(torsion=(q,))},
                          label="big")
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(chart.to_json()))
    start = time.perf_counter()
    code, out = run(capsys, "render", "--chart-file", str(path), "--format", "grid")
    assert code == 0 and str(q) in out
    assert time.perf_counter() - start < 1.0


def test_catalog_commands(capsys):
    code, out = run(capsys, "catalog", "--names-only")
    assert code == 0 and "complex" in out and "twogen" in out
    code, out = run(capsys, "catalog", "--show", "F5")
    assert code == 0 and json.loads(out)["variant"] == "finite"


def test_determinism_byte_identical(capsys, tmp_path):
    argv = ["stems", "--field", "complex", "--prime", "3", "--stem-max", "10"]
    _, out1 = run(capsys, *argv)
    _, out2 = run(capsys, *argv)
    assert out1 == out2
    argv_svg = argv + ["--format", "svg"]
    _, svg1 = run(capsys, *argv_svg)
    _, svg2 = run(capsys, *argv_svg)
    assert svg1 == svg2


def test_cache_roundtrip(tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = ["ext", "--prime", "3", "--smax", "2", "--tmax", "8",
            "--cache-dir", str(cache)]
    _, out1 = run(capsys, *argv)
    files = list(cache.glob("*.json"))
    assert len(files) == 1
    _, out2 = run(capsys, *argv)
    assert out1 == out2
    # store/load payload is byte-identical
    key = cache_key("probe", {"x": 1})
    cache_store(str(cache), key, out1)
    assert cache_load(str(cache), key) == out1


def test_cache_version_bump_misses(monkeypatch, tmp_path):
    from stemcharts import cache
    key = cache_key("cmd", {"a": 1})
    cache_store(str(tmp_path), key, "payload")
    monkeypatch.setattr(cache, "ENGINE_VERSION", "0.0.0-new")
    bumped = cache_key("cmd", {"a": 1})
    assert bumped != key
    assert cache_load(str(tmp_path), bumped) is None
    assert cache_load(str(tmp_path), key) == "payload"


def test_cache_corruption_evicts(tmp_path, capsys):
    key = cache_key("cmd", {"a": 2})
    cache_store(str(tmp_path), key, "payload")
    path = tmp_path / f"{key}.json"
    path.write_text("{ corrupt json")
    assert cache_load(str(tmp_path), key) is None
    assert not path.exists()
    err = capsys.readouterr().err
    assert "evicting corrupt cache entry" in err


def test_cached_recompute_after_corruption(tmp_path, capsys):
    cache = tmp_path / "c"
    argv = ["ext", "--prime", "3", "--smax", "2", "--tmax", "8",
            "--cache-dir", str(cache)]
    _, out1 = run(capsys, *argv)
    victim = next(cache.glob("*.json"))
    victim.write_text("garbage")
    code, out2 = run(capsys, *argv)
    assert code == 0 and out1 == out2


@pytest.mark.parametrize("content", [b"[]", b'"x"', b"7", b"\xff\xfe{}"],
                         ids=["list", "string", "number", "not-utf8"])
def test_cache_entry_of_any_shape_is_evicted(tmp_path, capsys, content):
    cache = tmp_path / "c"
    argv = ["ext", "--prime", "3", "--tmax", "4", "--cache-dir", str(cache)]
    _, out1 = run(capsys, *argv)
    victim = next(cache.glob("*.json"))
    victim.write_bytes(content)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0 and captured.out == out1
    assert "evicting corrupt cache entry" in captured.err
    assert json.loads(victim.read_text())["payload"] == out1


def test_render_is_read_only():
    chart = BigradedChart({(0, 0): free_group(1), (2, 1): cyclic(9)})
    before = chart.to_json()
    render_text(chart)
    render_svg(chart, view="stem-weight")
    assert chart.to_json() == before


def test_empty_chart_render():
    out = render_text(BigradedChart({}, label="void"))
    assert "." in out  # grid of dots
    svg = render_svg(BigradedChart({}))
    assert svg.startswith("<svg")


@pytest.mark.parametrize("argv", [
    ["ext", "--prime", "4", "--tmax", "8"],
    ["ext", "--prime", "1", "--tmax", "8"],
    ["ext", "--prime", "3", "--smax", "-1"],
    ["ext", "--prime", "3", "--tmax", "-2"],
    ["ext", "--prime", "3", "--tmax", "7"],
    ["ext", "--prime", "3", "--precision", "1"],
    ["stems", "--field", "complex", "--prime", "9"],
    ["synthetic", "--prime", "3", "--precision", "0"],
    ["kmw", "--field", "complex", "--complete", "4"],
    ["synthetic", "--prime", "2", "--source", "table", "--table", "missing.json"],
    ["catalog", "--catalog", "missing.json"],
    ["kmw", "--field", "complex", "--range=5"],
    ["ext", "--prime", "3", "--tmax", "4", "--out", "missing.json/x.json"],
    ["ext", "--prime", "3", "--tmax", "4", "--out", "."],
    ["kmw", "--field", "complex", "--view", "stem-weight"],
])
def test_invalid_input_is_usage_error(tmp_path, capsys, argv):
    cache = tmp_path / "cache"
    cached = [] if argv[0] == "catalog" else ["--cache-dir", str(cache)]
    argv = [a.replace("missing.json", str(tmp_path / "missing.json")) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv + cached)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert not cache.exists()


@pytest.mark.parametrize("argv", [
    ["ext", "--prime", "3", "--tmax", "4"],
    ["synthetic", "--prime", "3", "--stem-max", "4"],
], ids=["ext", "synthetic"])
def test_catalog_option_only_where_read(tmp_path, capsys, argv):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--catalog", str(bad)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --catalog" in captured.err


@pytest.mark.parametrize("command,flag", [("decompose", "--module-file"),
                                          ("render", "--chart-file")])
def test_missing_input_file_is_usage_error(tmp_path, capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, str(tmp_path / "missing.json")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "cannot read file" in captured.err


@pytest.mark.parametrize("text,message", [("a:3", "'a:3' is not LO:HI"),
                                          ("5:1", "'5:1' has LO > HI")])
def test_range_is_validated_by_the_parser(monkeypatch, capsys, text, message):
    def unreachable(*args):
        raise AssertionError("work ran on a rejected --range")
    monkeypatch.setattr("stemcharts.cli.get_field", unreachable)
    with pytest.raises(SystemExit) as exc:
        main(["kmw", "--field", "complex", f"--range={text}"])
    assert exc.value.code == 2
    assert f"argument --range: {message}" in capsys.readouterr().err


def test_range_bounds_are_inclusive(capsys):
    code, out = run(capsys, "kmw", "--field", "complex", "--range=2:2")
    assert code == 0 and list(json.loads(out)["kmw"]) == ["2"]


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def fresh_process(argv) -> str:
    """stdout of the CLI run in a new interpreter, with a parser of its own."""
    env = {k: v for k, v in os.environ.items() if k != "STEMCHARTS_CACHE_DIR"}
    env["PYTHONPATH"] = SRC
    proc = subprocess.run([sys.executable, "-m", "stemcharts.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120,
                          check=True)
    return proc.stdout


def test_parser_is_shared_across_calls(monkeypatch, capsys):
    monkeypatch.delenv("STEMCHARTS_CACHE_DIR", raising=False)
    assert cli.build_parser() is cli.build_parser()
    base = ["ext", "--prime", "2", "--smax", "3", "--tmax", "8"]
    flagged = base + ["--unnormalized", "--kind", "universal"]
    for argv in (flagged, base):
        fresh = vars(cli.build_parser.__wrapped__().parse_args(argv))
        assert vars(cli.build_parser().parse_args(argv)) == fresh
        code, out = run(capsys, *argv)
        assert code == 0 and out == fresh_process(argv)
    with pytest.raises(SystemExit) as exc:
        main(base + ["--kind", "lazard"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    argv = ["kmw", "--field", "twogen", "--range=-5:5", "--complete", "3", "--basis",
            "--format", "grid"]
    code, out = run(capsys, *argv)
    golden = os.path.join(os.path.dirname(__file__), "golden", "cli_kmw_twogen_c3_grid.txt")
    with open(golden, encoding="utf-8") as fh:
        assert code == 0 and out == fh.read()


F2_POINT = {"p": 2, "dim": 1, "t": [0]}
F2_PLANE = {"p": 2, "dim": 2, "t": [0, 0, 0, 0]}
BAD_MODULE_FILES = {
    "not-nilpotent": {"p": 2, "dim": 2, "t": [1, 0, 0, 0]},
    "wrong-length": {"p": 2, "dim": 2, "t": [0, 0, 0]},
    "p-missing": {"dim": 1, "t": [0]},
    "dim-missing": {"p": 2, "t": [0]},
    "t-missing": {"p": 2, "dim": 1},
    "p-not-prime": {"p": 4, "dim": 1, "t": [0]},
    "entry-not-int": {"p": 3, "dim": 1, "t": ["0"]},
    "not-an-object": [1, 2],
    "map-not-injective": {"modules": [F2_POINT, F2_PLANE], "maps": [[[0], [0]]]},
    "maps-missing": {"modules": [F2_POINT]},
    "stable-from-past-prefix": {"modules": [F2_POINT], "maps": [], "stable_from": 1},
    "stable-from-negative": {"modules": [F2_POINT], "maps": [], "stable_from": -1},
    "two-primes": {"modules": [F2_POINT, {"p": 3, "dim": 1, "t": [0]}],
                   "maps": [[[1]]]},
    # residual block counts 0, 1: the declared system never stabilizes
    "not-stabilizing": {"modules": [F2_POINT, F2_PLANE], "maps": [[[1], [0]]]},
}


@pytest.mark.parametrize("data", BAD_MODULE_FILES.values(), ids=BAD_MODULE_FILES.keys())
def test_decompose_bad_module_file_is_precondition(tmp_path, capsys, data):
    path = tmp_path / "module.json"
    path.write_text(json.dumps(data))
    code = main(["decompose", "--module-file", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "stemcharts: precondition violated: " in captured.err


def test_decompose_check_failure_is_engine_error(monkeypatch, capsys):
    import stemcharts.fpt
    from stemcharts.fpt import FptError

    def broken(M, n):
        raise FptError("retraction does not split the inclusion")
    monkeypatch.setattr(stemcharts.fpt, "extract_free", broken)
    path = os.path.join(os.path.dirname(__file__), "golden", "module_p3_j9_3.json")
    code = main(["decompose", "--module-file", path])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert "engine invariant broken: F_p[[t]] decomposition: retraction does not " \
        "split the inclusion" in captured.err


# -- the cache key covers every input that changes the payload --------------

def warm_then_cold(tmp_path, capsys, first, second):
    """(second's output after first warmed the cache, second without a cache)."""
    cache = ["--cache-dir", str(tmp_path / "cache")]
    assert run(capsys, *first, *cache)[0] == 0
    code, warm = run(capsys, *second, *cache)
    assert code == 0
    code, cold = run(capsys, *second)
    assert code == 0
    return warm, cold


def test_cache_key_includes_basis(monkeypatch, tmp_path, capsys):
    monkeypatch.delenv("STEMCHARTS_CACHE_DIR", raising=False)
    argv = ["kmw", "--field", "twogen", "--range=-2:2", "--complete", "3"]
    warm, cold = warm_then_cold(tmp_path, capsys, argv, argv + ["--basis"])
    assert "free_basis" in json.loads(cold) and warm == cold


def test_cache_key_includes_engine_sources(monkeypatch, tmp_path, capsys):
    import stemcharts.cache
    monkeypatch.delenv("STEMCHARTS_CACHE_DIR", raising=False)
    computed, ext_chart = [], cli.ext_chart

    def counted(*args, **kwargs):
        computed.append(args)
        return ext_chart(*args, **kwargs)
    monkeypatch.setattr(cli, "ext_chart", counted)
    cache = tmp_path / "cache"
    argv = ["ext", "--prime", "3", "--tmax", "4", "--cache-dir", str(cache)]
    _, out = run(capsys, *argv)
    monkeypatch.setattr(stemcharts.cache, "source_digest", lambda: "edited")
    assert run(capsys, *argv) == (0, out)
    assert len(computed) == 2 and len(list(cache.glob("*.json"))) == 2


@pytest.mark.parametrize("argv", [
    ["synthetic", "--prime", "2", "--stem-max", "7", "--source", "table"],
    ["stems", "--field", "complex", "--prime", "2", "--stem-max", "7",
     "--source", "table"]], ids=["synthetic", "stems"])
def test_cache_key_includes_table_contents(monkeypatch, tmp_path, capsys, argv):
    monkeypatch.delenv("STEMCHARTS_CACHE_DIR", raising=False)
    tables = {"tA.json": {"p": 2, "stems": {"0": [[0, 0, "free"]]}},
              "tB.json": {"p": 2, "stems": {"0": [[0, 0, "free"]], "1": [[1, 1, 2]]}}}
    for name, table in tables.items():
        (tmp_path / name).write_text(json.dumps(table))
    warm, cold = warm_then_cold(tmp_path, capsys,
                                argv + ["--table", str(tmp_path / "tA.json")],
                                argv + ["--table", str(tmp_path / "tB.json")])
    assert warm == cold
    assert cold != run(capsys, *argv, "--table", str(tmp_path / "tA.json"))[1]


@pytest.mark.parametrize("argv", [
    ["kmw", "--field", "mine", "--range=-2:2", "--complete", "3", "--basis"],
    ["stems", "--field", "mine", "--prime", "3", "--stem-max", "3"]],
    ids=["kmw", "stems"])
def test_cache_key_includes_catalog_contents(monkeypatch, tmp_path, capsys, argv):
    from stemcharts.catalog import default_catalog
    monkeypatch.delenv("STEMCHARTS_CACHE_DIR", raising=False)
    for name, field in (("cA.json", "complex"), ("cB.json", "twogen")):
        descriptor = default_catalog()[field].to_json()
        (tmp_path / name).write_text(json.dumps({"fields": {"mine": descriptor}}))
    warm, cold = warm_then_cold(tmp_path, capsys,
                                argv + ["--catalog", str(tmp_path / "cA.json")],
                                argv + ["--catalog", str(tmp_path / "cB.json")])
    assert warm == cold
    assert cold != run(capsys, *argv, "--catalog", str(tmp_path / "cA.json"))[1]


# -- a malformed input file is a precondition violation ---------------------

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                       "ind_p3_pruefer.json"), encoding="utf-8") as fh:
    PRUEFER_SYSTEM = json.load(fh)

# case -> (argv, content of in.json or None, text the stderr message holds)
MALFORMED_INPUTS = {
    "chart-entry-without-i": (
        ["render", "--chart-file", "in.json"],
        {"label": "x", "entries": [{"j": 0, "free_rank": 1}]},
        "chart entry without 'i'"),
    "chart-misspelt-entries": (
        ["render", "--chart-file", "in.json"],
        {"label": "x", "entires": [{"i": 0, "j": 0, "free_rank": 1}]},
        "unknown chart keys ['entires']"),
    "chart-kmw-payload": (
        ["render", "--chart-file", "in.json"],
        milnor_witt(get_field("complex"), -1, 1).to_json(),
        "unknown chart keys ['completed_at', 'eta', 'field', 'km', 'kmw', 'range']"),
    "chart-not-an-object": (
        ["render", "--chart-file", "in.json"], [1],
        "chart is a list, not an object"),
    "chart-not-json": (
        ["render", "--chart-file", "in.json"], "{ not json",
        "JSONDecodeError"),
    "module-not-json": (
        ["decompose", "--module-file", "in.json"], "{ not json",
        "JSONDecodeError"),
    "module-boolean-entry": (
        ["decompose", "--module-file", "in.json"],
        {"p": 2, "dim": 2, "t": [False, False, True, False]},
        "t-action entries must be integers"),
    "module-unknown-key": (
        ["decompose", "--module-file", "in.json"],
        {"p": 2, "dim": 2, "t": [0, 0, 1, 0], "dimm": 5},
        "unknown module keys ['dimm']"),
    "ind-misspelt-stable-from": (
        ["decompose", "--module-file", "in.json"],
        {**PRUEFER_SYSTEM, "stable_form": 9},
        "unknown ind-system keys ['stable_form']"),
    "ind-map-int-row": (
        ["decompose", "--module-file", "in.json"],
        {"modules": [{"p": 3, "dim": 1, "t": [0]}, {"p": 3, "dim": 1, "t": [0]}],
         "maps": [[1]]},
        "map 0 has the wrong shape"),
    "ind-map-float-entry": (
        ["decompose", "--module-file", "in.json"],
        {"modules": [{"p": 3, "dim": 1, "t": [0]}, {"p": 3, "dim": 1, "t": [0]}],
         "maps": [[[1.0]]]},
        "map 0 entries must be integers"),
    "catalog-field-without-variant": (
        ["catalog", "--catalog", "in.json"], {"fields": {"x": {"q": 3}}},
        "field descriptor without 'variant'"),
    "catalog-not-json": (
        ["catalog", "--catalog", "in.json"], "{ not json",
        "JSONDecodeError"),
    "catalog-bad-custom-table": (
        ["kmw", "--field", "x", "--catalog", "in.json"],
        {"fields": {"x": {"variant": "custom",
                          "km_table": {"1": {"torsion": [6]}}}}},
        "torsion order 6 is not a prime power"),
    "catalog-finite-q-one": (
        ["kmw", "--field", "x", "--catalog", "in.json"],
        {"fields": {"x": {"variant": "finite", "q": 1}}},
        "1 is not a prime power"),
    "catalog-finite-q-six": (
        ["kmw", "--field", "x", "--catalog", "in.json"],
        {"fields": {"x": {"variant": "finite", "q": 6}}},
        "6 is not a prime power"),
    "catalog-witt-table-without-gw": (
        ["kmw", "--field", "x", "--catalog", "in.json"],
        {"fields": {"x": {"variant": "custom", "witt_table": {"W": {}}}}},
        "Witt table without 'GW'"),
    "catalog-galois-modules": (
        ["catalog", "--catalog", "in.json", "--show", "x"],
        {"fields": {"x": {"variant": "custom", "galois_modules": {"3": 5}}}},
        "unknown field descriptor keys ['galois_modules']"),
    "catalog-misspelt-key": (
        ["stems", "--field", "x", "--prime", "3", "--catalog", "in.json"],
        {"fields": {"x": {"variant": "custom", "roots": {"3": "inf"},
                          "km_table": {"0": {"free_rank": 1}}}}},
        "unknown field descriptor keys ['roots']"),
    "catalog-witt-table-unknown-key": (
        ["kmw", "--field", "x", "--catalog", "in.json"],
        {"fields": {"x": {"variant": "custom", "witt_table": {
            "GW": {"free_rank": 1}, "W": {}, "fundamental": {}}}}},
        "unknown Witt table keys ['fundamental']"),
    "catalog-misspelt-group-key": (
        ["kmw", "--field", "x", "--complete", "3", "--catalog", "in.json"],
        {"fields": {"x": {"variant": "custom", "km_table": {
            "1": {"free_rank": 0, "torsoin": [3]}}}}},
        "unknown group keys ['torsoin']"),
    "catalog-misspelt-fields": (
        ["catalog", "--catalog", "in.json"],
        {"feilds": {"x": {"variant": "finite", "q": 3}}},
        "unknown catalog keys ['feilds']"),
    "catalog-not-an-object": (
        ["catalog", "--catalog", "in.json"], [1],
        "catalog is a list, not an object"),
    "catalog-fields-not-an-object": (
        ["catalog", "--catalog", "in.json"], {"fields": [1]},
        "catalog 'fields' is a list, not an object"),
    "catalog-km-table-not-an-object": (
        ["kmw", "--field", "x", "--catalog", "in.json"],
        {"fields": {"x": {"variant": "custom", "km_table": [1]}}},
        "km_table is a list, not an object"),
    "table-stems-not-an-object": (
        ["synthetic", "--prime", "2", "--source", "table", "--table", "in.json"],
        {"p": 2, "stems": [[0, 0, "free"]]},
        "table 'stems' is a list, not an object"),
    "table-stem-not-a-list": (
        ["synthetic", "--prime", "2", "--source", "table", "--table", "in.json"],
        {"p": 2, "stems": {"0": 5}},
        "stem 0 in table is not a list of rows"),
    "table-string-filtration": (
        ["synthetic", "--prime", "2", "--source", "table", "--table", "in.json"],
        {"p": 2, "stems": {"0": [[0, "0", "free"]]}},
        "filtration '0' in table is not an integer"),
    "table-short-row": (
        ["synthetic", "--prime", "2", "--source", "table", "--table", "in.json"],
        {"p": 2, "stems": {"0": [[0, 0]]}},
        "row [0, 0] in table is not [weight, filtration, order]"),
    "table-negative-filtration": (
        ["synthetic", "--prime", "2", "--source", "table", "--table", "in.json"],
        {"p": 2, "stems": {"9": [[0, -1, 2]]}},
        "negative filtration in table"),
    "table-zero-order": (
        ["synthetic", "--prime", "2", "--source", "table", "--table", "in.json"],
        {"p": 2, "stems": {"0": [[1, 1, 0]]}},
        "order 0 in table is not positive"),
    "table-negative-order": (
        ["synthetic", "--prime", "2", "--source", "table", "--table", "in.json"],
        {"p": 2, "stems": {"1": [[1, 0, -4]]}},
        "order -4 in table is not positive"),
    "table-fractional-weight": (
        ["synthetic", "--prime", "2", "--source", "table", "--table", "in.json"],
        {"p": 2, "stems": {"1": [[0.5, 0, 2]]}},
        "weight 0.5 in table is not an integer"),
    "table-fractional-order": (
        ["synthetic", "--prime", "2", "--source", "table", "--table", "in.json"],
        {"p": 2, "stems": {"0": [[0, 0, "free"]], "1": [[1, 1, 2.5]]}},
        "order 2.5 in table is not an integer (row [1, 1, 2.5] of stem 1)"),
    "table-boolean-weight": (
        ["synthetic", "--prime", "2", "--source", "table", "--table", "in.json"],
        {"p": 2, "stems": {"0": [[0, 0, "free"]], "2": [[True, 0, 2]]}},
        "weight True in table is not an integer (row [True, 0, 2] of stem 2)"),
    "chart-fractional-index": (
        ["render", "--chart-file", "in.json"],
        {"entries": [{"i": 1.5, "j": 0, "free_rank": 1}]},
        "chart entry 'i' is not an integer: 1.5"),
    "chart-boolean-free-rank": (
        ["render", "--chart-file", "in.json"],
        {"entries": [{"i": 1, "j": 0, "free_rank": True}]},
        "group 'free_rank' is not an integer or \"inf\": True"),
    "chart-float-torsion": (
        ["render", "--chart-file", "in.json"],
        {"entries": [{"i": 1, "j": 0, "torsion": [2.0]}]},
        "group 'torsion' is not a list of integers: [2.0]"),
    "chart-string-divisible": (
        ["render", "--chart-file", "in.json"],
        {"entries": [{"i": 0, "j": 0, "divisible": "no"}]},
        "group 'divisible' is not a boolean: 'no'"),
    "catalog-fractional-root-count": (
        ["catalog", "--catalog", "in.json"],
        {"fields": {"x": {"variant": "custom", "roots_of_unity": {"3": 2.5}}}},
        "roots_of_unity '3' is not an integer or \"inf\": 2.5"),
    "catalog-boolean-root-count": (
        ["catalog", "--catalog", "in.json"],
        {"fields": {"x": {"variant": "custom", "roots_of_unity": {"3": True}}}},
        "roots_of_unity '3' is not an integer or \"inf\": True"),
    "table-off-lane": (
        ["synthetic", "--prime", "2", "--source", "table", "--table", "in.json"],
        {"p": 2, "stems": {"0": [[0, 0, "free"]], "3": [[1, 1, 2]]}},
        "(1, 2) breaks n + s = 2w"),
    "table-unknown-key": (
        ["synthetic", "--prime", "2", "--source", "table", "--table", "in.json"],
        {"p": 2, "stems": {"0": [[0, 0, "free"]]}, "stemz": {}},
        "unknown table keys ['stemz']"),
    "table-not-json": (
        ["stems", "--field", "complex", "--prime", "2", "--source", "table",
         "--table", "in.json"], "{ not json",
        "JSONDecodeError"),
    "stem-max-negative": (
        ["stems", "--field", "complex", "--prime", "3", "--stem-max", "-3"], None,
        "-3 is negative"),
    "kmw-basis-without-complete": (["kmw", "--field", "twogen", "--basis"], None,
        "--basis needs --complete"),
    "chart-integer-label": (
        ["render", "--chart-file", "in.json", "--format", "grid"],
        {"label": 5, "entries": [{"i": 0, "j": 0, "free_rank": 1}]},
        "chart 'label' is not a string: 5"),
    "chart-integer-label-svg": (
        ["render", "--chart-file", "in.json", "--format", "svg"],
        {"label": 5, "entries": [{"i": 0, "j": 0, "free_rank": 1}]},
        "chart 'label' is not a string: 5"),
    "chart-string-prime": (
        ["render", "--chart-file", "in.json"], {"prime": "x", "entries": []},
        "chart 'prime' is not null or a prime: 'x'"),
    "chart-composite-prime": (
        ["render", "--chart-file", "in.json"], {"prime": 4, "entries": []},
        "chart 'prime' is not null or a prime: 4"),
    "chart-integer-entries": (
        ["render", "--chart-file", "in.json"], {"entries": 5},
        "chart 'entries' is a int, not a list"),
    "module-integer-t": (
        ["decompose", "--module-file", "in.json"], {"p": 2, "dim": 2, "t": 5},
        "module 't' is a int, not a list"),
    "module-not-an-object": (
        ["decompose", "--module-file", "in.json"], 5,
        "module is a int, not an object"),
    "ind-integer-modules": (
        ["decompose", "--module-file", "in.json"], {"modules": 5, "maps": []},
        "ind-system 'modules' is a int, not a list"),
    "ind-integer-maps": (
        ["decompose", "--module-file", "in.json"],
        {"modules": [{"p": 3, "dim": 1, "t": [0]}, {"p": 3, "dim": 1, "t": [0]}],
         "maps": 5},
        "ind-system 'maps' is a int, not a list"),
    "table-string-stem-key": (
        ["synthetic", "--prime", "2", "--source", "table", "--table", "in.json"],
        {"p": 2, "stems": {"x": [[0, 0, "free"]]}},
        "table stem key 'x' is not an integer"),
    "table-string-prime": (
        ["synthetic", "--prime", "2", "--source", "table", "--table", "in.json"],
        {"p": "2", "stems": {"0": [[0, 0, "free"]]}},
        "table 'p' is not a prime: '2'"),
    "catalog-string-km-degree": (
        ["kmw", "--field", "x", "--catalog", "in.json"],
        {"fields": {"x": {"variant": "custom", "km_table": {"x": {"free_rank": 1}}}}},
        "km_table key 'x' is not an integer"),
    "catalog-unknown-variant": (
        ["catalog", "--catalog", "in.json", "--show", "x"],
        {"fields": {"x": {"variant": "nonsense"}}},
        "field descriptor 'variant' is not one of finite, algebraically_closed, "
        "real_closed, complex_like, cyclotomic_tower, custom: 'nonsense'"),
    "catalog-string-char": (
        ["stems", "--field", "x", "--prime", "3", "--catalog", "in.json"],
        {"fields": {"x": {"variant": "custom", "char": "x",
                          "roots_of_unity": {"3": "inf"},
                          "km_table": {"0": {"free_rank": 1}}}}},
        "field descriptor 'char' is not an integer: 'x'"),
    "catalog-string-tower-prime": (
        ["stems", "--field", "x", "--prime", "3", "--catalog", "in.json"],
        {"fields": {"x": {"variant": "cyclotomic_tower", "tower_prime": "3",
                          "km_table": {"0": {"free_rank": 1}}}}},
        "field descriptor 'tower_prime' is not an integer: '3'"),
    "catalog-string-q": (
        ["kmw", "--field", "x", "--catalog", "in.json"],
        {"fields": {"x": {"variant": "finite", "q": "7"}}},
        "field descriptor 'q' is not an integer: '7'"),
    "catalog-integer-name": (
        ["catalog", "--catalog", "in.json", "--show", "x"],
        {"fields": {"x": {"variant": "custom", "name": 5}}},
        "field descriptor 'name' is not a string: 5"),
    "catalog-list-base-name": (
        ["catalog", "--catalog", "in.json", "--show", "x"],
        {"fields": {"x": {"variant": "cyclotomic_tower", "tower_prime": 3,
                          "base_name": [1]}}},
        "field descriptor 'base_name' is not a string: [1]"),
    "chart-duplicate-cell": (
        ["render", "--chart-file", "in.json"],
        {"entries": [{"i": 0, "j": 0, "free_rank": 1},
                     {"i": 0, "j": 0, "torsion": [3]}]},
        "chart has two entries at (i, j) = (0, 0)"),
    "table-zero-padded-stem-key": (
        ["synthetic", "--prime", "2", "--source", "table", "--table", "in.json"],
        {"p": 2, "stems": {"0": [[0, 0, "free"]], "1": [[1, 1, 2]],
                           "01": [[1, 1, 2]]}},
        "table stem key '01' is not an integer"),
    "catalog-underscored-km-degree": (
        ["kmw", "--field", "x", "--catalog", "in.json"],
        {"fields": {"x": {"variant": "custom", "km_table": {
            "1": {"torsion": [3]}, "1_0": {"free_rank": 1}}}}},
        "km_table key '1_0' is not an integer"),
    "module-duplicate-key": (
        ["decompose", "--module-file", "in.json"],
        '{"p": 2, "dim": 1, "t": [0], "p": 3}',
        "duplicate key 'p'"),
}


@pytest.mark.parametrize("argv", [
    ["synthetic", "--prime", "3", "--stem-max", "3"],
    ["stems", "--field", "complex", "--prime", "3"]])
def test_table_needs_table_source(monkeypatch, tmp_path, capsys, argv):
    # a table under a computed source (auto is computed at odd p) would be
    # read, validated and hashed, then dropped: Z/3 charted at (3, 2), not Z/9
    cache = tmp_path / "cache"
    monkeypatch.setenv("STEMCHARTS_CACHE_DIR", str(cache))
    table = tmp_path / "t.json"
    table.write_text(json.dumps(
        {"p": 3, "stems": {"0": [[0, 0, "free"]], "3": [[2, 1, 9]]}}))
    code = main([*argv, "--table", str(table)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--table needs --source table" in captured.err
    assert not cache.exists()
    code, out = run(capsys, *argv, "--table", str(table), "--source", "table")
    entries = {(e["i"], e["j"]): e for e in json.loads(out)["entries"]}
    assert code == 0 and entries[(3, 2)]["torsion"] == [9]


def rejected(monkeypatch, tmp_path, capsys, argv, content) -> str:
    """stderr of argv run on content as in.json, once the command is found to
    exit 2 with no output and no cache entry and to name what is wrong
    without a raw Python error."""
    cache = tmp_path / "cache"
    monkeypatch.setenv("STEMCHARTS_CACHE_DIR", str(cache))
    path = tmp_path / "in.json"
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    argv = [str(path) if a == "in.json" else a for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # rejected by the parser
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert not cache.exists()
    if content is not None:
        assert f"precondition violated: {path} is not a" in captured.err
    # the boundary names what is wrong; no raw Python error leaks through
    for leak in ("KeyError", "TypeError", "AttributeError", "IndexError"):
        assert leak not in captured.err
    return captured.err


@pytest.mark.parametrize("argv,content,message", MALFORMED_INPUTS.values(),
                         ids=MALFORMED_INPUTS.keys())
def test_malformed_input_is_precondition(monkeypatch, tmp_path, capsys, argv,
                                         content, message):
    assert message in rejected(monkeypatch, tmp_path, capsys, argv, content)


# -- negative cases generated from the schemas -------------------------------

FULL_GROUP = {"free_rank": 1, "torsion": [3], "torsion_infinite": [9],
              "modulus_precision": 5, "completed_at": 3, "divisible": True}
# file kind -> (argv, its schema, a valid file that reaches every schema node)
SCHEMA_EXAMPLES = {
    "chart": (["render", "--chart-file", "in.json"], schema.CHART, {
        "label": "x", "prime": 3, "axes": ["s", "t"],
        "entries": [{"i": 0, "j": 0, **FULL_GROUP}], "precision": 2,
        "kind": "p_typical", "s_max": 1, "t_max": 4, "degeneration_max": 20,
        "source": "computed",
        "filtrations": [{"stem": 0, "weight": 0, "entries": [[0, "free"]]}]}),
    "catalog": (["catalog", "--catalog", "in.json"], schema.CATALOG, {
        "fields": {"x": {
            "variant": "custom", "name": "x", "q": 7, "char": 0,
            "base_name": "F7", "tower_prime": 3, "km_table": {"0": FULL_GROUP},
            "witt_table": {"GW": FULL_GROUP, "W": FULL_GROUP,
                           "I": {"1": FULL_GROUP}, "k": {"0": FULL_GROUP}},
            "kmw_table": {"0": FULL_GROUP}, "roots_of_unity": {"3": "inf"},
            "km_mod_p_dims": {"3": {"0": 1}}}}}),
    "table": (["synthetic", "--prime", "2", "--source", "table", "--table",
               "in.json"], schema.TABLE, {"p": 2, "stems": {"0": [[0, 0, "free"]]}}),
    "module": (["decompose", "--module-file", "in.json"], schema.MODULE,
               {"p": 2, "dim": 2, "t": [0, 0, 1, 0]}),
    "ind-system": (["decompose", "--module-file", "in.json"], schema.IND_SYSTEM,
                   {"modules": [{"p": 3, "dim": 1, "t": [0]}] * 2,
                    "maps": [[[1]]], "stable_from": 0}),
}
WRONG_TYPES = {"int": 1, "float": 2.5, "bool": True, "string": "x", "null": None,
               "list": [1], "object": {"x": 1}}


def _record_keys(node) -> dict:
    """key -> schema of every key a Record names, its `rest` Record's too."""
    rest = node.rest if isinstance(node.rest, schema.Record) else None
    return {**node.required, **node.optional,
            **(_record_keys(rest) if rest else {})}


def _schema_nodes(node, where=()):
    """(schema path, node) of every node of a schema; "[]" stands for any
    list item and "*" for any key of a Map."""
    yield where, node
    if isinstance(node, list):
        yield from _schema_nodes(node[0], where + ("[]",))
    elif isinstance(node, schema.Map):
        yield from _schema_nodes(node.value, where + ("*",))
    elif isinstance(node, schema.Record):
        for key, child in _record_keys(node).items():
            yield from _schema_nodes(child, where + (key,))


def _reached_nodes(node, value, path=(), where=()):
    """(path in value, schema path, node) of every node value reaches."""
    yield path, where, node
    if isinstance(node, list):
        for i, item in enumerate(value):
            yield from _reached_nodes(node[0], item, path + (i,), where + ("[]",))
    elif isinstance(node, schema.Map):
        for key, item in value.items():
            yield from _reached_nodes(node.value, item, path + (key,), where + ("*",))
    elif isinstance(node, schema.Record):
        keys = _record_keys(node)
        for key, item in value.items():
            if key in keys:
                yield from _reached_nodes(keys[key], item, path + (key,),
                                          where + (key,))


def _is_wrong_type(node, value) -> bool:
    if isinstance(node, schema.Leaf):
        return not node.ok(value)
    return not isinstance(value, list if isinstance(node, list) else dict)


def _replaced(value, path, new):
    """A copy of value with the item at path replaced by new."""
    if not path:
        return new
    out = json.loads(json.dumps(value))
    holder = out
    for step in path[:-1]:
        holder = holder[step]
    holder[path[-1]] = new
    return out


SCHEMA_CASES = {
    f"{kind}:{'/'.join(map(str, path))}:{name}":
        (argv, _replaced(example, path, wrong))
    for kind, (argv, node, example) in SCHEMA_EXAMPLES.items()
    for path, _, reached in _reached_nodes(node, example)
    for name, wrong in WRONG_TYPES.items() if _is_wrong_type(reached, wrong)}


@pytest.mark.parametrize("kind", SCHEMA_EXAMPLES)
def test_schema_examples_are_valid_and_reach_every_node(tmp_path, capsys, kind):
    argv, node, example = SCHEMA_EXAMPLES[kind]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(example))
    assert main([str(path) if a == "in.json" else a for a in argv]) == 0
    capsys.readouterr()
    assert {where for _, where, _ in _reached_nodes(node, example)} \
        == {where for where, _ in _schema_nodes(node)}


@pytest.mark.parametrize("argv,content", SCHEMA_CASES.values(),
                         ids=SCHEMA_CASES.keys())
def test_wrong_json_type_is_precondition(monkeypatch, tmp_path, capsys, argv,
                                         content):
    assert "SchemaError" in rejected(monkeypatch, tmp_path, capsys, argv,
                                     json.dumps(content))


@pytest.mark.parametrize("argv,content,owner,reader", [
    (["render", "--chart-file", "in.json"], {"entries": []},
     BigradedChart, "from_json"),
    (["decompose", "--module-file", "in.json"], {"p": 2, "dim": 1, "t": [0]},
     cli, "_module_from_json"),
    (["catalog", "--catalog", "in.json"], {"fields": {}}, cli, "load_catalog"),
    (["synthetic", "--prime", "2", "--source", "table", "--table", "in.json"],
     {"p": 2, "stems": {}}, cli, "check_table")],
    ids=["chart", "module", "catalog", "table"])
def test_reader_defect_is_not_a_precondition(monkeypatch, tmp_path, argv,
                                             content, owner, reader):
    # a reader that fails on a file its schema accepted has a defect: that
    # is not reported as a malformed input (exit 2)
    read = getattr(owner, reader)

    def defective(data):
        read(data)
        raise TypeError("defect in the reader")
    monkeypatch.setattr(owner, reader, defective)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(content))
    with pytest.raises(TypeError, match="defect in the reader"):
        main([str(path) if a == "in.json" else a for a in argv])


def test_km_only_custom_field_at_odd_prime(monkeypatch, tmp_path, capsys):
    # at odd p the completed chart reads only completed K^M: no Witt data
    monkeypatch.delenv("STEMCHARTS_CACHE_DIR", raising=False)
    catalog = tmp_path / "km.json"
    catalog.write_text(json.dumps({"fields": {"mine": {
        "variant": "custom", "roots_of_unity": {"3": "inf"},
        "km_table": {"0": {"free_rank": 1}, "1": {"divisible": True}}}}}))
    mine = ["--field", "mine", "--catalog", str(catalog)]
    assert run(capsys, "kmw", *mine, "--complete", "3", "--basis")[0] == 0
    code, out = run(capsys, "stems", *mine, "--prime", "3")
    assert code == 0
    code, ref = run(capsys, "stems", "--field", "complex", "--prime", "3")
    assert code == 0
    assert charts_same_groups(BigradedChart.from_json(json.loads(out)),
                              BigradedChart.from_json(json.loads(ref)))
    # p = 2 and the uncompleted chart still need Witt data
    for extra in (["--complete", "2"], []):
        assert main(["kmw", *mine, *extra]) == 2
        assert "no Witt rule for mine" in capsys.readouterr().err


def test_finite_field_of_large_prime_order(tmp_path, capsys):
    q = 2 ** 61 - 1
    catalog = tmp_path / "big.json"
    catalog.write_text(json.dumps({"fields": {"big": {"variant": "finite",
                                                      "q": q}}}))
    code, out = run(capsys, "kmw", "--field", "big", "--range=0:1",
                    "--catalog", str(catalog))
    assert code == 0
    obj = json.loads(out)
    assert obj["field"] == f"F_{q}"
    assert obj["km"]["1"]["torsion"] == list(cyclic(q - 1).torsion)


@pytest.mark.parametrize("via", ["option", "environment"])
def test_unwritable_cache_dir_still_emits(monkeypatch, tmp_path, capsys, via):
    argv = ["ext", "--prime", "3", "--smax", "2", "--tmax", "8"]
    monkeypatch.delenv("STEMCHARTS_CACHE_DIR", raising=False)
    expected = run(capsys, *argv)
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    if via == "option":
        argv += ["--cache-dir", str(blocker)]
    else:
        monkeypatch.setenv("STEMCHARTS_CACHE_DIR", str(blocker))
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == expected
    assert f"cannot write cache entry {blocker}" in captured.err
    assert blocker.read_text() == ""

"""stemcharts benchmark: certified charts and CLI calls, end to end and per layer.

    python3 bench/run.py --workload ext_frontier|certify|cli_session|all \
        --seed N --seconds S --trace 0|1

Run from the root of a stemcharts checkout.  One client runs closed loop:
each pass of a workload's job list runs in its own fresh interpreter
(bench/child.py), strictly one at a time, until S seconds are spent.

Every end-to-end time is in seconds at a fixed reference machine speed:
the measured time times the speed factor sampled around it (bench/speed.py),
which takes out the drift of a shared machine.  The printed summary also
gives the measured medians and the median factor.

--trace 0 reports the end-to-end metrics:
  wall_s       seconds in the operations of one pass (median over passes)
  cmd_p50_ms   median latency of one operation: a CLI call in cli_session;
               in the fixed job lists, each job's median over the passes
  cmd_tail_ms  highest percentile of CLI call latency with at least ten
               calls beyond it; in the fixed job lists, the slowest job
  setup_s      import stemcharts.cli plus build_parser() in a fresh
               interpreter (median of several)
  peak_rss_mb  peak resident memory of a pass's process (median)
--trace 1 alternates untraced and traced passes and reports per-layer
calls, counts and self times (bench/spans.py), the traced and untraced
walls, whose difference is the tracing overhead, and the share of the
traced wall that the layers cover; it writes the spans to .bench_out/.
Self times are scaled by the speed factor of the operation they ran in.

Every output is checked (bench/workloads.py); fail_rate is printed with its
base.  The last stdout line is one JSON object; the exit code is 1 when a
check failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from spans import TARGETS, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ext_frontier", "certify", "cli_session")
OUT_DIR = ".bench_out"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120

END_TO_END = [("wall_s", "s"), ("cmd_p50_ms", "ms"), ("cmd_tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB")]
EXTRA_COUNTS = [("zpk.smith_form.cells", "count"),
                ("cobar.differential_matrix.cells", "count"),
                ("cobar.differential_matrix.useful_ratio", "ratio"),
                ("render.render_svg.bytes", "bytes"),
                ("cache.load.hits", "count"),
                ("cache.hit_ratio", "ratio"),
                ("cache.store.bytes", "bytes")]
TRACE_TOTALS = [("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
                ("trace.overhead_s", "s"), ("trace.coverage", "ratio")]
PER_LAYER = ([(f"{name}.{kind}", unit) for name, *_ in TARGETS
              for kind, unit in (("calls", "count"), ("self_s", "s"))]
             + EXTRA_COUNTS + TRACE_TOTALS)


class BenchError(Exception):
    """The benchmark could not run (not a failed output check)."""


def child(*args: str) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), *args],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"child {' '.join(args)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup() -> list[dict]:
    child("--setup")  # warm-up: bytecode compiled once per install
    return [child("--setup") for _ in range(SETUP_REPEATS)]


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Passes until `seconds` are spent; with tracing, untraced and traced
    passes alternate and each kind runs at least once."""
    os.makedirs(OUT_DIR, exist_ok=True)
    work_root = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    passes, durations = [], []
    start = time.perf_counter()
    try:
        while True:
            traced = trace and len(passes) % 2 == 1
            work_dir = os.path.join(work_root, str(len(passes)))
            os.makedirs(work_dir)
            t0 = time.perf_counter()
            result = child(workload, str(seed), "1" if traced else "0", work_dir)
            durations.append(time.perf_counter() - t0)
            result["traced"] = traced
            passes.append(result)
            shutil.rmtree(work_dir)
            elapsed = time.perf_counter() - start
            if (not trace or len(passes) >= 2) and \
                    elapsed + statistics.median(durations) > seconds:
                return passes
    finally:
        shutil.rmtree(work_root, ignore_errors=True)


def wall(p: dict) -> float:
    """Measured seconds in the operations of a pass."""
    return sum(seconds for _name, seconds, _speed in p["ops"])


def scaled_wall(p: dict) -> float:
    """The same at the reference machine speed."""
    return sum(seconds * speed for _name, seconds, speed in p["ops"])


def op_speed(p: dict):
    """Speed factor of the operation a span's run id names ("index:name")."""
    return lambda run_id: 1.0 if run_id is None else p["ops"][int(run_id.split(":")[0])][2]


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are too few samples."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= 10:
        return lat[-1], 100.0
    return lat[n - 11], 100.0 * (n - 10) / n


def check_passes(passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages); every pass must give the outputs of
    the first, so traced and untraced digests must agree."""
    attempted = failed = 0
    messages = []
    for k, p in enumerate(passes):
        attempted += len(p["ops"])
        failed += len({op for op, _msg in p["failures"]})
        messages += [f"pass {k}: {msg}" for _op, msg in p["failures"]]
        if p["digests"] != passes[0]["digests"]:
            failed += 1
            kind = "traced" if p["traced"] else "untraced"
            messages.append(f"pass {k} ({kind}): outputs differ from pass 0")
    return attempted, failed, messages


def end_to_end(workload: str, passes: list[dict], setup: list[dict]):
    notes = {}
    if workload == "cli_session":
        lat = [s * speed for p in passes for _name, s, speed in p["ops"]]
        p50 = statistics.median(lat)
        tail, pct = tail_latency(lat)
        notes["cmd_p50_ms"] = f"median of {len(lat)} calls"
        notes["cmd_tail_ms"] = f"p{pct:.2f} of {len(lat)} calls, 10 beyond"
    else:
        jobs: dict[str, list[float]] = {}
        for p in passes:
            for name, s, speed in p["ops"]:
                jobs.setdefault(name, []).append(s * speed)
        job_median = {name: statistics.median(v) for name, v in jobs.items()}
        p50 = statistics.median(job_median.values())
        slowest = max(job_median, key=job_median.get)
        tail = job_median[slowest]
        notes["cmd_p50_ms"] = f"median of {len(jobs)} jobs, each a median of {len(passes)}"
        notes["cmd_tail_ms"] = f"slowest job '{slowest}', median of {len(passes)}"
    values = {"wall_s": statistics.median(scaled_wall(p) for p in passes),
              "cmd_p50_ms": 1000 * p50, "cmd_tail_ms": 1000 * tail,
              "setup_s": statistics.median(s["setup_s"] * s["speed"] for s in setup),
              "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes)}
    speeds = [speed for p in passes for _name, _s, speed in p["ops"]]
    notes["wall_s"] = (f"median of {len(passes)} passes; measured "
                       f"{statistics.median(wall(p) for p in passes):.4g} s at median "
                       f"speed factor {statistics.median(speeds):.3f}")
    notes["setup_s"] = (f"median of {len(setup)} fresh interpreters; measured "
                        f"{statistics.median(s['setup_s'] for s in setup):.4g} s")
    notes["peak_rss_mb"] = f"median of {len(passes)} passes"
    return values, notes


def per_layer(workload: str, seed: int, passes: list[dict]):
    """(values, problems); counts must repeat exactly in every traced pass."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    counts = traced[0]["counts"]
    problems = [f"traced pass {k}: counts differ from traced pass 0"
                for k, p in enumerate(traced[1:], 1) if p["counts"] != counts]
    selfs = [self_times(p["spans"], op_speed(p)) for p in traced]
    values = {}
    for name, *_ in TARGETS:
        values[f"{name}.calls"] = counts.get(f"{name}.calls", 0)
        values[f"{name}.self_s"] = statistics.median(st.get(name, 0.0) for st in selfs)
    for name, _unit in EXTRA_COUNTS:
        values[name] = counts.get(name, 0)
    dm_calls = counts.get("cobar.differential_matrix.calls", 0)
    values["cobar.differential_matrix.useful_ratio"] = \
        counts.get("cobar.differential_matrix.distinct", 0) / dm_calls if dm_calls else 0.0
    loads = counts.get("cache.load.calls", 0)
    values["cache.hit_ratio"] = counts.get("cache.load.hits", 0) / loads if loads else 0.0
    traced_wall = statistics.median(scaled_wall(p) for p in traced)
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = statistics.median(scaled_wall(p) for p in plain)
    values["trace.overhead_s"] = traced_wall - values["trace.untraced_wall_s"]
    values["trace.coverage"] = statistics.median(
        sum(v for n, v in st.items() if not n.startswith("bench.")) / scaled_wall(p)
        for st, p in zip(selfs, traced))
    path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for k, p in enumerate(traced):
            for name, start, end, parent, run in p["spans"]:
                fh.write(json.dumps({"pass": k, "name": name, "start": start,
                                     "end": end, "parent": parent, "run": run}) + "\n")
    return values, problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    setup = [] if trace else measure_setup()
    passes = run_passes(workload, seed, seconds, trace)
    attempted, failed, messages = check_passes(passes)
    notes = {}
    if trace:
        values, problems = per_layer(workload, seed, passes)
        units = dict(PER_LAYER)
        messages += problems
        failed += len(problems)
    else:
        values, notes = end_to_end(workload, passes, setup)
        units = dict(END_TO_END)
    print(f"{workload}: seed {seed}, {len(passes)} passes, "
          f"{'traced' if trace else 'untraced'}, {os.cpu_count()} CPUs, "
          f"Python {platform.python_version()}")
    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:44s} {value:14.6g} {units[name]}{note}")
    print(f"  {'fail_rate':44s} {failed}/{attempted} = {failed / attempted:.4g}")
    for m in messages:
        print(f"  FAILED {m}")
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "stemcharts", "cli.py")):
        print("bench: run from the root of a stemcharts checkout "
              "(src/stemcharts not found)", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
                   for w in names}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        out = results[names[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}.{m}": v for w, r in results.items()
                           for m, v in r["metrics"].items()}}
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

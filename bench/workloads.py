"""The benchmark's workloads: fixed job lists and seeded CLI sessions.

Each workload runs one pass of its operations against the public API or
CLI of stemcharts and checks every output.  `run_pass` times each
operation on its own; the benchmark's checks run outside those timings.
stemcharts is imported inside the workload functions, after the child
process has had the chance to install its tracer.  Passes run under a
SpeedProbe (speed.py), and each operation's time comes with its speed
factor.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from collections import Counter
from fractions import Fraction
from time import perf_counter

from speed import SpeedProbe

GOLDEN_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

# (p, t_max) at s_max = 6 and precision K = 10: the Ext frontier
EXT_FRONTIER = [(3, 36), (2, 16), (5, 60)]

# cli_session pools; the seed picks order, formats, renders and modules
EXT_POOL = [(3, 18), (3, 24), (5, 40)]                       # --prime, --tmax
STEMS_POOL = [("complex", 3, 12), ("twogen", 2, 7), ("F7_cyclo3", 3, 12)]
SYNTHETIC_POOL = [(3, 20, "computed"), (5, 37, "computed"), (2, 7, "table")]
KMW_POOL = [("complex", 2), ("algclosed_char7", 3), ("twogen", 3), ("F7_cyclo3", 3)]
CATALOG_CALLS = [["catalog"], ["catalog", "--names-only"],
                 ["catalog", "--show", "complex"]]
# (dim, largest Jordan block) of the decompose modules, for p = 2 and 3;
# the largest block sets the number of extraction stages, hence the cost
DECOMPOSE_SLOTS = [(4, 2), (5, 4), (6, 3), (8, 2), (8, 6), (10, 5), (12, 4), (12, 8)]
FORMAT_SUFFIX = {"json": "json", "grid": "txt", "svg": "svg"}


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class Pass:
    """Timings, failures and output digests of one pass of a workload."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops: list[list] = []          # [name, start, end]
        self.failures: list[list] = []     # [op index, message]
        self.digests: dict[str, str] = {}

    def run(self, name, fn, *args):
        """Time one operation; an exception fails it and returns None."""
        t0 = perf_counter()
        try:
            if self.tracer is None:
                result = fn(*args)
            else:
                self.tracer.run_id = f"{len(self.ops)}:{name}"
                result = self.tracer.call("bench.op", fn, args)
        except Exception as exc:  # any exception is a failed operation
            result, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        self.ops.append([name, t0, perf_counter()])
        if error is not None:
            self.fail(error)
        return result

    def fail(self, message, op=None):
        self.failures.append([len(self.ops) - 1 if op is None else op, message])

    def record(self, name, obj, golden):
        """Record an output digest and compare it with the golden one."""
        d = self.digests[name] = digest(obj)
        if golden is not None and golden.get(name) != d:
            self.fail(f"{name}: digest {d[:12]} differs from golden")

    def to_json(self, probe: SpeedProbe) -> dict:
        """Ops become [name, seconds less the probe's loops, speed factor]."""
        ops = [[name, *probe.measure(t0, t1)] for name, t0, t1 in self.ops]
        return {"ops": ops, "failures": self.failures, "digests": self.digests}


def load_golden(workload):
    with open(GOLDEN_FILE, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def _check_ext_invariants(ps: Pass, name: str, chart: dict):
    g00 = [e for e in chart["entries"] if e["i"] == 0 and e["j"] == 0]
    if not g00 or g00[0]["free_rank"] != 1 or g00[0]["torsion"]:
        ps.fail(f"{name}: Ext^(0,0) is not Z_p")


# -- ext_frontier -----------------------------------------------------------

def ext_frontier(ps: Pass, seed: int, golden):
    from stemcharts import extcharts, hopf

    def job(p, tmax):
        alg = hopf.build_algebroid("p_typical", (tmax + 1) // 2, p=p)
        return extcharts.ext_chart(alg, p, 10, 6, tmax)

    for p, tmax in EXT_FRONTIER:
        name = f"ext p={p} t<={tmax}"
        _record_chart(ps, name, ps.run(name, job, p, tmax), golden)


def _record_chart(ps: Pass, name: str, ec, golden):
    """Check one Ext chart; the caller keeps no reference to it, so a
    finished job's objects do not weigh on the garbage collector later."""
    if ec is not None:
        chart = ec.to_json()
        ps.record(name, chart, golden)
        _check_ext_invariants(ps, name, chart)


# -- certify ----------------------------------------------------------------

def _tensor_text(tensor) -> list[str]:
    return sorted(f"{k!r}={Fraction(v)}" for k, v in tensor.items())


def _algebroid_summary(alg) -> dict:
    """Presentation plus eta_R and Delta on every generator."""
    a = alg.aring
    return {
        "presentation": alg.to_json(),
        "eta_r": [_tensor_text(alg.eta_r_poly(a.gen(i)))
                  for i in range(len(a.names)) if a.degrees[i] <= alg.bound],
        "delta": [_tensor_text(alg.delta(((g, 1),)))
                  for g in range(len(alg.gamma_names))
                  if alg.gamma_degrees[g] <= alg.bound],
    }


def certify(ps: Pass, seed: int, golden):
    from stemcharts import cobar, extcharts, hopf

    def verified(kind, p):
        alg = hopf.build_algebroid(kind, 10, p=p)  # verify() runs on construction
        cx = cobar.CobarComplex(alg)
        checked = 0
        for d in range(0, 6):
            for s in range(0, 3):
                cx.check_d_squared(s, d)
                checked += len(cx.basis(s, d))
        return alg, checked

    def oracle():
        alg = hopf.build_algebroid("p_typical", 9, p=3)
        return (extcharts.ext_chart(alg, 3, 10, 6, 18, normalized=False),
                extcharts.ext_chart(alg, 3, 10, 6, 18))

    for name, job in (("universal bound 10", lambda: [verified("universal", None)]),
                      ("p_typical bound 10",
                       lambda: [verified("p_typical", p) for p in (2, 3, 5)])):
        _record_algebroids(ps, name, ps.run(name, job), golden)
    _record_oracle(ps, ps.run("oracle p=3 t<=18", oracle), golden)


def _record_algebroids(ps: Pass, name: str, out, golden):
    if out is not None:
        ps.record(name, [{"algebroid": _algebroid_summary(alg), "d2_checked": checked}
                         for alg, checked in out], golden)


def _record_oracle(ps: Pass, out, golden):
    if out is not None:
        unnormalized, normalized = (ec.to_json() for ec in out)
        ps.record("oracle p=3 t<=18 unnormalized", unnormalized, golden)
        ps.record("oracle p=3 t<=18 normalized", normalized, golden)
        _check_ext_invariants(ps, "normalized", normalized)
        if unnormalized["entries"] != normalized["entries"]:
            ps.fail("unnormalized and normalized charts differ")


# -- cli_session ------------------------------------------------------------

def _jordan_module(rng, p, dim, largest):
    """A conjugated nilpotent matrix of a random Jordan type with the given
    largest block; returns (module JSON, {block size: multiplicity})."""
    parts, rem = [largest], dim - largest
    while rem:
        k = rng.randint(1, min(largest, rem))
        parts.append(k)
        rem -= k
    T = [[0] * dim for _ in range(dim)]
    base = 0
    for size in parts:
        for i in range(size - 1):
            T[base + i + 1][base + i] = 1
        base += size
    # T <- E T E^-1 for random elementary E = I + c e_ij
    for _ in range(4 * dim):
        i, j = rng.sample(range(dim), 2)
        c = rng.randrange(1, p)
        T[i] = [(a + c * b) % p for a, b in zip(T[i], T[j])]
        for row in T:
            row[j] = (row[j] - c * row[i]) % p
    module = {"p": p, "dim": dim, "t": [x for row in T for x in row]}
    return module, {str(k): v for k, v in sorted(Counter(parts).items())}


def session(seed: int) -> tuple[list[dict], dict[str, str]]:
    """The seeded CLI session: (calls, module files by relative path).

    Each call is {"argv", "key"} plus "profile" (decompose: the expected
    Jordan type) or "same_as" (render: index of the call whose output it
    must reproduce).  Every pooled item runs first as json, which misses
    the cache and stores the payload, then as json, grid and svg hits in a
    seeded order, so each session has the same misses.
    """
    rng = random.Random(seed)
    charts = []  # (argv prefix, default view)
    charts += [(["ext", "--prime", str(p), "--tmax", str(t)], "stem-weight")
               for p, t in EXT_POOL]
    charts += [(["stems", "--field", f, "--prime", str(p), "--stem-max", str(s)], "ij")
               for f, p, s in STEMS_POOL]
    charts += [(["synthetic", "--prime", str(p), "--stem-max", str(s), "--source", src],
                "ij") for p, s, src in SYNTHETIC_POOL]
    kmw = [["kmw", "--field", field, "--range=-5:5", "--complete", str(p), "--basis"]
           for field, p in KMW_POOL]
    groups = []  # the calls of one item, in the order they run
    for prefix, hit_formats in ([(c, ["json", "grid", "svg"]) for c, _ in charts]
                                + [(k, ["json", "grid"]) for k in kmw]):
        rng.shuffle(hit_formats)
        groups.append([{"argv": prefix + ["--format", fmt, "--cache-dir", "cache"],
                        "fmt": fmt} for fmt in ["json"] + hit_formats])
    for argv in CATALOG_CALLS * 2:
        groups.append([{"argv": list(argv),
                        "fmt": "grid" if "--names-only" in argv else "json"}])
    files = {}
    for p in (2, 3):
        for dim, largest in DECOMPOSE_SLOTS:
            path = f"modules/m{len(files):02d}.json"
            module, profile = _jordan_module(rng, p, dim, largest)
            files[path] = json.dumps(module)
            groups.append([{"argv": ["decompose", "--module-file", path],
                            "fmt": "json", "profile": profile}])
    order = [g for g, group in enumerate(groups) for _ in group]
    rng.shuffle(order)
    pending = [iter(group) for group in groups]
    calls = [next(pending[g]) for g in order]
    # one render per chart, after the json call that saved it
    for group, (_prefix, view) in zip(groups, charts):
        saved = group[0]
        fmt = rng.choice(["grid", "svg"])
        pos = rng.randint(_position(calls, saved) + 1, len(calls))
        calls.insert(pos, {"argv": ["render", "--chart-file", saved, "--format", fmt,
                                    "--view", view],
                           "fmt": fmt,
                           "same_as": next(c for c in group if c["fmt"] == fmt)})
    for i, call in enumerate(calls):
        call["out"] = f"out/{i:03d}.{FORMAT_SUFFIX[call.pop('fmt')]}"
    for call in calls:
        if "same_as" in call:  # argv[2] held the saved call until paths were set
            call["argv"][2] = call["argv"][2]["out"]
            call["same_as"] = _position(calls, call["same_as"])
            call["key"] = None
        else:
            call["key"] = " ".join(call["argv"])
    for call in calls:
        call["argv"].extend(["--out", call.pop("out")])
    return calls, files


def _position(calls, call) -> int:
    return next(i for i, c in enumerate(calls) if c is call)


def cli_session(ps: Pass, seed: int, golden):
    import stemcharts.cli as cli

    def invoke(argv):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            return exc.code

    calls, files = session(seed)
    for path, text in files.items():
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    os.makedirs("out", exist_ok=True)
    outputs = []
    first_by_key = {}
    for i, call in enumerate(calls):
        argv = call["argv"]
        rc = ps.run(f"{i:03d} {argv[0]}", invoke, argv)
        try:
            with open(argv[-1], "rb") as fh:
                text = fh.read()
        except OSError:
            text = b""
        outputs.append(text)
        if rc != 0:
            ps.fail(f"{' '.join(argv)}: exit code {rc}")
            continue
        if call["key"] is not None:
            first = first_by_key.setdefault(call["key"], i)
            if outputs[first] != text:
                ps.fail(f"{call['key']}: cache hit differs from the call that stored it")
        if "profile" in call:
            try:
                parts = json.loads(text)["free_parts"]
            except (ValueError, KeyError):
                parts = []
            if {str(k): v for k, v in parts} != call["profile"]:
                ps.fail(f"{argv[2]}: profile {parts} is not {call['profile']}")
    for i, call in enumerate(calls):
        if "same_as" in call and outputs[i] != outputs[call["same_as"]]:
            ps.fail(f"{' '.join(call['argv'])}: render differs from call "
                    f"{call['same_as']}", op=i)
    cached = len(os.listdir("cache")) if os.path.isdir("cache") else 0
    expected = len(EXT_POOL) + len(STEMS_POOL) + len(SYNTHETIC_POOL) + len(KMW_POOL)
    if cached != expected:
        ps.fail(f"{cached} cache entries for {expected} distinct cached items")
    ps.digests["session"] = hashlib.sha256(b"\0".join(outputs)).hexdigest()


WORKLOADS = {"ext_frontier": ext_frontier, "certify": certify,
             "cli_session": cli_session}


def run_pass(workload: str, seed: int, tracer=None) -> dict:
    golden = load_golden(workload) if workload != "cli_session" else None
    ps = Pass(tracer)
    with SpeedProbe(tracer) as probe:
        WORKLOADS[workload](ps, seed, golden)
    return ps.to_json(probe)

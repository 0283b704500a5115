"""Command-line surface.

Subcommands: ext (Adams-Novikov E_2 charts), kmw (Milnor-Witt K-theory of
a catalogued field), stems (tensor-product formula charts), decompose
(F_p[[t]]-module reports), check (validation suites), render (saved chart
JSON), catalog (list/show field descriptors).

Exit codes: 0 success, 2 usage or precondition violation, 3 precision
exhausted, 4 broken engine invariant (EngineError: a cobar differential
that is not p-integral, leaves the basis, or has d o d != 0; an Ext chart
with a free summand off (0,0); a Lazard lattice defect; a Hopf-algebroid
axiom failure; a failed splitting or reassembly check of an F_p[[t]]
decomposition; a synthetic chart class off its lane n + s = 2w; a defect
of the engine, not of the input).  Inputs are validated before any work
or cache access, and a rejected input is a usage error (exit 2): --prime
and --complete must be prime, --smax, --tmax and --stem-max non-negative,
--tmax even, --precision at least 2, --range two integers LO:HI with LO <=
HI, kmw --basis only with --complete, every input file (--module-file,
--chart-file, --table, --catalog) readable, and --out a path that is not
a directory, in a directory that exists.  --table needs --source table:
the computed source (which auto means at odd p) reads no table, so
`synthetic_stems` rejects a table under it (exit 2) before anything is
computed or stored.  Each input file is read once, by `_read_input`, and
one that is not JSON, has a key twice in one object, is off the schema of
its kind in `schema` (chart, catalog, synthetic table, module or
ind-system) or fails a value check of its reader is a precondition
violation (exit 2) naming the file and the first violation, with its path
in the file for a schema violation.  The value checks: a torsion order and
a finite field's q must be prime powers, a t-action dim x dim and
nilpotent, a structure map of the right shape, injective and
t-equivariant, an ind-system's profiles must stabilize as declared, a
chart holds at most one entry per (i, j), and a table row is [integer
weight, integer filtration >= 0, "free" or an order >= 1] on its lane
n + s = 2w.  Any other error of a reader is a defect and is not reported
as an input error.  `check` exits 1 when a claim fails; a suite that
raises prints "[FAIL] <suite>: <exception type>: <message>" and the next
suite still runs.  The cache key holds the command, every option but
--format, --view, --out and --cache-dir, each --table or --catalog file by
the sha256 of its bytes, and the sha256 of the engine's sources (see
`cache`).  A cache entry that cannot be written is reported on stderr,
and the command still emits its output (exit 0).  Every command is
deterministic given its inputs: re-running reproduces byte-identical
output.

The argument parser is built once per process (`build_parser` is cached),
so in-process callers of `main`, such as the tests, pay for it on their
first call only; `main` stays re-entrant because parsing never changes the
parser.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys

from .cache import ENGINE_VERSION, cache_key, cache_load, cache_store
from .charts import AbGroupDesc, BigradedChart, _is_prime
from .catalog import catalog_to_json, default_catalog, get_field, load_catalog
from .cobar import EngineError
from .extcharts import PrecisionExhausted, ext_chart
from .fields import FieldError
from .fpt import FptError, FptModule, IndFptModule, IndSystemError, \
    classify_divisible, check_torsion_powers, check_u_sequence, decompose
from .hopf import build_algebroid
from .kmw import NotFreeError, completed_milnor_witt, free_basis, milnor_witt
from .render import render_svg, render_text
from .schema import IND_SYSTEM, MODULE, SchemaError, check
from .stems import PreconditionError, check_table, synthetic_stems, \
    tensor_formula

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_PRECISION = 3
EXIT_ENGINE = 4


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _chart_output(chart: BigradedChart, fmt: str, view: str) -> str:
    if fmt == "json":
        return json.dumps(chart.to_json(), indent=1) + "\n"
    if fmt == "grid":
        return render_text(chart, view=view)
    if fmt == "svg":
        return render_svg(chart, view=view)
    raise ValueError(f"unknown format {fmt!r}")


def _unique_keys(pairs: list) -> dict:
    """A JSON object from its pairs; a repeated key, which `json.loads`
    would silently overwrite, is a SchemaError."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise SchemaError(f"duplicate key {max(keys, key=keys.count)!r}")
    return obj


def _read_input(path: str | None, what: str, parse) -> tuple[object, str | None]:
    """(parse(the JSON in the file), sha256 of the file's bytes), or
    (None, None) without a path.

    Every input file (module, chart, table, catalog) is read here, once:
    a file that is not JSON, is off its schema or fails a value check is a
    precondition violation that names the file; any other error propagates.
    """
    if path is None:
        return None, None
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return (parse(json.loads(data, object_pairs_hook=_unique_keys)),
                hashlib.sha256(data).hexdigest())
    except (ValueError, FptError, FieldError) as exc:
        # ValueError: a SchemaError, a JSON or UTF-8 error or a value check
        raise PreconditionError(
            f"{path} is not a {what} file ({type(exc).__name__}: {exc})") from exc


_OUTPUT_ONLY = ("func", "format", "view", "out", "cache_dir")


def _with_cache(args, compute, **files):
    """Cache the canonical JSON payload; render from the cached payload.
    The key is the command and every option but the output-only ones, with
    the input files by `files` (option -> sha256 of the file's bytes)."""
    cache_dir = args.cache_dir or os.environ.get("STEMCHARTS_CACHE_DIR")
    if not cache_dir:
        return json.dumps(compute(), indent=1) + "\n"
    params = {k: v for k, v in vars(args).items() if k not in _OUTPUT_ONLY}
    key = cache_key(params.pop("command"), {**params, **files})
    payload = cache_load(cache_dir, key)
    if payload is None:
        payload = json.dumps(compute(), indent=1) + "\n"
        cache_store(cache_dir, key, payload)
    return payload


def _emit_chart(args, payload: str) -> int:
    """Emit a chart's JSON payload as is, or rendered in args.format."""
    if args.format == "json":
        _emit(payload, args.out)
    else:
        chart = BigradedChart.from_json(json.loads(payload))
        _emit(_chart_output(chart, args.format, args.view), args.out)
    return EXIT_OK


def cmd_ext(args) -> int:
    def compute():
        bound = max((args.tmax + 1) // 2, 1)
        alg = build_algebroid(args.kind, bound,
                              p=args.prime if args.kind == "p_typical" else None)
        ec = ext_chart(alg, args.prime, args.precision, args.smax, args.tmax,
                       normalized=not args.unnormalized)
        return ec.to_json()

    return _emit_chart(args, _with_cache(args, compute))


def cmd_kmw(args) -> int:
    if args.basis and not args.complete:
        raise PreconditionError("--basis needs --complete")
    fields, catalog_sha = _read_input(args.catalog, "catalog", load_catalog)
    k = get_field(args.field, fields)
    lo, hi = args.range

    def compute():
        if args.complete:
            chart = completed_milnor_witt(k, lo, hi, args.complete)
        else:
            chart = milnor_witt(k, lo, hi)
        obj = chart.to_json()
        if args.basis:
            basis = free_basis(chart, args.complete, field=k)
            obj["free_basis"] = {str(n): m for n, m in basis.items()}
        return obj

    payload = _with_cache(args, compute, catalog=catalog_sha)
    if args.format == "json":
        _emit(payload, args.out)
    else:
        obj = json.loads(payload)
        chart = BigradedChart({(int(n), 0): AbGroupDesc(**g)
                               for n, g in obj["kmw"].items()},
                              label=f"K^MW of {obj['field']}")
        _emit(_chart_output(chart, args.format, "ij"), args.out)
    return EXIT_OK


def cmd_stems(args) -> int:
    fields, catalog_sha = _read_input(args.catalog, "catalog", load_catalog)
    k = get_field(args.field, fields)
    table, table_sha = _read_input(args.table, "table", check_table)

    def compute():
        chart = tensor_formula(k, args.prime, args.stem_max,
                               source=args.source, table=table,
                               precision=args.precision)
        return chart.to_json()

    return _emit_chart(args, _with_cache(args, compute, table=table_sha,
                                         catalog=catalog_sha))


def cmd_synthetic(args) -> int:
    table, table_sha = _read_input(args.table, "table", check_table)

    def compute():
        syn = synthetic_stems(args.prime, args.stem_max, source=args.source,
                              table=table, precision=args.precision)
        return syn.to_json()

    return _emit_chart(args, _with_cache(args, compute, table=table_sha))


def _module_from_json(data) -> FptModule | IndFptModule:
    """The module or ind-system of a module file."""
    if not (isinstance(data, dict) and "modules" in data):
        return FptModule.from_json(check(data, MODULE))
    check(data, IND_SYSTEM)
    return IndFptModule([FptModule.from_json(m) for m in data["modules"]],
                        data["maps"], data.get("stable_from", 0))


def cmd_decompose(args) -> int:
    M, _ = _read_input(args.module_file, "module", _module_from_json)
    try:
        report = _decompose_report(M)
    except IndSystemError as exc:
        raise PreconditionError(str(exc)) from exc
    except FptError as exc:
        raise EngineError(f"F_p[[t]] decomposition: {exc}") from exc
    _emit(json.dumps(report, indent=1) + "\n", args.out)
    return EXIT_OK


def _decompose_report(M: FptModule | IndFptModule) -> dict:
    if isinstance(M, IndFptModule):
        report = classify_divisible(M).to_json()
        report["kind"] = "ind_system"
    else:
        dec = decompose(M)
        tp, witness = check_torsion_powers(M, dec)
        useq = {}
        n = 0
        while M.p ** n <= max(M.dim, 1) and M.dim:
            useq[str(M.p ** n)] = check_u_sequence(M, n)
            n += 1
        report = dec.to_json()
        report["kind"] = "module"
        report["torsion_power_condition"] = tp
        if witness:
            report["torsion_power_witness"] = witness
        report["u_sequence_exact"] = useq
    return report


def cmd_render(args) -> int:
    chart, _ = _read_input(args.chart_file, "chart", BigradedChart.from_json)
    _emit(_chart_output(chart, args.format, args.view), args.out)
    return EXIT_OK


def cmd_catalog(args) -> int:
    fields, _ = _read_input(args.catalog, "catalog", load_catalog)
    fields = default_catalog() if fields is None else fields
    if args.show:
        if args.show not in fields:
            raise FieldError(f"unknown field {args.show!r}")
        obj = fields[args.show].to_json()
        _emit(json.dumps(obj, indent=1) + "\n", args.out)
    else:
        obj = catalog_to_json(fields)
        if args.names_only:
            _emit("\n".join(sorted(obj["fields"])) + "\n", args.out)
        else:
            _emit(json.dumps(obj, indent=1) + "\n", args.out)
    return EXIT_OK


def cmd_check(args) -> int:
    from . import checks
    ok = checks.run_suite(args.suite)
    return EXIT_OK if ok else 1


def _int_arg(ok, requirement: str):
    """argparse type: an int satisfying ok; anything else is a usage error."""
    def parse(text: str) -> int:
        n = int(text)
        if not ok(n):
            raise argparse.ArgumentTypeError(f"{n} {requirement}")
        return n
    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


_prime = _int_arg(_is_prime, "is not prime")
_non_negative = _int_arg(lambda n: n >= 0, "is negative")
_even_degree = _int_arg(lambda n: n >= 0 and n % 2 == 0,
                        "is not an even non-negative degree")
_precision = _int_arg(lambda n: n >= 2, "is below the minimum precision 2")


def _readable_file(path: str) -> str:
    if not os.path.isfile(path) or not os.access(path, os.R_OK):
        raise argparse.ArgumentTypeError(f"cannot read file {path!r}")
    return path


def _output_file(path: str) -> str:
    """argparse type: a path that is not a directory, in a directory that
    exists."""
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        raise argparse.ArgumentTypeError(f"cannot write file {path!r}")
    return path


def _degree_range(text: str) -> tuple[int, int]:
    """argparse type: LO:HI with integers LO <= HI."""
    lo, _, hi = text.partition(":")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not LO:HI") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"{text!r} has LO > HI")
    return lo, hi


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call
    of `main`: parsing leaves it as it was, and callers must not change it."""
    ap = argparse.ArgumentParser(
        prog="stemcharts",
        description="Exact-arithmetic motivic stable-stem charts "
                    f"(engine {ENGINE_VERSION})")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, view_default="ij"):
        p.add_argument("--format", choices=["json", "grid", "svg"],
                       default="json")
        if view_default:
            p.add_argument("--view", choices=["ij", "stem-weight"],
                           default=view_default)
        p.add_argument("--out", type=_output_file, default=None,
                       help="write output to a file")
        p.add_argument("--cache-dir", default=None,
                       help="cache directory (default: $STEMCHARTS_CACHE_DIR)")

    def catalog_option(p):
        p.add_argument("--catalog", type=_readable_file, default=None,
                       help="field catalog JSON")

    p = sub.add_parser("ext", help="Adams-Novikov E2 chart from the cobar complex")
    p.add_argument("--prime", type=_prime, required=True)
    p.add_argument("--smax", type=_non_negative, default=6)
    p.add_argument("--tmax", type=_even_degree, default=18)
    p.add_argument("--precision", type=_precision, default=10)
    p.add_argument("--kind", choices=["p_typical", "universal"],
                   default="p_typical")
    p.add_argument("--unnormalized", action="store_true",
                   help="use the unnormalized cobar complex (oracle mode)")
    common(p, view_default="stem-weight")
    p.set_defaults(func=cmd_ext)

    p = sub.add_parser("kmw", help="Milnor-Witt K-theory of a catalog field")
    p.add_argument("--field", required=True)
    p.add_argument("--range", type=_degree_range, default="-5:5",
                   help="LO:HI degrees (use --range=-5:5 for negative LO)")
    p.add_argument("--complete", type=_prime, default=None,
                   help="(p, eta)-complete at this prime")
    p.add_argument("--basis", action="store_true",
                   help="include the free basis over pi_0 synthetic "
                        "(needs --complete)")
    common(p, view_default=None)
    catalog_option(p)
    p.set_defaults(func=cmd_kmw)

    p = sub.add_parser("stems", help="motivic stable stems via the tensor formula")
    p.add_argument("--field", required=True)
    p.add_argument("--prime", type=_prime, required=True)
    p.add_argument("--stem-max", type=_non_negative, default=12)
    p.add_argument("--source", choices=["auto", "computed", "table"],
                   default="auto")
    p.add_argument("--table", type=_readable_file, default=None,
                   help="synthetic table file")
    p.add_argument("--precision", type=_precision, default=10)
    common(p)
    catalog_option(p)
    p.set_defaults(func=cmd_stems)

    p = sub.add_parser("synthetic", help="synthetic stable stems chart")
    p.add_argument("--prime", type=_prime, required=True)
    p.add_argument("--stem-max", type=_non_negative, default=12)
    p.add_argument("--source", choices=["computed", "table"], default="computed")
    p.add_argument("--table", type=_readable_file, default=None)
    p.add_argument("--precision", type=_precision, default=10)
    common(p)
    p.set_defaults(func=cmd_synthetic)

    p = sub.add_parser("decompose", help="decompose an F_p[[t]]-module file")
    p.add_argument("--module-file", type=_readable_file, required=True)
    p.add_argument("--out", type=_output_file, default=None)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("render", help="render a saved chart JSON")
    p.add_argument("--chart-file", type=_readable_file, required=True)
    p.add_argument("--format", choices=["grid", "svg", "json"], default="grid")
    p.add_argument("--view", choices=["ij", "stem-weight"], default="ij")
    p.add_argument("--out", type=_output_file, default=None)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("catalog", help="list or show field descriptors")
    p.add_argument("--show", default=None)
    p.add_argument("--names-only", action="store_true")
    catalog_option(p)
    p.add_argument("--out", type=_output_file, default=None)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("check", help="run a validation suite")
    p.add_argument("--suite", default="all",
                   choices=["milnor", "fpt", "charts", "hopf", "ext",
                            "stems", "determinism", "all"])
    p.set_defaults(func=cmd_check)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PrecisionExhausted as exc:
        print(f"stemcharts: precision exhausted: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except EngineError as exc:
        print(f"stemcharts: engine invariant broken: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    except (PreconditionError, FieldError, NotFreeError) as exc:
        print(f"stemcharts: precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())

"""Layer spans measured from outside the program.

`install(tracer)` wraps public stemcharts functions and methods at every
name their callers look them up by, so each call records a span (name,
start, end, parent, run id) and a few counters in memory.  `self_times`
turns a span list into per-layer self time: a span's duration minus the
part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref
from collections import Counter, defaultdict


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index, run id]
        self.counts: Counter = Counter()
        self.run_id = None
        self._stack: list[int] = []
        # distinct (s, degree) slices asked of each live cobar complex
        self._slices = weakref.WeakKeyDictionary()

    def call(self, name, fn, args=(), kwargs=None):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.run_id]
        # append before pushing: a signal handler that records a span in
        # between must not take this span's index
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()


def self_times(spans, scale=lambda run_id: 1.0) -> dict[str, float]:
    """Sum of self time per span name, each span's times `scale(run id)`."""
    kids = defaultdict(list)
    for _name, start, end, parent, _run in spans:
        if parent >= 0:
            kids[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _parent, run) in enumerate(spans):
        covered, cursor = 0.0, start
        for a, b in sorted(kids.get(i, ())):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out[name] += ((end - start) - covered) * scale(run)
    return dict(out)


# -- counters recorded next to the spans -----------------------------------

def _smith_cells(tr, bound, result):
    A = bound.arguments["A"]
    ncols = bound.arguments.get("ncols")
    if ncols is None:
        ncols = len(A[0]) if A else 0
    tr.counts["zpk.smith_form.cells"] += len(A) * ncols


def _matrix_cells(tr, bound, result):
    tr.counts["cobar.differential_matrix.cells"] += \
        len(result) * (len(result[0]) if result else 0)
    a = bound.arguments
    seen = tr._slices.setdefault(a["self"], set())
    if (a["s"], a["degree"]) not in seen:
        seen.add((a["s"], a["degree"]))
        tr.counts["cobar.differential_matrix.distinct"] += 1


def _svg_bytes(tr, bound, result):
    tr.counts["render.render_svg.bytes"] += len(result.encode("utf-8"))


def _cache_hits(tr, bound, result):
    tr.counts["cache.load.hits"] += result is not None


def _store_bytes(tr, bound, result):
    tr.counts["cache.store.bytes"] += len(bound.arguments["payload"].encode("utf-8"))


# span name, module, attribute ("Class.method" for methods), counter
TARGETS = [
    ("zpk.smith_form", "stemcharts.zpk", "SmithForm.__init__", _smith_cells),
    ("zpk.subquotient_structure", "stemcharts.zpk", "subquotient_structure", None),
    ("cobar.basis", "stemcharts.cobar", "CobarComplex.basis", None),
    ("cobar.differential_matrix", "stemcharts.cobar",
     "CobarComplex.differential_matrix", _matrix_cells),
    ("cobar.check_d_squared", "stemcharts.cobar", "CobarComplex.check_d_squared", None),
    ("extcharts.ext_chart", "stemcharts.extcharts", "ext_chart", None),
    ("fgl.universal_fgl", "stemcharts.fgl", "UniversalFGL.__init__", None),
    ("fgl.to_x_coordinates", "stemcharts.fgl", "UniversalFGL.to_x_coordinates", None),
    ("hopf.build_algebroid", "stemcharts.hopf", "build_algebroid", None),
    ("hopf.verify", "stemcharts.hopf", "HopfAlgebroid.verify", None),
    ("fpt.decompose", "stemcharts.fpt", "decompose", None),
    ("fpt.check_torsion_powers", "stemcharts.fpt", "check_torsion_powers", None),
    ("fpt.check_u_sequence", "stemcharts.fpt", "check_u_sequence", None),
    ("kmw.milnor_witt", "stemcharts.kmw", "milnor_witt", None),
    ("kmw.free_basis", "stemcharts.kmw", "free_basis", None),
    ("stems.synthetic_stems", "stemcharts.stems", "synthetic_stems", None),
    ("stems.tensor_formula", "stemcharts.stems", "tensor_formula", None),
    ("render.render_svg", "stemcharts.render", "render_svg", _svg_bytes),
    ("render.render_text", "stemcharts.render", "render_text", None),
    ("cache.load", "stemcharts.cache", "cache_load", _cache_hits),
    ("cache.store", "stemcharts.cache", "cache_store", _store_bytes),
    ("cli.main", "stemcharts.cli", "main", None),
]


def _wrap(tr: Tracer, name: str, fn, counter):
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tr.counts[name + ".calls"] += 1
        result = tr.call(name, fn, args, kwargs)
        if counter is not None:
            counter(tr, sig.bind(*args, **kwargs), result)
        return result
    return wrapper


def install(tr: Tracer) -> None:
    """Wrap every target.  Import all stemcharts modules before calling."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "stemcharts" or n.startswith("stemcharts.")]
    for name, modname, attr, counter in TARGETS:
        owner = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, _wrap(tr, name, getattr(cls, meth), counter))
            continue
        fn = getattr(owner, attr)
        wrapper = _wrap(tr, name, fn, counter)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)

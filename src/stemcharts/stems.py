"""Bigraded motivic stable-stem charts.

Assembles the other engines: Morel's zero line from Milnor-Witt K-theory,
homotopy of completed algebraic cobordism from completed Milnor K-theory
with a Bott element and Lazard generators, the Adams-Novikov E_1 levels,
synthetic stable stems (computed from Ext in the degeneration range, or
loaded from a table file), and the tensor-product formula for
Tate-orientable fields.  At p = 2 the synthetic stems come from a table
of the Adams-Novikov E_2 page, so they and the tensor-formula charts built
on them are the E_2 (mod tau) layer, not pi_**.

Chart conventions: an Ext class in (s, t) sits at stem n = t - s and
weight w = t / 2.  The zeroth Milnor-Witt stem is the diagonal {(k, k)};
in the eta-degree grading (twist -k) it carries Z_p[eta]-type data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

from .charts import (BigradedChart, _check_keys, _int_key, _is_int, _is_prime,
                     _json_object, complete_chart, complete_desc, cyclic,
                     free_group, sum_groups)
from .fields import FieldDescriptor, milnor_k
from .kmw import completed_milnor_witt, free_basis, milnor_witt
from .hopf import build_algebroid
from .extcharts import ext_chart
from .fgl import EngineError


class PreconditionError(Exception):
    """A documented precondition fails (maps to CLI exit code 2)."""


@dataclass(frozen=True)
class Box:
    i_min: int
    i_max: int
    j_min: int
    j_max: int

    def contains(self, i: int, j: int) -> bool:
        return self.i_min <= i <= self.i_max and self.j_min <= j <= self.j_max


# ---------------------------------------------------------------------------
# Morel zero line

def morel_zero_line(k: FieldDescriptor, lo: int, hi: int) -> BigradedChart:
    """Diagonal chart (n, n) -> K^MW_{-n}; everything below the diagonal is
    zero, and off-diagonal positions carry no assertion."""
    if k.characteristic() == 2:
        raise PreconditionError("Morel zero line needs characteristic != 2")
    kmw = milnor_witt(k, -hi, -lo)
    entries = {}
    for n in range(lo, hi + 1):
        g = kmw.group(-n)
        if not g.is_zero():
            entries[(n, n)] = g
    return BigradedChart(entries, label=f"Morel 0-line of {k.describe()}")


# ---------------------------------------------------------------------------
# MGL homotopy and ANSS E_1 levels

def _colored_partition_counts(colors: int, n_max: int) -> list[int]:
    """Monomial counts of a polynomial ring on `colors` copies of one
    generator per positive degree (s-fold tensor powers of the Lazard
    pattern): the coefficients of prod_{d >= 1} (1 - x^d)^(-colors), each
    factor 1/(1 - x^d) applied as one running sum."""
    out = [1] + [0] * n_max
    for d in range(1, n_max + 1):
        for _ in range(colors):
            for n in range(d, n_max + 1):
                out[n] += out[n - d]
    return out


def mgl_homotopy(k: FieldDescriptor, ell: int, box: Box) -> BigradedChart:
    """pi_** of ell-completed algebraic cobordism: completed Milnor
    K-theory, a Bott element tau in (0, -1), and Lazard generators in
    (2i, i)."""
    return _mgl_like(k, ell, box, levels=1,
                     label=f"MGL^_{ell} over {k.describe()}")


def anss_e1(k: FieldDescriptor, ell: int, s: int, box: Box) -> BigradedChart:
    """Level-s cosimplicial term of the motivic Adams-Novikov E_1 page:
    the s-fold cooperations power is free on monomials in bidegrees
    (2d, d), so the chart is the cobordism pattern with multiplicities from
    an (s+1)-fold colored count."""
    if s < 0:
        raise PreconditionError("cosimplicial level must be >= 0")
    return _mgl_like(k, ell, box, levels=s + 1,
                     label=f"ANSS E1 level {s} over {k.describe()}")


def _mgl_like(k: FieldDescriptor, ell: int, box: Box, levels: int,
              label: str) -> BigradedChart:
    if k.characteristic() == ell:
        raise PreconditionError("completion prime equals the characteristic")
    cmax = box.i_max - 2 * box.j_min
    if cmax < 0:
        return BigradedChart({}, label=label, prime=ell)
    completed = {n: complete_desc(g, ell) for n, g in milnor_k(k, cmax).items()}
    dmax = (box.i_max + cmax) // 2 + 1
    counts = _colored_partition_counts(levels, max(dmax, 0))
    entries = sum_groups(((2 * d - n, d - e - n), g.scaled(counts[d]))
                         for n, g in completed.items() if not g.is_zero()
                         for e in range((cmax - n) // 2 + 1)
                         for d in range(dmax + 1)
                         if box.contains(2 * d - n, d - e - n))
    return BigradedChart(entries, label=label, prime=ell)


# ---------------------------------------------------------------------------
# synthetic stems

def degeneration_range(p: int) -> int:
    """Maximal stem through which the E_2 chart is read off as synthetic
    homotopy; conservative classical bounds, with p = 2 table-only."""
    if p == 2:
        return 0
    if p == 3:
        return 20
    return 2 * p * (p - 1) - 3


@dataclass
class SyntheticChart:
    chart: BigradedChart                     # (stem n, weight w)
    p: int
    degeneration_max: int
    filtrations: dict[tuple[int, int], tuple] = dc_field(default_factory=dict)
    source: str = "computed"

    def to_json(self) -> dict:
        obj = self.chart.to_json()
        obj["axes"] = ["stem", "weight"]
        obj["degeneration_max"] = self.degeneration_max
        obj["source"] = self.source
        obj["filtrations"] = [
            {"stem": n, "weight": w, "entries": list(v)}
            for (n, w), v in sorted(self.filtrations.items(),
                                    key=lambda kv: (kv[0][1], kv[0][0]))]
        return obj


BUILTIN_TABLES: dict[int, dict] = {
    # Synthetic stems at p = 2, Ext-layer entries for low stems.  The
    # zeroth Milnor-Witt row (the eta tower on the diagonal) realizes
    # Z_2[eta]/2eta; the remaining entries reproduce the 2-primary
    # cobordism Ext chart in this range.
    2: {
        "p": 2,
        "last_stem": 7,
        "stems": {
            "0": [[0, 0, "free"]],
            "1": [[1, 1, 2]],
            "2": [[2, 2, 2]],
            "3": [[2, 1, 4], [3, 3, 2]],
            "4": [[4, 4, 2]],
            "5": [[3, 1, 2], [5, 5, 2]],
            "6": [[4, 2, 2], [4, 2, 2], [6, 6, 2]],
            "7": [[4, 1, 16], [5, 3, 2], [7, 7, 2]],
        },
    },
    # p = 3 table: frozen from the verified E_2 computation, stems <= 12.
    3: {
        "p": 3,
        "last_stem": 12,
        "stems": {
            "0": [[0, 0, "free"]],
            "3": [[2, 1, 3]],
            "7": [[4, 1, 3]],
            "10": [[6, 2, 3]],
            "11": [[6, 1, 9]],
        },
    },
}


def _synthetic_chart(rows: list, p: int, stem_max: int, source: str,
                     label: str) -> SyntheticChart:
    """The chart of rows (n, w, s, group, order): the groups summed at each
    (n, w), whose filtrations are the rows' (s, order) there, in row order.
    A row with s < 0 or off its lane n + s = 2w is a malformed table
    (ValueError) or, from the Ext engine, an EngineError."""
    filtr: dict[tuple[int, int], tuple] = {}
    for n, w, s, _, order in rows:
        if s < 0 or n + s != 2 * w:
            error = ValueError if source == "table" else EngineError
            raise error(f"filtration annotation out of lane at {(n, w)}: "
                        f"{(s, order)} breaks n + s = 2w")
        filtr[(n, w)] = filtr.get((n, w), ()) + ((s, order),)
    chart = BigradedChart(sum_groups(((n, w), g) for n, w, _, g, _ in rows),
                          label=label, prime=p)
    return SyntheticChart(chart, p, stem_max, filtr, source=source)


def check_table(table: dict) -> dict:
    """The table, once its whole chart is built: a "p" that is not a
    prime, "stems" that is not an object, a stem key that is not an
    integer, a stem that is not a list of rows, a malformed row (short, a
    weight, filtration or order that is a boolean or not an integer, with
    "free" the one other order; a negative filtration or an order below 1;
    then a row off its lane n + s = 2w) or a key other than "p" and "stems"
    raises here, when the table is loaded."""
    _check_keys(table, ("p", "stems"), "table", required=("p", "stems"))
    if not (_is_int(table["p"]) and _is_prime(table["p"])):
        raise ValueError(f"table 'p' is not a prime: {table['p']!r}")
    synthetic_from_table(table, math.inf)
    return table


def synthetic_from_table(table: dict, stem_max: int) -> SyntheticChart:
    p = table["p"]
    rows = []
    for stem_str, items in _json_object(table["stems"], "table 'stems'").items():
        n = _int_key(stem_str, "table stem")
        if n > stem_max:
            continue
        if not isinstance(items, list):
            raise ValueError(f"stem {stem_str} in table is not a list of rows")
        for row in items:
            if not isinstance(row, list) or len(row) != 3:
                raise ValueError(f"row {row!r} in table is not "
                                 "[weight, filtration, order]")
            w, s, order = row
            for what, v in (("weight", w), ("filtration", s), ("order", order)):
                if not (_is_int(v) or what == "order" and v == "free"):
                    raise ValueError(f"{what} {v!r} in table is not an integer "
                                     f"(row {row!r} of stem {stem_str})")
            if s < 0:
                raise ValueError("negative filtration in table")
            if order != "free" and order < 1:
                raise ValueError(f"order {order} in table is not positive")
            g = free_group(1, completed_at=p) if order == "free" else cyclic(order)
            rows.append((n, w, s, g, order))
    return _synthetic_chart(rows, p, stem_max, "table",
                            f"synthetic stems p={p} (table)")


def synthetic_stems(p: int, stem_max: int, source: str = "computed",
                    table=None, precision: int = 10) -> SyntheticChart:
    """Synthetic stable stems through the given stem.

    source "computed" runs the Ext engine (odd p, within the degeneration
    range) and takes no table; source "table" reads `table` (checked by
    `check_table`), whose absent stems are zero, or the built-in table,
    which answers only through its `last_stem`.
    """
    if source == "table":
        data = table if table is not None else BUILTIN_TABLES.get(p)
        if data is None:
            raise PreconditionError(f"no synthetic table available for p={p}")
        if data["p"] != p:
            raise PreconditionError("table prime mismatch")
        if table is None and stem_max > data["last_stem"]:
            raise PreconditionError(
                f"stem_max {stem_max} exceeds the built-in p={p} table, "
                f"which ends at stem {data['last_stem']}")
        return synthetic_from_table(data, stem_max)
    if source != "computed":
        raise ValueError(f"unknown source {source!r}")
    if table is not None:
        raise PreconditionError("--table needs --source table")
    if p == 2:
        raise PreconditionError(
            "p=2 synthetic stems require a table file (no computed source)")
    dmax = degeneration_range(p)
    if stem_max > dmax:
        raise PreconditionError(
            f"stem_max {stem_max} exceeds the degeneration range {dmax} at p={p}")
    s_max = stem_max // (2 * p - 3) + 1
    t_max = stem_max + s_max
    if t_max % 2:
        t_max += 1
    bound = t_max // 2
    alg = build_algebroid("p_typical", bound, p=p)
    ec = ext_chart(alg, p, precision, s_max=s_max, t_max=t_max)
    return _synthetic_chart([(t - s, t // 2, s, g,
                              "free" if g.free_rank else g.order())
                             for (s, t), g in ec.chart.entries.items()
                             if t - s <= stem_max],
                            p, stem_max, "computed", f"synthetic stems p={p}")


# ---------------------------------------------------------------------------
# tensor-product formula

def tensor_formula(k: FieldDescriptor, p: int, stem_max: int,
                   source: str = "auto", table=None,
                   precision: int = 10) -> BigradedChart:
    """Stems of the (p, eta)-completed sphere of a Tate-orientable field:
    the synthetic chart summed over shifts from the free basis of completed
    Milnor-Witt K-theory, then completed degreewise.

    At p = 2 the synthetic chart is an E_2 table, whose classes at (5,3),
    (6,4) and (7,5) support d_3(alpha_3) = alpha_1^4 and its
    alpha_1-multiples: the result is the E_2 (mod tau) layer, not pi_**."""
    if not k.tate_orientable(p):
        raise PreconditionError(
            f"{k.describe()} is not Tate-orientable at {p}: "
            "the tensor-product formula does not apply")
    if source == "auto":
        source = "table" if p == 2 else "computed"
    syn = synthetic_stems(p, stem_max, source=source, table=table,
                          precision=precision)
    window = stem_max + 2
    completed = completed_milnor_witt(k, -window, window, p)
    basis = free_basis(completed, p, field=k)
    out = sum_groups(((n + shift, w + shift), g.scaled(mult))
                     for shift, mult in sorted(basis.items())
                     for (n, w), g in syn.chart.entries.items())
    # degreewise completion pass (idempotent on already complete entries)
    return complete_chart(BigradedChart(
        out, label=f"stems of {k.describe()} at p={p}"), p)

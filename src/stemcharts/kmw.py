"""Milnor-Witt K-theory charts: the fiber product of Milnor K-theory with
the fundamental-ideal filtration, (p, eta)-completion, and free-basis
extraction over the zeroth synthetic stem ring.

K^MW_n for n >= 1 is the pullback of K^M_n -> k^M_n <- I^n; degree 0 is GW;
negative degrees are the Witt group through eta-periodicity (an imported
catalog axiom, not re-derived).  Naive completion is correct here: at odd p
everything collapses onto completed Milnor K-theory in non-negative
degrees, and at p = 2 the eta-towers stabilize to the completed Witt group.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

from .charts import (AbGroupDesc, INF, complete_desc, cyclic, free_group,
                     sum_groups)
from .fields import FieldDescriptor, FieldError, milnor_k, witt_data


class NotFreeError(Exception):
    """The completed chart is not free over the zeroth synthetic stems."""


@dataclass
class KMWChart:
    """Singly graded K^MW data with its fiber-product legs and eta labels."""

    field_name: str
    lo: int
    hi: int
    kmw: dict[int, AbGroupDesc]
    km: dict[int, AbGroupDesc]
    fundamental: dict[int, AbGroupDesc]
    km_mod2: dict[int, AbGroupDesc]
    eta: dict[int, str] = dc_field(default_factory=dict)
    completed_at: Optional[int] = None

    def group(self, n: int) -> AbGroupDesc:
        return self.kmw.get(n, AbGroupDesc())

    def __eq__(self, other) -> bool:
        if not isinstance(other, KMWChart):
            return NotImplemented
        keys = set(self.kmw) | set(other.kmw)
        return all(self.group(n) == other.group(n) for n in keys)

    def to_json(self) -> dict:
        return {
            "field": self.field_name,
            "range": [self.lo, self.hi],
            "completed_at": self.completed_at,
            "kmw": {str(n): self.kmw[n].to_json() for n in sorted(self.kmw)},
            "km": {str(n): self.km[n].to_json() for n in sorted(self.km)},
            "eta": {str(n): v for n, v in sorted(self.eta.items())},
        }


def _pullback_desc(km_n: AbGroupDesc, in_n: AbGroupDesc,
                   kmod_n: AbGroupDesc) -> AbGroupDesc:
    """Descriptor of K^M_n x_{k^M_n} I^n for the catalog shapes.

    Both legs surject onto k^M_n (a sum of Z/2's); orders multiply and
    divide accordingly.  The catalog shapes keep this explicit: the base is
    either trivial (pullback = direct sum) or a single Z/2 hit isomorphically
    by one leg (pullback = graph = other leg plus kernel of the iso leg).
    """
    if kmod_n.is_zero():
        return km_n.direct_sum(in_n)
    if kmod_n.torsion == (2,) and not kmod_n.free_rank and not kmod_n.divisible:
        # one leg maps isomorphically? catalog cases: finite fields
        # (I^n = Z/2 -> iso), real closed (I^n = Z free rank 1 -> onto)
        if in_n.torsion == (2,) and in_n.free_rank == 0 and not in_n.divisible:
            # graph of K^M_n -> Z/2: isomorphic to K^M_n
            return km_n
        if in_n.free_rank == 1 and not in_n.torsion:
            # {(x, a) : x mod 2 = a mod 2} = Z (+) (2-divisible part of K^M)
            rest = AbGroupDesc(
                free_rank=km_n.free_rank, torsion=tuple(
                    q for q in km_n.torsion if q % 2 != 0),
                torsion_infinite=km_n.torsion_infinite,
                divisible=km_n.divisible)
            return free_group(1).direct_sum(rest)
    raise FieldError("no pullback rule for these descriptor shapes")


def _milnor_k_window(k: FieldDescriptor, lo: int, hi: int
                     ) -> dict[int, AbGroupDesc]:
    """K^M_n(k) on lo <= n <= hi, the Milnor leg of every K^MW chart."""
    if k.characteristic() == 2:
        raise FieldError("Milnor-Witt charts need characteristic != 2")
    if lo > hi:
        raise ValueError("empty range")
    return {n: g for n, g in milnor_k(k, max(hi, 1)).items() if lo <= n <= hi}


def milnor_witt(k: FieldDescriptor, lo: int, hi: int) -> KMWChart:
    """K^MW chart of a catalog field on degrees lo <= n <= hi."""
    km = _milnor_k_window(k, lo, hi)
    wd = witt_data(k, max(hi, 1))
    kmw: dict[int, AbGroupDesc] = {}
    eta: dict[int, str] = {}
    table = k.kmw_table or {}
    for n in range(lo, hi + 1):
        if n in table:
            g = table[n]
        elif n < 0:
            g = wd.w
            eta[n] = "iso (eta-periodicity below degree 0, imported axiom)"
        elif n == 0:
            g = wd.gw
            eta[0] = "GW -> W quotient"
        else:
            g = _pullback_desc(km.get(n, AbGroupDesc()),
                               wd.fundamental.get(n, AbGroupDesc()),
                               wd.km_mod2.get(n, AbGroupDesc()))
            eta[n] = "multiplication into the fundamental-ideal leg"
        if not g.is_zero():
            kmw[n] = g
    return KMWChart(
        field_name=k.describe(), lo=lo, hi=hi, kmw=kmw, km=km,
        fundamental={n: g for n, g in wd.fundamental.items() if lo <= n <= hi},
        km_mod2={n: g for n, g in wd.km_mod2.items() if lo <= n <= hi},
        eta=eta)


def fiber_product_order_check(chart: KMWChart, n: int) -> bool:
    """|K^MW_n| * |k^M_n| == |K^M_n| * |I^n| on finite descriptors, n >= 1."""
    if n < 1:
        raise ValueError("fiber product lives in degrees >= 1")
    sides = [chart.kmw.get(n, AbGroupDesc()), chart.km_mod2.get(n, AbGroupDesc()),
             chart.km.get(n, AbGroupDesc()), chart.fundamental.get(n, AbGroupDesc())]
    orders = [g.order() for g in sides]
    if any(o == INF for o in orders):
        raise ValueError("order accounting needs finite descriptors")
    return orders[0] * orders[1] == orders[2] * orders[3]


def complete_kmw(chart: KMWChart, p: int) -> KMWChart:
    """Naive (p, eta)-completion, degreewise.

    Odd p: eta acts by zero after completion in non-negative degrees (the
    chart collapses to completed Milnor K-theory) and the eta-periodic
    negative range dies.  p = 2: degreewise 2-completion; the negative
    range is the 2-completed Witt group, stabilized by eta.
    """
    kmw: dict[int, AbGroupDesc] = {}
    eta: dict[int, str] = {}
    for n in range(chart.lo, chart.hi + 1):
        if p == 2:
            g = complete_desc(chart.group(n), 2)
            if n < 0:
                eta[n] = "iso"
        elif n >= 0:
            g = complete_desc(chart.km.get(n, AbGroupDesc()), p)
            eta[n] = "zero"
        else:
            continue
        if not g.is_zero():
            kmw[n] = g
    return KMWChart(
        field_name=chart.field_name, lo=chart.lo, hi=chart.hi,
        kmw=kmw,
        km={n: complete_desc(g, p) for n, g in chart.km.items()},
        fundamental=dict(chart.fundamental),
        km_mod2=dict(chart.km_mod2),
        eta=eta, completed_at=p)


def completed_milnor_witt(k: FieldDescriptor, lo: int, hi: int,
                          p: int) -> KMWChart:
    """`complete_kmw` of the K^MW chart of k on lo..hi.  At odd p that reads
    only completed Milnor K-theory, so it is built from K^M alone and a field
    without Witt data is charted too (its fiber-product legs stay empty)."""
    if p == 2:
        return complete_kmw(milnor_witt(k, lo, hi), p)
    km = _milnor_k_window(k, lo, hi)
    return complete_kmw(KMWChart(k.describe(), lo, hi, kmw={}, km=km,
                                 fundamental={}, km_mod2={}), p)


def pi0_synthetic_pattern(p: int, shift: int, lo: int, hi: int
                          ) -> dict[int, AbGroupDesc]:
    """The completed zeroth synthetic stems, shifted: a Z_p generator in
    degree -shift with (p = 2 only) an eta-tower of Z/2 below it."""
    out: dict[int, AbGroupDesc] = {}
    top = -shift
    if lo <= top <= hi:
        out[top] = free_group(1, completed_at=p)
    if p == 2:
        for n in range(lo, min(top - 1, hi) + 1):
            out[n] = cyclic(2)
    return out


def rebuild_from_basis(basis: dict[int, object], p: int, lo: int, hi: int
                       ) -> dict[int, AbGroupDesc]:
    """Direct sum of shifted zeroth-synthetic copies; completed descriptors."""
    return sum_groups((n, g.scaled(mult))
                      for shift, mult in sorted(basis.items())
                      for n, g in pi0_synthetic_pattern(p, shift, lo, hi).items())


def free_basis(chart: KMWChart, p: int,
               field: Optional[FieldDescriptor] = None) -> dict[int, object]:
    """Basis degrees (with multiplicities) of a completed K^MW chart as a
    free module over the zeroth synthetic stems.

    A basis element lifted from an F_p-basis class of K^M_m / p contributes
    the shift m' = -m; the returned dict maps shifts to multiplicities.
    Raises NotFreeError when the chart does not have the free shape, and a
    FieldError when the underlying field is declared and not
    Tate-orientable at p.
    """
    if field is not None and not field.tate_orientable(p):
        raise FieldError(
            f"{field.describe()} is not Tate-orientable at {p}; "
            "the freeness theorem does not apply")
    if chart.completed_at != p:
        raise ValueError("free_basis expects a chart completed at p")
    basis: dict[int, object] = {}
    for n, g in sorted(chart.kmw.items()):
        if g.free_rank:
            basis[-n] = g.free_rank
    rebuilt = rebuild_from_basis(basis, p, chart.lo, chart.hi)
    actual = {n: g for n, g in chart.kmw.items()}
    if rebuilt != actual:
        raise NotFreeError(
            f"chart of {chart.field_name} is not free over pi_0^syn at p={p}: "
            f"expected {_short(rebuilt)}, found {_short(actual)}")
    return basis


def _short(d: dict[int, AbGroupDesc]) -> str:
    return "{" + ", ".join(f"{n}: {g.shorthand()}" for n, g in sorted(d.items())) + "}"

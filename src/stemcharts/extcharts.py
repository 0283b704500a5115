"""Adams-Novikov Ext charts from the cobar complex.

Cohomology of the cobar complex is computed with exact linear algebra over
Z/p^(2K) and certified down to precision K: the image of the reduction map
H(C/p^(2K)) -> H(C/p^K) equals H(C) (x) Z/p^K as long as every torsion
exponent is < K, which untangles free summands from torsion and kills the
universal-coefficient artifacts.  Summands of order p^K in the image are
free; smaller ones are honest torsion, certified below p^K.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .charts import AbGroupDesc, BigradedChart
from .cobar import CobarComplex
from .hopf import HopfAlgebroid
from .zpk import SmithForm, subquotient_structure


class PrecisionExhausted(Exception):
    """Torsion of order >= p^K detected; recompute with a larger K."""


@dataclass
class ExtChart:
    """Ext^{s,t} chart: s cohomological filtration, t even internal degree."""

    chart: BigradedChart
    p: int
    precision: int
    s_max: int
    t_max: int
    kind: str
    normalized: bool = True

    def group(self, s: int, t: int) -> AbGroupDesc:
        return self.chart.group(s, t)

    def stem_entries(self) -> dict[tuple[int, int], AbGroupDesc]:
        """Reindex to (stem n = t - s, filtration s)."""
        return {(t - s, s): g for (s, t), g in self.chart.entries.items()}

    def to_json(self) -> dict:
        obj = self.chart.to_json()
        obj["axes"] = ["s", "t"]
        obj["precision"] = self.precision
        obj["kind"] = self.kind
        obj["s_max"] = self.s_max
        obj["t_max"] = self.t_max
        return obj


def _reduce_matrix(mat, p: int, m: int):
    mod = p ** m
    out = []
    for row in mat:
        r = []
        for c in row:
            fr = Fraction(c)
            if fr.denominator % p == 0:
                raise ValueError("differential not p-integral")
            r.append(fr.numerator * pow(fr.denominator, -1, mod) % mod)
        out.append(r)
    return out


def ext_chart(algebroid: HopfAlgebroid, p: int, K: int, s_max: int, t_max: int,
              normalized: bool = True, check_d_squared: bool = True) -> ExtChart:
    """Cohomology of the cobar complex as an Ext chart with precision K.

    t_max is the maximal internal (doubled) degree; requires
    t_max <= 2 * algebroid.degree_bound and K >= 2.
    """
    if K < 2:
        raise ValueError("precision K must be >= 2")
    if t_max > 2 * algebroid.bound:
        raise ValueError("t_max exceeds twice the algebroid degree bound")
    if p < 2:
        raise ValueError("p must be prime")
    cx = CobarComplex(algebroid, normalized=normalized)
    m2 = 2 * K
    entries: dict[tuple[int, int], AbGroupDesc] = {}
    for d in range(0, t_max // 2 + 1):
        t = 2 * d
        # exact differentials for s = 0..s_max (need C^{s_max+1} targets)
        mats = {}
        dims = {}
        for s in range(0, s_max + 2):
            dims[s] = len(cx.basis(s, d))
        for s in range(0, s_max + 1):
            mats[s] = cx.differential_matrix(s, d)
        if check_d_squared:
            for s in range(0, s_max):
                cx.check_d_squared(s, d)
        red2 = {s: _reduce_matrix(mats[s], p, m2) for s in mats}
        red1 = {s: _reduce_matrix(mats[s], p, K) for s in mats}
        for s in range(0, s_max + 1):
            n = dims[s]
            if n == 0:
                continue
            Z2 = red2[s]
            sf2 = SmithForm(Z2, p, m2, ncols=n)
            kergens = sf2.kernel_generators()
            if not kergens:
                continue
            kmat = [[g[i] for g in kergens] for i in range(n)]
            if s == 0:
                B2 = []
            else:
                B2 = red2[s - 1]
            orders2, gens2 = subquotient_structure(kmat, B2, n, p, m2)
            for a in orders2:
                if K <= a < m2:
                    raise PrecisionExhausted(
                        f"torsion of order p^{a} >= p^{K} at (s,t)=({s},{t})")
            if not orders2:
                continue
            # image at precision K: reduce adapted generators, recompute
            modK = p ** K
            gcols = [[gens2[i][j] % modK for j in range(len(orders2))]
                     for i in range(n)]
            BK = red1[s - 1] if s else []
            ordersK, _ = subquotient_structure(gcols, BK, n, p, K)
            free = sum(1 for a in ordersK if a == K)
            torsion = tuple(sorted(p ** a for a in ordersK if 0 < a < K))
            if free or torsion:
                entries[(s, t)] = AbGroupDesc(
                    free_rank=free, torsion=torsion,
                    modulus_precision=K, completed_at=p if free else None)
    label = f"Ext {algebroid.kind} p={p} K={K}"
    chart = BigradedChart(entries, label=label, prime=p)
    ec = ExtChart(chart, p, K, s_max, t_max, algebroid.kind, normalized)
    _check_ext_invariants(ec)
    return ec


def _check_ext_invariants(ec: ExtChart):
    g00 = ec.group(0, 0)
    if g00.free_rank != 1 or g00.torsion:
        raise AssertionError("Ext^{0,0} is not free of rank 1")
    for (s, t) in ec.chart.entries:
        if t < s:
            raise AssertionError(f"entry below the connectivity line: {(s, t)}")


def stable_stems_reference(p: int) -> dict[int, tuple[int, ...]]:
    """p-primary parts of the classical stable stems pi_n for n <= 20.

    Derived from the standard tables of the first stable homotopy groups of
    spheres; used as an independent cross-check of low-stem Ext charts.
    """
    orders = {
        0: 0,  # Z
        1: 2, 2: 2, 3: 24, 4: 1, 5: 1, 6: 2, 7: 240, 8: 4,
        9: 8, 10: 6, 11: 504, 12: 1, 13: 3, 14: 4, 15: 960,
        16: 4, 17: 16, 18: 16, 19: 528, 20: 24,
    }
    # group structure is irrelevant here: only the p-part of the order is
    # compared against the product of Ext orders in the degeneration range
    out: dict[int, tuple[int, ...]] = {}
    for n, q in orders.items():
        if q == 0:
            continue
        k = 0
        while q % p == 0:
            q //= p
            k += 1
        if k:
            out[n] = (p ** k,)
    return out

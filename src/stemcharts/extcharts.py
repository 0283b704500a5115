"""Adams-Novikov Ext charts from the cobar complex.

The cobar complex in one internal degree is a cochain complex of finite
free modules over the discrete valuation ring Z_(p), and over it ker d^s is
saturated.  Hence

    H^s = Z_(p)^(n_s - r_s - r_{s-1})  (+)  (+)_a Z/p^a,

where n_s = rank C^s, r_s = rank d^s, and p^a runs over the non-unit
elementary divisors of d^{s-1} (Ravenel, Complex Cobordism and Stable
Homotopy Groups of Spheres, ch. 4 and 7).  Each differential is built once
as sparse integer rows (every structure constant is an integer: `hopf`),
checked against d o d = 0 exactly over Z (below), and its elementary
divisors (`zpk.elementary_divisors`, which reduces the rows mod p^k once
per rung) give r_s and the torsion of H^(s+1); a non-integer entry is an
EngineError.

The divisors come from a modulus ladder (`_divisor_exponents`): eliminate
mod p^k for k = 1, 2, 4, ... capped at 2K, and stop at the first rung
whose divisor count meets n_s - r_{s-1}.  Over Z/p^k the divisors of
valuation < k are exactly those of the Z_(p) matrix, and d o d = 0 is
checked exactly, so r_s <= n_s - r_{s-1}: a rung that meets the bound has
found every divisor at its exact valuation, the one an elimination mod
p^(2K) would give.  Most differentials stop at k = 1 (all divisors units)
or k = 2, where the matrix stays sparse; only deep torsion reaches 2K.

Rung 1 also shrinks the other eliminations (`_slice_divisors`), by the
cancellation lemma of Kaczynski, Mrozek and Slusarek (Homology computation
by reduction of chain complexes, Comput. Math. Appl. 35, 1998): if d^s has
a unit entry at row b (in C^{s+1}) and column a (in C^s), the complex is
homotopy equivalent to the one without a and b, in which d^s becomes its
Schur complement at that entry, d^{s-1} loses row a and d^{s+1} loses
column b.  Since d o d = 0, a unimodular change of basis makes that row
and that column zero, so every differential keeps its rank and its
non-unit divisors.  Rung 1 pivots on a unit of each successive Schur
complement (`zpk.elementary_divisors` reports where), so its u_s unit
pivots are such pairs, in the whole d^s too when it saw only some
columns; the pivots of d^{s-1} and of d^{s+1} share no basis element, so
they cancel together.  Hence:

  - rung 1 of d^s runs on n_{s+1} x (n_s - u_{s-1}), without the columns
    that rung 1 of d^{s-1} cancelled;
  - a d^s that rung 1 leaves short of its bound climbs the ladder on
    (n_{s+1} - u_{s+1}) x (n_s - u_{s-1}), also without the rows that
    rung 1 of d^{s+1} cancelled.

Each is d^s in a complex reduced by the pivots of its neighbours, so it
has every divisor of d^s, units included, and the ladder stops at the
same rung with the same exponents.  With little torsion both sides
of the second are about r_s, against n_{s+1} x n_s.  The second starts
at rung 2: rung 1 on the wider matrix already counted every unit divisor
and fell short of the bound, and pruning keeps the divisors, so rung 1
cannot meet it on the pruned matrix either.

One pass over s streams each degree (`_slice_divisors`): build d^{s+1},
check d^{s+1} o d^s, run rung 1 of d^s, and drop what no later step
reads.  A degree then holds d^s, d^{s+1}, the d^s pruned for rung 1 and
the rows of a held d^{s-1}, never all its differentials, and `ext_chart`
drops its cobar bases when it is done.  A degree whose C^0..C^{s_max} are
all 0 (at p = 3 every odd degree, at p = 5 every degree off 4Z) has no
entry, no check and nothing that can fail, so `ext_chart` drops its bases
and builds and eliminates nothing there.  The builder writes each term
once, straight into its row (`cobar`), and a pivot row with one entry
clears its column with no arithmetic, which is exact for every modulus
(`zpk.elementary_divisors`).  The check is exact over Z but
reads only the columns of C^s that rung 1 of d^{s-1} did not cancel: the
pruned d^s that rung 1 reads anyway.  That certifies the whole product.
Let M = d^{s+1} o d^s, and let A in C^{s-1} and B in C^s be the columns
and rows of the unit pivots of rung 1 of d^{s-1}:

  - the check at s-1 gave d^s o d^{s-1} = 0 (by induction on s; at s = 0
    nothing is cancelled and the check is whole), so M d^{s-1} = 0;
  - the pivots are units of successive Schur complements, so the block
    d^{s-1}[B, A] has a unit determinant and is invertible over Z_(p);
  - hence M[:, B] = -M[:, B^c] d^{s-1}[B^c, A] d^{s-1}[B, A]^{-1}, and
    M[:, B^c] = 0 forces M = 0.

The argument needs only that the reported pivots are units, so it holds
as well when an elimination mod p^k, k > 1, stands in for rung 1.  A
failed check raises the CobarError of the whole product, which names its
first failing column.  Any failure in a degree first rebuilds the degree
and checks every product whole, in order, so a CobarError keeps
precedence over the other errors of its degree, as when every check ran
before any elimination.

The cobar complex of BP_*BP (x) Q is acyclic in positive degree, so a
free summand off (0,0), e.g. from a divisor of valuation >= 2K read as
zero (no rung meets the bound then), is an EngineError; so is an Ext^1
row that differs from its closed form (`ext1_exponent`).

Precision contract: orders are certified below p^K.  A valuation a of d^s
in [K, 2K) is torsion that p^(2K) sees but p^K cannot certify, and raises
PrecisionExhausted, with the same (s, t) whichever rung finds it.  The
chart equals the image of H(C/p^(2K)) in H(C/p^K), i.e. H(C) (x) Z/p^K
with the universal-coefficient artifacts removed: free summands have order
p^K there, torsion is certified below it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .charts import AbGroupDesc, BigradedChart, valuation
from .cobar import CobarComplex, CobarError, EngineError, check_composite_zero
from .hopf import HopfAlgebroid
from .zpk import Divisors, elementary_divisors


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

    def group(self, s: int, t: int) -> AbGroupDesc:
        return self.chart.group(s, t)

    def to_json(self) -> dict:
        obj = self.chart.to_json()
        obj["axes"] = ["s", "t"]
        obj["precision"] = self.precision
        obj["kind"] = self.kind
        obj["s_max"] = self.s_max
        obj["t_max"] = self.t_max
        return obj


def _reduce_rows(rows, drop) -> list[dict[int, int]]:
    """Sparse integer rows without the columns in drop; EngineError unless
    every entry is an int."""
    out = []
    for row in rows:
        r = {}
        for j, c in row.items():
            if type(c) is not int:
                raise EngineError("differential not p-integral")
            if j not in drop:
                r[j] = c
        out.append(r)
    return out


def _divisor_exponents(rows, p: int, m: int, rank_bound: int,
                       k: int = 1) -> list[int]:
    """Elementary divisor exponents over Z/p^m of rows whose rank over
    Z_(p) is at most rank_bound.

    Eliminates mod p^k for k = 1, 2, 4, ... capped at m, and stops at the
    first rung whose divisor count meets rank_bound: over Z/p^k the
    divisors of valuation < k are exactly those of the Z_(p) matrix, so
    such a rung has found every divisor at its exact valuation.  A ladder
    that rung 1 is already known to leave short starts at k = 2.

    rows may be d^s pruned by the cancellation lemma of Kaczynski, Mrozek
    and Slusarek (module docstring): n_{s+1} x (n_s - u_{s-1}) for rung 1
    alone, (n_{s+1} - u_{s+1}) x (n_s - u_{s-1}) for the whole ladder, u
    counting the unit pivots of a neighbour's rung 1.  Either is d^s in a
    homotopy equivalent complex, with every divisor of the whole d^s, so
    the ladder stops at the same rung with the same exponents.
    """
    while True:
        vals = elementary_divisors(rows, p, k)
        if k == m or len(vals) == rank_bound:
            return vals
        k = min(2 * k, m)


def _slice_divisors(mats, ns: list[int], p: int, m: int, degree: int = 0):
    """Check d o d = 0 and yield the divisor exponents over Z/p^m of d^0,
    d^1, ... in turn.

    mats: the exact sparse rows of d^0, d^1, ... (rows C^{s+1}, columns
    C^s), read once each and in order, so a generator may build them on
    demand; ns[s] = n_s.  Step s reads d^{s+1}, checks d^{s+1} o d^s on the
    columns of C^s that the unit pivots of d^{s-1} did not cancel, and runs
    rung 1 of d^s on those columns.  A d^s that it leaves short of its rank
    bound n_s - r_{s-1} climbs the ladder from rung 2 after rung 1 of
    d^{s+1}, without the rows that its unit pivots cancelled.  An
    elimination that reports no unit pivots cancels nothing.  A failed
    check raises the CobarError of the whole product, which names its first
    failing column at this s and degree.
    """
    mats = iter(mats)
    after = next(mats, None)     # d^{s+1}
    cancelled: set[int] = set()  # elements of C^s paired by a unit pivot of d^{s-1}
    held = None                  # (rows, rank bound) of a d^{s-1} short of its bound
    rank = 0                     # r_{s-1}
    for s in range(len(ns) + 1):
        units = []
        if s < len(ns):
            whole, after = after, next(mats, None)
            rows = _reduce_rows(whole, cancelled)
            if after is not None:
                try:
                    check_composite_zero(rows, after, s, degree)
                except CobarError:
                    check_composite_zero(whole, after, s, degree)
                    raise
            del whole
            first = _divisor_exponents(rows, p, 1, ns[s])
            if isinstance(first, Divisors):
                units = first.units
        if held:
            paired = {j for _, j in units}
            # rung 1 counted every unit divisor of the held d^s and fell
            # short; pruning keeps the divisors, so its ladder starts at 2
            vals = _divisor_exponents(
                [row for i, row in enumerate(held[0]) if i not in paired], p, m,
                held[1], k=2)
            rank = len(vals)
            held = None
            yield vals
        if s < len(ns):
            if len(first) == ns[s] - rank:
                rank = len(first)
                yield first
            else:
                held = (rows, ns[s] - rank)
            cancelled = {i for i, _ in units}


def ext_chart(algebroid: HopfAlgebroid, p: int, K: int, s_max: int, t_max: int,
              normalized: bool = True) -> ExtChart:
    """Cohomology of the cobar complex as an Ext chart with precision K.

    t_max is the maximal internal (doubled) degree; requires
    t_max <= 2 * algebroid.bound and K >= 2.
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
        ns = [cx.dimension(s, d) for s in range(s_max + 1)]
        if not any(ns):  # C^0..C^{s_max} = 0: no entry, nothing to check
            cx.drop_bases(d)
            continue
        # d^s : C^s -> C^{s+1} for s = 0..s_max, each built once, on demand
        mats = (cx.differential_matrix(s, d) for s in range(s_max + 1))
        prev: list[int] = []  # valuations of d^{s-1}
        try:
            for s, vals in enumerate(_slice_divisors(mats, ns, p, m2, d)):
                n = ns[s]
                bad = [a for a in vals if a >= K]
                if bad:
                    raise PrecisionExhausted(
                        f"torsion of order p^{bad[0]} >= p^{K} at (s,t)=({s},{t})")
                free = n - len(vals) - len(prev)
                torsion = tuple(p ** a for a in prev if a > 0)
                if free or torsion:
                    entries[(s, t)] = AbGroupDesc(
                        free_rank=free, torsion=torsion,
                        modulus_precision=K, completed_at=p if free else None)
                prev = vals
        except (EngineError, PrecisionExhausted):
            # the streamed pass stops at its first failure: build every d^s
            # of the degree, then check every product whole, so that a
            # CobarError of the degree wins, naming its first failing slice
            mats = [cx.differential_matrix(s, d) for s in range(s_max + 1)]
            for s in range(s_max):
                check_composite_zero(mats[s], mats[s + 1], s, d)
            raise
        cx.drop_bases(d)
    label = f"Ext {algebroid.kind} p={p} K={K}"
    chart = BigradedChart(entries, label=label, prime=p)
    ec = ExtChart(chart, p, K, s_max, t_max, algebroid.kind)
    _check_ext_invariants(ec)
    return ec


def ext1_exponent(p: int, t: int) -> int:
    """a with Ext^{1,t} = Z/p^a (0: the zero group), t > 0 even.

    Ravenel, Complex Cobordism, Thm 5.2.6 (Novikov; Miller, Ravenel and
    Wilson 1977): for odd p and q = 2(p-1), Ext^{1,qk} = Z/p^(1+nu_p(k))
    and Ext^{1,t} = 0 off multiples of q; for p = 2, Ext^{1,2k} is Z/2 for
    k odd, Z/4 for k = 2 and Z/2^(nu_2(k)+2) for even k >= 4.
    """
    q = 2 if p == 2 else 2 * (p - 1)
    if t % q:
        return 0
    nu = valuation(t // q, p)
    if p == 2 and nu:
        return 2 if t == 4 else nu + 2
    return 1 + nu


def _check_ext_invariants(ec: ExtChart):
    g00 = ec.group(0, 0)
    if g00.free_rank != 1 or g00.torsion:
        raise EngineError("Ext^{0,0} is not free of rank 1")
    for (s, t), g in ec.chart.entries.items():
        if t < s:
            raise EngineError(f"entry below the connectivity line: {(s, t)}")
        if g.free_rank and (s, t) != (0, 0):
            raise EngineError(f"free rank {g.free_rank} at (s,t)=({s},{t}) "
                              "contradicts rational acyclicity")
    if ec.s_max >= 1:
        p = ec.p
        for t in range(2, ec.t_max + 1, 2):
            a = ext1_exponent(p, t)
            if ec.group(1, t).torsion != ((p ** a,) if a else ()):
                raise EngineError(f"Ext^(1,{t}) is not Z/{p}^{a} (Ravenel 5.2.6)")


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
        k = valuation(q, p)
        if k:
            out[n] = (p ** k,)
    return out

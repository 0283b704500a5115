"""Cobar complex of a Hopf algebroid.

The cosimplicial object s |-> Gamma^{(x)_A s} has cofaces: insert a unit on
the left (which in left-normal form lands as eta_R of the coefficient),
coproduct on each factor, and insert a unit on the right.  The total
differential is the alternating sum.  The normalized (reduced) subcomplex
drops every tuple containing an empty slot; it computes the same
cohomology and is the default.  Differentials are built directly as sparse
rows of ints (every structure constant of both algebroids is an integer,
`hopf`), never dense, and d o d = 0 is checked exactly, over Z
(`check_composite_zero`): on every basis element by `check_d_squared`,
and by `extcharts` on the columns that its cancellation leaves, which
certifies the whole product (the proof is in `extcharts`).

The normalized differential uses the reduced coproduct.  Each Gamma-
monomial keeps the list of its coproduct terms (cm, u, w, c); migrating cm
left only multiplies the slots left of the coproduct, and a product of
positive-degree monomials is never 1, so a term lands on a degenerate tuple
exactly when u or w is 1.  Those terms, eta_R terms with an empty new slot
and the right-unit coface d^{s+1} are dropped before any migration; what
is left is the differential of the normalized complex.  The unnormalized
complex keeps every term.  Each term is written once, straight into its
row: the columns are taken in increasing order, so every row lists them in
that order, and an entry whose terms cancel to 0 goes.  A term whose key is
not in the basis goes into a small dict of the column instead, and only a
nonzero sum there is a CobarError, named by its first key.  Bases
are built slot by slot: the (s-1)-slot tuples are extended by the
monomials of the nonempty slot degrees only.

The builder works on integer codes.  Every A- and Gamma-monomial up to the
bound is an int, numbered in sorted monomial order (1 is 0), so the flat
key (a, t_1, ..., t_s) of a basis element sorts exactly as the nested key
(a_monomial, (t_monomial_1, ..., t_monomial_s)) does: every basis, column
order and pivot choice is the one the nested keys give, and a flat key
hashes in a fraction of the time.  eta_R and the coproduct of each code
are read once from the algebroid, and monomial products are lookups in one
table per ring.  A product above the bound is numbered past the sorted
codes when met, so a differential that reaches one leaves the basis like
any other wrong key, and the CobarError names the nested key.  `basis`
decodes the coded basis to nested keys on each call.
"""

from __future__ import annotations

from .fgl import EngineError
from .poly import Monomial, mon_mul
from .hopf import HopfAlgebroid, TensorKey


class CobarError(EngineError):
    """The cobar complex is not a complex on the computed basis."""


def check_composite_zero(first, second, s: int, degree: int) -> None:
    """Raise CobarError unless d^{s+1} o d^s = 0 exactly.

    first, second: the sparse rows of d^s (rows C^{s+1}, columns C^s) and
    of d^{s+1}, as `differential_matrix` returns them; the error names the
    first failing column.
    """
    bad = []  # columns of the product with a nonzero entry
    for row in second:
        acc: dict[int, object] = {}
        get = acc.get
        for t, w in row.items():
            for j, v in first[t].items():
                acc[j] = get(j, 0) + w * v
        if any(acc.values()):
            bad.extend(j for j, x in acc.items() if x)
    if bad:
        raise CobarError(f"d o d != 0 at s={s}, degree={degree}, column {min(bad)}")


class _Memo(dict):
    """A dict that fills a missing key k with read(k), once."""

    __slots__ = ("read",)

    def __init__(self, read):
        super().__init__()
        self.read = read

    def __missing__(self, k):
        out = self[k] = self.read(k)
        return out


class _Codes:
    """The monomials of one ring as ints: `mons` lists the monomials up to
    the bound in sorted order, then each product above it when first met
    (`ids` numbers it then); `times[i][j]` is the code of the product of
    codes i and j, for i up to the bound.  Nothing here refers back to the
    object, so a complex holds no reference cycle."""

    def __init__(self, monomials: list[Monomial]):
        mons = self.mons = sorted(monomials)

        def new(m: Monomial) -> int:
            mons.append(m)
            return len(mons) - 1
        ids = self.ids = _Memo(new)
        ids.update((m, i) for i, m in enumerate(mons))
        self.times = [_Memo(lambda j, left=m: ids[mon_mul(left, mons[j])]) for m in mons]


def _migrate(add, a: int, cm: int, j: int, tup: tuple[int, ...], c,
             etas: _Memo, atimes: list[_Memo], ttimes: list[_Memo]) -> None:
    """add(key, c * a * (cm right of the first j slots of tup)), with cm
    moved to the left slot by slot through eta_R."""
    if not j or not cm:
        add((atimes[a][cm],) + tup, c)
        return
    j -= 1
    head, times, tail = tup[:j], ttimes[tup[j]], tup[j + 1:]
    for dm, tau, c2 in etas[cm]:
        _migrate(add, a, dm, j, head + (times[tau],) + tail, c * c2, etas, atimes, ttimes)


class CobarComplex:
    def __init__(self, algebroid: HopfAlgebroid, normalized: bool = True):
        alg = self.alg = algebroid
        self.normalized = normalized
        degrees = range(alg.bound + 1)
        A = self._a = _Codes([m for d in degrees for m in alg.a_monomials(d)])
        T = self._t = _Codes([m for d in degrees for m in alg.tensor_monomials(d)])
        # degree -> the codes of the Gamma-monomials of that degree, in order
        self._tcodes = [[T.ids[m] for m in alg.tensor_monomials(d)] for d in degrees]
        self._acodes = [[A.ids[m] for m in alg.a_monomials(d)] for d in degrees]

        # the closures see the codes and the algebroid, never the complex
        def eta_r(a: int):
            return [(A.ids[dm], T.ids[tau], c)
                    for (dm, (tau,)), c in alg.eta_r(A.mons[a]).items()]

        def coproduct(t: int):
            return [(A.ids[cm], T.ids[u], T.ids[w], c)
                    for (cm, (u, w)), c in alg.delta(T.mons[t]).items()
                    if not normalized or (u and w)]
        # A-code -> its eta_R terms (dm, tau, c); Gamma-code -> its coproduct
        # terms (cm, u, w, c), reduced if normalized
        self._etas = _Memo(eta_r)
        self._coproducts = _Memo(coproduct)
        # (s, e) -> the coded s-slot tuples of total slot degree e
        self._tuples: dict[tuple[int, int], list[tuple[int, ...]]] = {(0, 0): [()]}
        self._coded: dict[tuple[int, int], list[tuple[int, ...]]] = {}

    # -- bases ---------------------------------------------------------------

    def _slot_tuples(self, s: int, e: int) -> list[tuple[int, ...]]:
        """The coded s-slot tuples of total degree e: the (s-1)-slot tuples
        extended by a code of each nonempty slot degree."""
        key = (s, e)
        out = self._tuples.get(key)
        if out is None:
            out = []
            if s:
                for d in range(1 if self.normalized else 0, e + 1):
                    tcs = self._tcodes[d]
                    if tcs:
                        for head in self._slot_tuples(s - 1, e - d):
                            out.extend(head + (tc,) for tc in tcs)
            self._tuples[key] = out
        return out

    def _coded_basis(self, s: int, degree: int) -> list[tuple[int, ...]]:
        """Basis of C^s in degree `degree` as flat keys (a, t_1, ..., t_s),
        sorted, which is the order of the nested keys."""
        key = (s, degree)
        out = self._coded.get(key)
        if out is None:
            if degree > self.alg.bound:
                raise CobarError("degree exceeds the algebroid bound")
            out = []
            for e in range(degree + 1):
                acs = self._acodes[degree - e]
                if acs:
                    out.extend((ac,) + tup for tup in self._slot_tuples(s, e) for ac in acs)
            out.sort()
            self._coded[key] = out
        return out

    def drop_bases(self, degree: int) -> None:
        """Forget the coded bases of degree `degree`, which no other degree
        reads; the slot tuples, which other degrees extend, stay."""
        for key in [k for k in self._coded if k[1] == degree]:
            del self._coded[key]

    def _decode(self, key: tuple[int, ...]) -> TensorKey:
        tmons = self._t.mons
        return self._a.mons[key[0]], tuple(tmons[t] for t in key[1:])

    def basis(self, s: int, degree: int) -> list[TensorKey]:
        """Basis of C^s in algebraic degree `degree`, sorted canonically, as
        nested keys (a_monomial, (t_monomial_1, ..., t_monomial_s))."""
        return list(map(self._decode, self._coded_basis(s, degree)))

    def dimension(self, s: int, degree: int) -> int:
        """n_s, the rank of C^s in degree `degree`."""
        return len(self._coded_basis(s, degree))

    # -- differential --------------------------------------------------------

    def differential_matrix(self, s: int, degree: int) -> list[dict[int, int]]:
        """Matrix of d: C^s -> C^{s+1} in algebraic degree `degree`, sparse.

        One row {column: entry} per element of basis(s+1, degree), holding
        its nonzero integer entries; columns index basis(s, degree) and
        appear in increasing order.
        """
        normalized = self.normalized
        etas, coproducts = self._etas, self._coproducts
        atimes, ttimes = self._a.times, self._t.times
        index = {k: i for i, k in enumerate(self._coded_basis(s + 1, degree))}
        where = index.get
        rows: list[dict[int, int]] = [{} for _ in index]
        unit = 1 if s & 1 else -1  # sign of the right-unit coface d^{s+1}

        def add(k: tuple[int, ...], c) -> None:
            """Add c at key k of the current column; an entry that cancels
            to 0 goes, and a key off the basis is kept aside in stray."""
            i = where(k)
            if i is None:
                stray[k] = stray.get(k, 0) + c
                return
            row = rows[i]
            z = row.get(col, 0) + c
            if z:
                row[col] = z
            else:
                row.pop(col, None)

        for col, key in enumerate(self._coded_basis(s, degree)):
            a, tup = key[0], key[1:]
            stray: dict[tuple[int, ...], object] = {}
            # d^0: eta_R of the coefficient lands in a new left slot
            for dm, sigma, c in etas[a]:
                if sigma or not normalized:
                    add((dm, sigma) + tup, c)
            # d^i: coproduct on slot i, coefficient migrated left
            for i in range(1, s + 1):
                sign = -1 if i & 1 else 1
                head, tail = tup[:i - 1], tup[i:]
                for cm, u, w, c in coproducts[tup[i - 1]]:
                    t = head + (u, w) + tail
                    if cm:
                        _migrate(add, a, cm, i - 1, t, sign * c, etas, atimes, ttimes)
                    else:  # nothing to migrate
                        add((a,) + t, sign * c)
            # d^{s+1}: unit in a new right slot, a degenerate tuple when normalized
            if not normalized:
                add(key + (0,), unit)
            for k, c in stray.items():
                if c:
                    raise CobarError(f"differential leaves the basis at {self._decode(k)}")
        return rows

    def check_d_squared(self, s: int, degree: int) -> None:
        """Verify d o d = 0 exactly on every basis element of C^s."""
        check_composite_zero(self.differential_matrix(s, degree),
                             self.differential_matrix(s + 1, degree), s, degree)

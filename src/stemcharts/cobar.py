"""Cobar complex of a Hopf algebroid.

The cosimplicial object s |-> Gamma^{(x)_A s} has cofaces: insert a unit on
the left (which in left-normal form lands as eta_R of the coefficient),
coproduct on each factor, and insert a unit on the right.  The total
differential is the alternating sum.  The normalized (reduced) subcomplex
drops every tuple containing an empty slot; it computes the same
cohomology and is the default.  Differentials are built directly as sparse
rows, never dense, and d o d = 0 is checked exactly, over Q, on every
basis element produced (`check_composite_zero`).

The normalized differential uses the reduced coproduct.  Each Gamma-
monomial keeps the list of its coproduct terms (cm, u, w, c); migrating cm
left only multiplies the slots left of the coproduct, and a product of
positive-degree monomials is never 1, so a term lands on a degenerate tuple
exactly when u or w is 1.  Those terms, eta_R terms with an empty new slot
and the right-unit coface d^{s+1} are dropped before any migration; what
is left is the differential of the normalized complex, written term by term
into one accumulator.  The unnormalized complex keeps every term.  Bases
are built slot by slot: the (s-1)-slot tuples are extended by the
monomials of the nonempty slot degrees only, read from the algebroid's
shared per-degree lists (`tensor_monomials`, `a_monomials`).
"""

from __future__ import annotations

from .fgl import EngineError
from .poly import Monomial, ONE
from .hopf import HopfAlgebroid, Tensor, TensorKey


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
        for t, w in row.items():
            for j, v in first[t].items():
                acc[j] = acc.get(j, 0) + w * v
        bad.extend(j for j, x in acc.items() if x)
    if bad:
        raise CobarError(f"d o d != 0 at s={s}, degree={degree}, column {min(bad)}")


class CobarComplex:
    def __init__(self, algebroid: HopfAlgebroid, normalized: bool = True):
        self.alg = algebroid
        self.normalized = normalized
        self._basis_cache: dict[tuple[int, int], list[TensorKey]] = {}
        # (s, e) -> the s-slot tuples of total slot degree e
        self._tuples: dict[tuple[int, int], list[tuple[Monomial, ...]]] = {(0, 0): [()]}
        # Gamma-monomial -> its coproduct terms (cm, u, w, c), reduced if normalized
        self._coproducts: dict[Monomial, list[tuple[Monomial, Monomial, Monomial, object]]] = {}

    # -- bases ---------------------------------------------------------------

    def _slot_tuples(self, s: int, e: int) -> list[tuple[Monomial, ...]]:
        """The s-slot tuples of total degree e: the (s-1)-slot tuples
        extended by a monomial of each nonempty slot degree."""
        key = (s, e)
        out = self._tuples.get(key)
        if out is None:
            out = []
            if s:
                for d in range(1 if self.normalized else 0, e + 1):
                    tms = self.alg.tensor_monomials(d)
                    if tms:
                        for head in self._slot_tuples(s - 1, e - d):
                            out.extend(head + (tm,) for tm in tms)
            self._tuples[key] = out
        return out

    def basis(self, s: int, degree: int) -> list[TensorKey]:
        """Basis of C^s in algebraic degree `degree`, sorted canonically."""
        key = (s, degree)
        cached = self._basis_cache.get(key)
        if cached is not None:
            return cached
        if degree > self.alg.bound:
            raise CobarError("degree exceeds the algebroid bound")
        out: list[TensorKey] = []
        for e in range(degree + 1):
            amons = self.alg.a_monomials(degree - e)
            if amons:
                out.extend((am, tup) for tup in self._slot_tuples(s, e) for am in amons)
        out.sort()
        self._basis_cache[key] = out
        return out

    # -- differential --------------------------------------------------------

    def _coproduct(self, tmon: Monomial) -> list[tuple[Monomial, Monomial, Monomial, object]]:
        """Coproduct terms (cm, u, w, c) of a Gamma-monomial; in the
        normalized complex only those with u and w both nonempty."""
        out = self._coproducts.get(tmon)
        if out is None:
            out = self._coproducts[tmon] = [
                (cm, u, w, c) for (cm, (u, w)), c in self.alg.delta(tmon).items()
                if not self.normalized or (u != ONE and w != ONE)]
        return out

    def differential_element(self, key: TensorKey) -> Tensor:
        """Total differential of a basis element of C^s, as a C^{s+1} tensor."""
        alg = self.alg
        normalized = self.normalized
        amon, tmons = key
        s = len(tmons)
        out: Tensor = {}
        # d^0: eta_R of the coefficient lands in a new left slot
        for (cm, (sigma,)), c in alg.eta_r(amon).items():
            if sigma != ONE or not normalized:
                k = (cm, (sigma,) + tmons)
                out[k] = out.get(k, 0) + c
        # d^i: coproduct on slot i, coefficient migrated left
        for i in range(1, s + 1):
            sign = -1 if i & 1 else 1
            head, tail = tmons[:i - 1], tmons[i:]
            for cm, u, w, c in self._coproduct(tmons[i - 1]):
                alg.migrate_into(out, amon, cm, i, head + (u, w) + tail, sign * c)
        # d^{s+1}: unit in a new right slot, a degenerate tuple when normalized
        if not normalized:
            k = (amon, tmons + (ONE,))
            out[k] = out.get(k, 0) + (1 if s & 1 else -1)
        return {k: c for k, c in out.items() if c}

    def differential_matrix(self, s: int, degree: int) -> list[dict[int, object]]:
        """Matrix of d: C^s -> C^{s+1} in algebraic degree `degree`, sparse.

        One row {column: entry} per element of basis(s+1, degree), holding
        its nonzero exact rational entries; columns index basis(s, degree)
        and appear in increasing order.
        """
        index = {k: i for i, k in enumerate(self.basis(s + 1, degree))}
        rows: list[dict[int, object]] = [{} for _ in index]
        for j, key in enumerate(self.basis(s, degree)):
            for k, c in self.differential_element(key).items():
                i = index.get(k)
                if i is None:
                    raise CobarError(f"differential leaves the basis at {k}")
                rows[i][j] = c
        return rows

    def check_d_squared(self, s: int, degree: int) -> None:
        """Verify d o d = 0 exactly on every basis element of C^s."""
        check_composite_zero(self.differential_matrix(s, degree),
                             self.differential_matrix(s + 1, degree), s, degree)

"""Cobar complex of a Hopf algebroid.

The cosimplicial object s |-> Gamma^{(x)_A s} has cofaces: insert a unit on
the left (which in left-normal form lands as eta_R of the coefficient),
coproduct on each factor, and insert a unit on the right.  The total
differential is the alternating sum.  The normalized (reduced) subcomplex
drops every tuple containing an empty slot; it computes the same
cohomology and is the default.  Differentials are built directly as sparse
rows, never dense, and d o d = 0 is checked exactly, over Q, on every
basis element produced (`check_composite_zero`).
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
        self._tmons_by_degree: dict[int, list[Monomial]] = {}
        self._amons_by_degree: dict[int, list[Monomial]] = {}

    # -- bases ---------------------------------------------------------------

    def _tmons(self, d: int) -> list[Monomial]:
        if d not in self._tmons_by_degree:
            self._tmons_by_degree[d] = self.alg.tensor_monomials(d)
        return self._tmons_by_degree[d]

    def _amons(self, d: int) -> list[Monomial]:
        if d not in self._amons_by_degree:
            self._amons_by_degree[d] = self.alg.a_monomials(d)
        return self._amons_by_degree[d]

    def basis(self, s: int, degree: int) -> list[TensorKey]:
        """Basis of C^s in algebraic degree `degree`, sorted canonically."""
        key = (s, degree)
        cached = self._basis_cache.get(key)
        if cached is not None:
            return cached
        if degree > self.alg.bound:
            raise CobarError("degree exceeds the algebroid bound")
        out: list[TensorKey] = []
        min_slot = 1 if self.normalized else 0

        def slots(rem: int, k: int, acc: list[Monomial]):
            if k == 0:
                for am in self._amons(rem):
                    out.append((am, tuple(acc)))
                return
            for d in range(min_slot, rem + 1):
                for tm in self._tmons(d):
                    acc.append(tm)
                    slots(rem - d, k - 1, acc)
                    acc.pop()

        slots(degree, s, [])
        out.sort()
        self._basis_cache[key] = out
        return out

    # -- differential --------------------------------------------------------

    def differential_element(self, key: TensorKey) -> Tensor:
        """Total differential of a basis element of C^s, as a C^{s+1} tensor."""
        alg = self.alg
        amon, tmons = key
        s = len(tmons)
        out: Tensor = {}

        def add(terms, sign: int):
            for k, c in terms:
                if self.normalized and ONE in k[1]:
                    continue  # a degenerate tuple, outside the normalized complex
                c = out.get(k, 0) + sign * c
                if c:
                    out[k] = c
                else:
                    out.pop(k, None)

        # d^0: eta_R of the coefficient lands in a new left slot
        add((((cm, (sigma,) + tmons), c) for (cm, (sigma,)), c in alg.eta_r(amon).items()), 1)
        # d^i: coproduct on slot i, coefficient migrated left
        for i in range(1, s + 1):
            add(alg.apply_delta_slot({key: 1}, i).items(), (-1) ** i)
        # d^{s+1}: unit in a new right slot
        add([((amon, tmons + (ONE,)), 1)], (-1) ** (s + 1))
        return out

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

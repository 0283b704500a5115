"""Exact linear algebra over Z/p^m.

Z/p^m is local with chain ideal lattice, so every matrix has a Smith normal
form diag(p^a1, p^a2, ...) with unit transforms.  This module provides the
elementary divisors alone (`elementary_divisors`, sparse and transform-free:
all the Ext engine needs), and the Smith form with tracked transforms,
kernels, and the structure of subquotients span(G)/im(B) presented by
generators and relations, which serve as an independent oracle for it.

Dense matrices are lists of row lists of ints reduced mod p^m.  `mat_mul`
and `identity` are the package's one dense matrix product and identity:
`fpt` multiplies with them over F_p (m = 1) and `fgl` starts its integer
elimination from `identity`.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .charts import valuation

Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A: Matrix, B: Matrix, mod: int) -> Matrix:
    """A B with entries reduced mod `mod`; an empty B gives len(A) empty rows."""
    n, k, m = len(A), len(B), len(B[0]) if B else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        Oi = out[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(m):
                    Oi[j] = (Oi[j] + a * Bt[j]) % mod
    return out


class Divisors(list):
    """Elementary divisor exponents, nondecreasing, with `units`: the
    (row, column) of each unit pivot in the order it was eliminated."""

    def __init__(self):
        super().__init__()
        self.units: list[tuple[int, int]] = []


def elementary_divisors(rows, p: int, m: int) -> Divisors:
    """Exponents a_i of the Smith form diag(p^{a_i}) of a matrix over Z/p^m.

    rows: sparse rows {column: integer entry}.  Returns the exponents
    a_i < m of the nonzero diagonal entries, nondecreasing; their number is
    the rank over Z/p^m.  No transform is kept, only the position of each
    unit pivot: each is a unit of the Schur complement left by the ones
    before it, so they are a sequence of cancellations in the sense of
    `extcharts`.  Elimination goes one valuation level v at a time: every
    remaining entry is divisible by p^v, so a pivot of valuation v has
    minimal valuation, clears its column by row operations, and splits off
    with its row as a summand p^v.  Among the rows with an entry of
    valuation v the shortest is taken, and in it the column with the fewest
    entries, which keeps the rows sparse.

    A pivot row with a single entry x clears its column with no
    arithmetic, as in the singleton step of structured Gaussian elimination
    (LaMacchia and Odlyzko, CRYPTO '90): x = p^v u with u a unit, and a
    holder row with entry y = p^v w in that column would subtract q x,
    q = w u^{-1} mod p^m, and q x = y (mod p^m) for every m and v.  So the
    update deletes y and leaves the rest of the row as it was, and the
    exponents and the unit pivots, in order, are those of the row
    operations.
    """
    mod = p ** m
    live: dict[int, dict[int, int]] = {}   # row index -> {column: entry}
    holders: dict[int, set[int]] = {}      # column -> rows with an entry there
    for i, row in enumerate(rows):
        red = {c: x % mod for c, x in row.items() if x % mod}
        if red:
            live[i] = red
            for c in red:
                holders.setdefault(c, set()).add(i)
    vals = Divisors()
    pv = 1
    for v in range(m):
        if not live:
            break
        # rows by length; a row pushed again when it changes, stale lengths skipped
        queue = [(len(r), i) for i, r in live.items()]
        heapify(queue)
        while queue:
            size, i = heappop(queue)
            prow = live.get(i)
            if prow is None or len(prow) != size:
                continue
            if size == 1:
                (j, x), = prow.items()
                if not (x // pv) % p:
                    continue  # (unless a later update gives it valuation v)
                # q x = y mod p^m (above): y goes, nothing else changes
                for k in holders.pop(j):
                    if k != i:
                        row = live[k]
                        del row[j]
                        if row:
                            heappush(queue, (len(row), k))
                        else:
                            del live[k]
            else:
                cands = [c for c, x in prow.items() if (x // pv) % p]
                if not cands:
                    continue  # no entry of valuation v (unless a later update adds one)
                j = min(cands, key=lambda c: len(holders[c]))
                uinv = pow(prow[j] // pv, -1, mod)
                for k in holders.pop(j):
                    if k == i:
                        continue
                    row = live[k]
                    q = (row[j] // pv) * uinv % mod
                    for c, x in prow.items():
                        z = (row.get(c, 0) - q * x) % mod
                        if z:
                            if c not in row:
                                holders[c].add(k)
                            row[c] = z
                        elif c in row:
                            del row[c]
                            if c != j:
                                holders[c].discard(k)
                    if row:
                        heappush(queue, (len(row), k))
                    else:
                        del live[k]
                for c in prow:
                    if c != j:
                        holders[c].discard(i)
            del live[i]
            vals.append(v)
            if not v:
                vals.units.append((i, j))
        pv *= p
    return vals


class SmithForm:
    """U A V = D with U, V invertible mod p^m and D = diag(p^{a_i})."""

    def __init__(self, A: Matrix, p: int, m: int, ncols: int | None = None):
        self.p = p
        self.m = m
        self.mod = p ** m
        self.nrows = len(A)
        self.ncols = ncols if ncols is not None else (len(A[0]) if A else 0)
        self._decompose([row[:] for row in A])

    def _decompose(self, A: Matrix):
        p, mod, m = self.p, self.mod, self.m
        nr, nc = self.nrows, self.ncols
        U = identity(nr)
        V = identity(nc)
        Vinv = identity(nc)
        Uinv = identity(nr)
        r = 0
        diag: list[int] = []
        while r < min(nr, nc):
            # pivot: entry of minimal valuation in the remaining block
            best, bv = None, m
            for i in range(r, nr):
                for j in range(r, nc):
                    x = A[i][j] % mod
                    v = valuation(x, p) if x else m
                    if v < bv:
                        best, bv = (i, j), v
                        if v == 0:
                            break
                if best and bv == 0:
                    break
            if best is None:
                break
            bi, bj = best
            if bi != r:
                A[r], A[bi] = A[bi], A[r]
                U[r], U[bi] = U[bi], U[r]
                for row in Uinv:
                    row[r], row[bi] = row[bi], row[r]
            if bj != r:
                for row in A:
                    row[r], row[bj] = row[bj], row[r]
                for row in V:
                    row[r], row[bj] = row[bj], row[r]
                Vinv[r], Vinv[bj] = Vinv[bj], Vinv[r]
            piv = A[r][r] % mod
            v = valuation(piv, p)
            unit = piv // (p ** v)
            uinv = pow(unit, -1, mod)
            # scale row r by unit^{-1} so pivot = p^v
            A[r] = [(a * uinv) % mod for a in A[r]]
            U[r] = [(a * uinv) % mod for a in U[r]]
            for row in Uinv:
                row[r] = (row[r] * unit) % mod
            pv = p ** v
            # clear column below/above (all entries have valuation >= v)
            for i in range(nr):
                if i != r and A[i][r]:
                    q = A[i][r] // pv
                    A[i] = [(a - q * b) % mod for a, b in zip(A[i], A[r])]
                    U[i] = [(a - q * b) % mod for a, b in zip(U[i], U[r])]
                    for row in Uinv:
                        row[r] = (row[r] + q * row[i]) % mod
            # clear row r to the right
            for j in range(nc):
                if j != r and A[r][j]:
                    q = A[r][j] // pv
                    for row in A:
                        row[j] = (row[j] - q * row[r]) % mod
                    for row in V:
                        row[j] = (row[j] - q * row[r]) % mod
                    Vinv[r] = [(a + q * b) % mod for a, b in zip(Vinv[r], Vinv[j])]
            diag.append(v)
            r += 1
        self.U, self.Uinv, self.V, self.Vinv = U, Uinv, V, Vinv
        self.pivots = diag          # valuations a_i, nondecreasing

    def kernel_generators(self) -> list[list[int]]:
        """Columns generating {x : A x = 0 mod p^m} (includes torsion gens)."""
        p, m, mod = self.p, self.m, self.mod
        gens = []
        for idx in range(self.ncols):
            if idx < len(self.pivots):
                a = self.pivots[idx]
                if a == 0:
                    continue
                scale = p ** (m - a)
            else:
                scale = 1
            col = [(self.V[i][idx] * scale) % mod for i in range(self.ncols)]
            if any(col):
                gens.append(col)
        return gens


def module_structure(rel_columns: Matrix, ngen: int, p: int, m: int
                     ) -> tuple[list[int], Matrix]:
    """Structure of Z/p^m^ngen modulo the span of relation columns.

    Returns (orders, gens_matrix): orders[i] = p-exponent a_i <= m of the
    i-th cyclic summand Z/p^{a_i} (a_i = m means a full Z/p^m summand), and
    gens_matrix column i = coordinates of its generator in the original
    generator basis.  Trivial summands are dropped.
    """
    mod = p ** m
    if ngen == 0:
        return [], []
    if not rel_columns or not any(any(row) for row in rel_columns):
        return [m] * ngen, identity(ngen)
    A = [[rel_columns[i][j] % mod for j in range(len(rel_columns[0]))]
         for i in range(ngen)]
    sf = SmithForm(A, p, m)
    # quotient Z^ngen/im(A) = (+)_i Z/p^{a_i} in the basis given by Uinv cols
    orders = []
    gens = []
    for i in range(ngen):
        a = sf.pivots[i] if i < len(sf.pivots) else None
        ordr = a if a is not None else m
        if ordr == 0:
            continue
        col = [sf.Uinv[t][i] % mod for t in range(ngen)]
        orders.append(ordr)
        gens.append(col)
    gens_matrix = [[gens[j][i] for j in range(len(gens))] for i in range(ngen)] \
        if gens else []
    return orders, gens_matrix


def solve_membership(B: Matrix, target_cols: Matrix, p: int, m: int) -> Matrix:
    """Relation matrix for span(G) in R^n/im(B): columns c with G c in im(B).

    B: n x b matrix (may be empty), target_cols: n x g matrix of generators.
    Returns the matrix of relation columns (g x r).
    """
    mod = p ** m
    g = len(target_cols[0]) if target_cols and target_cols[0] else 0
    n = len(target_cols) if target_cols else (len(B) if B else 0)
    b = len(B[0]) if B and B[0] else 0
    if g == 0:
        return []
    # kernel of [G | B]: project to the G-coordinates
    M = [[0] * (g + b) for _ in range(n)]
    for i in range(n):
        for j in range(g):
            M[i][j] = target_cols[i][j] % mod
        for j in range(b):
            M[i][g + j] = B[i][j] % mod
    sf = SmithForm(M, p, m, ncols=g + b)
    rel_cols = []
    for col in sf.kernel_generators():
        proj = [col[j] % mod for j in range(g)]
        if any(proj):
            rel_cols.append(proj)
    if not rel_cols:
        return []
    return [[rc[i] for rc in rel_cols] for i in range(g)]


def subquotient_structure(kernel_gens: Matrix, boundary_cols: Matrix,
                          n: int, p: int, m: int) -> tuple[list[int], Matrix]:
    """Structure of (span(kernel_gens) + im(B))/im(B) over Z/p^m.

    kernel_gens: n x k columns spanning the cocycles, boundary_cols: n x b
    columns spanning the boundaries (inside the span).  Returns (orders,
    generator columns in R^n) of the cyclic decomposition.
    """
    mod = p ** m
    k = len(kernel_gens[0]) if kernel_gens and kernel_gens[0] else 0
    if k == 0:
        return [], []
    rels = solve_membership(boundary_cols, kernel_gens, p, m)
    orders, gen_coords = module_structure(rels, k, p, m)
    # map generator coordinates through kernel_gens to ambient vectors
    gens_ambient = []
    ncols = len(orders)
    for j in range(ncols):
        vec = [0] * n
        for t in range(k):
            c = gen_coords[t][j] if gen_coords else 0
            if c:
                for i in range(n):
                    vec[i] = (vec[i] + c * kernel_gens[i][t]) % mod
        gens_ambient.append(vec)
    gmat = [[gens_ambient[j][i] for j in range(ncols)] for i in range(n)] \
        if ncols else []
    return orders, gmat

"""Constructive structure theory of finite-length F_p[[t]]-modules.

A finite-length module is a finite-dimensional F_p-space with a nilpotent
t-action matrix.  Property P_n (every t^n-torsion element is divisible by
t) drives the constructive decomposition: extract_free splits off the free
F_p[t]/t^{n+1} part as in the structure-theory proofs, reading it and its
complement (the preimage of a free summand of M/t^{n+1}M) off ker t^{n+1}
and im t, and decompose iterates from n = 0; stage and witness retractions
are one projection along a direct sum.  Divisible parts of ind-systems are
counted in Pruefer copies of F_p((t))/F_p[[t]].

All F_p elimination goes through one incremental echelon basis, `_Span`:
vectors are added in order, and each is either independent of the earlier
ones (it becomes a row) or yields its dependency coefficients.  Every query
on a fixed set of vectors builds the span once and reduces each vector in
one pass over its rows.  Witnesses are lexicographic-first and therefore
reproducible: a basis is the sublist of the vectors that are independent of
those before them, a solution is the unique one with zeros on the dependent
vectors, and the kernel vector of a dependent column is the unique one with
1 there and 0 at every other dependent column.  Ranks of t-powers for the
Jordan-type oracle come from `zpk.elementary_divisors`, not from `_Span`,
and matrix products and identities from `zpk.mat_mul` and `zpk.identity`.

Each module computes its t-powers T^0..T^e once, on construction, and
memoizes the lex-first basis of ker t^k and the span of the columns of t^k
on first use (k past e reads T^e = 0).  P_n, free extraction, the
torsion-power scan and the u-sequence all read these, so a decomposition
report computes each of them once.  A stage that splits off nothing keeps
its module, memos included, as its quotient.  The memos are shared and
read-only: spans are only queried (`coordinates`, `basis`) or extended
through a `copy`, and whatever a public function returns is a fresh copy,
except that a stage's quotient may be its module itself.  A memo is stored
only once computed, so threads sharing a module at worst compute it twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from operator import mul
from typing import Optional

from .charts import _check_keys, _is_int, _is_prime, _json_list, valuation
from .zpk import elementary_divisors, identity, mat_mul

Matrix = list[list[int]]


# ---------------------------------------------------------------------------
# F_p linear algebra (lex-first)

def _mat_vec(A: Matrix, v: list[int], p: int) -> list[int]:
    return [sum(map(mul, row, v)) % p for row in A]


class _Span:
    """Incremental echelon basis of the vectors added so far, over F_p.

    Each row has pivot entry 1, is zero at the pivots of the rows before it
    and carries its combination of the added vectors, so one pass over the
    rows in order reduces a vector.  A vector dependent on the earlier ones
    is counted but not stored: combinations are zero on it.  `basis` keeps
    the added vectors independent of those before them, as given.
    """

    def __init__(self, p: int):
        self.p = p
        self.rows: list[tuple[int, list[int], list[int]]] = []  # pivot, row, comb
        self.basis: list = []
        self.count = 0  # vectors added, dependent ones included

    def reduce(self, v: list[int]) -> tuple[list[int], list[int]]:
        """(residual, comb) with residual = v - sum comb[k] * added[k]."""
        p = self.p
        v = [x % p for x in v]
        comb = [0] * self.count
        for piv, row, rc in self.rows:
            f = v[piv]
            if f:
                v = [(x - f * y) % p for x, y in zip(v, row)]
                for k, c in enumerate(rc):
                    if c:
                        comb[k] = (comb[k] + f * c) % p
        return v, comb

    def add(self, v: list[int]) -> Optional[list[int]]:
        """None if v is independent of the added vectors, else the
        coefficients of v on them."""
        residual, comb = self.reduce(v)
        self.count += 1
        piv = next((i for i, x in enumerate(residual) if x), None)
        if piv is None:
            return comb
        inv = pow(residual[piv], -1, self.p)
        self.basis.append(v)
        self.rows.append((piv, [(x * inv) % self.p for x in residual],
                          [(-c * inv) % self.p for c in comb] + [inv]))
        return None

    def coordinates(self, v: list[int]) -> Optional[list[int]]:
        """The solution of sum c_k added[k] = v with zeros on the dependent
        vectors; None if v is outside the span."""
        residual, comb = self.reduce(v)
        return None if any(residual) else comb

    def copy(self) -> "_Span":
        """A span to extend without changing this one; no row is ever
        mutated, so the two share them."""
        out = _Span(self.p)
        out.rows, out.basis, out.count = list(self.rows), list(self.basis), \
            self.count
        return out


def _span(vecs: list[list[int]], p: int) -> _Span:
    span = _Span(p)
    for v in vecs:
        span.add(v)
    return span


def _columns(A: Matrix, ncols: int) -> list[list[int]]:
    return [[row[j] for row in A] for j in range(ncols)]


def _kernel_basis(A: Matrix, ncols: int, p: int) -> list[list[int]]:
    """Basis of ker(A): for each column dependent on the earlier ones, the
    kernel vector with 1 there and 0 at every other dependent column."""
    span = _Span(p)
    out = []
    for j, col in enumerate(_columns(A, ncols)):
        dep = span.add(col)
        if dep is not None:
            out.append([(-c) % p for c in dep] + [1] + [0] * (ncols - j - 1))
    return out


def _intersect(cols_a: list[list[int]], cols_b: list[list[int]], p: int,
               dim: int) -> list[list[int]]:
    """Basis of span(cols_a) n span(cols_b): the span(cols_a)-part of each
    b dependent on cols_a and the b before it."""
    span = _span(cols_a, p)
    k = len(cols_a)
    out = []
    for b in cols_b:
        dep = span.add(b)
        if dep is not None:
            vec = [0] * dim
            for j in range(k):
                if dep[j]:
                    for i in range(dim):
                        vec[i] = (vec[i] + dep[j] * cols_a[j][i]) % p
            if any(vec):
                out.append(vec)
    return _independent_subset(out, p)


def _independent_subset(vecs: list[list[int]], p: int) -> list[list[int]]:
    return _span(vecs, p).basis


# ---------------------------------------------------------------------------
# modules

class FptError(Exception):
    pass


def _check_dim(dim) -> None:
    if not _is_int(dim) or dim < 0:
        raise FptError("dim must be a non-negative integer")


class IndSystemError(FptError):
    """An ind-system whose profiles do not stabilize as declared."""


@dataclass(frozen=True)
class FptModule:
    """Finite-length F_p[[t]]-module: nilpotent t-action on F_p^dim.

    The stored t-powers and the kernel and image memos (module docstring)
    are not fields: equality, hashing, repr and JSON see only p, dim and
    t_action.
    """

    p: int
    dim: int
    t_action: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not _is_int(self.p) or not _is_prime(self.p):
            raise FptError("p must be prime")
        _check_dim(self.dim)
        T = [list(r) for r in self.t_action]
        if len(T) != self.dim or any(len(r) != self.dim for r in T):
            raise FptError("t-action must be dim x dim")
        if not all(_is_int(x) for r in T for x in r):
            raise FptError("t-action entries must be integers")
        T = tuple(tuple(x % self.p for x in r) for r in T)
        object.__setattr__(self, "t_action", T)
        powers = [tuple(map(tuple, identity(self.dim)))]
        while any(map(any, powers[-1])):
            if len(powers) > self.dim:
                raise FptError("t-action is not nilpotent")
            powers.append(tuple(map(tuple, mat_mul(powers[-1], T, self.p))))
        object.__setattr__(self, "_powers", powers)
        object.__setattr__(self, "_kernels", {})
        object.__setattr__(self, "_images", {})

    def T(self) -> Matrix:
        return [list(r) for r in self.t_action]

    def _power(self, k: int) -> tuple[tuple[int, ...], ...]:
        """T^k as stored (shared: read it, never write it)."""
        return self._powers[min(k, len(self._powers) - 1)]

    def _kernel(self, k: int) -> tuple[tuple[int, ...], ...]:
        """Lex-first basis of ker t^k, memoized."""
        k = min(k, len(self._powers) - 1)
        if k not in self._kernels:
            self._kernels[k] = tuple(map(tuple, _kernel_basis(
                self._powers[k], self.dim, self.p)))
        return self._kernels[k]

    def _image(self, k: int) -> _Span:
        """The span of the columns of t^k, memoized (shared: query it with
        `coordinates` and read `basis`, never `add` to it)."""
        k = min(k, len(self._powers) - 1)
        if k not in self._images:
            self._images[k] = _span(list(zip(*self._powers[k])), self.p)
        return self._images[k]

    def to_json(self) -> dict:
        return {"p": self.p, "dim": self.dim,
                "t": [x for row in self.t_action for x in row]}

    @staticmethod
    def from_json(obj: dict) -> "FptModule":
        _check_keys(obj, ("p", "dim", "t"), "module", required=("p", "dim", "t"))
        p, dim = obj["p"], obj["dim"]
        _check_dim(dim)
        flat = _json_list(obj["t"], "module 't'")
        if len(flat) != dim * dim:
            raise FptError("row-major t-matrix has the wrong length")
        rows = tuple(tuple(flat[i * dim:(i + 1) * dim]) for i in range(dim))
        return FptModule(p, dim, rows)


def jordan_module(p: int, partition: list[int]) -> FptModule:
    """Direct sum of nilpotent Jordan blocks with the given sizes."""
    dim = sum(partition)
    T = [[0] * dim for _ in range(dim)]
    base = 0
    for size in partition:
        for i in range(size - 1):
            # t sends basis vector e_{base+i} to e_{base+i+1}
            T[base + i + 1][base + i] = 1
        base += size
    return FptModule(p, dim, tuple(tuple(r) for r in T))


def jordan_type(M: FptModule) -> dict[int, int]:
    """Block-size multiplicities from the rank sequence of t-powers.

    mult(s) = rank(T^{s-1}) - 2 rank(T^s) + rank(T^{s+1}); this is the
    independent oracle used against `decompose`.
    """
    if M.dim == 0:
        return {}
    ranks = [M.dim]
    for Tk in M._powers[1:]:
        rows = [{c: x for c, x in enumerate(row) if x} for row in Tk]
        ranks.append(len(elementary_divisors(rows, M.p, 1)))
    while len(ranks) < M.dim + 2:
        ranks.append(0)
    out = {}
    for s in range(1, M.dim + 1):
        mult = ranks[s - 1] - 2 * ranks[s] + ranks[s + 1]
        if mult:
            out[s] = mult
    return out


# ---------------------------------------------------------------------------
# property P_n and free extraction

def satisfies_pn(M: FptModule, n: int) -> tuple[bool, Optional[list[int]]]:
    """ker(t^n) <= im(t)?  On failure returns a witness vector."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0 or M.dim == 0:
        return True, None
    im = M._image(1)
    for v in M._kernel(n):
        if im.coordinates(v) is None:
            return False, list(v)
    return True, None


@dataclass
class Splitting:
    """M = F (+) M' with explicit inclusion and retraction witnesses."""

    free_exponent: int               # F is free over F_p[t]/t^exponent
    free_rank: int
    free_generators: list[list[int]]  # rank generators of F inside M
    inclusion: Matrix                 # dim(M) x dim(F), columns = F basis
    retraction: Matrix                # dim(F) x dim(M)
    quotient: FptModule               # M'
    quotient_inclusion: Matrix        # dim(M) x dim(M')


def _block_retractions(blocks: list[list[list[int]]], dim: int, p: int,
                       failure: str) -> list[Matrix]:
    """The projection onto each block along the others, as the block's rows
    of the inverse change of basis; FptError(failure) unless the blocks
    together form a basis of F_p^dim."""
    cols = [v for block in blocks for v in block]
    inv = _invert([list(r) for r in zip(*cols)], p) if len(cols) == dim else None
    if inv is None:
        raise FptError(failure)
    out, start = [], 0
    for block in blocks:
        out.append(inv[start:start + len(block)])
        start += len(block)
    return out


def extract_free(M: FptModule, n: int) -> Splitting:
    """Split off the free F_p[t]/t^{n+1}-part of a module satisfying P_n.

    G_1 is the sublist of the lex-first basis of ker t^{n+1} independent
    modulo im t, and F has the basis t^j g (g in G_1, j <= n).  M' is
    t^{n+1}M plus the t-orbits of the unit vectors (the rows of T^0)
    independent modulo im t + G_1; the retraction is the projection onto F
    along M'.  One span, a copy of im t's, is extended by G_1 and then by
    the unit vectors.  This is the structure-theory splitting: P_n puts
    t^{n+1}M inside tM, B = M/t^{n+1}M is free over F_p[t]/t^{n+1}, F maps
    onto its summand N_1 on the image of G_1, and M' is the preimage of the
    complementary summand N_2 on the chosen unit vectors.  The quotient is
    M' on its lex-first basis; it satisfies P_{n+1}.  With G_1 empty the
    retraction has no rows, so M' = M on the unit vectors: the quotient is
    M itself, with an identity inclusion.
    """
    ok, _ = satisfies_pn(M, n)
    if not ok:
        raise FptError(f"module does not satisfy P_{n}")
    p, d = M.p, M.dim

    def orbits(gens: list[list[int]]) -> list[list[int]]:
        return [_mat_vec(M._power(j), g, p) for g in gens for j in range(n + 1)]

    span = M._image(1).copy()
    G1 = [list(v) for v in M._kernel(n + 1) if span.add(v) is None]
    f_basis = orbits(G1)
    if len(_independent_subset(f_basis, p)) != len(f_basis):
        raise FptError("free part basis is not independent")
    complement = M._image(n + 1).basis + orbits(
        [list(e) for e in M._power(0) if span.add(e) is None])
    retraction, _ = _block_retractions([f_basis, complement], d, p,
                                       "F (+) M' does not reassemble M")

    inclusion = _columns(f_basis, d)
    if mat_mul(retraction, inclusion, p) != identity(len(f_basis)):
        raise FptError("retraction does not split the inclusion")

    if G1:
        # M' = ker(retraction) on its lex-first basis, with the induced t-action
        MK = _kernel_basis(retraction, d, p)
        MK_span = _span(MK, p)
        t_cols = [MK_span.coordinates(_mat_vec(M._power(1), v, p)) for v in MK]
        if None in t_cols:
            raise FptError("kernel of the retraction is not t-stable")
        Mp = FptModule(p, len(MK), tuple(map(tuple, _columns(t_cols, len(MK)))))
        Mp_inclusion = _columns(MK, d)
    else:
        Mp, Mp_inclusion = M, identity(d)
    ok, _ = satisfies_pn(Mp, n + 1)
    if not ok:
        raise FptError("complement does not satisfy P_{n+1}")
    return Splitting(n + 1, len(G1), G1, inclusion, retraction, Mp,
                     Mp_inclusion)


@dataclass
class Decomposition:
    p: int
    free_parts: list[tuple[int, int]]       # (exponent i, multiplicity r_i)
    divisible_rank: object = 0              # extended natural
    witnesses: list[dict] = dc_field(default_factory=list)

    def profile(self) -> dict[int, int]:
        return {i: r for i, r in self.free_parts}

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "free_parts": [[i, r] for i, r in self.free_parts],
            "divisible_rank": self.divisible_rank,
            "witnesses": self.witnesses,
        }


def decompose(M: FptModule) -> Decomposition:
    """Full decomposition into (F_p[t]/t^i)^{r_i}, with witness matrices.

    Each stage splits off its free part F and goes on with M' = ker of the
    retraction, so M is the direct sum of the free parts, and the witness
    retraction onto a part is the projection onto it along the others: the
    same `_block_retractions` that gives each stage its retraction.  A
    stage with no free part goes on with the same module, its inclusion
    into M unchanged.
    """
    parts: list[tuple[int, int]] = []
    inclusions: list[Matrix] = []
    cur = M
    # inclusion of the current stage into the original module
    incl_chain: Matrix = identity(M.dim)
    n = 0
    while cur.dim > 0:
        if n + 1 > M.dim:
            raise FptError("decomposition failed to terminate")
        spl = extract_free(cur, n)
        if spl.free_rank:
            parts.append((n + 1, spl.free_rank))
            inclusions.append(mat_mul(incl_chain, spl.inclusion, M.p))
        if spl.quotient is not cur:
            incl_chain = mat_mul(incl_chain, spl.quotient_inclusion, M.p) \
                if spl.quotient.dim else []
        cur = spl.quotient
        n += 1
    retractions = _block_retractions(
        [_columns(incl, len(incl[0])) for incl in inclusions], M.dim, M.p,
        "the free parts do not reassemble the module")
    witnesses: list[dict] = []
    for (exponent, mult), incl, retr in zip(parts, inclusions, retractions):
        if mat_mul(retr, incl, M.p) != identity(len(incl[0])):
            raise FptError("composed witnesses are not a splitting")
        witnesses.append({"exponent": exponent, "multiplicity": mult,
                          "inclusion": incl, "retraction": retr})
    return Decomposition(M.p, parts, 0, witnesses)


def reassemble(dec: Decomposition) -> FptModule:
    """Direct sum of the recorded free parts."""
    partition: list[int] = []
    for i, r in sorted(dec.free_parts, reverse=True):
        partition.extend([i] * r)
    return jordan_module(dec.p, partition)


# ---------------------------------------------------------------------------
# torsion powers and u-sequences

def check_torsion_powers(M: FptModule, dec: Optional[Decomposition] = None
                         ) -> tuple[bool, Optional[dict]]:
    """Every t-torsion element divisible by t^{p^n} is divisible by
    t^{p^{n+1}-1}; equivalently all decomposition exponents are p-powers.

    Both characterizations are computed and compared; a witness element is
    returned on failure.  `dec` is M's decomposition, computed when absent.
    """
    p = M.p
    d = M.dim
    element_ok, witness = True, None
    ker_t = M._kernel(1)
    n = 0
    while d and p ** n <= d and element_ok:
        a = p ** n
        b = p ** (n + 1) - 1
        S = _intersect(ker_t, M._image(a).basis, M.p, d)
        # t^b = 0 for b >= d: the condition then demands S = 0
        im_b = M._image(b)
        for v in S:
            if im_b.coordinates(v) is None:
                element_ok, witness = False, {"n": n, "vector": v}
                break
        n += 1
    if dec is None:
        dec = decompose(M)
    profile_ok = all(i == p ** valuation(i, p) for i, _ in dec.free_parts)
    if element_ok != profile_ok:
        raise FptError(
            "element-level scan and decomposition profile disagree "
            f"(scan={element_ok}, profile={profile_ok})")
    return element_ok, witness


def check_u_sequence(M: FptModule, n: int = 0) -> bool:
    """Exactness of the u-sequence at the middle term, u = t^{p^n}.

    Odd p: M[u^p] --(u^{p-1})--> M[u] --> M/u exact at M[u], i.e.
    M[u] n uM = u^{p-1} M[u^p].  p = 2: M[u^2] (+) M[u^4] --> M[u^4]
    --(u^3)--> M[u] exact at M[u^4], i.e. M[u^3] = M[u^2] + u M[u^4].
    """
    p = M.p
    d = M.dim
    if d == 0:
        return True
    if p ** n > d:
        raise ValueError("u = t^{p^n} requires p^n <= dim")
    e = p ** n

    def ker_u(k: int) -> tuple[tuple[int, ...], ...]:
        return M._kernel(e * k)

    if p != 2:
        lhs = _intersect(ker_u(1), _columns(M._power(e), d), M.p, d)
        Upm1 = M._power(e * (p - 1))
        rhs = [_mat_vec(Upm1, v, M.p) for v in ker_u(p)]
        return _same_span(lhs, rhs, M.p)
    Umat = M._power(e)
    rhs = [*ker_u(2), *(_mat_vec(Umat, v, M.p) for v in ker_u(4))]
    return _same_span(ker_u(3), rhs, M.p)


def _same_span(a: list[list[int]], b: list[list[int]], p: int) -> bool:
    rank = len(_independent_subset(a, p))
    return rank == len(_independent_subset(b, p)) == \
        len(_independent_subset([*a, *b], p))


# ---------------------------------------------------------------------------
# ind-systems

@dataclass
class IndFptModule:
    """Finite prefix of an ind-system with a declared stabilization index.

    `maps[k]` is the matrix of M_k -> M_{k+1} (dim_{k+1} x dim_k), required
    injective and t-equivariant.  Profiles must stabilize from `stable_from`
    on: exponents present at every stage are the stable free parts, and the
    residual blocks must grow strictly (the divisible part of the colimit).
    """

    modules: list[FptModule]
    maps: list[Matrix]
    stable_from: int = 0

    def __post_init__(self):
        if len({M.p for M in self.modules}) > 1:
            raise FptError("the modules must share one prime")
        if self.modules and not (_is_int(self.stable_from)
                                 and 0 <= self.stable_from < len(self.modules)):
            raise FptError(f"stable_from={self.stable_from!r} is not a stage "
                           "of the prefix")
        if len(self.maps) != max(len(self.modules) - 1, 0):
            raise FptError("need one structure map per adjacent pair")
        for k, f in enumerate(self.maps):
            src, tgt = self.modules[k], self.modules[k + 1]
            if not isinstance(f, list) or len(f) != tgt.dim or any(
                    not isinstance(r, list) or len(r) != src.dim for r in f):
                raise FptError(f"map {k} has the wrong shape")
            if not all(_is_int(x) for r in f for x in r):
                raise FptError(f"map {k} entries must be integers")
            cols = [[f[i][j] for i in range(tgt.dim)] for j in range(src.dim)]
            if len(_independent_subset(cols, src.p)) != src.dim:
                raise FptError(f"structure map {k} is not injective")
            left = mat_mul(tgt.T(), f, src.p)
            right = mat_mul(f, src.T(), src.p)
            if left != right:
                raise FptError(f"structure map {k} is not t-equivariant")


def classify_divisible(ind: IndFptModule) -> Decomposition:
    """Stable free parts plus the Pruefer rank of the residual system."""
    if not ind.modules:
        return Decomposition(2, [], 0, [])
    p = ind.modules[0].p
    decs = [decompose(M) for M in ind.modules]
    profiles = [d.profile() for d in decs]
    suffix = profiles[ind.stable_from:]
    stable: dict[int, int] = {}
    for i in sorted(set().union(*(set(pr) for pr in suffix))):
        m = min(pr.get(i, 0) for pr in suffix)
        if m:
            stable[i] = m
    residuals = []
    for pr in suffix:
        res = {i: r - stable.get(i, 0) for i, r in pr.items()
               if r - stable.get(i, 0) > 0}
        residuals.append(res)
    counts = [sum(r.values()) for r in residuals]
    if len(set(counts)) > 1:
        raise IndSystemError(
            f"residual block counts do not stabilize: {counts}; "
            "refine stable_from or the declared rule")
    div_rank = counts[0] if counts else 0
    if div_rank:
        mins = [min(r) for r in residuals if r]
        if any(b <= a for a, b in zip(mins, mins[1:])) or len(mins) != len(residuals):
            raise IndSystemError(
                "residual exponents do not grow; the system is not "
                "eventually divisible")
    last = decs[-1]
    witnesses = [w for w in last.witnesses if w["exponent"] in stable]
    return Decomposition(p, sorted(stable.items()), div_rank, witnesses)


# ---------------------------------------------------------------------------
# enumeration helpers (used by the oracles and the acceptance suite)

def partitions(n: int, max_part: Optional[int] = None) -> list[list[int]]:
    if n == 0:
        return [[]]
    out = []
    top = min(n, max_part if max_part is not None else n)
    for first in range(top, 0, -1):
        for rest in partitions(n - first, first):
            out.append([first] + rest)
    return out


def random_nilpotent(p: int, dim: int, rng) -> FptModule:
    """Random conjugate of a random Jordan type (deterministic given rng)."""
    parts = partitions(dim)
    partition = parts[rng.randrange(len(parts))]
    base = jordan_module(p, partition)
    if dim == 0:
        return base
    Ginv = None
    while Ginv is None:
        G = [[rng.randrange(p) for _ in range(dim)] for _ in range(dim)]
        Ginv = _invert(G, p)
    T = mat_mul(mat_mul(G, base.T(), p), Ginv, p)
    return FptModule(p, dim, tuple(tuple(r) for r in T))


def _invert(G: Matrix, p: int) -> Optional[Matrix]:
    """G^{-1} from the coordinates of the unit vectors; None if singular."""
    n = len(G)
    span = _span(_columns(G, n), p)
    if len(span.rows) != n:
        return None
    inv_cols = [span.coordinates(e) for e in identity(n)]
    return [list(r) for r in zip(*inv_cols)]

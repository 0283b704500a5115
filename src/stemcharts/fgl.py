"""Truncated formal group laws: the universal law over the Lazard ring,
logarithms over Q, and p-typical reduction.

Degrees are stored halved: a generator of algebraic degree i sits in
homotopy degree 2i.  The universal construction works over Q[m_1, m_2, ...]
with the generic logarithm l(x) = x + m_1 x^2 + m_2 x^3 + ...; integral
polynomial generators x_i of the Lazard ring are then extracted by a
lattice computation on the coefficients of the universal law.

The lattice step is integer linear algebra done once per degree d: the
degree-d coefficients and decomposables, scaled by one common
denominator, are put in Hermite normal form; the decomposables'
coordinates in it come by forward substitution along the pivot columns,
and their Smith form yields x_d, after checking L_d / D_d = Z (Lazard's
theorem).  The decomposables D_d are spanned by the x-monomials of degree
d with at least two factors: the check at each k < d certified L_k =
D_k + Z x_k, so by induction on k the x-monomials of degree k span L_k,
and D_d, the sum of the products L_k L_{d-k}, is spanned by their
products.  The x_k found below d thus feed the check at d.

to_x_coordinates needs no elimination.  The length of an m-monomial is
its number of factors, and x_d = c_d m_d + (m-monomials of length >= 2),
so an x-monomial x^e is c^e m^e plus longer m-monomials: the shortest
m-monomials of an element give the coefficients of its shortest
x-monomials, and peeling those off, length by length, gives the unique
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm

from .poly import Poly, PolyRing, Monomial, MonomialMap, mon_deg
from .series import (Series, compose, generic_series, integrate,
                     multiplicative_inverse, powers, reversion)
from .zpk import identity


class EngineError(Exception):
    """An internal invariant of the engine is broken (CLI exit code 4)."""


# coefficient base tags
ZZ = "ZZ"
QQ = "QQ"


def zz_local(p: int) -> str:
    return f"ZZ_({p})"


@dataclass
class GradedRingPresentation:
    """Graded commutative ring: generators with degrees, relations, truncated."""

    base: str
    generators: list[tuple[str, int]]
    relations: list[str]
    degree_bound: int

    def ring(self) -> PolyRing:
        names = [n for n, _ in self.generators]
        degs = [d for _, d in self.generators]
        return PolyRing(names, degs, self.degree_bound)

    def to_json(self) -> dict:
        return {
            "base": self.base,
            "generators": [{"name": n, "degree": d} for n, d in self.generators],
            "relations": list(self.relations),
            "degree_bound": self.degree_bound,
        }


class FGLAxiomError(Exception):
    pass


@dataclass
class FormalGroupLaw:
    """F(x, y) truncated at total x,y-degree degree_bound + 1.

    `series` maps (i, j) with i + j <= degree_bound + 1 to the coefficient
    a_ij as a Poly over presentation.ring().  Unitality, commutativity and
    associativity are checked symbolically up to the bound on construction.
    """

    presentation: GradedRingPresentation
    series: dict[tuple[int, int], Poly]
    classifying_images: list | None = None

    def __post_init__(self):
        self.verify_axioms()

    @property
    def order(self) -> int:
        return self.presentation.degree_bound + 1

    def as_series(self) -> Series:
        ring = self.presentation.ring()
        return Series(ring, 2, self.order,
                      {(i, j): c for (i, j), c in self.series.items()})

    def verify_axioms(self):
        ring = self.presentation.ring()
        order = self.order
        F = self.as_series()
        # F(x, 0) = x
        for (i, j), c in F.terms.items():
            if j == 0:
                if (i, j) != (1, 0) and not c.is_zero():
                    raise FGLAxiomError(f"F(x,0) has stray term x^{i}")
        if F.coefficient((1, 0)).terms != ring.one().terms:
            raise FGLAxiomError("F(x,0) != x")
        # commutativity
        for (i, j), c in F.terms.items():
            if F.coefficient((j, i)).terms != c.terms:
                raise FGLAxiomError(f"a_{i}{j} != a_{j}{i}")
        # associativity in three variables
        x, y, z = (Series.variable(F.ring, 3, order, i) for i in range(3))
        if compose(F, [compose(F, [x, y]), z]) != compose(F, [x, compose(F, [y, z])]):
            raise FGLAxiomError("associativity fails below the bound")


def _sum_series(log: Series, exp: Series) -> Series:
    """The formal sum F(x, y) = exp(l(x) + l(y)) of a logarithm l.

    With e = exp and P[i][a] = [x^a] l^i, a row per power of the table
    `powers(l, order)` (P[0][a] = 1 at a = 0 only; l^i starts at x^i),
    and (l(x) + l(y))^k expanded by the binomial theorem, the coefficient
    of x^a y^b is

        a_ab = sum_{i <= a, j <= b} C(i + j, i) e_{i+j} P[i][a] P[j][b].

    l(x) and l(y) share no mixed term, so each coefficient is a short sum
    of products of two univariate coefficients; no bivariate series is
    convolved.  For b = 0 the sum is [x^a] exp(l(x)), computed like the
    others, so verify_axioms still sees an exp that does not invert l.

    The sum is symmetric under (a, i) <-> (b, j), since C(k, i) =
    C(k, k - i); only a <= b is computed, and a_ba is the same
    coefficient.  verify_axioms still checks commutativity.  Zero
    coefficients of l (a p-typical logarithm has few) and zero powers are
    skipped.
    """
    ring, order = log.ring, log.order
    zero = ring.zero()
    power = [{0: ring.one()}] + [{a: q for (a,), q in li.terms.items()}
                                 for li in powers(log, order)]
    out = {}
    for a in range(order // 2 + 1):
        for b in range(max(a, 1), order - a + 1):
            coeff = zero
            # e_0 = 0: exp has no constant term
            for k in range(1, a + b + 1):
                e = exp.terms.get((k,))
                if e is None:
                    continue
                inner = zero
                for i in range(max(0, k - b), min(a, k) + 1):
                    pa, pb = power[i].get(a), power[k - i].get(b)
                    if pa is not None and pb is not None:
                        inner = inner + (pa * pb).scale(comb(k, i))
                if inner.terms:
                    coeff = coeff + e * inner
            if coeff.terms:
                out[(a, b)] = out[(b, a)] = coeff
    return Series(ring, 2, order, out)


# ---------------------------------------------------------------------------
# the universal law over Q[m_1, m_2, ...]

class UniversalFGL:
    """Generic-logarithm model of the universal formal group law.

    Ring: Q[m_1..m_bound] with deg m_i = i.  log(x) = x + sum m_i x^{i+1},
    F = exp(log x + log y).  Also computes integral Lazard generators
    x_1..x_bound together with the change of basis to the m's.
    """

    def __init__(self, bound: int):
        if bound < 1:
            raise ValueError("bound must be >= 1")
        self.bound = bound
        self.mring = PolyRing([f"m{i}" for i in range(1, bound + 1)],
                              list(range(1, bound + 1)), bound)
        self._xring = PolyRing([f"x{i}" for i in range(1, bound + 1)],
                               list(range(1, bound + 1)), bound)
        self.log = generic_series(self.mring, bound + 1, 0)
        self.exp = reversion(self.log)
        self.F = _sum_series(self.log, self.exp)
        self._xgens: list[Poly] = []
        # x-monomials in the m's (x_{g+1} has index g, as m_{g+1} does),
        # for the lattice step and the peel
        self._xmon = MonomialMap(self._xgens, self.mring.one())
        self._compute_integral_generators()

    def _compute_integral_generators(self):
        coeffs_by_degree: dict[int, list[Poly]] = {d: [] for d in range(1, self.bound + 1)}
        for (i, j), c in self.F.terms.items():
            d = i + j - 1
            if i >= 1 and j >= 1 and 1 <= d <= self.bound and not c.is_zero():
                coeffs_by_degree[d].append(c)
        for d in range(1, self.bound + 1):
            basis = self.mring.monomials_of_degree(d)
            idx = {m: i for i, m in enumerate(basis)}
            # decomposables: the x-monomials of length >= 2, which span D_d
            # by the induction of the module docstring; m_d alone has
            # length 1 (x_{g+1} has index g, as m_{g+1} does)
            polys = [self._xmon(m, Poly.__mul__) for m in basis if m != ((d - 1, 1),)]
            n_dec = len(polys)
            polys.extend(coeffs_by_degree[d])
            # one common denominator puts the lattice and the decomposables
            # on the integer lattice, where the HNF is computed once
            denom = _common_denominator(polys)
            int_rows = [_vec(p, idx, denom) for p in polys]
            hnf = _integer_hnf(int_rows)
            # quotient by decomposables to find the Lazard generator
            gen_vec = _lattice_quotient_generator(hnf, int_rows[:n_dec])
            xp = _poly_from_vec(self.mring, basis, gen_vec, denom)
            # canonical sign: positive coefficient on the pure m_d monomial
            lead = Fraction(xp.coefficient(((d - 1, 1),)))
            if lead < 0:
                xp = xp.scale(-1)
            self._xgens.append(xp)

    def x_generator(self, n: int) -> Poly:
        """The integral Lazard generator x_n as a polynomial in the m's."""
        return self._xgens[n - 1]

    def x_ring(self) -> PolyRing:
        """Z[x_1..x_bound], the ring of to_x_coordinates' results, built once."""
        return self._xring

    def to_x_coordinates(self, p: Poly) -> Poly:
        """Rewrite an integral element of Q[m] in the x-generators, by the
        peel of the module docstring, one degree at a time.

        Raises ValueError for a part above the bound, which no x-monomial
        reaches, and for non-integral coordinates (p is then not in the
        Lazard subring).
        """
        degs = self.mring.degrees
        terms = {m: c for m, c in p.terms.items() if c}
        out: dict[Monomial, int] = {}
        for d in sorted({mon_deg(m, degs) for m in terms}):
            if d > self.bound:
                raise ValueError("element not in the span of x-monomials")
            rest = Poly(self.mring, {m: c for m, c in terms.items()
                                     if mon_deg(m, degs) == d})
            coords: dict[Monomial, int] = {}
            while rest.terms:
                short = min(map(_mon_len, rest.terms))
                for m in [m for m in rest.terms if _mon_len(m) == short]:
                    # x^m is the only x-monomial of this length reaching m
                    q = self._xmon(m, Poly.__mul__)
                    c = Fraction(rest.terms[m]) / q.terms[m]
                    if c.denominator != 1:
                        raise ValueError("element is not integral in the x-basis")
                    coords[m] = int(c)
                    rest = rest - q.scale(coords[m])
            out.update(sorted(coords.items()))
        return Poly(self.x_ring(), out)

    def presentation(self) -> GradedRingPresentation:
        return GradedRingPresentation(
            base=ZZ,
            generators=[(f"x{i}", i) for i in range(1, self.bound + 1)],
            relations=[],
            degree_bound=self.bound,
        )

    def fgl_in_x(self) -> FormalGroupLaw:
        pres = self.presentation()
        xr = pres.ring()
        series: dict[tuple[int, int], Poly] = {}
        for (i, j), c in self.F.terms.items():
            if c.is_zero():
                continue
            if i + j == 1:
                series[(i, j)] = xr.one()
            else:
                series[(i, j)] = Poly(xr, self.to_x_coordinates(c).terms)
        return FormalGroupLaw(pres, series)


def _mon_len(m: Monomial) -> int:
    """The number of factors of a monomial."""
    return sum(e for _, e in m)


def _vec(p: Poly, idx: dict[Monomial, int], denom: int) -> list[int]:
    """Coefficients of denom * p on the basis with index idx."""
    v = [0] * len(idx)
    for m, c in p.terms.items():
        v[idx[m]] = int(c * denom)
    return v


def _poly_from_vec(ring: PolyRing, basis: list[Monomial], v: list[int],
                   denom: int) -> Poly:
    """The polynomial with coefficients v / denom on the given basis."""
    terms = {}
    for m, a in zip(basis, v):
        if a:
            c = Fraction(a, denom)
            terms[m] = c if c.denominator != 1 else int(c)
    return Poly(ring, terms)


# -- exact integer lattice helpers -------------------------------------------

def _integer_hnf(rows: list[list[int]]) -> list[list[int]]:
    """Row Hermite normal form (non-negative pivots, reduced above)."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    n = len(rows[0])
    basis: list[list[int]] = []
    work = rows
    for col in range(n):
        pivots = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not pivots:
            work = rest
            continue
        # gcd-reduce rows against each other in this column
        while len(pivots) > 1:
            pivots.sort(key=lambda r: abs(r[col]))
            p0 = pivots[0]
            survivors = [p0]
            for r in pivots[1:]:
                q = r[col] // p0[col]
                rr = [a - q * b for a, b in zip(r, p0)]
                if rr[col] != 0:
                    survivors.append(rr)
                elif any(rr):
                    rest.append(rr)
            pivots = survivors
            if len(pivots) == 1:
                break
        piv = pivots[0]
        if piv[col] < 0:
            piv = [-a for a in piv]
        # reduce earlier basis rows above this pivot
        for b in basis:
            if b[col] != 0:
                q = b[col] // piv[col]
                for k in range(n):
                    b[k] -= q * piv[k]
        basis.append(list(piv))
        work = rest
    return basis


def _pivot_columns(echelon: list[list[int]]) -> list[int]:
    return [next(t for t, a in enumerate(row) if a) for row in echelon]


def _echelon_coordinates(hnf: list[list[int]], pivots: list[int],
                         row: list[int]) -> list[int]:
    """Integer coordinates of row in the row-echelon basis hnf.

    Forward substitution along the pivot columns.  A row outside the
    Q-span of hnf is "not in lattice"; a row inside it whose coordinates
    need a denominator has "non-integral coordinates"; both are
    EngineErrors, as the Lazard lattice holds every decomposable.
    """
    r = list(row)
    coords = []
    integral = True
    for h, col in zip(hnf, pivots):
        q, rem = divmod(r[col], h[col])
        if rem:
            # rescale and keep substituting to tell the two defects apart
            integral = False
            s = h[col] // gcd(r[col], h[col])
            r = [s * a for a in r]
            q = r[col] // h[col]
        coords.append(q)
        if q:
            r = [a - q * b for a, b in zip(r, h)]
    if any(r):
        raise EngineError("decomposable not in lattice")
    if not integral:
        raise EngineError("decomposable has non-integral coordinates")
    return coords


def _lattice_quotient_generator(hnf: list[list[int]],
                                dec_rows: list[list[int]]) -> list[int]:
    """Generator of L/D where L is the row lattice of the echelon basis hnf
    and D (span of dec_rows) has corank 1 in L.

    Works in coordinates of hnf, read off by forward substitution; uses
    Smith form over Z.  The class of the returned vector generates the
    quotient, which is required to be Z (Lazard's theorem); anything else
    is reported as a defect.
    """
    if not hnf:
        raise EngineError("empty lattice")
    k = len(hnf)
    pivots = _pivot_columns(hnf)
    dmat = [_echelon_coordinates(hnf, pivots, r) for r in dec_rows]
    diag, v_inv_rows = _integer_smith(dmat, k)
    # quotient = Z^k / row span; invariant factors diag (padded with 0)
    free_idx = [i for i in range(k) if i >= len(diag) or diag[i] == 0]
    nontrivial = [d for d in diag if d not in (0, 1)]
    if len(free_idx) != 1 or nontrivial:
        raise EngineError(f"Lazard quotient defect: diag={diag}, free={len(free_idx)}")
    # generator = row j of V^{-1} mapped through the basis
    coords = v_inv_rows[free_idx[0]]
    return [sum(c * b[t] for c, b in zip(coords, hnf)) for t in range(len(hnf[0]))]


def _integer_smith(rows: list[list[int]], ncols: int):
    """Diagonal form over Z, without the divisibility chain of Smith's.

    Returns (diagonal, Vinv_rows): unimodular row and column
    operations bring A to D = diag(diagonal) padded with zeros, where
    diagonal holds rank(A) positive integers, and the rows diagonal[i] *
    Vinv_rows[i] span the row lattice of A.  The diagonal is not
    normalized to divide successively: [[2, 0], [0, 3]] gives [2, 3], not
    Smith's [1, 6].  Its entries are all 1 exactly when the Smith form's
    are, which is all the Lazard quotient step asks.
    """
    A = [list(r) for r in rows]
    m, n = len(A), ncols
    Vinv = identity(n)

    def col_op(j1, j2, q):
        for r in A:
            r[j2] -= q * r[j1]
        # column op on A corresponds to row op on Vinv (inverse transform)
        for t in range(n):
            Vinv[j1][t] += q * Vinv[j2][t]

    def col_swap(j1, j2):
        for r in A:
            r[j1], r[j2] = r[j2], r[j1]
        Vinv[j1], Vinv[j2] = Vinv[j2], Vinv[j1]

    diag = []
    r0 = 0
    for c0 in range(n):
        if r0 >= m:
            break
        # find pivot
        best = None
        for i in range(r0, m):
            for j in range(c0, n):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        A[r0], A[bi] = A[bi], A[r0]
        if bj != c0:
            col_swap(c0, bj)
        while True:
            # clear column c0 with row ops
            done = True
            for i in range(m):
                if i != r0 and A[i][c0] != 0:
                    q = A[i][c0] // A[r0][c0]
                    for k in range(n):
                        A[i][k] -= q * A[r0][k]
                    if A[i][c0] != 0:
                        A[r0], A[i] = A[i], A[r0]
                        done = False
            # clear row r0 with column ops
            for j in range(n):
                if j != c0 and A[r0][j] != 0:
                    q = A[r0][j] // A[r0][c0]
                    col_op(c0, j, q)
                    if A[r0][j] != 0:
                        col_swap(c0, j)
                        done = False
            if done and all(A[i][c0] == 0 for i in range(m) if i != r0) \
                    and all(A[r0][j] == 0 for j in range(n) if j != c0):
                break
        diag.append(abs(A[r0][c0]))
        r0 += 1
    return diag, Vinv


def _common_denominator(polys: list[Poly]) -> int:
    return lcm(*(Fraction(c).denominator for p in polys for c in p.terms.values()))


# ---------------------------------------------------------------------------
# public operations

def universal_fgl(bound: int) -> tuple[GradedRingPresentation, FormalGroupLaw]:
    """Universal formal group law on integral Lazard generators x_1..x_bound."""
    u = UniversalFGL(bound)
    law = u.fgl_in_x()
    return law.presentation, law


def additive_fgl(bound: int) -> FormalGroupLaw:
    pres = GradedRingPresentation(QQ, [], [], bound)
    ring = pres.ring()
    return FormalGroupLaw(pres, {(1, 0): ring.one(), (0, 1): ring.one()})


def multiplicative_fgl(bound: int) -> FormalGroupLaw:
    pres = GradedRingPresentation(QQ, [], [], bound)
    ring = pres.ring()
    return FormalGroupLaw(pres, {(1, 0): ring.one(), (0, 1): ring.one(),
                                 (1, 1): ring.one()})


def fgl_log(F: FormalGroupLaw) -> Series:
    """log of F over a Q base: integrate dx / (dF/dy)(x, 0)."""
    if F.presentation.base != QQ:
        raise ValueError("logarithm requires a Q coefficient base")
    return _log_over_char_zero(F)


def fgl_exp(F: FormalGroupLaw) -> Series:
    return reversion(fgl_log(F))


def fgl_inverse(F: FormalGroupLaw) -> Series:
    """The formal inverse series i(x) = exp(-log x), with F(x, i(x)) = 0.

    log and exp are taken over the base (x) Q, so an integral base gets
    its i(x) through fractions; every coefficient that is an integer is
    returned as int.  The result is checked against F(x, i(x)) = 0.
    """
    log = _log_over_char_zero(F)
    inv = compose(reversion(log), [log.scale(-1)])
    out = Series(inv.ring, 1, inv.order, {
        e: Poly(q.ring, {m: int(c) if Fraction(c).denominator == 1 else c
                         for m, c in q.terms.items()})
        for e, q in inv.terms.items()})
    x1 = Series.variable(out.ring, 1, out.order, 0)
    if not compose(F.as_series(), [x1, out]).is_zero():
        raise FGLAxiomError("formal inverse construction failed")
    return out


# ---------------------------------------------------------------------------
# p-typical reduction

def hazewinkel_lambdas(ring: PolyRing, p: int, count: int) -> list[Poly]:
    """lambda_0..lambda_count with p*lambda_n = sum_{i<n} lambda_i v_{n-i}^{p^i}.

    ring must be Q[v_1..v_m] with deg v_i = p^i - 1 (generator index i-1).
    """
    lams = [ring.one()]
    for n in range(1, count + 1):
        acc = ring.zero()
        for i in range(n):
            vidx = n - i - 1
            if vidx >= len(ring.names):
                continue
            acc = acc + lams[i] * ring.gen(vidx).pow(p ** i)
        lams.append(acc.scale(Fraction(1, p)))
    return lams


def p_typical_presentation(p: int, bound: int) -> GradedRingPresentation:
    gens = []
    i = 1
    while p ** i - 1 <= bound:
        gens.append((f"v{i}", p ** i - 1))
        i += 1
    return GradedRingPresentation(zz_local(p), gens, [], bound)


def p_typical_log(p: int, bound: int) -> tuple[GradedRingPresentation, Series]:
    pres = p_typical_presentation(p, bound)
    ring = pres.ring()
    m = len(pres.generators)
    order = bound + 1
    kmax = 0
    while p ** (kmax + 1) <= order:
        kmax += 1
    lams = hazewinkel_lambdas(ring, p, max(m, kmax))
    terms = {}
    for k in range(kmax + 1):
        if p ** k <= order:
            terms[(p ** k,)] = lams[k]
    return pres, Series(ring, 1, order, terms)


def _log_over_char_zero(F: FormalGroupLaw) -> Series:
    """Internal logarithm over base (x) Q: integrate dx / (dF/dy)(x, 0).

    Unlike the public fgl_log, this accepts integral bases (Z,
    Z_(p)); the coefficients acquire rational denominators.
    """
    ring = F.presentation.ring()
    order = F.order
    w_terms = {}
    for (i, j), c in F.series.items():
        if j == 1:
            w_terms[(i,)] = c
    w = Series(ring, 1, order, w_terms)
    return integrate(multiplicative_inverse(w))


def p_typical_reduction(F: FormalGroupLaw, p: int, bound: int
                        ) -> tuple[GradedRingPresentation, FormalGroupLaw]:
    """Cartier reduction: the p-typical law on Hazewinkel generators v_i.

    The input logarithm is stripped to its p-power exponents (the Cartier
    idempotent) and the surviving coefficients lambda_i are converted to
    Hazewinkel generators through p lambda_n = sum lambda_i v_{n-i}^{p^i}.
    Returns the presentation Z_(p)[v_1..v_m] and the p-typical law over
    it; the classifying images of the v_i in the input base are recorded
    on the law as `classifying_images` (zero for the additive law, a unit
    times v_1 for the multiplicative one).
    """
    base = F.presentation.base
    if base not in (QQ, ZZ, zz_local(p)):
        raise ValueError(f"base {base} does not admit p-typification at {p}")
    pres, logser = p_typical_log(p, bound)
    law = FormalGroupLaw(pres, dict(_sum_series(logser, reversion(logser)).terms))
    # denominators must clear: the law is defined over Z_(p)
    for (i, j), c in law.series.items():
        for mon, coeff in c.terms.items():
            fr = Fraction(coeff)
            if fr.denominator % p == 0:
                raise FGLAxiomError("p-typical law not p-integral")
    # classifying images: lambda-hats from the input logarithm, inverted
    # through the Hazewinkel recursion; must be p-integral in the base
    in_log = _log_over_char_zero(F)
    m = len(pres.generators)
    in_ring = F.presentation.ring()
    lam_hat = [in_ring.one()]
    for i in range(1, m + 1):
        lam_hat.append(in_log.coefficient((p ** i,)))
    v_images: list[Poly] = []
    for n in range(1, m + 1):
        acc = lam_hat[n].scale(p)
        for i in range(1, n):
            acc = acc - lam_hat[i] * v_images[n - i - 1].pow(p ** i)
        for mon, coeff in acc.terms.items():
            if Fraction(coeff).denominator % p == 0:
                raise FGLAxiomError(
                    "classifying images are not p-integral; the input law "
                    "does not p-typify over its base")
        v_images.append(acc)
    law.classifying_images = v_images
    return pres, law

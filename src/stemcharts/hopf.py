"""Hopf algebroids of formal group laws: (A, Gamma) with structure maps.

Two constructions:

* universal: A = Lazard ring on integral generators x_i, Gamma = A[b_1, ...]
  corepresenting strict isomorphisms of formal group laws.  The right unit
  comes from composing the generic logarithm with the universal coordinate
  change b(x) = x + b_1 x^2 + ...; the coproduct from composing strict
  isomorphisms; the antipode from the compositional inverse.

* p_typical: A = Z_(p)[v_1, ...] (Hazewinkel generators), Gamma = A[t_1, ...]
  with the structure maps determined through the p-typical logarithm
  lambda-series.

Elements of Gamma^{(x)_A s} are kept in left-normal form: free A-module on
s-tuples of monomials in the Gamma generators, all A-coefficients rewritten
onto the leftmost factor through eta_R.  Tensor keys are
(a_monomial, (t_monomial_1, ..., t_monomial_s)) -> int (`_check_p_integral`).

Products are exact: `tensor_mul` only ever multiplies homogeneous factors
whose degrees sum to at most the bound, so no term is dropped by degree.
eta_R, Delta and c on monomials are `poly.MonomialMap`s of the generators'
images under `tensor_mul`, and the Gamma-monomials of each degree are listed
once, by the algebroid's one ring `gring`.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly, PolyRing, Monomial, MonomialMap, ONE, mon_mul, mon_deg, power
from .series import compose_univariate, generic_series
from .fgl import (EngineError, GradedRingPresentation, UniversalFGL,
                  hazewinkel_lambdas, p_typical_presentation)

TensorKey = tuple[Monomial, tuple[Monomial, ...]]
Tensor = dict[TensorKey, object]


def _add_into(out: Tensor, terms, scale=1) -> None:
    """out += scale * terms, an iterable of (key, coefficient) pairs, in
    place; an entry that cancels to zero is dropped."""
    for key, c in terms:
        s = out.get(key, 0) + scale * c
        if s:
            out[key] = s
        else:
            out.pop(key, None)


class HopfAxiomError(EngineError):
    """A constructed algebroid fails a Hopf-algebroid axiom or p-integrality."""


class HopfAlgebroid:
    """(A, Gamma) with degree-truncated structure maps in left-normal form."""

    def __init__(self, kind: str, bound: int, p: int | None,
                 a_pres: GradedRingPresentation, gamma_names: list[str],
                 gamma_degrees: list[int],
                 eta_r: dict[int, Tensor], coproduct: dict[int, Tensor],
                 antipode: dict[int, Tensor]):
        self.kind = kind
        self.bound = bound
        self.p = p
        self.A = a_pres
        self.aring = a_pres.ring()
        self.gamma_names = gamma_names
        self.gamma_degrees = gamma_degrees
        self.gring = PolyRing(gamma_names, gamma_degrees, bound)
        self.eta_r_gen = eta_r          # A-generator index -> Gamma element
        self.coproduct_gen = coproduct  # Gamma-generator index -> Gamma^2 element
        self.antipode_gen = antipode    # Gamma-generator index -> Gamma element
        # the structure maps on monomials; tensor_mul is passed per call, as
        # a stored bound method would make every algebroid a reference cycle
        self._eta_r = MonomialMap(eta_r, {(ONE, (ONE,)): 1})
        self._delta = MonomialMap(coproduct, {(ONE, (ONE, ONE)): 1})
        self._antipode = MonomialMap(antipode, {(ONE, (ONE,)): 1})

    # -- presentation-level views -------------------------------------------

    def to_json(self) -> dict:
        gamma = GradedRingPresentation(
            base=f"{self.A.base}[A]",
            generators=list(zip(self.gamma_names, self.gamma_degrees)),
            relations=[], degree_bound=self.bound)
        return {
            "kind": self.kind, "prime": self.p, "degree_bound": self.bound,
            "A": self.A.to_json(), "Gamma": gamma.to_json(),
        }

    # -- degree helpers ------------------------------------------------------

    def tensor_monomials(self, degree: int) -> list[Monomial]:
        return self.gring.monomials_of_degree(degree)

    def a_monomials(self, degree: int) -> list[Monomial]:
        return self.aring.monomials_of_degree(degree)

    # -- tensor arithmetic ----------------------------------------------------

    def tensor_mul(self, a: Tensor, b: Tensor, out: Tensor | None = None,
                   scale=1) -> Tensor:
        """Add scale * a * b, the componentwise product, into `out` (a new
        dict when None; never a or b) and return it.  Both sides are in
        normal form with the same slot count; a sum that cancels is dropped.
        The product is exact: callers multiply homogeneous factors whose
        degrees sum to at most the bound, so there is nothing to truncate.
        """
        if out is None:
            out = {}
        right = [(am2, tm2, scale * c2) for (am2, tm2), c2 in b.items()]
        for (am1, tm1), c1 in a.items():
            for am2, tm2, c2 in right:
                key = (mon_mul(am1, am2), tuple(map(mon_mul, tm1, tm2)))
                s = out.get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return out

    def tensor_pow(self, a: Tensor, n: int, slots: int) -> Tensor:
        return power(a, n, {(ONE, (ONE,) * slots): 1}, self.tensor_mul)

    def poly_to_tensor(self, q: Poly, slots: int = 1) -> Tensor:
        return {(m, (ONE,) * slots): c for m, c in q.terms.items()}

    # -- structure maps on monomials ------------------------------------------

    def eta_r(self, amon: Monomial) -> Tensor:
        """eta_R of an A-monomial, as a Gamma element (1 slot)."""
        return self._eta_r(amon, self.tensor_mul)

    def eta_r_poly(self, q: Poly) -> Tensor:
        out: Tensor = {}
        for m, c in q.terms.items():
            _add_into(out, self.eta_r(m).items(), c)
        return out

    def delta(self, tmon: Monomial) -> Tensor:
        """Coproduct of a Gamma monomial, as a Gamma^2 element."""
        return self._delta(tmon, self.tensor_mul)

    def antipode_t(self, tmon: Monomial) -> Tensor:
        return self._antipode(tmon, self.tensor_mul)

    def antipode(self, elem: Tensor) -> Tensor:
        """Ring map c on a Gamma element: c(eta_L(a) tau) = eta_R(a) c(tau).

        tensor_mul is exact and bilinear, so c(sum a tau)
        = sum_tau (sum_a eta_R(a)) c(tau): the eta_R images are summed per
        Gamma-monomial tau first, and each tau takes one product.
        """
        by_tau: dict[Monomial, Tensor] = {}
        for (am, (tm,)), c in elem.items():
            _add_into(by_tau.setdefault(tm, {}), self.eta_r(am).items(), c)
        return self._times_antipode(by_tau)

    def _times_antipode(self, by_tau: dict[Monomial, Tensor]) -> Tensor:
        """The sum over tau of by_tau[tau] * c(tau), one product per tau."""
        out: Tensor = {}
        for tm, left in by_tau.items():
            self.tensor_mul(left, self.antipode_t(tm), out)
        return out

    def counit(self, elem: Tensor) -> Poly:
        """epsilon on a Gamma element: kill all positive Gamma monomials."""
        out = self.aring.zero()
        for (am, (tm,)), c in elem.items():
            if tm == ONE:
                out = out + self.aring.monomial(am, c)
        return out

    # -- slotwise operations with left migration ------------------------------

    def migrate_into(self, out: Tensor, amon: Monomial, cmon: Monomial,
                     pos: int, tmons: tuple[Monomial, ...], coeff) -> None:
        """Add coeff * amon * (cmon at slot `pos`, 1-based) to `out`, with
        cmon moved to the left through eta_R; entries may cancel to 0."""
        if pos == 1 or cmon == ONE:
            key = (mon_mul(amon, cmon), tmons)
            out[key] = out.get(key, 0) + coeff
            return
        j = pos - 2
        before, slot, after = tmons[:j], tmons[j], tmons[j + 1:]
        for (dmon, (tau,)), c in self.eta_r(cmon).items():
            self.migrate_into(out, amon, dmon, pos - 1,
                              before + (mon_mul(slot, tau),) + after, coeff * c)

    def apply_delta_slot(self, elem: Tensor, slot: int) -> Tensor:
        """Replace slot `slot` (1-based) by its coproduct; slots increase by 1.
        Delta and eta_R are homogeneous (`verify`), so nothing is truncated."""
        out: Tensor = {}
        for (am, tmons), c in elem.items():
            head, tail = tmons[:slot - 1], tmons[slot:]
            for (cm, (u, w)), c2 in self.delta(tmons[slot - 1]).items():
                self.migrate_into(out, am, cm, slot, head + (u, w) + tail, c * c2)
        return {k: c for k, c in out.items() if c}

    def counit_slot(self, elem: Tensor, slot: int) -> Tensor:
        """Apply the counit in slot `slot`; slots decrease by 1."""
        out: Tensor = {}
        _add_into(out, (((am, tmons[:slot - 1] + tmons[slot:]), c)
                        for (am, tmons), c in elem.items()
                        if tmons[slot - 1] == ONE))
        return out

    # -- axiom verification ----------------------------------------------------

    def verify(self):
        """Symbolic verification of all Hopf-algebroid identities on generators."""
        aring = self.aring
        # Delta and eta_R are homogeneous: each term has its generator's degree
        for what, images, names, degrees in (
                ("Delta", self.coproduct_gen, self.gamma_names, self.gamma_degrees),
                ("eta_R", self.eta_r_gen, aring.names, aring.degrees)):
            for g, elem in images.items():
                for am, tmons in elem:
                    if degrees[g] != mon_deg(am, aring.degrees) + sum(
                            mon_deg(t, self.gamma_degrees) for t in tmons):
                        raise HopfAxiomError(f"{what} is not homogeneous at {names[g]}")
        # counit inverts both units on A-generators
        for i in range(len(aring.names)):
            if aring.degrees[i] > self.bound:
                continue
            gen = aring.gen(i)
            if self.counit(self.eta_r_poly(gen)) != gen:
                raise HopfAxiomError(f"counit o eta_R != id at {aring.names[i]}")
        for gi in range(len(self.gamma_names)):
            if self.gamma_degrees[gi] > self.bound:
                continue
            name = self.gamma_names[gi]
            tmon: Monomial = ((gi, 1),)
            gen_elem: Tensor = {(ONE, (tmon,)): 1}
            dl = self.delta(tmon)
            # counitality
            if self.counit_slot(dl, 1) != gen_elem:
                raise HopfAxiomError(f"(eps x 1) Delta != id at {name}")
            if self.counit_slot(dl, 2) != gen_elem:
                raise HopfAxiomError(f"(1 x eps) Delta != id at {name}")
            # coassociativity
            left = self.apply_delta_slot(dl, 1)
            right = self.apply_delta_slot(dl, 2)
            if left != right:
                raise HopfAxiomError(f"coassociativity fails at {name}")
            # antipode folds: mu(c x 1)Delta = eta_R eps, mu(1 x c)Delta = eta_L eps
            if self.fold_antipode_left(dl):
                raise HopfAxiomError(f"mu(c x 1)Delta != 0 at {name}")
            if self.fold_antipode_right(dl):
                raise HopfAxiomError(f"mu(1 x c)Delta != 0 at {name}")
            # antipode is involutive on generators
            cc = self.antipode(self.antipode_t(tmon))
            if cc != gen_elem:
                raise HopfAxiomError(f"c o c != id at {name}")
        # antipode exchanges the units on A-generators
        for i in range(len(aring.names)):
            if aring.degrees[i] > self.bound:
                continue
            gen = aring.gen(i)
            back = self.antipode(self.eta_r_poly(gen))
            if back != self.poly_to_tensor(gen):
                raise HopfAxiomError(f"c o eta_R != eta_L at {aring.names[i]}")
        # coproduct is compatible with the right unit: Delta eta_R = 1 (x) eta_R
        for i in range(len(aring.names)):
            if aring.degrees[i] > self.bound:
                continue
            er = self.eta_r_poly(aring.gen(i))
            left = self.apply_delta_slot(er, 1)
            right: Tensor = {}
            for (am, (sigma,)), c in er.items():
                self.migrate_into(right, ONE, am, 2, (ONE, sigma), c)
            if left != {k: c for k, c in right.items() if c}:
                raise HopfAxiomError(
                    f"Delta o eta_R != 1 (x) eta_R at {aring.names[i]}")

    def fold_antipode_left(self, elem2: Tensor) -> Tensor:
        """mu o (c x 1) on a Gamma^2 element; empty dict means zero.

        Grouped by the left Gamma-monomial u, as in `antipode`: the terms
        eta_R(a) w are summed per u, and each u takes one product with c(u).
        """
        by_u: dict[Monomial, Tensor] = {}
        for (am, (u, w)), c in elem2.items():
            _add_into(by_u.setdefault(u, {}),
                      (((dm, (mon_mul(tau, w),)), c2)
                       for (dm, (tau,)), c2 in self.eta_r(am).items()), c)
        return self._times_antipode(by_u)

    def fold_antipode_right(self, elem2: Tensor) -> Tensor:
        """mu o (1 x c) on a Gamma^2 element."""
        out: Tensor = {}
        for (am, (u, w)), c in elem2.items():
            self.tensor_mul({(am, (u,)): 1}, self.antipode_t(w), out, c)
        return out


# ---------------------------------------------------------------------------
# constructions

def _series_coefficient_split(p: Poly, a_names: int) -> list[tuple[Monomial, Monomial, object]]:
    """Split monomials of a combined ring Q[a_0.., g_0..] into (a-part, g-part)."""
    out = []
    for m, c in p.terms.items():
        apart = tuple((g, e) for g, e in m if g < a_names)
        gpart = tuple((g - a_names, e) for g, e in m if g >= a_names)
        out.append((apart, gpart, c))
    return out


def build_p_typical(p: int, bound: int) -> HopfAlgebroid:
    """The p-typical algebroid, its structure maps solved degree by degree
    from the lambda-identities of Ravenel, Complex Cobordism, Thm A2.1.27.

    Each term of the identity for index n has degree p^n - 1 <= bound, so
    nothing in them is truncated.
    """
    a_pres = p_typical_presentation(p, bound)
    nv = len(a_pres.generators)
    alg = HopfAlgebroid("p_typical", bound, p, a_pres,
                        [f"t{i}" for i in range(1, nv + 1)],
                        [p ** i - 1 for i in range(1, nv + 1)], {}, {}, {})
    eta_r, delta, anti = alg.eta_r_gen, alg.coproduct_gen, alg.antipode_gen
    # lambda_n in Q[v]: p * lambda_n = sum_{i<n} lambda_i v_{n-i}^{p^i}
    lams = hazewinkel_lambdas(alg.aring, p, nv)

    def t_pow(j: int, i: int) -> Monomial:
        """t_j^{p^i}, with t_0 = 1."""
        return ONE if j == 0 else ((j - 1, p ** i),)

    def image(gen_map: dict[int, Tensor], k: int, slots: int) -> Tensor:
        """The image of t_k under a structure map, with t_0 = 1."""
        return gen_map[k - 1] if k else {(ONE, (ONE,) * slots): 1}

    def eta_r_lambda(n: int) -> Tensor:
        """eta_R(lambda_n) = sum_{i+j=n} lambda_i t_j^{p^i}."""
        out: Tensor = {}
        for i in range(n + 1):
            _add_into(out, (((m, (t_pow(n - i, i),)), c)
                            for m, c in lams[i].terms.items()))
        return out

    # eta_R(v_n) = p eta_R(lambda_n)
    #             - sum_{i=1}^{n-1} eta_R(lambda_i) eta_R(v_{n-i})^{p^i}
    for n in range(1, nv + 1):
        acc = {k: p * c for k, c in eta_r_lambda(n).items()}
        for i in range(1, n):
            pw = alg.tensor_pow(eta_r[n - i - 1], p ** i, 1)
            alg.tensor_mul(eta_r_lambda(i), pw, acc, -1)
        eta_r[n - 1] = acc
    _check_p_integral(eta_r, "eta_R")

    # coproduct: sum_{i+j+k=n} lambda_i t_j^{p^i} (x) t_k^{p^{i+j}}
    #          = sum_{h<=n} lambda_h Delta(t_{n-h})^{p^h}
    for n in range(1, nv + 1):
        acc: Tensor = {}
        for i in range(n + 1):
            for j in range(n - i + 1):
                _add_into(acc, (((m, (t_pow(j, i), t_pow(n - i - j, i + j))), c)
                                for m, c in lams[i].terms.items()))
        for h in range(1, n + 1):
            pw = alg.tensor_pow(image(delta, n - h, 2), p ** h, 2)
            alg.tensor_mul(pw, alg.poly_to_tensor(lams[h], 2), acc, -1)
        delta[n - 1] = acc
    _check_p_integral(delta, "coproduct")

    # antipode: sum_{i+j+k=n} lambda_i t_j^{p^i} c(t_k)^{p^{i+j}} = lambda_n,
    # solved for the k = n term c(t_n)
    for n in range(1, nv + 1):
        acc = alg.poly_to_tensor(lams[n])
        for i in range(n + 1):
            for j in range(n - i + 1):
                k = n - i - j
                if k == n:
                    continue
                pw = alg.tensor_pow(image(anti, k, 1), p ** (i + j), 1)
                term = alg.tensor_mul({(ONE, (t_pow(j, i),)): 1}, pw)
                alg.tensor_mul(term, alg.poly_to_tensor(lams[i]), acc, -1)
        anti[n - 1] = acc
    _check_p_integral(anti, "antipode")
    return alg


def _check_p_integral(gen_map: dict[int, Tensor], what: str):
    """Make every coefficient an int, or raise: each lies in Z[1/p] (the
    lambda_n divide only by p), so a p-integral one is an integer."""
    for elem in gen_map.values():
        for key, c in elem.items():
            fr = Fraction(c)
            if fr.denominator != 1:
                raise HopfAxiomError(f"{what} has non p-integral coefficient at {key}")
            elem[key] = int(fr)


def build_universal(bound: int) -> HopfAlgebroid:
    u = UniversalFGL(bound)
    a_pres = u.presentation()
    nb = bound
    bnames = [f"b{i}" for i in range(1, nb + 1)]
    bdegrees = list(range(1, nb + 1))

    # eta_R(m_n): coefficient of x^{n+1} in log(B(x)) over Q[m, b]
    mb = PolyRing([f"m{i}" for i in range(1, bound + 1)] + bnames,
                  list(range(1, bound + 1)) + bdegrees, bound)
    nm = bound
    order = bound + 1
    logr = compose_univariate(generic_series(mb, order, 0),
                              generic_series(mb, order, nm))
    # eta_R as a ring map on m-monomials; m_{g+1} has index g in Q[m] and
    # in Q[m, b]
    eta_r_m = MonomialMap([logr.coefficient((n + 1,)) for n in range(1, bound + 1)],
                          mb.one())

    # eta_R on the integral generators x_n, rewritten in x/b coordinates
    eta_r_gen: dict[int, Tensor] = {}
    for n in range(1, bound + 1):
        img = mb.zero()
        for m, c in u.x_generator(n).terms.items():  # x_n in the m's
            img = img + eta_r_m(m, Poly.__mul__).scale(c)
        # split into b-monomials with Q[m] coefficients, convert to x-coords
        # (the split is one to one on monomials, so no coefficient is summed)
        by_b: dict[Monomial, dict[Monomial, object]] = {}
        for apart, gpart, c in _series_coefficient_split(img, nm):
            by_b.setdefault(gpart, {})[apart] = c
        elem: Tensor = {}
        for bmon, mterms in by_b.items():
            try:
                xpoly = u.to_x_coordinates(Poly(u.mring, mterms))
            except ValueError as exc:  # the Lazard ring holds every eta_R(x_n)
                raise EngineError(f"eta_R(x{n}) leaves the Lazard ring: {exc}") from exc
            _add_into(elem, (((xm, (bmon,)), xc)
                             for xm, xc in xpoly.terms.items()))
        eta_r_gen[n - 1] = elem

    # coproduct: Delta(B)-series = (b x 1) o (1 x b); the universal strict
    # isomorphism runs from the eta_R law to the eta_L law, so the left
    # tensor factor provides the outer coefficients.  That composite of two
    # generic series on generators of degrees 1..bound is logr, read with
    # its m's as the left b's and its b's as the right ones.
    coproduct_gen: dict[int, Tensor] = {}
    for n in range(1, nb + 1):
        poly = logr.coefficient((n + 1,))
        elem: Tensor = {}
        _add_into(elem, (((ONE, (lpart, rpart)), c) for lpart, rpart, c
                         in _series_coefficient_split(poly, nb)))
        coproduct_gen[n - 1] = elem

    # antipode on b's: compositional inverse of B, in pure b's; that is the
    # reversion of the generic series on generators of degrees 1..bound,
    # u.exp, read with its m's as the b's
    antipode_gen: dict[int, Tensor] = {}
    for n in range(1, nb + 1):
        poly = u.exp.coefficient((n + 1,))
        antipode_gen[n - 1] = {(ONE, (m,)): c for m, c in poly.terms.items()}

    out = HopfAlgebroid("universal", bound, None, a_pres, bnames, bdegrees,
                        eta_r_gen, coproduct_gen, antipode_gen)
    out._universal_model = u
    return out


def build_algebroid(kind: str, bound: int, p: int | None = None) -> HopfAlgebroid:
    """Build the universal or p-typical Hopf algebroid, verified symbolically."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if kind == "universal":
        alg = build_universal(bound)
    elif kind == "p_typical":
        if p is None or p < 2:
            raise ValueError("p_typical needs a prime p")
        alg = build_p_typical(p, bound)
    else:
        raise ValueError(f"unknown algebroid kind {kind!r}")
    alg.verify()
    return alg

"""Truncated power series in a few formal variables, with Poly coefficients.

Used for formal-group-law manipulations: logs, exponentials, formal sums
and the series identities defining Hopf-algebroid structure maps.  A series
in n variables is a dict exponent-tuple -> Poly, kept to total variable
degree <= order.

Every composition f(g) = sum_n f_n g^n, formal sum (`fgl._sum_series`,
`fgl._eval_bivariate`) and inverse 1/f reads one table of successive
powers, `powers`: g^n is g^{n-1} g, truncated at g's order.

Reversion solves f(g) = x for g, so it cannot read `powers` of a g it
does not know yet: it fills its own table P[k][n] = [x^n] g^k (Brent and
Kung, J. ACM 25, 1978) as g's coefficients are found.  For n >= 2,
g_n = -sum_{k=2..n} f_k P[k][n], and for k >= 2 the entry P[k][n] needs
only g_1..g_{n-1}.
"""

from __future__ import annotations

from .poly import Poly, PolyRing


class Series:
    __slots__ = ("ring", "nvars", "order", "terms")

    def __init__(self, ring: PolyRing, nvars: int, order: int,
                 terms: dict[tuple[int, ...], Poly] | None = None):
        self.ring = ring
        self.nvars = nvars
        self.order = order
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if sum(e) <= order and not c.is_zero():
                    self.terms[e] = c

    @staticmethod
    def zero(ring: PolyRing, nvars: int, order: int) -> "Series":
        return Series(ring, nvars, order)

    @staticmethod
    def variable(ring: PolyRing, nvars: int, order: int, i: int) -> "Series":
        e = tuple(1 if j == i else 0 for j in range(nvars))
        return Series(ring, nvars, order, {e: ring.one()})

    def coefficient(self, e: tuple[int, ...]) -> Poly:
        return self.terms.get(e, self.ring.zero())

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other: "Series") -> "Series":
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        return Series(self.ring, self.nvars, self.order, out)

    def scale(self, c) -> "Series":
        if c == 0:
            return Series(self.ring, self.nvars, self.order)
        return Series(self.ring, self.nvars, self.order,
                      {e: p.scale(c) for e, p in self.terms.items()})

    def __mul__(self, other: "Series") -> "Series":
        out: dict[tuple[int, ...], Poly] = {}
        for e1, c1 in self.terms.items():
            d1 = sum(e1)
            for e2, c2 in other.terms.items():
                if d1 + sum(e2) > self.order:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                if c.is_zero():
                    continue
                s = out.get(e)
                s = c if s is None else s + c
                if s.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = s
        return Series(self.ring, self.nvars, self.order, out)


def powers(g: Series, k: int) -> list[Series]:
    """[g, g^2, ..., g^k], each power the product of the one before it and
    g, truncated at g's order."""
    out = [g] if k > 0 else []
    while len(out) < k:
        out.append(out[-1] * g)
    return out


def generic_series(ring: PolyRing, order: int, first: int) -> Series:
    """x + g_first x^2 + g_{first+1} x^3 + ... through x^order, on the
    generators of ring from index first on: a generic logarithm or
    strict coordinate change."""
    return Series(ring, 1, order,
                  {(1,): ring.one(),
                   **{(i + 1,): ring.gen(first + i - 1) for i in range(1, order)}})


def compose_univariate(f: Series, g: Series) -> Series:
    """f(g(...)) where f is univariate with f(0)=0 and g has no constant term.

    The result lives in g's variable count.
    """
    if f.nvars != 1:
        raise ValueError("outer series must be univariate")
    zero_e = (0,) * g.nvars
    if not g.coefficient(zero_e).is_zero():
        raise ValueError("inner series must have zero constant term")
    ring, nv, order = g.ring, g.nvars, g.order
    acc = Series.zero(ring, nv, order)
    # f_n with n > order meets g at least n times and contributes nothing
    top = min(max((e[0] for e in f.terms), default=0), order)
    for n, gn in enumerate(powers(g, top), 1):
        c = f.coefficient((n,))
        if not c.is_zero():
            acc = acc + Series(ring, nv, order,
                               {e: c * q for e, q in gn.terms.items()})
    return acc


def reversion(f: Series) -> Series:
    """Compositional inverse of a univariate series x + higher order."""
    if f.nvars != 1:
        raise ValueError("reversion needs a univariate series")
    one = f.ring.one()
    if f.coefficient((1,)).terms != one.terms:
        raise ValueError("reversion needs leading coefficient 1")
    order = f.order
    zero = f.ring.zero()
    g = [zero, one] + [zero] * (order - 1)
    # power[k][n] = [x^n] g^k for 2 <= k <= n; g^k starts at x^k (g_1 = 1)
    power = [None, g] + [[zero] * k + [one] + [zero] * (order - k)
                         for k in range(2, order + 1)]
    for n in range(2, order + 1):
        for k in range(2, n):
            # g^k = g * g^{k-1}; the g_1 = 1 term needs no product
            acc = power[k - 1][n - 1]
            for j in range(2, n - k + 2):
                if not g[j].is_zero() and not power[k - 1][n - j].is_zero():
                    acc = acc + g[j] * power[k - 1][n - j]
            power[k][n] = acc
        acc = zero
        for k in range(2, n + 1):
            fk = f.coefficient((k,))
            if not fk.is_zero():
                acc = acc + fk * power[k][n]
        g[n] = -acc
    return Series(f.ring, 1, order, {(n,): g[n] for n in range(1, order + 1)})


def integrate(f: Series) -> Series:
    """Formal integral with zero constant term; divides by exponents."""
    from fractions import Fraction
    out = {}
    for (n,), c in f.terms.items():
        out[(n + 1,)] = c.scale(Fraction(1, n + 1))
    return Series(f.ring, 1, f.order, out)


def multiplicative_inverse(f: Series) -> Series:
    """1/f for a series with invertible (unit Poly) constant term c.

    f = c (1 - h) with h = 1 - f/c, which has no constant term, so 1/f is
    the geometric series (1/c) sum_k h^k; h^k starts in degree k, and the
    sum through k = order is exact at the order.
    """
    from fractions import Fraction
    nv = f.nvars
    zero_e = (0,) * nv
    c0 = f.coefficient(zero_e)
    if list(c0.terms.keys()) != [()]:
        raise ValueError("constant term must be a scalar unit")
    inv0 = Fraction(1, 1) / Fraction(c0.constant_term())
    h = Series(f.ring, nv, f.order,
               {e: q.scale(-inv0) for e, q in f.terms.items() if e != zero_e})
    acc = Series(f.ring, nv, f.order, {zero_e: f.ring.one()})
    for hk in powers(h, f.order):
        acc = acc + hk
    return acc.scale(inv0)

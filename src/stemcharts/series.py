"""Truncated power series in a few formal variables, with Poly coefficients.

Used for formal-group-law manipulations: logs, exponentials, formal sums
and the series identities defining Hopf-algebroid structure maps.  A series
in n variables is a dict exponent-tuple -> Poly, kept to total variable
degree <= order.
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

    def __sub__(self, other: "Series") -> "Series":
        return self + other.scale(-1)

    def scale(self, c) -> "Series":
        if c == 0:
            return Series(self.ring, self.nvars, self.order)
        return Series(self.ring, self.nvars, self.order,
                      {e: p.scale(c) for e, p in self.terms.items()})

    def scale_poly(self, q: Poly) -> "Series":
        return Series(self.ring, self.nvars, self.order,
                      {e: p * q for e, p in self.terms.items()})

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

    def pow(self, n: int) -> "Series":
        result = Series(self.ring, self.nvars, self.order,
                        {(0,) * self.nvars: self.ring.one()})
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result


def compose_univariate(f: Series, g: Series) -> Series:
    """f(g(...)) where f is univariate with f(0)=0 and g has no constant term.

    The result lives in g's variable count.
    """
    if f.nvars != 1:
        raise ValueError("outer series must be univariate")
    if not g.coefficient((0,) * g.nvars).is_zero():
        raise ValueError("inner series must have zero constant term")
    out = Series.zero(g.ring, g.nvars, g.order)
    # Horner-style evaluation over exponents of f in decreasing order.
    exps = sorted((e[0] for e in f.terms), reverse=True)
    if not exps:
        return out
    top = exps[0]
    acc = Series.zero(g.ring, g.nvars, g.order)
    for n in range(top, 0, -1):
        c = f.coefficient((n,))
        if not c.is_zero():
            const = Series(g.ring, g.nvars, g.order,
                           {(0,) * g.nvars: c})
            acc = acc + const
        if n > 1:
            acc = acc * g
    return acc * g


def reversion(f: Series) -> Series:
    """Compositional inverse of a univariate series x + higher order."""
    if f.nvars != 1:
        raise ValueError("reversion needs a univariate series")
    one = f.ring.one()
    if f.coefficient((1,)).terms != one.terms:
        raise ValueError("reversion needs leading coefficient 1")
    order = f.order
    g = Series(f.ring, 1, order, {(1,): one})
    # Newton-style iteration degree by degree: enforce f(g(x)) = x.
    for n in range(2, order + 1):
        comp = compose_univariate(f, g)
        err = comp.coefficient((n,))
        if not err.is_zero():
            g = g + Series(f.ring, 1, order, {(n,): err.scale(-1)})
    return g


def integrate(f: Series) -> Series:
    """Formal integral with zero constant term; divides by exponents."""
    from fractions import Fraction
    out = {}
    for (n,), c in f.terms.items():
        out[(n + 1,)] = c.scale(Fraction(1, n + 1))
    return Series(f.ring, 1, f.order, out)


def multiplicative_inverse(f: Series) -> Series:
    """1/f for a series with invertible (unit Poly) constant term."""
    nv = f.nvars
    zero_e = (0,) * nv
    c0 = f.coefficient(zero_e)
    if list(c0.terms.keys()) != [()]:
        raise ValueError("constant term must be a scalar unit")
    from fractions import Fraction
    inv0 = Fraction(1, 1) / Fraction(c0.constant_term())
    g = Series(f.ring, nv, f.order, {zero_e: f.ring.const(inv0)})
    # iterate g <- g*(2 - f*g); quadratic convergence in the adic filtration
    two = Series(f.ring, nv, f.order, {zero_e: f.ring.const(2)})
    steps = 1
    n = 1
    while n < f.order + 1:
        g = g * (two - f * g)
        n *= 2
        steps += 1
        if steps > 40:
            break
    return g

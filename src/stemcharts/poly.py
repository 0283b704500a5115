"""Sparse graded polynomials with hard degree truncation.

Everything downstream (formal group laws, Hopf algebroids, cobar
differentials) is built on commutative polynomial arithmetic over Q in
finitely many weighted generators, truncated above a fixed total degree.
Monomials above the bound are discarded during multiplication; because
degrees are non-negative this truncation is compatible with associativity.

A monomial is a sorted tuple of (generator index, exponent) pairs; a
polynomial is a dict monomial -> coefficient.  Coefficients are ints or
fractions.Fraction (they mix freely).

A `MonomialMap` sends a monomial to the product of its generators' images,
each monomial once; the product comes with each call, so a map an object
keeps never refers back to it.  `PolyRing.monomials_of_degree` lists each
degree once per ring, in a shared list that callers only read.
"""

from __future__ import annotations


Monomial = tuple[tuple[int, int], ...]

ONE: Monomial = ()


def mon_mul(a: Monomial, b: Monomial) -> Monomial:
    """The product of two monomials, by one merge of their sorted pairs."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        x, y = a[i], b[j]
        if x[0] < y[0]:
            out.append(x)
            i += 1
        elif y[0] < x[0]:
            out.append(y)
            j += 1
        else:
            out.append((x[0], x[1] + y[1]))
            i += 1
            j += 1
    return (*out, *a[i:], *b[j:])


def mon_deg(m: Monomial, degrees: list[int]) -> int:
    return sum(degrees[g] * e for g, e in m)


def power(base, n: int, one, mul):
    """base^n by square-and-multiply: `one` is the unit and mul(a, b) the
    product, applied as result * base and base * base."""
    if n < 0:
        raise ValueError("negative power")
    result = one
    while n:
        if n & 1:
            result = mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


class MonomialMap:
    """The ring map on monomials with generator images gens[g] (gens may
    still grow), memoized: each monomial's image is computed once."""

    def __init__(self, gens, one):
        self.gens = gens
        self._memo = {ONE: one}

    def __call__(self, m: Monomial, mul):
        """The image of m; mul is the product of the target ring."""
        out = self._memo.get(m)
        if out is None:
            g, e = m[0]
            rest = m[1:] if e == 1 else ((g, e - 1),) + m[1:]
            out = self._memo[m] = mul(self.gens[g], self(rest, mul))
        return out


class PolyRing:
    """Weighted polynomial ring Q[g_0, g_1, ...] truncated at `bound`."""

    def __init__(self, names: list[str], degrees: list[int], bound: int):
        if len(names) != len(degrees):
            raise ValueError("names/degrees length mismatch")
        if any(w <= 0 for w in degrees):
            raise ValueError("generator of non-positive degree")
        self.names = list(names)
        self.degrees = list(degrees)
        self.bound = bound
        self._by_degree: dict[int, list[Monomial]] = {}

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return Poly(self, {ONE: 1})

    def gen(self, i: int) -> "Poly":
        if self.degrees[i] > self.bound:
            return self.zero()
        return Poly(self, {((i, 1),): 1})

    def monomial(self, m: Monomial, c=1) -> "Poly":
        if c == 0 or mon_deg(m, self.degrees) > self.bound:
            return self.zero()
        return Poly(self, {m: c})

    def monomials_of_degree(self, d: int) -> list[Monomial]:
        """All monomials of exact weighted degree d, sorted; listed once per
        ring and degree, and shared, so callers must not change the list."""
        if d not in self._by_degree:
            self._by_degree[d] = sorted(self._monomials(0, d))
        return self._by_degree[d]

    def _monomials(self, i: int, rem: int):
        """The monomials of degree rem in the generators i, i + 1, ..."""
        if rem == 0:
            yield ONE
        for g in range(i, len(self.degrees)):
            w = self.degrees[g]
            for e in range(1, rem // w + 1):
                yield from (((g, e),) + m for m in self._monomials(g + 1, rem - w * e))


class Poly:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict[Monomial, object]):
        self.ring = ring
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Poly(self.ring, out)

    def __sub__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) - c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Poly(self.ring, out)

    def __neg__(self) -> "Poly":
        return Poly(self.ring, {m: -c for m, c in self.terms.items()})

    def scale(self, c) -> "Poly":
        if c == 0:
            return self.ring.zero()
        return Poly(self.ring, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        ring = self.ring
        degs = ring.degrees
        bound = ring.bound
        out: dict[Monomial, object] = {}
        # cache degrees of the shorter operand's monomials
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        adeg = {m: mon_deg(m, degs) for m in a}
        bdeg = {m: mon_deg(m, degs) for m in b}
        for m1, c1 in a.items():
            d1 = adeg[m1]
            for m2, c2 in b.items():
                if d1 + bdeg[m2] > bound:
                    continue
                m = mon_mul(m1, m2)
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    del out[m]
        return Poly(ring, out)

    def pow(self, n: int) -> "Poly":
        return power(self, n, self.ring.one(), Poly.__mul__)

    def coefficient(self, m: Monomial):
        return self.terms.get(m, 0)

    def constant_term(self):
        return self.terms.get(ONE, 0)

    def __str__(self) -> str:
        return format_poly(self)

    __repr__ = __str__


def format_monomial(m: Monomial, names: list[str]) -> str:
    if not m:
        return "1"
    parts = []
    for g, e in m:
        parts.append(names[g] if e == 1 else f"{names[g]}^{e}")
    return "*".join(parts)


def format_poly(p: Poly) -> str:
    if not p.terms:
        return "0"
    names = p.ring.names
    degs = p.ring.degrees
    items = sorted(p.terms.items(), key=lambda kv: (mon_deg(kv[0], degs), kv[0]))
    parts = []
    for m, c in items:
        ms = format_monomial(m, names)
        if ms == "1":
            parts.append(str(c))
        elif c == 1:
            parts.append(ms)
        elif c == -1:
            parts.append("-" + ms)
        else:
            parts.append(f"{c}*{ms}")
    s = " + ".join(parts)
    return s.replace("+ -", "- ")

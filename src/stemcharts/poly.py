"""Sparse graded polynomials with hard degree truncation.

Everything downstream (formal group laws, Hopf algebroids, cobar
differentials) is built on commutative polynomial arithmetic over Q in
finitely many weighted generators, truncated above a fixed total degree.
Monomials above the bound are discarded during multiplication; because
degrees are non-negative this truncation is compatible with associativity.

A monomial is a sorted tuple of (generator index, exponent) pairs; a
polynomial is a dict monomial -> coefficient.  Coefficients are ints or
fractions.Fraction (they mix freely).
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


class PolyRing:
    """Weighted polynomial ring Q[g_0, g_1, ...] truncated at `bound`."""

    def __init__(self, names: list[str], degrees: list[int], bound: int):
        if len(names) != len(degrees):
            raise ValueError("names/degrees length mismatch")
        self.names = list(names)
        self.degrees = list(degrees)
        self.bound = bound

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return Poly(self, {ONE: 1})

    def const(self, c) -> "Poly":
        return Poly(self, {ONE: c} if c else {})

    def gen(self, i: int) -> "Poly":
        if self.degrees[i] > self.bound:
            return self.zero()
        return Poly(self, {((i, 1),): 1})

    def monomial(self, m: Monomial, c=1) -> "Poly":
        if c == 0 or mon_deg(m, self.degrees) > self.bound:
            return self.zero()
        return Poly(self, {m: c})

    def monomials_of_degree(self, d: int) -> list[Monomial]:
        """All monomials of exact weighted degree d, sorted."""
        out: list[Monomial] = []

        def rec(i: int, rem: int, acc: list[tuple[int, int]]):
            if rem == 0:
                out.append(tuple(acc))
                return
            if i >= len(self.degrees):
                return
            rec(i + 1, rem, acc)
            w = self.degrees[i]
            if w <= 0:
                raise ValueError("generator of non-positive degree")
            e = 1
            while w * e <= rem:
                acc.append((i, e))
                rec(i + 1, rem - w * e, acc)
                acc.pop()
                e += 1

        rec(0, d, [])
        return sorted(out)


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

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

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

"""Field descriptors, Milnor K-theory and Witt-ring data.

The catalog gives closed-form answers per field variant; each rule is
backed by an independent brute-force oracle on small instances (Steinberg
symbol quotients for K_2 of finite fields, quadratic-form enumeration for
Witt data).  Values for variants that cannot be enumerated (real closed,
quadratically closed) come from rank/signature classification oracles over
formal square-class data.  The F_q oracle, `SmallFiniteField`, holds an
element of F_q = F_p[x]/(f), q = p^e, as its tuple of e coefficients over
F_p (constant term first); one remainder by a monic polynomial serves both
its product and the search for f.  `steinberg_k1` measures the exponent
of F_q^x rather than assuming the group cyclic.

A custom field's tables are held as what they describe: degree ->
`AbGroupDesc`, a `WittData`, or int mappings with INF allowed.  They are
parsed once, by `FieldDescriptor.from_json`, and shared read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from math import gcd
from typing import Optional

from .charts import (AbGroupDesc, INF, _is_int, _is_prime_power, cyclic,
                     free_group, valuation)

DIVISIBLE = AbGroupDesc(divisible=True)
VARIANTS = ("finite", "algebraically_closed", "real_closed", "complex_like",
            "cyclotomic_tower", "custom")


class FieldError(Exception):
    pass


def _prime_and_exponent(q) -> tuple[int, int]:
    """(p, e) with q = p^e; FieldError unless q is a prime power."""
    pe = _is_prime_power(q) if _is_int(q) else None
    if pe is None:
        raise FieldError(f"{q} is not a prime power")
    return pe


def _table(obj: dict, parse=lambda v: v) -> dict:
    """{int(key): parse(value)} of a checked JSON object, by increasing key."""
    return {int(k): parse(obj[k]) for k in sorted(obj, key=int)}


def _groups(obj: dict) -> dict[int, AbGroupDesc]:
    return _table(obj, lambda group: AbGroupDesc(**group))


def _table_json(table: dict, encode=lambda v: v) -> dict:
    return {str(k): encode(v) for k, v in table.items()}


@dataclass
class WittData:
    gw: AbGroupDesc
    w: AbGroupDesc
    fundamental: dict[int, AbGroupDesc]   # I^n for n >= 1
    km_mod2: dict[int, AbGroupDesc]       # I^n/I^{n+1} = k^M_n

    def to_json(self) -> dict:
        return {"GW": self.gw.to_json(), "W": self.w.to_json(),
                "I": _table_json(self.fundamental, AbGroupDesc.to_json),
                "k": _table_json(self.km_mod2, AbGroupDesc.to_json)}

    @staticmethod
    def from_json(obj: dict) -> "WittData":
        return WittData(gw=AbGroupDesc(**obj["GW"]), w=AbGroupDesc(**obj["W"]),
                        fundamental=_groups(obj.get("I", {})),
                        km_mod2=_groups(obj.get("k", {})))


_SCALARS = ("name", "q", "char", "base_name", "tower_prime")  # JSON as is


@dataclass(frozen=True)
class FieldDescriptor:
    variant: str                      # one of VARIANTS
    name: str = ""
    q: Optional[int] = None           # finite(q)
    char: int = 0
    base_name: Optional[str] = None   # cyclotomic tower base (catalog key)
    tower_prime: Optional[int] = None
    km_table: Optional[dict[int, AbGroupDesc]] = None   # degree -> K^M_n
    witt_table: Optional[WittData] = None
    kmw_table: Optional[dict[int, AbGroupDesc]] = None  # degree -> K^MW_n
    roots: Optional[dict[int, object]] = None           # p -> n or INF
    km_mod_p_dims: Optional[dict[int, dict[int, object]]] = None  # p -> degree -> dim

    def __post_init__(self):
        if self.variant == "finite":
            _prime_and_exponent(self.q)

    def describe(self) -> str:
        if self.variant == "finite":
            return f"F_{self.q}"
        return self.name or self.variant

    def characteristic(self) -> int:
        if self.variant == "finite":
            return _prime_and_exponent(self.q)[0]
        return self.char

    def roots_of_unity(self, p: int):
        """Largest n with mu_{p^n} in the field (INF marker if all)."""
        ch = self.characteristic()
        if p == ch:
            return 0
        if self.variant == "finite":
            return valuation(self.q - 1, p)
        if self.variant in ("algebraically_closed", "complex_like"):
            return INF
        if self.variant == "real_closed":
            return 1 if p == 2 else 0
        if self.variant == "cyclotomic_tower" and p == self.tower_prime:
            return INF
        return (self.roots or {}).get(p, 0)

    def tate_orientable(self, p: int) -> bool:
        return self.characteristic() != p and self.roots_of_unity(p) == INF

    def to_json(self) -> dict:
        out = {"variant": self.variant}
        for key in _SCALARS:
            v = getattr(self, key)
            if v not in (None, "", 0):
                out[key] = v
        if self.km_table is not None:
            out["km_table"] = _table_json(self.km_table, AbGroupDesc.to_json)
        if self.witt_table is not None:
            out["witt_table"] = self.witt_table.to_json()
        if self.kmw_table is not None:
            out["kmw_table"] = _table_json(self.kmw_table, AbGroupDesc.to_json)
        if self.roots is not None:
            out["roots_of_unity"] = _table_json(self.roots)
        if self.km_mod_p_dims is not None:
            out["km_mod_p_dims"] = _table_json(self.km_mod_p_dims, _table_json)
        return out

    @staticmethod
    def from_json(obj: dict) -> "FieldDescriptor":
        """Parse `to_json`'s schema (`schema.FIELD`, checked by the caller);
        a finite field's q that is not a prime power raises FieldError."""
        def table(key, parse):
            return parse(obj[key]) if key in obj else None

        return FieldDescriptor(
            **{key: obj[key] for key in ("variant", *_SCALARS) if key in obj},
            km_table=table("km_table", _groups),
            witt_table=table("witt_table", WittData.from_json),
            kmw_table=table("kmw_table", _groups),
            roots=table("roots_of_unity", _table),
            km_mod_p_dims=table("km_mod_p_dims", lambda t: _table(t, _table)),
        )


def finite_field(q: int) -> FieldDescriptor:
    return FieldDescriptor("finite", q=q, name=f"F_{q}")


def algebraically_closed(char: int = 0) -> FieldDescriptor:
    return FieldDescriptor("algebraically_closed", char=char,
                           name=f"algclosed_char{char}")


def real_closed() -> FieldDescriptor:
    return FieldDescriptor("real_closed", name="real_closed")


def complex_like() -> FieldDescriptor:
    return FieldDescriptor("complex_like", name="complex")


# ---------------------------------------------------------------------------
# Milnor K-theory

def milnor_k(k: FieldDescriptor, n_max: int) -> dict[int, AbGroupDesc]:
    """K^M_n(k) for 0 <= n <= n_max; absent degrees are zero."""
    out: dict[int, AbGroupDesc] = {0: free_group(1)}
    if k.variant == "finite":
        if n_max >= 1:
            out[1] = cyclic(k.q - 1)
        return out
    if k.variant in ("algebraically_closed", "complex_like"):
        for n in range(1, n_max + 1):
            out[n] = DIVISIBLE
        return out
    if k.variant == "real_closed":
        for n in range(1, n_max + 1):
            out[n] = AbGroupDesc(torsion=(2,), divisible=True)
        return out
    if k.km_table is not None:
        out.update((n, g) for n, g in k.km_table.items() if 0 <= n <= n_max)
        return out
    raise FieldError(
        f"no Milnor K-theory rule for {k.describe()} (custom table required)")


def km_mod_p(k: FieldDescriptor, p: int, n_max: int) -> dict[int, object]:
    """Dimensions of K^M_n(k)/p over F_p (INF marker allowed)."""
    table = (k.km_mod_p_dims or {}).get(p)
    if table is not None:
        return {n: d for n, d in table.items() if n <= n_max}
    km = milnor_k(k, n_max)
    out: dict[int, object] = {}
    for n, g in km.items():
        if g.divisible:
            # the divisible summand has trivial mod-p reduction; recorded
            # torsion orders are honest direct summands and do contribute
            dim = len([q for q in g.torsion if q % p == 0])
        else:
            dim = (0 if g.free_rank == 0 else g.free_rank)
            if dim != INF:
                dim += len([q for q in g.torsion if q % p == 0])
            if g.torsion_infinite and any(q % p == 0 for q in g.torsion_infinite):
                dim = INF
        if dim:
            out[n] = dim
    return out


# ---------------------------------------------------------------------------
# Witt data

def witt_data(k: FieldDescriptor, n_max: int = 6) -> WittData:
    if k.characteristic() == 2:
        raise FieldError("Witt data requires characteristic != 2")
    if k.variant in ("algebraically_closed", "complex_like"):
        return WittData(
            gw=free_group(1), w=cyclic(2),
            fundamental={n: AbGroupDesc() for n in range(1, n_max + 1)},
            km_mod2={0: cyclic(2)},
        )
    if k.variant == "real_closed":
        return WittData(
            gw=free_group(2), w=free_group(1),
            fundamental={n: free_group(1) for n in range(1, n_max + 1)},
            km_mod2={n: cyclic(2) for n in range(0, n_max + 1)},
        )
    if k.variant == "finite":
        q = k.q
        w = AbGroupDesc(torsion=(2, 2)) if q % 4 == 1 else cyclic(4)
        fund = {1: cyclic(2)}
        fund.update({n: AbGroupDesc() for n in range(2, n_max + 1)})
        return WittData(
            gw=AbGroupDesc(free_rank=1, torsion=(2,)), w=w,
            fundamental=fund,
            km_mod2={0: cyclic(2), 1: cyclic(2)},
        )
    if k.witt_table is not None:
        return k.witt_table
    raise FieldError(f"no Witt rule for {k.describe()} (custom table required)")


# ---------------------------------------------------------------------------
# oracles: Steinberg symbol quotient and quadratic-form enumeration

class SmallFiniteField:
    """F_q = F_p[x]/(f), f the first monic polynomial of degree e (by its
    coefficients, constant term first, in lexicographic order) with no
    monic factor of degree <= e/2.  An element is its tuple of e
    coefficients, constant term first; `elements` lists them in
    lexicographic order, zero first."""

    def __init__(self, q: int):
        self.p, self.e = _prime_and_exponent(q)
        self.q = q
        p, e = self.p, self.e

        def monic(d):
            return (tail + (1,) for tail in product(range(p), repeat=d))
        self.modpoly = next(f for f in monic(e)
                            if all(any(self._rem(f, g))
                                   for d in range(1, e // 2 + 1)
                                   for g in monic(d)))
        self.elements = list(product(range(p), repeat=e))
        self._one = (1,) + (0,) * (e - 1)

    def _rem(self, a, f):
        """a mod the monic polynomial f, as len(f) - 1 coefficients."""
        p, n = self.p, len(f) - 1
        r = list(a)
        for k in range(len(r) - 1, n - 1, -1):
            c = r[k] % p
            if c:
                r[k - n:k] = [x - c * y for x, y in zip(r[k - n:k], f)]
        return tuple([x % p for x in r[:n]])

    def mul(self, a, b):
        out = [0] * (2 * self.e - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return self._rem(out, self.modpoly)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.p for x in a)

    def zero(self):
        return self.elements[0]

    def one(self):
        return self._one

    def units(self):
        return self.elements[1:]

    def unit_order(self, g) -> int:
        """The multiplicative order of the unit g."""
        seen = g
        order = 1
        while seen != self._one:
            seen = self.mul(seen, g)
            order += 1
            if order > self.q - 1:
                raise FieldError("order overflow")
        return order

    def multiplicative_generator(self):
        for g in self.units():
            if self.unit_order(g) == self.q - 1:
                return g
        raise FieldError("no generator found")


def steinberg_k2(q: int) -> int:
    """Order of K_2^M(F_q) computed from the Steinberg-relation quotient.

    F_q^x is cyclic of order m, so the second exterior-style quotient is
    Z/m modulo the subgroup generated by dlog(a) * dlog(1-a).
    """
    F = SmallFiniteField(q)
    m = q - 1
    if m == 1:
        return 1
    g = F.multiplicative_generator()
    dlog = {}
    acc = F.one()
    for i in range(m):
        dlog[acc] = i
        acc = F.mul(acc, g)
    d = m
    one = F.one()
    for a in F.units():
        if a == one:
            continue
        b = F.add(one, F.neg(a))  # 1 - a
        if b == F.zero():
            continue
        rel = (dlog[a] * dlog[b]) % m
        d = gcd(d, rel)
    return d


def steinberg_k1(q: int) -> int:
    """The exponent of F_q^x in SmallFiniteField(q), the largest
    multiplicative order of a unit: q - 1 exactly when the group is
    cyclic, as K_1(F_q) = F_q^x is."""
    F = SmallFiniteField(q)
    return max(F.unit_order(g) for g in F.units())


class SquareClassModel:
    """Quadratic-form arithmetic over a field given by square-class data.

    `classes` are square-class labels; `binary_isotropic(a, b)` decides
    whether a x^2 + b y^2 represents zero nontrivially; `product(a, b)` is
    the square class of a*b; `represents(a, b, c)` whether the binary form
    represents the class c; `minus_one` the class of -1.  Witt reduction of
    diagonal forms: cancel visibly isotropic pairs, and for dimension >= 3
    rewrite an anisotropic pair <a, b> as the equivalent <c, c*d> (c a
    represented class, d the discriminant) to expose a cancellation.
    """

    def __init__(self, classes, binary_isotropic, product, represents,
                 minus_one):
        self.classes = list(classes)
        self.binary_isotropic = binary_isotropic
        self.product = product
        self.represents = represents
        self.minus_one = minus_one

    def _cancel_pair(self, form: list) -> bool:
        for i in range(len(form)):
            for j in range(i + 1, len(form)):
                if self.binary_isotropic(form[i], form[j]):
                    del form[j], form[i]
                    return True
        return False

    def reduce(self, form: tuple) -> tuple:
        form = list(form)
        while len(form) >= 2:
            if self._cancel_pair(form):
                continue
            if len(form) < 3:
                break
            # look for i < j, k with <f_i, f_j> representing -f_k; rewriting
            # <f_i, f_j> ~ <-f_k, -f_k * d> then exposes an isotropic pair
            progressed = False
            n = len(form)
            for i in range(n):
                for j in range(i + 1, n):
                    for k in range(n):
                        if k in (i, j):
                            continue
                        c = self.product(form[k], self.minus_one)
                        if self.represents(form[i], form[j], c):
                            d = self.product(form[i], form[j])
                            form[i] = c
                            form[j] = self.product(c, d)
                            progressed = True
                            break
                    if progressed:
                        break
                if progressed:
                    break
            if not progressed:
                break
        return self.canonical(tuple(sorted(form)))

    def canonical(self, form: tuple) -> tuple:
        """Canonical representative among equivalent anisotropic forms.

        Binary anisotropic forms with equal discriminant that represent a
        common class are equivalent; pick the lexicographically least."""
        if len(form) != 2:
            return form
        a, b = form
        d = self.product(a, b)
        best = form
        for x in sorted(self.classes):
            y = self.product(x, d)
            cand = tuple(sorted((x, y)))
            if cand >= best:
                continue
            if self.binary_isotropic(x, y):
                continue
            # equivalence requires a commonly represented class
            if any(self.represents(a, b, c) and self.represents(x, y, c)
                   for c in self.classes):
                best = cand
        return best


def finite_field_square_model(q: int) -> SquareClassModel:
    """Actual enumeration model for F_q, q odd."""
    F = SmallFiniteField(q)
    if F.p == 2:
        raise FieldError("Witt enumeration needs odd characteristic")
    squares = {F.mul(x, x) for x in F.units()}
    one = F.one()
    u = next(x for x in sorted(F.units()) if x not in squares)

    def cls(x):
        return "1" if x in squares else "u"

    reps = {"1": one, "u": u}
    vcache: dict[tuple, set] = {}

    def value_set(a_lbl, b_lbl):
        key = (a_lbl, b_lbl)
        if key not in vcache:
            # a x^2 + b y^2 over (x, y) != (0, 0); elements[0] is zero
            ax2, by2 = ([F.mul(c, F.mul(x, x)) for x in F.elements]
                        for c in (reps[a_lbl], reps[b_lbl]))
            vcache[key] = {F.add(u, v) for i, u in enumerate(ax2)
                           for j, v in enumerate(by2) if i or j}
        return vcache[key]

    def binary_isotropic(a_lbl, b_lbl):
        return F.zero() in value_set(a_lbl, b_lbl)

    def product(a_lbl, b_lbl):
        return cls(F.mul(reps[a_lbl], reps[b_lbl]))

    def represents(a_lbl, b_lbl, c_lbl):
        vals = value_set(a_lbl, b_lbl)
        return any(v != F.zero() and cls(v) == c_lbl for v in vals)

    return SquareClassModel(["1", "u"], binary_isotropic, product,
                            represents, cls(F.neg(one)))


def real_closed_square_model() -> SquareClassModel:
    def binary_isotropic(a, b):
        return a != b  # opposite signs split off a hyperbolic plane

    def product(a, b):
        return "+" if a == b else "-"

    def represents(a, b, c):
        # definite forms represent exactly their sign
        if a == b:
            return c == a
        return True

    return SquareClassModel(["+", "-"], binary_isotropic, product,
                            represents, "-")


def quadratically_closed_square_model() -> SquareClassModel:
    return SquareClassModel(["1"], lambda a, b: True, lambda a, b: "1",
                            lambda a, b, c: True, "1")


def witt_group_table(model: SquareClassModel, max_dim: int = 4):
    """Witt classes of diagonal forms of dimension <= max_dim, with the
    addition table computed by reduction of orthogonal sums."""
    reps = [()]
    seen = {()}
    for d in range(1, max_dim + 1):
        for combo in combinations_with_replacement(sorted(model.classes), d):
            red = model.reduce(tuple(combo))
            if red not in seen:
                seen.add(red)
                reps.append(red)
    addition = {}
    for r1 in reps:
        for r2 in reps:
            addition[(r1, r2)] = model.reduce(tuple(sorted(r1 + r2)))
    return reps, addition


def element_order(rep, addition, reps) -> int:
    acc = rep
    n = 1
    while acc != ():
        acc = addition[(acc, rep)]
        n += 1
        if n > len(reps) + 2:
            raise FieldError("order computation overflow")
    return n

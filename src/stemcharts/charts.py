"""Bigraded abelian-group charts with Chow-degree bookkeeping.

An AbGroupDesc is a finitely-generated-style descriptor: a free rank (finite
or the countably-infinite marker), a multiset of prime-power torsion orders,
optional precision and completion flags, and a divisibility marker for the
large unit groups showing up in K-theory.  Absent chart entries mean the
zero group; zero descriptors are never stored.

`valuation` is the package's one p-adic valuation: every exponent of a
prime in an integer (Smith pivots, Ext^1 orders, roots of unity in F_q,
prime-power tests) is read through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

INF = "inf"  # countably-infinite marker for ranks and multiplicities


def _is_int(x) -> bool:
    """An int that is not a bool (JSON's true and false read as bools)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _json_object(obj: object, what: str) -> dict:
    """obj, if it is a JSON object; else a ValueError naming its type."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} is a {type(obj).__name__}, not an object")
    return obj


def _json_list(obj: object, what: str) -> list:
    """obj, if it is a JSON array; else a ValueError naming its type."""
    if not isinstance(obj, list):
        raise ValueError(f"{what} is a {type(obj).__name__}, not a list")
    return obj


def _int_key(key: str, what: str) -> int:
    """A JSON object key that spells an integer, as an int; else a
    ValueError naming the key."""
    try:
        return int(key)
    except ValueError:
        raise ValueError(f"{what} key {key!r} is not an integer") from None


def _check_keys(obj: object, schema: Iterable[str], what: str,
                required: Iterable[str] = ()) -> None:
    """ValueError unless obj is a JSON object with every key of `required`
    and none outside `schema`; the message names the wrong type or key."""
    if set(_json_object(obj, what)) - set(schema):
        raise ValueError(f"unknown {what} keys {sorted(set(obj) - set(schema))}")
    for key in required:
        if key not in obj:
            raise ValueError(f"{what} without {key!r}")


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve prime bases: exact below 3.3e24."""
    if n < 2 or n in _SMALL_PRIMES or any(n % b == 0 for b in _SMALL_PRIMES):
        return n in _SMALL_PRIMES
    s = valuation(n - 1, 2)
    d = (n - 1) >> s
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 2 ** r, n) != n - 1 for r in range(s)):
            return False
    return True


def _integer_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def valuation(n: int, p: int) -> int:
    """The exponent of the prime p in the integer n, which must be nonzero
    (the loop never ends at n = 0)."""
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def _is_prime_power(n: int) -> Optional[tuple[int, int]]:
    """(p, k) with n = p^k and p prime, else None.

    A prime factor below 41 is divided out.  Otherwise n = p^k with
    p >= 41 > 2^5, so k <= n.bit_length() / 5 and p is the exact k-th root
    of n: a few integer roots and primality tests decide it without
    factoring n.
    """
    if n < 2:
        return None
    for b in _SMALL_PRIMES:
        if n % b == 0:
            k = valuation(n, b)
            return (b, k) if n == b ** k else None
    for k in range(1, n.bit_length() // 5 + 1):
        r = _integer_root(n, k)
        if r ** k == n and _is_prime(r):
            return (r, k)
    return None


def add_ranks(a, b):
    if a == INF or b == INF:
        return INF
    return a + b


def mul_rank(a, m):
    if a == 0 or m == 0:
        return 0
    if a == INF or m == INF:
        return INF
    return a * m


@dataclass(frozen=True)
class AbGroupDesc:
    """Descriptor of a f.g.-style abelian group Z^r (+) sum Z/p^k."""

    free_rank: object = 0                      # int >= 0 or INF
    torsion: tuple[int, ...] = ()              # sorted prime-power orders
    torsion_infinite: tuple[int, ...] = ()     # orders with countably many copies
    modulus_precision: Optional[int] = None    # orders certified below p^K only
    completed_at: Optional[int] = None         # free part means Z_p, not Z
    divisible: bool = False                    # carries a divisible summand

    def __post_init__(self):
        if self.free_rank != INF and (not _is_int(self.free_rank)
                                      or self.free_rank < 0):
            raise ValueError(f"bad free rank {self.free_rank!r}")
        for q in tuple(self.torsion) + tuple(self.torsion_infinite):
            if _is_prime_power(q) is None:
                raise ValueError(f"torsion order {q} is not a prime power")
        object.__setattr__(self, "torsion", tuple(sorted(self.torsion)))
        object.__setattr__(self, "torsion_infinite",
                           tuple(sorted(set(self.torsion_infinite))))
        if self.modulus_precision is not None:
            for q in self.torsion + self.torsion_infinite:
                p, k = _is_prime_power(q)
                if k >= self.modulus_precision:
                    raise ValueError("modulus_precision must exceed exponents")

    def is_zero(self) -> bool:
        return (self.free_rank == 0 and not self.torsion
                and not self.torsion_infinite and not self.divisible)

    def same_group(self, other: "AbGroupDesc") -> bool:
        """Equality of the groups described, ignoring precision bookkeeping."""
        return (self.free_rank == other.free_rank
                and self.torsion == other.torsion
                and self.torsion_infinite == other.torsion_infinite
                and self.completed_at == other.completed_at
                and self.divisible == other.divisible)

    def order(self):
        """Order of the group; INF if infinite."""
        if self.free_rank != 0 or self.divisible or self.torsion_infinite:
            return INF
        out = 1
        for q in self.torsion:
            out *= q
        return out

    def direct_sum(self, other: "AbGroupDesc") -> "AbGroupDesc":
        # precision propagates pessimistically: min of declared precisions,
        # floored so that orders certified at construction stay recorded
        precs = [x for x in (self.modulus_precision, other.modulus_precision)
                 if x is not None]
        prec = min(precs) if precs else None
        if prec is not None:
            for q in self.torsion + other.torsion + self.torsion_infinite \
                    + other.torsion_infinite:
                _, k = _is_prime_power(q)
                prec = max(prec, k + 1)
        if self.free_rank == 0:
            comp = other.completed_at
        elif other.free_rank == 0:
            comp = self.completed_at
        else:
            comp = self.completed_at if self.completed_at == other.completed_at else None
        return AbGroupDesc(
            free_rank=add_ranks(self.free_rank, other.free_rank),
            torsion=tuple(sorted(self.torsion + other.torsion)),
            torsion_infinite=tuple(sorted(set(self.torsion_infinite)
                                          | set(other.torsion_infinite))),
            modulus_precision=prec,
            completed_at=comp,
            divisible=self.divisible or other.divisible,
        )

    def scaled(self, mult) -> "AbGroupDesc":
        """Direct sum of `mult` copies (mult a natural number or INF)."""
        if mult == 0:
            return AbGroupDesc()
        if mult == INF:
            return AbGroupDesc(
                free_rank=INF if self.free_rank != 0 else 0,
                torsion=(),
                torsion_infinite=tuple(sorted(set(self.torsion)
                                              | set(self.torsion_infinite))),
                modulus_precision=self.modulus_precision,
                completed_at=self.completed_at,
                divisible=self.divisible,
            )
        return AbGroupDesc(
            free_rank=mul_rank(self.free_rank, mult),
            torsion=tuple(sorted(self.torsion * mult)),
            torsion_infinite=self.torsion_infinite,
            modulus_precision=self.modulus_precision,
            completed_at=self.completed_at,
            divisible=self.divisible,
        )

    def to_json(self) -> dict:
        out: dict = {"free_rank": self.free_rank, "torsion": list(self.torsion)}
        if self.torsion_infinite:
            out["torsion_infinite"] = list(self.torsion_infinite)
        if self.modulus_precision is not None:
            out["modulus_precision"] = self.modulus_precision
        if self.completed_at is not None:
            out["completed_at"] = self.completed_at
        if self.divisible:
            out["divisible"] = True
        return out

    @staticmethod
    def from_json(obj: dict) -> "AbGroupDesc":
        """Parse `to_json`'s schema; a key outside it, or a value of the
        wrong JSON type, raises a ValueError naming the key."""
        _check_keys(obj, _GROUP_JSON, "group")
        for key, value in obj.items():
            need, ok = _GROUP_JSON[key]
            if not ok(value):
                raise ValueError(f"group {key!r} is not {need}: {value!r}")
        return AbGroupDesc(
            free_rank=obj.get("free_rank", 0),
            torsion=tuple(obj.get("torsion", ())),
            torsion_infinite=tuple(obj.get("torsion_infinite", ())),
            modulus_precision=obj.get("modulus_precision"),
            completed_at=obj.get("completed_at"),
            divisible=obj.get("divisible", False),
        )

    def shorthand(self) -> str:
        """Compact cell text: '.', 'Z', 'Z^2', 'Zp', '9', 'Z(+)3', ..."""
        if self.is_zero():
            return "."
        parts = []
        if self.free_rank != 0:
            sym = f"Z{self.completed_at}" if self.completed_at else "Z"
            if self.free_rank == 1:
                parts.append(sym)
            else:
                parts.append(f"{sym}^{self.free_rank}")
        if self.divisible:
            parts.append("div")
        for q in self.torsion:
            parts.append(str(q))
        for q in self.torsion_infinite:
            parts.append(f"{q}^inf")
        return "(+)".join(parts)


# AbGroupDesc JSON key -> (what its value must be, the test of that)
_INTS = ("a list of integers", lambda v: isinstance(v, list) and all(map(_is_int, v)))
_GROUP_JSON = {
    "free_rank": ('an integer or "inf"', lambda v: v == INF or _is_int(v)),
    "torsion": _INTS, "torsion_infinite": _INTS,
    "modulus_precision": ("an integer or null", lambda v: v is None or _is_int(v)),
    "completed_at": ("an integer or null", lambda v: v is None or _is_int(v)),
    "divisible": ("a boolean", lambda v: isinstance(v, bool)),
}

ZERO_GROUP = AbGroupDesc()


def free_group(rank=1, completed_at: Optional[int] = None) -> AbGroupDesc:
    return AbGroupDesc(free_rank=rank, completed_at=completed_at)


def cyclic(q: int) -> AbGroupDesc:
    """Z/q as a descriptor; q is factored into prime powers."""
    factors: dict[int, int] = {}
    n = q
    for p in _SMALL_PRIMES:
        if n > 1 and n % p == 0:
            factors[p] = valuation(n, p)
            n //= p ** factors[p]
    _factor_into(n, factors)
    return AbGroupDesc(torsion=tuple(sorted(p ** k for p, k in factors.items())))


def _factor_into(n: int, factors: dict[int, int]) -> None:
    """Add the prime factorization of n (no prime factor below 41) to factors:
    a prime power is recognised by `_is_prime_power`, anything else is split
    by Pollard's rho."""
    if n < 2:
        return
    pk = _is_prime_power(n)
    if pk:
        factors[pk[0]] = factors.get(pk[0], 0) + pk[1]
        return
    d = _pollard_rho(n)
    _factor_into(d, factors)
    _factor_into(n // d, factors)


def _pollard_rho(n: int) -> int:
    """A proper divisor of n, which is odd, composite and not a prime power
    (Floyd cycle finding on x -> x^2 + c, with c = 1, 2, ... until one
    splits n)."""
    c = 0
    while True:
        c += 1
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(x - y, n)
        if d != n:
            return d


def sum_groups(pairs) -> dict:
    """{position: direct sum of the groups at it} of (position, group)
    pairs, in first-seen order; zero groups are skipped."""
    out: dict = {}
    for pos, g in pairs:
        if not g.is_zero():
            cur = out.get(pos)
            out[pos] = g if cur is None else cur.direct_sum(g)
    return out


def complete_desc(g: AbGroupDesc, p: int) -> AbGroupDesc:
    """Naive p-completion on descriptors.

    Free rank r of Z becomes rank r of Z_p; torsion coprime to p is removed;
    divisible summands die (their p-completion vanishes).
    """
    return AbGroupDesc(
        free_rank=g.free_rank,
        torsion=tuple(q for q in g.torsion if q % p == 0),
        torsion_infinite=tuple(q for q in g.torsion_infinite if q % p == 0),
        modulus_precision=g.modulus_precision,
        completed_at=p if g.free_rank != 0 else None,
        divisible=False,
    )


# ---------------------------------------------------------------------------
# weight functions

def chow_weight() -> Callable[[int], int]:
    """The Chow weight n -> 2n."""
    return lambda n: 2 * n


def fd_weight(d: int) -> Callable[[int], int]:
    """The weight f_d: n -> 2n + eps_d(n), eps_d(n) = (-n) mod d, for d > 0."""
    if d is None or d <= 0:
        raise ValueError("fd weight needs d > 0")
    return lambda n: 2 * n + (-n) % d


def custom_weight(table: dict[int, int]) -> Callable[[int], int]:
    """The weight n -> table[n], defined on the table's keys only."""
    if not table:
        raise ValueError("custom weight needs a table")
    table = dict(table)

    def weight(n: int) -> int:
        if n not in table:
            raise KeyError(f"custom weight queried outside its window at {n}")
        return table[n]
    return weight


def is_superadditive(f: Callable[[int], int], window: int = 50) -> bool:
    """f(a)+f(b) >= f(a+b) and f(0)=0 on |a|,|b| <= window."""
    if f(0) != 0:
        return False
    r = range(-window, window + 1)
    return all(fa + f(b) >= f(a + b) for a, fa in zip(r, map(f, r)) for b in r)


def chow_degree(i: int, j: int) -> int:
    return i - 2 * j


# ---------------------------------------------------------------------------
# charts

class ChartError(Exception):
    pass


class BigradedChart:
    """Sparse immutable map (i, j) -> AbGroupDesc; absent entries are zero."""

    def __init__(self, entries: dict[tuple[int, int], AbGroupDesc] | None = None,
                 label: str = "", prime: Optional[int] = None):
        self._entries = {}
        if entries:
            for (i, j), g in entries.items():
                if not isinstance(g, AbGroupDesc):
                    raise TypeError("chart entries must be AbGroupDesc")
                if not g.is_zero():
                    self._entries[(int(i), int(j))] = g
        self.label = label
        self.prime = prime

    @property
    def entries(self) -> dict[tuple[int, int], AbGroupDesc]:
        return dict(self._entries)

    def group(self, i: int, j: int) -> AbGroupDesc:
        return self._entries.get((i, j), ZERO_GROUP)

    def support(self) -> list[tuple[int, int]]:
        return sorted(self._entries, key=lambda ij: (ij[1], ij[0]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BigradedChart):
            return NotImplemented
        return self._entries == other._entries

    def to_json(self) -> dict:
        entries = []
        for (i, j) in self.support():
            ent = {"i": i, "j": j}
            ent.update(self._entries[(i, j)].to_json())
            entries.append(ent)
        return {"label": self.label, "prime": self.prime, "entries": entries}

    @staticmethod
    def from_json(obj: dict) -> "BigradedChart":
        """Parse `to_json`'s schema (other top-level keys are ignored); an
        entry without "i" or "j" or with a key outside the group schema, a
        label that is not a string and a prime that is neither null nor a
        prime raise ValueError."""
        label, prime = _json_object(obj, "chart").get("label", ""), obj.get("prime")
        if not isinstance(label, str):
            raise ValueError(f"chart 'label' is not a string: {label!r}")
        if prime is not None and not (_is_int(prime) and _is_prime(prime)):
            raise ValueError(f"chart 'prime' is not null or a prime: {prime!r}")
        entries = {}
        for ent in _json_list(obj.get("entries", []), "chart 'entries'"):
            _check_keys(ent, ("i", "j", *_GROUP_JSON), "chart entry",
                        required=("i", "j"))
            for key in ("i", "j"):
                if not _is_int(ent[key]):
                    raise ValueError(f"chart entry {key!r} is not an integer: "
                                     f"{ent[key]!r}")
            entries[(ent["i"], ent["j"])] = AbGroupDesc.from_json(
                {k: v for k, v in ent.items() if k not in ("i", "j")})
        return BigradedChart(entries, label, prime)


def truncate_chart(c: BigradedChart, f: Callable[[int], int], threshold: int,
                   mode: str) -> BigradedChart:
    """Keep entry (i, j) iff i - f(j) satisfies `mode` against threshold."""
    if mode not in ("ge", "lt", "eq"):
        raise ValueError(f"unknown truncation mode {mode!r}")
    out = {}
    for (i, j), g in c.entries.items():
        v = i - f(j)
        keep = (v >= threshold) if mode == "ge" else \
               (v < threshold) if mode == "lt" else (v == threshold)
        if keep:
            out[(i, j)] = g
    return BigradedChart(out, c.label, c.prime)


def chart_sum(a: BigradedChart, b: BigradedChart) -> BigradedChart:
    """The direct sum of two charts; their primes, where set, must agree."""
    if a.prime is not None and b.prime is not None and a.prime != b.prime:
        raise ChartError(f"prime mismatch: {a.prime} vs {b.prime}")
    out = sum_groups([*a.entries.items(), *b.entries.items()])
    return BigradedChart(out, a.label or b.label, a.prime or b.prime)


def chart_shift(c: BigradedChart, di: int, dj: int) -> BigradedChart:
    """c with every entry moved by (di, dj)."""
    return BigradedChart({(i + di, j + dj): g for (i, j), g in c.entries.items()},
                         c.label, c.prime)


def complete_chart(c: BigradedChart, p: int) -> BigradedChart:
    out = {ij: complete_desc(g, p) for ij, g in c.entries.items()}
    return BigradedChart(out, c.label, p)


def charts_same_groups(a: BigradedChart, b: BigradedChart) -> bool:
    """Entrywise group equality, ignoring precision bookkeeping."""
    keys = set(a.entries) | set(b.entries)
    return all(a.group(*k).same_group(b.group(*k)) for k in keys)

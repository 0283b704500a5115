"""The elementary-divisor Ext engine against golden charts and two oracles.

Golden files in tests/golden/ hold `json.dumps(ec.to_json(), indent=1)`
(plus a newline) of charts computed by the kernel/subquotient engine that
preceded the elementary-divisor one (ext_p3_t48.json by the elementary-
divisor engine before the sparse builder and the F_p rank shortcut,
ext_p2_t22.json by the engine before the modulus ladder, ext_p2_t24.json
by the engine before the pivot cancellation), and the grid output of
`stemcharts ext --prime 3 --tmax 24 --format grid`; they must be reproduced
byte for byte.  The oracles are sympy's Smith normal form over Z (for
`zpk.elementary_divisors`), the kernel/subquotient computation over
Z/p^(2K) with its image at p^K (for `ext_chart`), and complexes with
planted divisors (for the pivot cancellation).
"""

import hashlib
import heapq
import json
import os
import random
import re
import weakref
from fractions import Fraction

import pytest

from stemcharts import cli, cobar, extcharts
from stemcharts.cobar import CobarComplex, CobarError, EngineError
from stemcharts.extcharts import PrecisionExhausted, ext1_exponent, ext_chart
from stemcharts.hopf import build_algebroid
from stemcharts.zpk import SmithForm, elementary_divisors, subquotient_structure

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


@pytest.mark.parametrize("name,p,t_max,normalized", [
    ("ext_p3_t36.json", 3, 36, True),
    ("ext_p2_t16.json", 2, 16, True),
    ("ext_p5_t60.json", 5, 60, True),
    ("ext_p3_t18_unnormalized.json", 3, 18, False),
    ("ext_p3_t48.json", 3, 48, True),
    ("ext_p2_t22.json", 2, 22, True),
    ("ext_p2_t24.json", 2, 24, True),
])
def test_golden_chart(name, p, t_max, normalized):
    alg = build_algebroid("p_typical", (t_max + 1) // 2, p=p)
    ec = ext_chart(alg, p, 10, 6, t_max, normalized=normalized)
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        assert json.dumps(ec.to_json(), indent=1) + "\n" == fh.read()


def test_golden_chart_p2_t26_digest():
    # sha256 of the golden_chart bytes of the normalized p=2 t<=26 chart,
    # recorded from the engine before the integer-coded cobar keys; no
    # other golden reaches this far
    alg = build_algebroid("p_typical", 13, p=2)
    ec = ext_chart(alg, 2, 10, 6, 26)
    text = json.dumps(ec.to_json(), indent=1) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "2db0a69993f34ef0366c1d9f5a7d021de339589097a06b8cf1c83a97107adbbc"


def test_golden_cli_grid(capsys):
    assert cli.main(["ext", "--prime", "3", "--tmax", "24", "--format", "grid"]) == 0
    with open(os.path.join(GOLDEN, "cli_ext_p3_t24_grid.txt"), encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()


# -- elementary_divisors ----------------------------------------------------

def valuation(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def random_matrix(rng, p, nr, nc):
    """Entries with random p-power factors; some rows zero, some dependent."""
    rows = [[rng.randint(-9, 9) * p ** rng.choice([0, 0, 1, 2, 3]) for _ in range(nc)]
            for _ in range(nr)]
    for i in range(nr):
        if rng.random() < 0.2:
            rows[i] = [0] * nc
        elif i >= 2 and rng.random() < 0.3:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3) * p
            rows[i] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows


def sparse(rows):
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


@pytest.mark.parametrize("seed", range(30))
def test_elementary_divisors_against_sympy(seed):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form
    rng = random.Random(seed)
    p, m = rng.choice([(2, 5), (3, 4), (5, 3)])
    nr, nc = rng.randint(1, 7), rng.randint(1, 7)
    rows = random_matrix(rng, p, nr, nc)
    if not any(any(r) for r in rows):
        expected = []
    else:
        snf = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
        expected = sorted(v for v in (valuation(int(snf[i, i]), p)
                                      for i in range(min(nr, nc)) if snf[i, i])
                          if v < m)
    assert elementary_divisors(sparse([[x % p ** m for x in r] for r in rows]), p, m) \
        == expected


def test_elementary_divisors_against_dense_smith_form():
    rng = random.Random(7)
    for p, m in [(2, 8), (3, 6), (5, 4)]:
        for _ in range(40):
            nr, nc = rng.randint(0, 14), rng.randint(0, 14)
            rows = [[x % p ** m for x in r] for r in random_matrix(rng, p, nr, nc)]
            assert elementary_divisors(sparse(rows), p, m) == \
                SmithForm(rows, p, m, ncols=nc).pivots


def test_elementary_divisors_examples():
    assert elementary_divisors([], 3, 4) == []
    assert elementary_divisors([{}, {0: 81}], 3, 4) == []      # 81 = 0 mod 3^4
    assert elementary_divisors([{0: 9, 1: 3}, {0: 3}], 3, 4) == [1, 1]
    # diag(2, 3) over Z/2^3 has the single divisor 2 and a unit
    assert elementary_divisors([{0: 2}, {1: 3}], 2, 3) == [0, 1]


def test_elementary_divisors_report_unit_pivots():
    # (row, column) of each unit pivot, in elimination order
    assert elementary_divisors([{0: 2}, {1: 3}], 2, 3).units == [(1, 1)]
    assert elementary_divisors([{0: 1, 1: 1}, {0: 1, 1: 2}], 3, 1).units == [(0, 0), (1, 1)]
    assert elementary_divisors([{0: 4}], 2, 2).units == []


def general_elementary_divisors(rows, p, m):
    """The elimination of `zpk.elementary_divisors` with no singleton step:
    every pivot row, one entry or more, clears its column by row operations.
    Returns the exponents, the unit pivots in order, and the number of pivot
    rows with one entry whose column had other holders."""
    mod = p ** m
    live, holders = {}, {}
    for i, row in enumerate(rows):
        red = {c: x % mod for c, x in row.items() if x % mod}
        if red:
            live[i] = red
            for c in red:
                holders.setdefault(c, set()).add(i)
    vals, units, singles = [], [], 0
    pv = 1
    for v in range(m):
        if not live:
            break
        queue = [(len(r), i) for i, r in live.items()]
        heapq.heapify(queue)
        while queue:
            size, i = heapq.heappop(queue)
            prow = live.get(i)
            if prow is None or len(prow) != size:
                continue
            cands = [c for c, x in prow.items() if (x // pv) % p]
            if not cands:
                continue
            j = min(cands, key=lambda c: len(holders[c]))
            singles += size == 1 and len(holders[j]) > 1
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
                    heapq.heappush(queue, (len(row), k))
                else:
                    del live[k]
            for c in prow:
                if c != j:
                    holders[c].discard(i)
            del live[i]
            vals.append(v)
            if not v:
                units.append((i, j))
        pv *= p
    return vals, units, singles


def singleton_matrix(rng, p, m):
    """Sparse rows over a few shared columns: empty rows, one-entry rows of
    every valuation 0..m (valuation m is 0 mod p^m), and longer rows whose
    entries may be 0 mod p^m too."""
    nc = rng.randint(2, 8)
    rows = []
    for _ in range(rng.randint(0, 14)):
        kind = rng.random()
        if kind < 0.15:
            rows.append({})
            continue
        width = 1 if kind < 0.6 else rng.randint(2, nc)
        rows.append({j: rng.choice([-1, 1]) * rng.randint(1, 2 * p) * p ** rng.randint(0, m)
                     for j in rng.sample(range(nc), width)})
    return rows


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("m", [1, 2, 4])
def test_singleton_pivots_match_the_general_elimination(p, m):
    """Clearing the column of a one-entry pivot row by deleting it gives the
    exponents and the unit pivots, in order, of the row operations."""
    rng = random.Random(1000 * p + m)
    singles = 0
    for trial in range(300):
        rows = singleton_matrix(rng, p, m)
        want, units, n = general_elementary_divisors([dict(r) for r in rows], p, m)
        got = elementary_divisors(rows, p, m)
        assert (got, got.units) == (want, units), (trial, rows)
        singles += n
    assert singles > 100  # the singleton step ran, with holders to clear


# -- ext_chart against the kernel/subquotient oracle ------------------------

def oracle_chart(alg, p, K, s_max, t_max, normalized):
    """Every (s, t) group via kernels and subquotients over Z/p^(2K),
    imaged at p^K: the computation the elementary-divisor engine replaced."""
    cx = CobarComplex(alg, normalized=normalized)
    m2 = 2 * K

    groups = {}
    for d in range(t_max // 2 + 1):

        def dense(s, m):
            """d^s reduced mod p^m as a dense matrix."""
            ncols = len(cx.basis(s, d))
            return [[row.get(j, 0) % p ** m for j in range(ncols)]
                    for row in cx.differential_matrix(s, d)]

        for s in range(s_max + 1):
            n = len(cx.basis(s, d))
            if not n:
                continue
            kergens = SmithForm(dense(s, m2), p, m2, ncols=n).kernel_generators()
            if not kergens:
                continue
            kmat = [[g[i] for g in kergens] for i in range(n)]
            B2 = dense(s - 1, m2) if s else []
            orders2, gens2 = subquotient_structure(kmat, B2, n, p, m2)
            assert not [a for a in orders2 if K <= a < m2], (s, d)
            if not orders2:
                continue
            gcols = [[gens2[i][j] % p ** K for j in range(len(orders2))] for i in range(n)]
            BK = dense(s - 1, K) if s else []
            ordersK, _ = subquotient_structure(gcols, BK, n, p, K)
            free = sum(1 for a in ordersK if a == K)
            torsion = tuple(sorted(p ** a for a in ordersK if 0 < a < K))
            if free or torsion:
                groups[(s, 2 * d)] = (free, torsion)
    return groups


@pytest.mark.parametrize("p,t_max", [(2, 8), (3, 18)])
@pytest.mark.parametrize("normalized", [True, False])
def test_engine_matches_subquotient_oracle(p, t_max, normalized):
    alg = build_algebroid("p_typical", (t_max + 1) // 2, p=p)
    ec = ext_chart(alg, p, 10, 6, t_max, normalized=normalized)
    got = {key: (g.free_rank, g.torsion) for key, g in ec.chart.entries.items()}
    assert got == oracle_chart(alg, p, 10, 6, t_max, normalized)


# -- broken invariants --------------------------------------------------------

def non_integral(monkeypatch, p):
    """Make every differential matrix carry a 1/p entry."""
    original = CobarComplex.differential_matrix

    def patched(self, s, degree):
        rows = original(self, s, degree)
        if rows and self.basis(s, degree):
            rows[0][0] = Fraction(1, p)
        return rows
    monkeypatch.setattr(CobarComplex, "differential_matrix", patched)


def test_non_integral_differential_is_engine_error(monkeypatch):
    alg = build_algebroid("p_typical", 2, p=3)
    non_integral(monkeypatch, 3)
    monkeypatch.setattr("stemcharts.extcharts.check_composite_zero", lambda *args: None)
    with pytest.raises(EngineError, match="not p-integral"):
        ext_chart(alg, 3, 4, 2, 4)


def test_cobar_error_is_engine_error():
    assert issubclass(CobarError, EngineError)
    assert not issubclass(EngineError, ValueError)
    with pytest.raises(CobarError, match=r"d o d != 0 at s=0, degree=1, column 1"):
        cobar.check_composite_zero([{1: 1}], [{}, {0: 1}], 0, 1)


def test_cli_engine_error_exit_code(monkeypatch, capsys):
    non_integral(monkeypatch, 3)
    monkeypatch.setattr("stemcharts.extcharts.check_composite_zero", lambda *args: None)
    code = cli.main(["ext", "--prime", "3", "--tmax", "4", "--smax", "2"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_ENGINE == 4
    assert captured.out == ""
    assert "not p-integral" in captured.err


def drop_one_divisor(monkeypatch):
    """Make the elimination lose one divisor, as if its valuation were >= 2K."""
    original = extcharts.elementary_divisors
    monkeypatch.setattr("stemcharts.extcharts.elementary_divisors",
                        lambda rows, p, m, pivots: original(rows, p, m, pivots)[:-1])


def test_lost_divisor_breaks_rational_acyclicity(monkeypatch):
    alg = build_algebroid("p_typical", 2, p=3)
    drop_one_divisor(monkeypatch)
    with pytest.raises(EngineError, match=r"free rank 1 at \(s,t\)=\(0,4\) "
                                          "contradicts rational acyclicity"):
        ext_chart(alg, 3, 4, 2, 4)


def test_cli_lost_divisor_exit_code(monkeypatch, capsys):
    drop_one_divisor(monkeypatch)
    code = cli.main(["ext", "--prime", "3", "--tmax", "4", "--smax", "2"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_ENGINE
    assert captured.out == ""
    assert "rational acyclicity" in captured.err


def lower_one_valuation(monkeypatch):
    """Make the elimination report its largest non-unit divisor one
    valuation too low, leaving the rank alone."""
    original = extcharts.elementary_divisors

    def patched(rows, p, m, pivots):
        vals = original(rows, p, m, pivots)
        if vals and vals[-1]:
            vals[-1] -= 1
        return vals
    monkeypatch.setattr("stemcharts.extcharts.elementary_divisors", patched)


def test_lowered_valuation_breaks_ext1_oracle(monkeypatch):
    alg = build_algebroid("p_typical", 2, p=3)
    lower_one_valuation(monkeypatch)
    with pytest.raises(EngineError, match=r"Ext\^\(1,4\) is not Z/3\^1"):
        ext_chart(alg, 3, 4, 2, 4)


def test_cli_lowered_valuation_exit_code(monkeypatch, capsys):
    lower_one_valuation(monkeypatch)
    code = cli.main(["ext", "--prime", "3", "--tmax", "4", "--smax", "2"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_ENGINE
    assert captured.out == ""
    assert "Ravenel 5.2.6" in captured.err


@pytest.mark.parametrize("where,message", [
    ((0, 0), "Ext^{0,0} is not free of rank 1"),
    ((1, 0), "entry below the connectivity line: (1, 0)"),
])
def test_phantom_basis_element_breaks_invariant(monkeypatch, capsys, where, message):
    """A rank of C^s counted one too high (a phantom basis element) shows as
    a free summand: at (0, 0) it doubles Ext^{0,0}, and in C^1 of degree 0,
    which is empty, it charts a class below the connectivity line."""
    original = CobarComplex.dimension
    monkeypatch.setattr(CobarComplex, "dimension", lambda self, s, degree:
                        original(self, s, degree) + ((s, degree) == where))
    alg = build_algebroid("p_typical", 2, p=3)
    with pytest.raises(EngineError, match=re.escape(message)):
        ext_chart(alg, 3, 4, 2, 4)
    code = cli.main(["ext", "--prime", "3", "--tmax", "4", "--smax", "2"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_ENGINE and captured.out == ""
    assert message in captured.err


def test_ext1_exponent_examples():
    # p = 2: alpha_1, alpha_{2/2}, alpha_3, alpha_{4/4}, alpha_{6/3}, alpha_{8/5}
    assert [ext1_exponent(2, t) for t in (2, 4, 6, 8, 12, 16)] == [1, 2, 1, 4, 3, 5]
    # p = 3, q = 4: alpha_1, alpha_{3/2}, alpha_{9/3}, and nothing off q
    assert [ext1_exponent(3, t) for t in (4, 12, 36, 6, 2)] == [1, 2, 3, 0, 0]
    assert [ext1_exponent(5, t) for t in (8, 40, 200, 12)] == [1, 2, 3, 0]


# -- the modulus ladder -----------------------------------------------------------

@pytest.mark.parametrize("p,t_max", [(2, 16), (3, 36)])
@pytest.mark.parametrize("normalized", [True, False])
def test_fp_shortcut_leaves_chart_unchanged(monkeypatch, p, t_max, normalized):
    alg = build_algebroid("p_typical", (t_max + 1) // 2, p=p)
    moduli = []
    original = extcharts.elementary_divisors

    def counted(rows, p, m, pivots):
        moduli.append(m)
        return original(rows, p, m, pivots)
    monkeypatch.setattr("stemcharts.extcharts.elementary_divisors", counted)
    fast = ext_chart(alg, p, 10, 6, t_max, normalized=normalized)
    assert moduli.count(20) < moduli.count(1)  # the shortcut did skip eliminations
    monkeypatch.setattr("stemcharts.extcharts._divisor_exponents",
                        lambda rows, p, m, rank_bound, k=1, pivots=():
                        original(rows, p, m, pivots))
    slow = ext_chart(alg, p, 10, 6, t_max, normalized=normalized)
    assert json.dumps(fast.to_json()) == json.dumps(slow.to_json())


def test_ladder_stops_between_rungs(monkeypatch):
    """At p=2 t<=16 some differential has a divisor of valuation 1 or more
    and stops on a rung k with 1 < k < 2K, below the full modulus; every
    ladder eliminates first at the rung it was asked to start on."""
    alg = build_algebroid("p_typical", 8, p=2)
    calls = []  # (first rung, the moduli each _divisor_exponents call eliminated at)
    original_ed = extcharts.elementary_divisors
    original_de = extcharts._divisor_exponents

    def counted(rows, p, m, pivots):
        calls[-1][1].append(m)
        return original_ed(rows, p, m, pivots)

    def ladder(rows, p, m, rank_bound, k=1, pivots=()):
        calls.append((k, []))
        return original_de(rows, p, m, rank_bound, k, pivots)
    monkeypatch.setattr("stemcharts.extcharts.elementary_divisors", counted)
    monkeypatch.setattr("stemcharts.extcharts._divisor_exponents", ladder)
    ext_chart(alg, 2, 10, 6, 16)
    assert all(rungs[0] == k for k, rungs in calls)
    assert any(1 < rungs[-1] < 20 for _, rungs in calls)


def nonzero_degrees(alg, t_max):
    """The degrees d <= t_max / 2 in which some C^s, s = 0..6, is nonzero:
    the ones ext_chart builds and eliminates."""
    cx = CobarComplex(alg)
    return [d for d in range(t_max // 2 + 1) if any(cx.dimension(s, d) for s in range(7))]


@pytest.mark.parametrize("name,p,t_max", [("ext_p2_t16.json", 2, 16),
                                          ("ext_p3_t36.json", 3, 36)])
def test_held_ladders_skip_rung_one(monkeypatch, name, p, t_max):
    """A differential that rung 1 leaves short of its bound climbs from
    rung 2: each differential is eliminated mod p exactly once, and the
    charts are unchanged."""
    alg = build_algebroid("p_typical", (t_max + 1) // 2, p=p)
    calls = []  # (modulus the ladder runs to, moduli it eliminated at)
    original_ed = extcharts.elementary_divisors
    original_de = extcharts._divisor_exponents

    def counted(rows, p, m, pivots):
        calls[-1][1].append(m)
        return original_ed(rows, p, m, pivots)

    def ladder(rows, p, m, rank_bound, k=1, pivots=()):
        calls.append((m, []))
        return original_de(rows, p, m, rank_bound, k, pivots)
    monkeypatch.setattr("stemcharts.extcharts.elementary_divisors", counted)
    monkeypatch.setattr("stemcharts.extcharts._divisor_exponents", ladder)
    ec = ext_chart(alg, p, 10, 6, t_max)
    # rung 1 of every differential runs alone (m = 1); the held ladders
    # are the ones that run to 2K = 20
    held = [rungs for m, rungs in calls if m == 20]
    assert held and all(1 not in rungs for rungs in held)
    # d^0..d^6 in each degree with a nonzero C^s
    differentials = len(nonzero_degrees(alg, t_max)) * (6 + 1)
    assert sum(rungs.count(1) for _, rungs in calls) == differentials
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        assert json.dumps(ec.to_json(), indent=1) + "\n" == fh.read()


def test_zero_degrees_build_and_eliminate_nothing(monkeypatch):
    """At p=5 t<=60, C^0..C^6 vanish in every degree not divisible by 4:
    ext_chart builds no differential and runs no elimination there, each
    other degree builds d^0..d^6 once, and the chart is unchanged."""
    alg = build_algebroid("p_typical", 30, p=5)
    ran = nonzero_degrees(alg, 60)
    assert ran == list(range(0, 31, 4))
    at, work = [None], []  # the degree ext_chart is on; (step, that degree)
    original_dim = CobarComplex.dimension
    original_dm = CobarComplex.differential_matrix
    original_ed = extcharts.elementary_divisors

    def dimension(self, s, degree):
        at[0] = degree
        return original_dim(self, s, degree)

    def build(self, s, degree):
        work.append(("build", at[0]))
        return original_dm(self, s, degree)

    def eliminate(rows, p, m, pivots):
        work.append((m, at[0]))
        return original_ed(rows, p, m, pivots)
    monkeypatch.setattr(CobarComplex, "dimension", dimension)
    monkeypatch.setattr(CobarComplex, "differential_matrix", build)
    monkeypatch.setattr("stemcharts.extcharts.elementary_divisors", eliminate)
    ec = ext_chart(alg, 5, 10, 6, 60)
    with open(os.path.join(GOLDEN, "ext_p5_t60.json"), encoding="utf-8") as fh:
        assert json.dumps(ec.to_json(), indent=1) + "\n" == fh.read()
    assert {d for _, d in work} == set(ran)
    assert [d for step, d in work if step == "build"] == [d for d in ran for _ in range(7)]
    assert [d for step, d in work if step == 1] == [d for d in ran for _ in range(7)]


# -- cancelling unit pivots across the complex ---------------------------------

def unimodular(rng, n):
    """A random U in SL_n(Z) and its inverse, from elementary operations."""
    U, V = [[int(i == j) for j in range(n)] for i in range(n)], \
        [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        U[i] = [x + c * y for x, y in zip(U[i], U[j])]  # U <- (1 + c e_ij) U
        for row in V:                                    # V <- V (1 - c e_ij)
            row[j] -= c * row[i]
    return U, V


def planted_complex(rng, p, m, length):
    """d^0, ..., d^(length-1) of a cochain complex over Z: a direct sum of
    pieces Z --p^a--> Z and lone Z's, conjugated in each degree by a random
    unimodular matrix.  Returns the sparse rows of each d^s, the ranks n_s
    and the planted exponents a of each d^s, sorted."""
    dims, pieces = [0] * (length + 1), []
    for s in range(length):
        pieces.append([])
        for _ in range(rng.randint(0, 5)):
            pieces[s].append((dims[s], dims[s + 1], rng.choice([0, 0, 0, 1, 2, m - 1])))
            dims[s] += 1
            dims[s + 1] += 1
    dims = [n + (rng.random() < 0.5 or not n) for n in dims]
    bases = [unimodular(rng, n) for n in dims]
    mats = []
    for s in range(length):
        D = [[0] * dims[s] for _ in range(dims[s + 1])]
        for i, j, a in pieces[s]:
            D[j][i] = p ** a
        U, V = bases[s + 1][0], bases[s][1]
        UD = [[sum(u * x for u, x in zip(row, col)) for col in zip(*D)] for row in U]
        mats.append(sparse([[sum(x * v for x, v in zip(row, col)) for col in zip(*V)]
                            for row in UD]))
    return mats, dims[:length], [sorted(a for _, _, a in ps) for ps in pieces]


@pytest.mark.parametrize("p,m", [(2, 6), (3, 4), (5, 4)])
def test_cancellation_keeps_planted_divisors(p, m):
    """The pruned path finds exactly the planted exponents, the divisors of
    each differential eliminated whole mod p^m."""
    rng = random.Random(p)
    for trial in range(60):
        mats, ns, planted = planted_complex(rng, p, m, rng.randint(2, 5))
        got = list(extcharts._slice_divisors(mats, ns, p, m))
        assert got == planted, (trial, got, planted)
        assert got == [elementary_divisors(rows, p, m) for rows in mats], trial


def test_cancellation_narrows_eliminations(monkeypatch):
    """At p=2 t<=16 rung 1 is handed fewer columns, and the higher rungs
    fewer rows, than when the eliminations report no unit pivots and so
    cancel nothing."""
    alg = build_algebroid("p_typical", 8, p=2)
    original = extcharts.elementary_divisors
    charts, handed = [], []
    for strip in (False, True):
        columns = rows_above = 0

        def counted(rows, p, m, pivots):
            nonlocal columns, rows_above
            if m == 1:
                columns += len({j for row in rows for j in row})
            else:
                rows_above += sum(1 for row in rows if row)
            vals = original(rows, p, m, pivots)
            return list(vals) if strip else vals
        monkeypatch.setattr("stemcharts.extcharts.elementary_divisors", counted)
        charts.append(json.dumps(ext_chart(alg, 2, 10, 6, 16).to_json()))
        handed.append((columns, rows_above))
    assert charts[0] == charts[1]
    (columns, rows_above), (all_columns, all_rows) = handed
    assert columns < all_columns and rows_above < all_rows


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("a", [1, 2])
def test_planted_divisor_in_the_cancelled_block_is_found(monkeypatch, p, a):
    """d^1 = U diag(1, 1, 1, p^a) V, between a d^0 and a d^2 of unit
    divisors, in bases changed at random: rung 1 leaves d^1 short, its held
    ladder replays rung 1's three unit pivots with the two rows that d^2
    paired made empty, and the divisor p^a, which reaches the entries of
    those pivots, is found at s = 1."""
    original = extcharts._divisor_exponents
    held = []  # (exponents, replayed pivots, rows) of each held ladder

    def ladder(rows, p, m, rank_bound, k=1, pivots=()):
        vals = original(rows, p, m, rank_bound, k, pivots)
        if k == 2:
            held.append((vals, pivots, rows))
        return vals
    monkeypatch.setattr("stemcharts.extcharts._divisor_exponents", ladder)
    # (column in C^s, row in C^{s+1}, exponent) of the pieces of d^0, d^1, d^2
    pieces = [[(0, 0, 0)], [(1, 0, 0), (2, 1, 0), (3, 2, 0), (4, 3, a)],
              [(4, 0, 0), (5, 1, 0)]]
    dims = [1, 5, 6, 2]
    rng = random.Random(10 * p + a)
    reached = blanked = 0
    for trial in range(40):
        bases = [unimodular(rng, n) for n in dims]
        mats = [sparse([[sum(bases[s + 1][0][r][j] * p ** e * bases[s][1][i][c]
                             for i, j, e in ps) for c in range(dims[s])]
                        for r in range(dims[s + 1])])
                for s, ps in enumerate(pieces)]
        held.clear()
        got = list(extcharts._slice_divisors(mats, dims[:3], p, 4))
        assert got == [[0], [0, 0, 0, a], [0, 0]], trial
        (vals, pivots, rows), = held
        assert vals is got[1] and len(pivots) == 3, trial
        blanked += sum(bool(whole) and not row for whole, row in zip(mats[1], rows))
        U, V = bases[2][0], bases[1][1]  # p^a U[r][3] V[4][c] is in entry (r, c)
        reached += any(U[r][3] and V[4][c] for r, c in pivots)
    assert reached >= 15 and blanked >= 40  # of 40 trials


def test_a_replayed_pivot_that_is_not_a_unit_is_an_engine_error(monkeypatch, capsys):
    """A held ladder handed a pivot whose entry is divisible by p raises an
    EngineError naming the (s, t) of its differential, and the CLI exits 4."""
    alg = build_algebroid("p_typical", 8, p=2)
    original_ed = extcharts.elementary_divisors
    original_sd = extcharts._slice_divisors
    at, spoiled = [0, 0], []  # (s, t) of the differential next yielded

    def sliced(mats, ns, p, m, degree=0):
        at[:] = [0, 2 * degree]
        for vals in original_sd(mats, ns, p, m, degree):
            at[0] += 1
            yield vals

    def spoil(rows, p, m, pivots):
        if pivots:
            i, j = pivots[0]
            rows = [dict(row) for row in rows]
            rows[i][j] *= p
            spoiled.append(tuple(at))
        return original_ed(rows, p, m, pivots)
    monkeypatch.setattr("stemcharts.extcharts._slice_divisors", sliced)
    monkeypatch.setattr("stemcharts.extcharts.elementary_divisors", spoil)
    with pytest.raises(EngineError) as exc:
        ext_chart(alg, 2, 10, 6, 16)
    (s, t), = spoiled
    assert type(exc.value) is EngineError
    assert re.fullmatch(rf"replayed pivot \(\d+, \d+\) is not a unit mod 2 "
                        rf"at \(s,t\)=\({s},{t}\)", str(exc.value))
    code = cli.main(["ext", "--prime", "2", "--tmax", "16"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_ENGINE and captured.out == ""
    assert f"{exc.value}\n" in captured.err


# -- the streamed d o d check ---------------------------------------------------

def rung_one_run(monkeypatch, alg, p, t_max):
    """Run ext_chart once, before any other patch of the test; return
    (degree, s) -> the unit pivots of rung 1 of d^s, for each degree that
    ran (`nonzero_degrees`), and (degree, s) -> the columns of C^s that the
    check of d^{s+1} o d^s read."""
    original_ed = extcharts.elementary_divisors
    original_check = extcharts.check_composite_zero
    units, checked = [], {}

    def recorded(rows, p, m, pivots):
        vals = original_ed(rows, p, m, pivots)
        if m == 1:  # rung 1 of d^0, d^1, ... in turn; held ladders start at 2
            units.append(vals.units)
        return vals

    def read(first, second, s, degree):
        checked[(degree, s)] = {j for row in first for j in row}
        original_check(first, second, s, degree)
    monkeypatch.setattr("stemcharts.extcharts.elementary_divisors", recorded)
    monkeypatch.setattr("stemcharts.extcharts.check_composite_zero", read)
    ext_chart(alg, p, 10, 6, t_max)
    monkeypatch.undo()
    ran = nonzero_degrees(alg, t_max)
    assert len(units) == 7 * len(ran)
    return {(d, s): units[7 * n + s] for n, d in enumerate(ran)
            for s in range(7)}, checked


@pytest.mark.parametrize("p,t_max", [(2, 16), (3, 36)])
@pytest.mark.parametrize("pick", [0, -1])
def test_fault_in_a_cancelled_column_fails_the_check_before(monkeypatch, p, t_max,
                                                           pick):
    """The check of d^{s+1} o d^s skips the columns of C^s that rung 1 of
    d^{s-1} cancelled.  A wrong entry of d^s in such a column still fails,
    at the check of d^s o d^{s-1}, with the message of the whole product."""
    alg = build_algebroid("p_typical", (t_max + 1) // 2, p=p)
    units, checked = rung_one_run(monkeypatch, alg, p, t_max)
    cx = CobarComplex(alg)
    d, s = sorted((d, s) for d, s in units
                  if 1 <= s <= 5 and units[(d, s - 1)] and cx.dimension(s + 1, d))[pick]
    b = units[(d, s - 1)][0][0]  # a row of a unit pivot of d^{s-1}
    assert b not in checked[(d, s)]
    original = CobarComplex.differential_matrix

    def planted(self, s_, degree):
        rows = original(self, s_, degree)
        if (s_, degree) == (s, d):
            row = rows[0]
            row[b] = row.get(b, 0) + 1
            if not row[b]:
                del row[b]
        return rows
    monkeypatch.setattr(CobarComplex, "differential_matrix", planted)
    with pytest.raises(CobarError) as whole:
        CobarComplex(alg).check_d_squared(s - 1, d)
    assert str(whole.value).startswith(f"d o d != 0 at s={s - 1}, degree={d}, ")
    with pytest.raises(CobarError) as streamed:
        ext_chart(alg, p, 10, 6, t_max)
    assert str(streamed.value) == str(whole.value)


@pytest.mark.parametrize("K,fraction", [(3, False), (10, True)])
def test_cobar_error_keeps_precedence_in_its_degree(monkeypatch, K, fraction):
    """At p=2 t<=12 a wrong entry of d^3 in degree 4 fails the check of
    d^3 o d^2, which the streamed pass reaches after degree 4 ran out of
    precision at s=0 (K=3), or after it read a non-integral entry of d^0;
    the CobarError of the whole degree still wins."""
    alg = build_algebroid("p_typical", 6, p=2)
    original = CobarComplex.differential_matrix

    def planted(self, s, degree):
        rows = original(self, s, degree)
        if degree == 4 and s == 3:
            rows[0][0] = rows[0].get(0, 0) + 1
        if degree == 4 and s == 0 and fraction:
            rows[0][0] = Fraction(1, 2)
        return rows
    monkeypatch.setattr(CobarComplex, "differential_matrix", planted)
    cx = CobarComplex(alg)
    mats = [cx.differential_matrix(s, 4) for s in range(7)]
    with pytest.raises(CobarError) as whole:
        for s in range(6):
            cobar.check_composite_zero(mats[s], mats[s + 1], s, 4)
    with pytest.raises(CobarError) as streamed:
        ext_chart(alg, 2, K, 6, 12)
    assert str(streamed.value) == str(whole.value)


@pytest.mark.parametrize("p,m", [(2, 6), (3, 4), (5, 4)])
def test_streamed_check_fails_iff_a_whole_product_does(p, m):
    """With one entry of one differential perturbed, the check on the
    uncancelled columns raises exactly when some whole d^{s+1} o d^s is
    nonzero, with the message of the first such product; a complex never
    raises."""
    rng = random.Random(100 + p)
    outcomes = set()
    for trial in range(80):
        mats, ns, _ = planted_complex(rng, p, m, rng.randint(2, 5))
        list(extcharts._slice_divisors(mats, ns, p, m))
        s = rng.randrange(len(mats))
        row = rng.choice(mats[s])
        j = rng.randrange(ns[s])
        row[j] = row.get(j, 0) + rng.choice([-2, -1, 1, 2, p])
        whole = streamed = None
        try:
            for t in range(len(mats) - 1):
                cobar.check_composite_zero(mats[t], mats[t + 1], t, 0)
        except CobarError as exc:
            whole = str(exc)
        try:
            list(extcharts._slice_divisors(mats, ns, p, m))
        except CobarError as exc:
            streamed = str(exc)
        assert streamed == whole, trial
        outcomes.add(whole is None)
    assert outcomes == {True, False}


def test_a_degree_holds_two_differentials_and_drops_its_bases(monkeypatch):
    """Two built differentials, d^s and d^{s+1}, are alive at a check and
    one, d^{s+1}, at an elimination (the rows rung 1 and the ladder read
    are pruned copies), and a finished chart holds no cobar basis, only the
    slot tuples that later degrees extend."""

    class Built(list):  # unlike a list, it can be referenced weakly
        pass
    built_refs, made = [], []
    alive = {"check": [], "eliminate": []}
    original_dm = CobarComplex.differential_matrix
    original_ed = extcharts.elementary_divisors
    original_check = extcharts.check_composite_zero

    def built(self, s, degree):
        rows = Built(original_dm(self, s, degree))
        built_refs.append(weakref.ref(rows))
        return rows

    class Recorded(CobarComplex):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    def counted(fn, kind):
        def wrapped(*args):
            alive[kind].append(sum(ref() is not None for ref in built_refs))
            return fn(*args)
        return wrapped
    monkeypatch.setattr(CobarComplex, "differential_matrix", built)
    monkeypatch.setattr("stemcharts.extcharts.CobarComplex", Recorded)
    monkeypatch.setattr("stemcharts.extcharts.elementary_divisors",
                        counted(original_ed, "eliminate"))
    monkeypatch.setattr("stemcharts.extcharts.check_composite_zero",
                        counted(original_check, "check"))
    ec = ext_chart(build_algebroid("p_typical", 8, p=2), 2, 10, 6, 16)
    with open(os.path.join(GOLDEN, "ext_p2_t16.json"), encoding="utf-8") as fh:
        assert json.dumps(ec.to_json(), indent=1) + "\n" == fh.read()
    assert max(alive["check"]) == 2 and max(alive["eliminate"]) == 1
    (cx,) = made
    assert cx._coded == {} and len(cx._tuples) > 1


# PrecisionExhausted messages, and sha256 prefixes of json.dumps(to_json())
# for the charts that fit, recorded from the engine before the F_p shortcut;
# the unnormalized complex gives the same outcome where it was recorded
PRECISION_OUTCOMES = {
    (2, 12, 2): "torsion of order p^2 >= p^2 at (s,t)=(0,4)",
    (2, 12, 3): "torsion of order p^4 >= p^3 at (s,t)=(0,8)",
    (2, 12, 4): "torsion of order p^4 >= p^4 at (s,t)=(0,8)",
    (2, 12, 5): "bc69e5e3257272ab",
    (2, 16, 2): "torsion of order p^2 >= p^2 at (s,t)=(0,4)",
    (2, 16, 3): "torsion of order p^4 >= p^3 at (s,t)=(0,8)",
    (2, 16, 4): "torsion of order p^4 >= p^4 at (s,t)=(0,8)",
    (2, 16, 5): "torsion of order p^5 >= p^5 at (s,t)=(0,16)",
    (3, 18, 2): "torsion of order p^2 >= p^2 at (s,t)=(0,12)",
    (3, 18, 3): "8bf9b189463626ca",
    (3, 18, 4): "79c03c90623f6321",
    (3, 18, 5): "aa91b57b5f46e3d8",
    (3, 36, 2): "torsion of order p^2 >= p^2 at (s,t)=(0,12)",
    (3, 36, 3): "torsion of order p^3 >= p^3 at (s,t)=(0,36)",
    (3, 36, 4): "301f6ae59644bbc4",
    (3, 36, 5): "0cf6f8bcb0cdd97d",
    (5, 30, 2): "b4599c30572c3687",
    (5, 30, 3): "2178f7b6702e6297",
    (5, 60, 2): "torsion of order p^2 >= p^2 at (s,t)=(0,40)",
    (5, 60, 3): "5af11ccf9805fbe3",
    (5, 60, 4): "4091bcee3785386a",
    (5, 60, 5): "097ca5f9a28c37be",
}
UNNORMALIZED_RECORDED = {(2, 12), (3, 18), (5, 30)}


@pytest.mark.parametrize("p,t_max,K,normalized", [
    (p, t_max, K, normalized) for (p, t_max, K) in sorted(PRECISION_OUTCOMES)
    for normalized in (True, False)
    if normalized or (p, t_max) in UNNORMALIZED_RECORDED])
def test_precision_outcomes_unchanged(p, t_max, K, normalized):
    alg = build_algebroid("p_typical", (t_max + 1) // 2, p=p)
    try:
        ec = ext_chart(alg, p, K, 6, t_max, normalized=normalized)
    except PrecisionExhausted as exc:
        got = str(exc)
    else:
        got = hashlib.sha256(json.dumps(ec.to_json()).encode()).hexdigest()[:16]
    assert got == PRECISION_OUTCOMES[(p, t_max, K)]

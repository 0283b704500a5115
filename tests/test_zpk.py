import itertools
import random

import pytest

from stemcharts.zpk import (SmithForm, elementary_divisors, identity, mat_mul,
                            module_structure, subquotient_structure)


def test_smith_form_randomized():
    rng = random.Random(0)
    for p, m in [(3, 6), (2, 8), (5, 4)]:
        mod = p ** m
        for _ in range(150):
            nr, nc = rng.randint(0, 5), rng.randint(0, 5)
            A = [[rng.randrange(mod) * (p ** rng.choice([0, 0, 0, 1, 2])) % mod
                  for _ in range(nc)] for _ in range(nr)]
            sf = SmithForm(A, p, m, ncols=nc)
            D = mat_mul(mat_mul(sf.U, A, mod), sf.V, mod) if nr and nc else []
            for i in range(nr):
                for j in range(nc):
                    want = (p ** sf.pivots[i]) % mod \
                        if (i == j and i < len(sf.pivots)) else 0
                    assert D[i][j] == want
            assert mat_mul(sf.U, sf.Uinv, mod) == (identity(nr) if nr else [])
            assert mat_mul(sf.V, sf.Vinv, mod) == (identity(nc) if nc else [])
            # pivot valuations are nondecreasing
            assert sf.pivots == sorted(sf.pivots)
            for g in sf.kernel_generators():
                out = [sum(A[i][j] * g[j] for j in range(nc)) % mod
                       for i in range(nr)]
                assert not any(out)


def test_kernel_exhaustive_small():
    # the kernel generators span exactly the kernel, checked by enumeration
    rng = random.Random(1)
    p, m = 2, 3
    mod = p ** m
    for _ in range(60):
        nr, nc = rng.randint(0, 2), rng.randint(0, 2)
        A = [[rng.randrange(mod) for _ in range(nc)] for _ in range(nr)]
        sf = SmithForm(A, p, m, ncols=nc)
        kernel = {x for x in itertools.product(range(mod), repeat=nc)
                  if all(sum(A[i][j] * x[j] for j in range(nc)) % mod == 0
                         for i in range(nr))}
        gens = sf.kernel_generators()
        spanned = set()
        for coeffs in itertools.product(range(mod), repeat=len(gens)):
            v = tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) % mod
                      for i in range(nc))
            spanned.add(v)
        if nc == 0:
            spanned = {()}
        assert spanned == kernel


def test_module_structure_examples():
    # Z/27^2 modulo <(9,0), (0,3)> = Z/9 (+) Z/3
    orders, gens = module_structure([[9, 0], [0, 3]], 2, 3, 3)
    assert sorted(orders) == [1, 2]
    # no relations: free summands
    assert module_structure([], 2, 3, 3)[0] == [3, 3]
    # unit relation kills a generator
    orders, _ = module_structure([[1], [0]], 2, 3, 3)
    assert orders == [3]


def test_subquotient_examples():
    # span(3)/span(9) inside Z/27 is Z/3
    orders, gens = subquotient_structure([[3]], [[9]], 1, 3, 3)
    assert orders == [1]
    assert gens and gens[0][0] % 3 == 0 and gens[0][0] % 27
    # span(1)/span(0) is everything
    orders, _ = subquotient_structure([[1]], [], 1, 3, 3)
    assert orders == [3]


def test_subquotient_exhaustive_small():
    # compare against enumeration of (span G + span B)/span B over Z/8
    rng = random.Random(7)
    p, m = 2, 3
    mod = p ** m
    for _ in range(40):
        n = rng.randint(1, 2)
        gcols = rng.randint(0, 2)
        bcols = rng.randint(0, 2)
        G = [[rng.randrange(mod) for _ in range(gcols)] for _ in range(n)]
        B = [[rng.randrange(mod) for _ in range(bcols)] for _ in range(n)]

        def span(cols, k):
            out = set()
            for coeffs in itertools.product(range(mod), repeat=k):
                v = tuple(sum(c * cols[i][j] for j, c in enumerate(coeffs)) % mod
                          for i in range(n))
                out.add(v)
            return out

        bspan = span(B, bcols)
        total = set()
        for coeffs in itertools.product(range(mod), repeat=gcols + bcols):
            v = tuple(sum(c * (G[i][j] if j < gcols else B[i][j - gcols])
                          for j, c in enumerate(coeffs)) % mod
                      for i in range(n))
            total.add(v)
        expected_size = len(total) // len(bspan)
        orders, _ = subquotient_structure(G, B, n, p, m)
        size = 1
        for a in orders:
            size *= p ** a
        assert size == expected_size, (G, B, orders, expected_size)


def replay_matrix(rng, p, m):
    """Sparse rows over a few shared columns, entries of valuation 0..m
    (valuation m is 0 mod p^m), some rows p times the sum of two others."""
    nc = rng.randint(1, 8)
    rows = []
    for _ in range(rng.randint(1, 12)):
        width = rng.randint(1, nc)
        rows.append({j: rng.choice([-1, 1]) * rng.randint(1, 2 * p) * p ** rng.choice([0, 0, 1, m])
                     for j in rng.sample(range(nc), width)})
    for _ in range(rng.randint(0, 3)):
        a, b = rng.choice(rows), rng.choice(rows)
        rows.append({j: p * (a.get(j, 0) + b.get(j, 0)) for j in set(a) | set(b)})
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("m", [2, 4])
def test_replayed_unit_pivots_keep_the_exponents(p, m):
    """The unit pivots of a run mod p, replayed mod p^m on the same rows
    with some non-pivot rows dropped (made empty), give the exponents of
    the search, and `units` begins with them, in order."""
    rng = random.Random(10 * p + m)
    replayed = dropped = torsion = 0
    for trial in range(300):
        rows = replay_matrix(rng, p, m)
        pivots = elementary_divisors(rows, p, 1).units
        kept = {i for i, _ in pivots}
        rows = [row if i in kept or rng.random() < 0.5 else {} for i, row in enumerate(rows)]
        got = elementary_divisors(rows, p, m, pivots)
        assert list(got) == list(elementary_divisors(rows, p, m)), (trial, rows)
        assert got.units[:len(pivots)] == pivots, (trial, rows)
        replayed += bool(pivots)
        dropped += bool(pivots) and any(not row for row in rows)
        torsion += any(got)
    assert min(replayed, dropped) > 200 and torsion > 50


def test_a_replayed_pivot_must_be_a_unit():
    with pytest.raises(ValueError, match=r"pivot \(0, 0\) is not a unit mod 2"):
        elementary_divisors([{0: 2, 1: 1}], 2, 2, [(0, 0)])
    with pytest.raises(ValueError, match=r"pivot \(1, 0\) is not a unit mod 3"):
        elementary_divisors([{0: 1}, {}], 3, 2, [(1, 0)])

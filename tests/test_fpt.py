import hashlib
import json
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from stemcharts.fpt import (FptModule, FptError, IndFptModule, check_torsion_powers,
                            check_u_sequence, classify_divisible, decompose,
                            extract_free, jordan_module, jordan_type,
                            partitions, random_nilpotent, reassemble,
                            satisfies_pn, _Span, _independent_subset, _intersect,
                            _invert, _kernel_basis, _mat_vec, _same_span,
                            _span)
from stemcharts.zpk import mat_mul

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def test_module_validation():
    with pytest.raises(FptError, match="^t-action is not nilpotent$"):
        FptModule(2, 2, ((1, 0), (0, 1)))
    with pytest.raises(FptError, match="^t-action is not nilpotent$"):
        FptModule(3, 3, ((0, 1, 0), (0, 0, 1), (1, 0, 0)))
    with pytest.raises(FptError, match="^t-action must be dim x dim$"):
        FptModule(2, 2, ((0,),))
    with pytest.raises(FptError, match="^p must be prime$"):
        FptModule(4, 1, ((0,),))
    with pytest.raises(FptError, match="^t-action entries must be integers$"):
        FptModule(2, 1, ((0.5,),))
    # JSON's true reads as a bool, which Python counts as the int 1
    with pytest.raises(FptError, match="^t-action entries must be integers$"):
        FptModule(2, 1, ((True,),))
    for dim in (True, 1.0, -1):
        with pytest.raises(FptError, match="^dim must be a non-negative integer$"):
            FptModule(2, dim, ((0,),))
    with pytest.raises(FptError, match="^dim must be a non-negative integer$"):
        FptModule.from_json({"p": 2, "dim": 2.0, "t": [0, 0, 0, 0]})
    M = FptModule(3, 2, ((0, 0), (1, 0)))
    assert M.dim == 2


def test_json_roundtrip():
    M = jordan_module(3, [2, 1])
    back = FptModule.from_json(M.to_json())
    assert back == M


def test_satisfies_pn_examples():
    assert satisfies_pn(jordan_module(5, [3]), 2)[0] is True
    ok, witness = satisfies_pn(jordan_module(5, [2, 1]), 1)
    assert ok is False and witness is not None
    # the witness is t-power torsion but not divisible by t
    M = jordan_module(5, [2, 1])
    assert not any(_mat_vec(M.T(), witness, 5))
    assert satisfies_pn(jordan_module(7, [4, 2]), 0)[0] is True
    assert satisfies_pn(FptModule(3, 0, ()), 5)[0] is True


def test_pn_iff_min_block_size():
    for p in (2, 3):
        for d in range(1, 5):
            for part in partitions(d):
                M = jordan_module(p, part)
                for n in range(0, 5):
                    ok, _ = satisfies_pn(M, n)
                    assert ok == (min(part) >= n + 1), (part, n)


def test_extract_free_examples():
    M = jordan_module(5, [1, 3])
    spl = extract_free(M, 0)
    assert spl.free_exponent == 1 and spl.free_rank == 1
    assert jordan_type(spl.quotient) == {3: 1}
    # free module: F = M, M' = 0
    F = jordan_module(3, [2, 2])
    spl = extract_free(F, 1)
    assert spl.free_rank == 2 and spl.quotient.dim == 0
    # zero module
    spl = extract_free(FptModule(3, 0, ()), 0)
    assert spl.free_rank == 0 and spl.quotient.dim == 0


def test_extract_free_precondition():
    with pytest.raises(FptError):
        extract_free(jordan_module(2, [1, 2]), 1)


def test_decompose_jordan_block():
    dec = decompose(jordan_module(2, [4]))
    assert dec.free_parts == [(4, 1)]
    assert dec.divisible_rank == 0


def test_decompose_exhaustive_small():
    for p in (2, 3):
        for d in range(0, 5):
            for part in partitions(d):
                M = jordan_module(p, part)
                dec = decompose(M)
                assert dec.profile() == jordan_type(M)
                assert sum(i * r for i, r in dec.free_parts) == d
                assert jordan_type(reassemble(dec)) == dec.profile()


def test_decompose_random_conjugates():
    rng = random.Random(11)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        M = random_nilpotent(p, rng.randrange(0, 7), rng)
        assert decompose(M).profile() == jordan_type(M)


def test_decompose_witnesses_split():
    rng = random.Random(5)
    M = random_nilpotent(3, 5, rng)
    dec = decompose(M)
    for w in dec.witnesses:
        incl, retr = w["inclusion"], w["retraction"]
        comp = mat_mul(retr, incl, 3)
        k = len(comp)
        assert comp == [[1 if i == j else 0 for j in range(k)] for i in range(k)]
        # inclusion is t-equivariant on the summand: t * incl columns stay in F
        # (checked through the retraction idempotent)
        proj = mat_mul(incl, retr, 3)
        assert mat_mul(proj, proj, 3) == proj


def test_decompose_digest():
    # sha256 over the decomposition JSON of a seeded batch of conjugated
    # Jordan types: pins every free part and witness matrix byte for byte
    rng = random.Random(10)
    digest = hashlib.sha256()
    for p in (2, 3, 5):
        for dim in range(13):
            for _ in range(2):
                M = random_nilpotent(p, dim, rng)
                digest.update(json.dumps(decompose(M).to_json(),
                                         sort_keys=True).encode())
    assert digest.hexdigest() == \
        "3dcf018c881fd71dffa61620f8fcd2a7fd2b515b71a8c6ec61d0595fc8c78319"


@pytest.mark.parametrize("p", (2, 3, 5))
def test_extract_free_stages_split(p):
    rng = random.Random(p)
    for dim in range(11):
        cur, n = random_nilpotent(p, dim, rng), 0
        while cur.dim:
            spl = extract_free(cur, n)
            k, q = spl.free_rank * (n + 1), spl.quotient.dim
            assert k + q == cur.dim
            assert mat_mul(spl.retraction, spl.inclusion, p) == \
                [[int(i == j) for j in range(k)] for i in range(k)]
            assert mat_mul(spl.retraction, spl.quotient_inclusion, p) == \
                [[0] * q for _ in range(k)]
            # the quotient's t-action is t restricted to M'
            assert mat_mul(cur.T(), spl.quotient_inclusion, p) == \
                mat_mul(spl.quotient_inclusion, spl.quotient.T(), p)
            # a stage with no free part keeps its module
            if not spl.free_rank:
                assert spl.quotient is cur
                assert spl.quotient_inclusion == \
                    [[int(i == j) for j in range(q)] for i in range(q)]
            # the stage extended a copy of the memoized span of im t
            assert cur._image(1).rows == _span(list(zip(*cur.T())), p).rows
            cur, n = spl.quotient, n + 1


@pytest.mark.parametrize("name", ("module_p3_j9_3", "module_p2_j8_2_1_1"))
def test_decompose_builds_a_module_per_free_part(name, monkeypatch):
    # stages that split off nothing build no quotient module
    with open(os.path.join(GOLDEN, name + ".json"), encoding="utf-8") as fh:
        M = FptModule.from_json(json.load(fh))
    built = []
    init = FptModule.__post_init__

    def counted(self):
        built.append(self.dim)
        init(self)

    monkeypatch.setattr(FptModule, "__post_init__", counted)
    dec = decompose(M)
    assert len(built) == len(dec.free_parts)


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=3),
       st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_pn_passes_to_torsion_and_quotient(dim, n, rng):
    # Lemma: if M satisfies P_n then so do M[t^{n+1}] and M/t^{n+1}
    p = 3
    M = random_nilpotent(p, dim, rng)
    ok, _ = satisfies_pn(M, n)
    if not ok:
        return
    jt = jordan_type(M)
    # M[t^{n+1}] has block sizes min(s, n+1); M/t^{n+1} likewise
    trunc = {}
    for s, m in jt.items():
        tt = min(s, n + 1)
        trunc[tt] = trunc.get(tt, 0) + m
    sub = jordan_module(p, [s for s, m in trunc.items() for _ in range(m)])
    assert satisfies_pn(sub, n)[0]


def test_torsion_powers_examples():
    assert check_torsion_powers(jordan_module(2, [1, 1, 2, 4]))[0] is True
    ok, witness = check_torsion_powers(jordan_module(2, [3]))
    assert ok is False and witness is not None
    assert check_torsion_powers(FptModule(2, 0, ()))[0] is True
    assert check_torsion_powers(jordan_module(3, [1, 3, 9]))[0] is True
    assert check_torsion_powers(jordan_module(3, [2]))[0] is False


def test_u_sequence_examples():
    # free over F_p[t]/t^{p^{n+1}} is exact
    for p, n in ((3, 0), (2, 0), (2, 1)):
        M = jordan_module(p, [p ** (n + 1)] * 2)
        assert check_u_sequence(M, n) is True
    # F_2[t]/t^3 at u = t fails
    assert check_u_sequence(jordan_module(2, [3]), 0) is False
    assert check_u_sequence(FptModule(3, 0, ()), 0) is True


def test_u_sequence_guard():
    with pytest.raises(ValueError):
        check_u_sequence(jordan_module(3, [2]), 5)


def test_u_sequence_implies_torsion_powers():
    rng = random.Random(99)
    for _ in range(120):
        p = rng.choice([2, 3])
        M = random_nilpotent(p, rng.randrange(0, 13), rng)
        all_exact = all(check_u_sequence(M, n)
                        for n in range(0, 12) if p ** n <= max(M.dim, 1))
        holds, _ = check_torsion_powers(M)
        if all_exact:
            assert holds, (p, jordan_type(M))


def test_ind_validation():
    mods = [jordan_module(2, [1]), jordan_module(2, [2])]
    good = [[[0], [1]]]
    IndFptModule(mods, good)
    with pytest.raises(FptError):
        IndFptModule(mods, [[[0], [0]]])  # not injective
    bad_equiv = [[[1], [0]]]  # e -> generator (not t-equivariant)
    with pytest.raises(FptError):
        IndFptModule(mods, bad_equiv)
    for stable_from in (2, -1, "0", False):
        with pytest.raises(FptError, match="is not a stage of the prefix"):
            IndFptModule(mods, good, stable_from)
    for entry in (1.0, True):
        with pytest.raises(FptError, match="^map 0 entries must be integers$"):
            IndFptModule(mods, [[[0], [entry]]])
    # a map or row that is not a list, or a row of the wrong length
    for bad in ([0, 1], [[0], 1], 7, [[0], [1, 0]]):
        with pytest.raises(FptError, match="^map 0 has the wrong shape$"):
            IndFptModule(mods, [bad])
    with pytest.raises(FptError, match="share one prime"):
        IndFptModule([jordan_module(2, [1]), jordan_module(3, [2])], good)


def test_classify_divisible_constant():
    mods = [jordan_module(3, [2]) for _ in range(3)]
    eye = [[1, 0], [0, 1]]
    dec = classify_divisible(IndFptModule(mods, [eye, eye]))
    assert dec.free_parts == [(2, 1)] and dec.divisible_rank == 0


def test_classify_divisible_pruefer():
    mods = [jordan_module(2, [k]) for k in range(1, 5)]
    maps = []
    for k in range(1, 4):
        f = [[0] * k for _ in range(k + 1)]
        for i in range(k):
            f[i + 1][i] = 1
        maps.append(f)
    dec = classify_divisible(IndFptModule(mods, maps))
    assert dec.free_parts == [] and dec.divisible_rank == 1


def test_classify_divisible_mixed():
    mods = []
    maps = []
    for k in range(2, 6):
        mods.append(jordan_module(2, [2, k]))
    for k in range(2, 5):
        d_src = 2 + k
        d_tgt = 3 + k
        f = [[0] * d_src for _ in range(d_tgt)]
        f[0][0] = 1
        f[1][1] = 1
        for i in range(k):
            f[2 + i + 1][2 + i] = 1  # shift the growing block by t
        maps.append(f)
    dec = classify_divisible(IndFptModule(mods, maps, stable_from=0))
    assert dec.free_parts == [(2, 1)] and dec.divisible_rank == 1


def test_classify_divisible_empty():
    dec = classify_divisible(IndFptModule([], []))
    assert dec.free_parts == [] and dec.divisible_rank == 0


# -- the incremental F_p span ----------------------------------------------

def random_fp_matrix(rng, p, nr, nc):
    """Random rows over F_p; some rows zero, some combinations of the first two."""
    rows = [[rng.randrange(p) for _ in range(nc)] for _ in range(nr)]
    for i in range(nr):
        if rng.random() < 0.2:
            rows[i] = [0] * nc
        elif i >= 2 and rng.random() < 0.4:
            a, b = rng.randrange(p), rng.randrange(p)
            rows[i] = [(a * x + b * y) % p for x, y in zip(rows[0], rows[1])]
    return rows


def gf_rank(rows, ncols, p):
    """Rank over GF(p) by sympy's DomainMatrix (test-time oracle)."""
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix
    K = GF(p)
    return DomainMatrix([[K(x) for x in r] for r in rows], (len(rows), ncols), K).rank()


@pytest.mark.parametrize("seed", range(30))
def test_span_against_sympy(seed):
    pytest.importorskip("sympy")
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix
    rng = random.Random(seed)
    p = (2, 3, 5)[seed % 3]
    nr, nc = rng.randint(1, 7), rng.randint(1, 8)
    A = random_fp_matrix(rng, p, nr, nc)
    cols = [[A[i][j] for i in range(nr)] for j in range(nc)]
    # rank
    assert len(_independent_subset(cols, p)) == gf_rank(A, nc, p)
    # nullspace: the same span as sympy's, and A v = 0
    K = GF(p)
    theirs = [[int(x) % p for x in r] for r in
              DomainMatrix([[K(x) for x in r] for r in A], (nr, nc), K)
              .nullspace().to_list()]
    ours = _kernel_basis(A, nc, p)
    assert len(ours) == gf_rank(theirs, nc, p) == gf_rank(ours + theirs, nc, p)
    assert all(not any(_mat_vec(A, v, p)) for v in ours)
    # lex-first: 1 at its own dependent column, 0 at every other one
    dependent = [j for j in range(nc)
                 if gf_rank(cols[:j + 1], nr, p) == gf_rank(cols[:j], nr, p)]
    assert len(ours) == len(dependent)
    for v, j in zip(ours, dependent):
        assert [v[k] for k in dependent] == [1 if k == j else 0 for k in dependent]
    # coordinates: a solution with zeros on the dependent columns, or None
    # exactly when the target is outside the column span
    span = _Span(p)
    for c in cols:
        span.add(c)
    for _ in range(6):
        if rng.random() < 0.5:
            coeffs = [rng.randrange(p) for _ in range(nc)]
            target = [sum(c * A[i][j] for j, c in enumerate(coeffs)) % p
                      for i in range(nr)]
        else:
            target = [rng.randrange(p) for _ in range(nr)]
        sol = span.coordinates(target)
        outside = gf_rank(cols + [target], nr, p) > gf_rank(cols, nr, p)
        assert (sol is None) == outside
        if sol is not None:
            assert _mat_vec(A, sol, p) == target
            assert all(sol[j] == 0 for j in dependent)


def test_span_add_and_reduce():
    span = _Span(3)
    assert span.add([1, 2, 0]) is None
    assert span.add([0, 0, 0]) == [0]
    assert span.add([2, 1, 0]) == [2, 0]      # 2 * (1, 2, 0)
    assert span.add([0, 1, 1]) is None
    # span{(1, 2, 0), (0, 1, 1)} = {(a, 2a + b, b)}
    assert span.coordinates([1, 0, 1]) == [1, 0, 0, 1]
    assert span.coordinates([0, 0, 1]) is None
    residual, comb = span.reduce([0, 0, 1])
    added = [[1, 2, 0], [0, 0, 0], [2, 1, 0], [0, 1, 1]]
    assert any(residual) and comb[1] == comb[2] == 0
    assert residual == [(x - sum(c * a[i] for c, a in zip(comb, added))) % 3
                        for i, x in enumerate([0, 0, 1])]


def test_linear_algebra_edge_cases():
    # empty A: every column is free; no columns: no kernel
    assert _kernel_basis([], 3, 2) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert _kernel_basis([], 0, 2) == []
    assert _kernel_basis([[0, 0]], 2, 5) == [[1, 0], [0, 1]]
    # empty inputs to _intersect
    assert _intersect([], [[1, 0]], 3, 2) == []
    assert _intersect([[1, 0]], [], 3, 2) == []
    assert _intersect([], [], 3, 0) == []
    assert _intersect([[1, 0], [0, 1]], [[1, 1], [2, 2]], 3, 2) == [[1, 1]]
    # spans of nothing and of zero vectors
    assert _independent_subset([[0, 0], []], 2) == []
    assert _same_span([], [[0, 0]], 2) and not _same_span([], [[1, 0]], 2)
    assert _invert([], 3) == [] and _invert([[1, 1], [1, 1]], 3) is None
    assert _invert([[1, 1], [0, 1]], 3) == [[1, 2], [0, 1]]


def test_zero_dim_modules():
    Z = FptModule(5, 0, ())
    assert jordan_type(Z) == {} and decompose(Z).free_parts == []
    assert check_torsion_powers(Z) == (True, None)
    assert check_u_sequence(Z) is True
    assert random_nilpotent(3, 0, random.Random(1)).dim == 0
    # a 0-dim stage maps into the next one by a matrix with no columns
    dec = classify_divisible(IndFptModule([Z, jordan_module(5, [1])], [[[]]],
                                          stable_from=1))
    assert dec.free_parts == [(1, 1)] and dec.divisible_rank == 0


# -- the per-module memos -------------------------------------------------

def reference_mul(A, B, p):
    """Schoolbook product over F_p (test-time reference for mat_mul)."""
    m = len(B[0]) if B else 0
    return [[sum(A[i][t] * B[t][j] for t in range(len(B))) % p for j in range(m)]
            for i in range(len(A))]


def test_mat_mul_against_reference():
    rng = random.Random(3)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        n, k, m = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        A = random_fp_matrix(rng, p, n, k)
        B = random_fp_matrix(rng, p, k, m)
        assert mat_mul(A, B, p) == reference_mul(A, B, p)
    # empty shapes: IndFptModule's equivariance check on a 0-dim source
    assert mat_mul([], [[1]], 2) == []
    assert mat_mul([[1], [0]], [], 2) == [[], []]
    assert mat_mul([[1], [1]], [[]], 2) == [[], []]


@pytest.mark.parametrize("seed", range(12))
def test_module_memos_match_fresh_computation(seed):
    rng = random.Random(seed)
    p = (2, 3, 5)[seed % 3]
    for dim in range(0, 11):
        M = random_nilpotent(p, dim, rng)
        power = [[int(i == j) for j in range(dim)] for i in range(dim)]
        for k in range(dim + 3):
            assert [list(r) for r in M._power(k)] == power, (p, dim, k)
            cols = [[row[j] for row in power] for j in range(dim)]
            assert [list(v) for v in M._kernel(k)] == _kernel_basis(power, dim, p)
            assert [list(v) for v in M._image(k).basis] == _independent_subset(cols, p)
            assert M._image(k).rows == _span(cols, p).rows
            power = reference_mul(power, M.T(), p) if dim else []


def test_memos_are_not_fields():
    M = random_nilpotent(3, 7, random.Random(2))
    fresh = FptModule(M.p, M.dim, M.t_action)
    before = (repr(M), hash(M), M.to_json())
    decompose(M)
    check_torsion_powers(M)
    assert M == fresh and (repr(M), hash(M), M.to_json()) == before


def test_mutating_results_leaves_the_module_unchanged():
    rng = random.Random(8)
    M = random_nilpotent(2, 9, rng)
    twin = FptModule(M.p, M.dim, M.t_action)
    dec = decompose(M)
    for row in M.T():
        row[0] = 1
    for w in dec.witnesses:
        for row in w["inclusion"] + w["retraction"]:
            row[:] = [1] * len(row)
    N = jordan_module(2, [1, 2])
    ok, witness = satisfies_pn(N, 1)
    witness[:] = [1] * len(witness)
    assert satisfies_pn(N, 1) == satisfies_pn(jordan_module(2, [1, 2]), 1)
    for k in range(M.dim + 1):
        assert M._power(k) == twin._power(k)
    assert decompose(M).to_json() == decompose(twin).to_json()
    assert check_torsion_powers(M) == check_torsion_powers(twin)
    assert all(check_u_sequence(M, n) == check_u_sequence(twin, n)
               for n in range(4))

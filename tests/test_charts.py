import json
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from stemcharts.charts import (AbGroupDesc, BigradedChart, INF, chart_shift,
                               chart_sum, charts_same_groups, chow_degree,
                               chow_weight, complete_desc, custom_weight, cyclic,
                               fd_weight, free_group, truncate_chart, valuation,
                               _is_prime_power)


def test_chow_degree_examples():
    assert chow_degree(10, 5) == 0          # (2n, n)
    assert chow_degree(-3, 1) == -5
    # c(n, -w) = n + 2w
    assert chow_degree(-3, -1) == -1
    assert chow_degree(0, 0) == 0


def test_chow_degree_shift_invariance():
    for i in range(-20, 21):
        for j in range(-20, 21):
            assert chow_degree(i + 2, j + 1) == chow_degree(i, j)


def test_weight_eval_examples():
    f2 = fd_weight(2)
    assert f2(0) == 0
    assert f2(-1) == -1        # 2*(-1) + eps_2(-1) = -2 + 1
    assert chow_weight()(3) == 6


def test_weight_fd_band_matches_linear():
    # inside the band -(d-1) <= n <= 0 the fd weight equals g(n) = n
    for d in range(1, 9):
        f = fd_weight(d)
        for n in range(-(d - 1), 1):
            assert f(n) == n


def test_custom_weight_window_error():
    f = custom_weight({0: 0, 1: 2})
    assert f(1) == 2
    with pytest.raises(KeyError):
        f(5)


@given(st.integers(min_value=1, max_value=10),
       st.integers(min_value=-50, max_value=50),
       st.integers(min_value=-50, max_value=50))
@settings(max_examples=300, deadline=None)
def test_fd_superadditive(d, a, b):
    f = fd_weight(d)
    assert f(a) + f(b) >= f(a + b)
    assert f(0) == 0


def _toy_chart():
    return BigradedChart({
        (-1, 0): cyclic(3),   # chow -1
        (0, 0): free_group(1),  # chow 0
        (4, 1): cyclic(4),    # chow 2
    }, label="toy")


def test_truncate_modes():
    c = _toy_chart()
    ge = truncate_chart(c, chow_weight(), 0, "ge")
    assert set(ge.entries) == {(0, 0), (4, 1)}
    lt = truncate_chart(c, chow_weight(), 0, "lt")
    assert set(lt.entries) == {(-1, 0)}
    eq = truncate_chart(c, chow_weight(), 2, "eq")
    assert set(eq.entries) == {(4, 1)}
    assert not truncate_chart(BigradedChart({}), chow_weight(), 0, "ge").entries


def test_truncate_idempotent_and_complementary():
    c = _toy_chart()
    for thr in (-2, 0, 1):
        ge = truncate_chart(c, chow_weight(), thr, "ge")
        assert truncate_chart(ge, chow_weight(), thr, "ge") == ge
        lt = truncate_chart(c, chow_weight(), thr, "lt")
        assert chart_sum(ge, lt) == c


def test_fake_chow_band_agreement():
    # truncation by f_{l-1} agrees with the linear weight g(n) = n on charts
    # supported in the band -(l-2) <= n <= 0 (three-column toy chart)
    ell = 5
    d = ell - 1
    band = list(range(-(ell - 2), 1))
    chart = BigradedChart({(i, j): cyclic(ell)
                           for j in band for i in range(-4, 5)})
    g = custom_weight({n: n for n in range(-10, 11)})
    for thr in range(-4, 5):
        a = truncate_chart(chart, fd_weight(d), thr, "ge")
        b = truncate_chart(chart, g, thr, "ge")
        assert a == b


def test_chart_combine_examples():
    unit = BigradedChart({(0, 0): free_group(1)})
    shifted = chart_shift(unit, 2, 2)
    assert set(shifted.entries) == {(2, 2)}
    a = BigradedChart({(0, 0): cyclic(3)})
    b = BigradedChart({(1, 1): cyclic(5)})
    u = chart_sum(a, b)
    assert set(u.entries) == {(0, 0), (1, 1)}
    doubled = chart_sum(a, a)
    assert doubled.group(0, 0).torsion == (3, 3)


def test_chart_prime_mismatch():
    a = BigradedChart({(0, 0): cyclic(3)}, prime=3)
    b = BigradedChart({(0, 0): cyclic(5)}, prime=5)
    from stemcharts.charts import ChartError
    with pytest.raises(ChartError):
        chart_sum(a, b)


def test_complete_desc_examples():
    g = AbGroupDesc(free_rank=1, torsion=(2, 3))  # Z (+) Z/6
    c = complete_desc(g, 2)
    assert c.free_rank == 1 and c.completed_at == 2 and c.torsion == (2,)
    assert complete_desc(cyclic(3), 2).is_zero()
    assert complete_desc(cyclic(9), 3).torsion == (9,)


def test_zero_entries_never_stored():
    c = BigradedChart({(0, 0): AbGroupDesc()})
    assert not c.entries


def test_infinite_rank_arithmetic():
    g = AbGroupDesc(free_rank=INF)
    s = g.direct_sum(free_group(3))
    assert s.free_rank == INF
    scaled = cyclic(9).scaled(INF)
    assert scaled.torsion_infinite == (9,)
    assert not scaled.torsion


def test_torsion_must_be_prime_powers():
    with pytest.raises(ValueError):
        AbGroupDesc(torsion=(6,))
    assert cyclic(6).torsion == (2, 3)


def test_is_prime_power_examples():
    assert [_is_prime_power(n) for n in (0, 1, 2, 4, 6, 12, 27, 49, 1024)] == \
        [None, None, (2, 1), (2, 2), None, None, (3, 3), (7, 2), (2, 10)]
    # around the switch from trial division to integer roots at 41
    assert [_is_prime_power(n) for n in (37 ** 3, 41, 41 ** 2, 43 * 47, 41 ** 2 * 43)] == \
        [(37, 3), (41, 1), (41, 2), None, None]
    assert [q for q in range(2, 28) if _is_prime_power(q)] == \
        [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 6),
       st.integers(-10 ** 6, 10 ** 6))
def test_valuation_of_a_prime_power_multiple(p, k, m):
    assume(m % p)
    assert valuation(p ** k * m, p) == k


def test_large_prime_torsion_is_fast():
    # trial division up to sqrt(2^61 - 1) would not finish
    q = 2 ** 61 - 1
    start = time.perf_counter()
    assert AbGroupDesc(torsion=(q,)).torsion == (q,)
    assert _is_prime_power(q ** 3) == (q, 3)
    with pytest.raises(ValueError):
        AbGroupDesc(torsion=(3 * q,))
    assert time.perf_counter() - start < 1.0


def _cyclic_by_trial_division(q):
    n, torsion, p = q, [], 2
    while p * p <= n:
        if n % p == 0:
            pk = 1
            while n % p == 0:
                pk, n = pk * p, n // p
            torsion.append(pk)
        p += 1
    if n > 1:
        torsion.append(n)
    return AbGroupDesc(torsion=tuple(sorted(torsion)))


def test_cyclic_matches_trial_division():
    for n in range(20000):
        assert cyclic(n) == _cyclic_by_trial_division(n), n


@pytest.mark.parametrize("q,torsion", [
    (2 ** 61 - 1, (2 ** 61 - 1,)),
    ((2 ** 31 - 1) * (2 ** 61 - 1), (2 ** 31 - 1, 2 ** 61 - 1)),
    (2 ** 5 * 43 * (2 ** 31 - 1) ** 2, (32, 43, (2 ** 31 - 1) ** 2)),
])
def test_cyclic_large_orders_are_fast(q, torsion):
    # trial division up to sqrt(q) would not finish
    start = time.perf_counter()
    assert cyclic(q).torsion == torsion
    assert time.perf_counter() - start < 1.0


def test_precision_invariant():
    with pytest.raises(ValueError):
        AbGroupDesc(torsion=(8,), modulus_precision=3)
    AbGroupDesc(torsion=(8,), modulus_precision=4)


def test_serialization_roundtrip_and_ordering():
    c = BigradedChart({(2, 1): cyclic(4), (0, 0): free_group(1),
                       (5, 1): cyclic(3), (-1, -2): cyclic(2)},
                      label="ser", prime=2)
    obj = c.to_json()
    keys = [(e["i"], e["j"]) for e in obj["entries"]]
    assert keys == sorted(keys, key=lambda ij: (ij[1], ij[0]))
    back = BigradedChart.from_json(json.loads(json.dumps(obj)))
    assert back == c and back.label == "ser" and back.prime == 2


def test_same_groups_ignores_precision():
    a = BigradedChart({(0, 0): AbGroupDesc(torsion=(3,), modulus_precision=10)})
    b = BigradedChart({(0, 0): cyclic(3)})
    assert charts_same_groups(a, b)
    assert a != b

"""Validation checks shared by `stemcharts check` and the acceptance tests.

Each check replays oracle cross-checks and yields one `(line, ok)` pair
per claim.  It takes a single argument, the scale: `DESK` keeps `stemcharts
check --suite all` under a second, `FULL` holds the parameters of the
criteria in `tests/test_acceptance.py`.  Line names are formatted from the
scale, so a failing criterion names the same claim as the CLI's `[FAIL]`
line.  Oracles are imported inside each check, at call time.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, Optional

from .charts import _is_prime_power

Lines = Iterator[tuple[str, bool]]


@dataclass(frozen=True)
class Scale:
    """The parameters of every check at one scale."""

    # milnor: Steinberg oracles for the prime powers q < q_below, Witt
    # groups of these F_q
    q_below: int
    witt_fields: tuple[int, ...]
    # fpt: (seed, count, dimension bound) of the random modules
    random_modules: tuple[int, int, int]
    # charts: f_d for d <= fd_max on |a|, |b| <= fd_window; truncations of
    # Z/3 on |i| <= i_max, |j| <= j_max at each threshold; Chow degree on
    # |i|, |j| <= chow_range
    fd_max: int
    fd_window: int
    truncation_box: tuple[int, int]
    thresholds: tuple[int, ...]
    chow_range: int
    # hopf: (kind, p, bound, degree_max); d o d = 0 for s <= 2
    algebroids: tuple[tuple[str, Optional[int], int, int], ...]
    # ext: (K, s_max, t_max) of the p = 3 chart
    ext: tuple[int, int, int]
    # stems: stem_max per prime; identity case at p = 3 over these fields;
    # diagonal agreement on |n| <= diagonal_range
    stem_max: dict[int, int]
    identity_fields: tuple[str, ...]
    diagonal_range: int


DESK = Scale(
    q_below=28, witt_fields=(3, 5, 9),
    random_modules=(2024, 60, 9),
    fd_max=7, fd_window=25, truncation_box=(3, 3), thresholds=(0,),
    chow_range=5,
    algebroids=(("p_typical", 2, 4, 4), ("p_typical", 3, 5, 5),
                ("universal", None, 4, 4)),
    ext=(8, 5, 14),
    stem_max={3: 10}, identity_fields=("complex",), diagonal_range=4,
)

FULL = Scale(
    q_below=50, witt_fields=(3, 5, 7, 9, 11, 13, 25, 27, 49),
    random_modules=(20260809, 500, 13),
    fd_max=10, fd_window=50, truncation_box=(4, 3), thresholds=(-2, 0, 3),
    chow_range=30,
    algebroids=(("universal", None, 10, 5), ("p_typical", 2, 10, 5),
                ("p_typical", 3, 10, 5), ("p_typical", 5, 10, 5)),
    ext=(10, 6, 18),
    stem_max={2: 7, 3: 12},
    identity_fields=("complex", "algclosed_char0", "algclosed_char7"),
    diagonal_range=5,
)

# Exhaustive Jordan types: dimension <= JORDAN_DIM at p = 2 and 3.
JORDAN_DIM = 4

# The 3-primary Adams-Novikov E_2 through t = 18 ((s, t) -> shorthand):
# alpha_1, alpha_2, alpha_{3/2}, alpha_4, beta_1 and alpha_1 beta_1.
P3_E2 = {(0, 0): "Z3", (1, 4): "3", (1, 8): "3", (1, 12): "9",
         (2, 12): "3", (1, 16): "3", (3, 16): "3"}

# The p = 3 chart is compared with the classical stems 1..CLASSICAL_STEM_MAX.
CLASSICAL_STEM_MAX = 12


def check_milnor(scale: Scale) -> Lines:
    from .charts import cyclic
    from .fields import (element_order, finite_field, finite_field_square_model,
                         milnor_k, quadratically_closed_square_model,
                         real_closed_square_model, steinberg_k1,
                         steinberg_k2, witt_group_table)
    pps = [q for q in range(2, scale.q_below) if _is_prime_power(q)]
    yield (f"Steinberg: K2(F_q)=0 for q in {pps}",
           all(steinberg_k2(q) == 1
               and milnor_k(finite_field(q), 1)[1] == cyclic(steinberg_k1(q))
               for q in pps))
    for q in scale.witt_fields:
        reps, add = witt_group_table(finite_field_square_model(q))
        binaries = [r for r in reps if len(r) == 2]
        yield (f"Witt enumeration over F_{q}",
               len(reps) == 4
               and element_order(("1",), add, reps) == (2 if q % 4 == 1 else 4)
               and len(binaries) == 1 and add[(binaries[0], binaries[0])] == ())
    reps, add = witt_group_table(quadratically_closed_square_model())
    yield ("quadratically closed: W = Z/2",
           len(reps) == 2 and add[(("1",), ("1",))] == ())
    reps, _ = witt_group_table(real_closed_square_model(), max_dim=5)
    signatures = sorted((1 if r and r[0] == "+" else -1) * len(r) for r in reps)
    yield "real closed: signature classes +-n", signatures == list(range(-5, 6))


def check_fpt(scale: Scale) -> Lines:
    from .fpt import (check_torsion_powers, check_u_sequence, decompose,
                      jordan_module, jordan_type, partitions, random_nilpotent,
                      satisfies_pn)
    agree = True
    for p in (2, 3):
        for d in range(0, JORDAN_DIM + 1):
            for part in partitions(d):
                M = jordan_module(p, part)
                agree &= decompose(M).profile() == jordan_type(M)
                # Lemma (1): for blocks of size <= n + 1, M satisfies P_n
                # exactly when every block has size n + 1
                for n in range(0, JORDAN_DIM + 1):
                    if part and all(s <= n + 1 for s in part):
                        ok, _ = satisfies_pn(M, n)
                        agree &= ok == all(s == n + 1 for s in part)
    yield f"decompose vs Jordan oracle, dim <= {JORDAN_DIM}, p in {{2,3}}", agree
    seed, count, dim_below = scale.random_modules
    rng = random.Random(seed)
    implied = True
    for _ in range(count):
        p = rng.choice([2, 3])
        M = random_nilpotent(p, rng.randrange(0, dim_below), rng)
        useq = all(check_u_sequence(M, n)
                   for n in range(0, dim_below) if p ** n <= max(M.dim, 1))
        tp, _ = check_torsion_powers(M)
        implied &= tp or not useq
    yield "u-sequence exactness implies the torsion-power condition", implied


def check_charts(scale: Scale) -> Lines:
    from .charts import (BigradedChart, chart_sum, chow_degree, chow_weight,
                         cyclic, fd_weight, is_superadditive, truncate_chart)
    yield (f"f_d superadditivity, d <= {scale.fd_max}, window {scale.fd_window}",
           all(is_superadditive(fd_weight(d), scale.fd_window)
               for d in range(1, scale.fd_max + 1)))
    i_max, j_max = scale.truncation_box
    c = BigradedChart({(i, j): cyclic(3) for i in range(-i_max, i_max + 1)
                       for j in range(-j_max, j_max + 1)})
    ge = {thr: truncate_chart(c, chow_weight(), thr, "ge")
          for thr in scale.thresholds}
    yield ("truncation idempotent",
           all(truncate_chart(t, chow_weight(), thr, "ge") == t
               for thr, t in ge.items()))
    yield ("ge/lt truncation complementary",
           all(chart_sum(t, truncate_chart(c, chow_weight(), thr, "lt")) == c
               for thr, t in ge.items()))
    r = scale.chow_range
    yield ("chow degree (2,1)-invariance",
           all(chow_degree(i + 2, j + 1) == chow_degree(i, j)
               for i in range(-r, r + 1) for j in range(-r, r + 1)))


def check_hopf(scale: Scale) -> Lines:
    from .hopf import build_algebroid
    from .cobar import CobarComplex
    for kind, p, bound, degree_max in scale.algebroids:
        try:
            cx = CobarComplex(build_algebroid(kind, bound, p=p))
            for d in range(0, degree_max + 1):
                for s in range(0, 3):
                    cx.check_d_squared(s, d)
            good = True
        except Exception as exc:  # loud failure is the point
            good = False
            print(f"   error: {exc}")
        yield f"{kind} (p={p}) axioms + d^2 = 0 at bound {bound}", good


def classical_stem_mismatches(ec, stem_max: int) -> list[tuple[int, int, int]]:
    """(stem, chart order, classical order) for each stem 1..stem_max where
    the product of the orders in the Ext chart's stem column differs from
    the p-part of the classical stable stem."""
    from .extcharts import stable_stems_reference
    ref = stable_stems_reference(ec.p)
    out = []
    for stem in range(1, stem_max + 1):
        total = math.prod(g.order() for (s, t), g in ec.chart.entries.items()
                          if t - s == stem)
        want = math.prod(ref.get(stem, ()))
        if total != want:
            out.append((stem, total, want))
    return out


def check_ext(scale: Scale) -> Lines:
    from .charts import charts_same_groups
    from .extcharts import ext_chart
    from .hopf import build_algebroid
    K, s_max, t_max = scale.ext
    alg = build_algebroid("p_typical", t_max // 2, p=3)
    ec = ext_chart(alg, 3, K, s_max=s_max, t_max=t_max)
    found = {k: g.shorthand() for k, g in ec.chart.entries.items()}
    expected = {(s, t): g for (s, t), g in P3_E2.items()
                if s <= s_max and t <= t_max}
    unnormalized = ext_chart(alg, 3, K, s_max=s_max, t_max=t_max,
                             normalized=False)
    yield (f"p=3 E2 chart through t={t_max}",
           found == expected and charts_same_groups(ec.chart, unnormalized.chart))
    yield ("classical stem reference table consistent",
           not classical_stem_mismatches(ec, CLASSICAL_STEM_MAX))


def diagonal_pairs(scale: Scale) -> list[tuple[int, str]]:
    """(p, field) pairs of the diagonal check: each prime of the scale with
    every catalog field that is Tate-orientable at it."""
    from .catalog import default_catalog
    return [(p, name) for p in sorted(scale.stem_max)
            for name, k in sorted(default_catalog().items())
            if k.tate_orientable(p)]


def check_stems(scale: Scale) -> Lines:
    from .charts import charts_same_groups, complete_desc
    from .catalog import default_catalog
    from .stems import morel_zero_line, synthetic_stems, tensor_formula
    cat = default_catalog()
    stem_max = scale.stem_max[3]
    syn = synthetic_stems(3, stem_max)
    tbl = synthetic_stems(3, stem_max, source="table")
    yield ("synthetic p=3: computed agrees with the table",
           charts_same_groups(syn.chart, tbl.chart))
    for name in scale.identity_fields:
        yield (f"tensor formula identity case over the {name} field",
               charts_same_groups(tensor_formula(cat[name], 3, stem_max),
                                  syn.chart))
    r = scale.diagonal_range
    diag = True
    for p, name in diagonal_pairs(scale):
        t = tensor_formula(cat[name], p, scale.stem_max[p])
        mz = morel_zero_line(cat[name], -r, r)
        diag &= all(t.group(n, n).same_group(complete_desc(mz.group(n, n), p))
                    for n in range(-r, r + 1))
    yield "diagonal agreement with the completed Morel 0-line", diag


def check_determinism(scale: Scale) -> Lines:
    import json
    from .catalog import default_catalog
    from .render import render_svg, render_text
    from .stems import synthetic_stems, tensor_formula
    stem_max = scale.stem_max[3]

    def table():
        return synthetic_stems(3, stem_max, source="table").chart
    a = tensor_formula(default_catalog()["complex"], 3, stem_max).to_json()
    b = tensor_formula(default_catalog()["complex"], 3, stem_max).to_json()
    yield "tensor formula reruns byte-identically", json.dumps(a) == json.dumps(b)
    yield "SVG rendering is deterministic", render_svg(table()) == render_svg(table())
    yield ("text rendering is read-only and deterministic",
           render_text(table()) == render_text(table()))


SUITES = {
    "milnor": check_milnor,
    "fpt": check_fpt,
    "charts": check_charts,
    "hopf": check_hopf,
    "ext": check_ext,
    "stems": check_stems,
    "determinism": check_determinism,
}


def run_suite(name: str) -> bool:
    """Print a [PASS]/[FAIL] line per check of the suite (or of every suite
    for "all") at desk scale; True when every line passes.  A suite that
    raises (a broken oracle, not a rejected input) gets one more line,
    "[FAIL] <suite>: <exception type>: <message>", and the next suite
    still runs."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    ok = True
    for key in SUITES if name == "all" else (name,):
        if name == "all":
            print(f"-- suite {key}")
        try:
            for line, good in SUITES[key](DESK):
                print(f"[{'PASS' if good else 'FAIL'}] {line}")
                ok &= good
        except Exception as exc:  # loud failure is the point
            print(f"[FAIL] {key}: {type(exc).__name__}: {exc}")
            ok = False
    return ok

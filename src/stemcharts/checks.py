"""Built-in validation suites behind `stemcharts check --suite`.

Each suite replays the oracle cross-checks at desk scale and prints one
line per check.  The pytest acceptance module runs the same content with
the full parameters; these suites favor speed so the CLI stays responsive.
"""

from __future__ import annotations

import random

from .charts import _is_prime_power


def _report(name: str, ok: bool, verbose: bool) -> bool:
    if verbose:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    return ok


def suite_milnor(verbose: bool = True) -> bool:
    from .fields import (steinberg_k2, finite_field_square_model,
                         quadratically_closed_square_model,
                         real_closed_square_model, witt_group_table,
                         element_order)
    ok = True
    pps = [q for q in range(2, 28) if _is_prime_power(q)]
    bad = [q for q in pps if steinberg_k2(q) != 1]
    ok &= _report(f"Steinberg: K2(F_q)=0 for q in {pps}", not bad, verbose)
    for q in (3, 5, 9):
        reps, add = witt_group_table(finite_field_square_model(q))
        good = len(reps) == 4 and \
            element_order(("1",), add, reps) == (2 if q % 4 == 1 else 4)
        ok &= _report(f"Witt enumeration over F_{q}", good, verbose)
    reps, add = witt_group_table(quadratically_closed_square_model())
    ok &= _report("quadratically closed: W = Z/2",
                  len(reps) == 2 and add[(("1",), ("1",))] == (), verbose)
    reps, _ = witt_group_table(real_closed_square_model(), max_dim=5)
    ok &= _report("real closed: signature classes +-n", len(reps) == 11, verbose)
    return ok


def suite_fpt(verbose: bool = True) -> bool:
    from .fpt import (check_torsion_powers, check_u_sequence, decompose,
                      jordan_module, jordan_type, partitions, random_nilpotent)
    ok = True
    agree = True
    for p in (2, 3):
        for d in range(0, 5):
            for part in partitions(d):
                M = jordan_module(p, part)
                if decompose(M).profile() != jordan_type(M):
                    agree = False
    ok &= _report("decompose vs Jordan oracle, dim <= 4, p in {2,3}",
                  agree, verbose)
    rng = random.Random(2024)
    impl = True
    for _ in range(60):
        p = rng.choice([2, 3])
        M = random_nilpotent(p, rng.randrange(0, 9), rng)
        useq = all(check_u_sequence(M, p, n)
                   for n in range(0, 9) if p ** n <= max(M.dim, 1))
        tp, _ = check_torsion_powers(M)
        if useq and not tp:
            impl = False
    ok &= _report("u-sequence exactness implies the torsion-power condition",
                  impl, verbose)
    return ok


def suite_charts(verbose: bool = True) -> bool:
    from .charts import (BigradedChart, chart_combine, chow_degree, chow_weight,
                         cyclic, fd_weight, truncate_chart)
    ok = True
    good = all(fd_weight(d).check_superadditive(25) for d in range(1, 8))
    ok &= _report("f_d superadditivity, d <= 7, window 25", good, verbose)
    c = BigradedChart({(i, j): cyclic(3) for i in range(-3, 4)
                       for j in range(-3, 4)})
    t = truncate_chart(c, chow_weight(), 0, "ge")
    ok &= _report("truncation idempotent",
                  truncate_chart(t, chow_weight(), 0, "ge") == t, verbose)
    lt = truncate_chart(c, chow_weight(), 0, "lt")
    ok &= _report("ge/lt truncation complementary",
                  chart_combine(t, lt, "direct_sum") == c, verbose)
    ok &= _report("chow degree (2,1)-invariance",
                  all(chow_degree(i + 2, j + 1) == chow_degree(i, j)
                      for i in range(-5, 6) for j in range(-5, 6)), verbose)
    return ok


def suite_hopf(verbose: bool = True) -> bool:
    from .hopf import build_algebroid
    from .cobar import CobarComplex
    ok = True
    for kind, p, bound in (("p_typical", 2, 4), ("p_typical", 3, 5),
                           ("universal", None, 4)):
        try:
            alg = build_algebroid(kind, bound, p=p)
            cx = CobarComplex(alg)
            for d in range(0, bound + 1):
                for s in range(0, 3):
                    cx.check_d_squared(s, d)
            good = True
        except Exception as exc:  # loud failure is the point
            good = False
            if verbose:
                print(f"   error: {exc}")
        ok &= _report(f"{kind} (p={p}) axioms + d^2 = 0 at bound {bound}",
                      good, verbose)
    return ok


def suite_ext(verbose: bool = True) -> bool:
    from .extcharts import ext_chart, stable_stems_reference
    from .hopf import build_algebroid
    ok = True
    alg = build_algebroid("p_typical", 7, p=3)
    ec = ext_chart(alg, 3, 8, s_max=5, t_max=14)
    expected = {(0, 0): "Z3", (1, 4): "3", (1, 8): "3",
                (2, 12): "3", (1, 12): "9"}
    found = {k: g.shorthand() for k, g in ec.chart.entries.items()}
    ok &= _report("p=3 E2 chart through t=14", found == expected, verbose)
    ref = stable_stems_reference(3)
    cons = all(n not in (3, 7, 10, 11) or n in ref for n in range(1, 12))
    ok &= _report("classical stem reference table consistent", cons, verbose)
    return ok


def suite_stems(verbose: bool = True) -> bool:
    from .charts import charts_same_groups, complete_desc
    from .catalog import default_catalog
    from .stems import morel_zero_line, synthetic_stems, tensor_formula
    ok = True
    syn = synthetic_stems(3, 10)
    tbl = synthetic_stems(3, 10, source="table")
    ok &= _report("synthetic p=3: computed agrees with the table",
                  charts_same_groups(syn.chart, tbl.chart), verbose)
    C = default_catalog()["complex"]
    t = tensor_formula(C, 3, 10)
    ok &= _report("tensor formula identity case over the complex field",
                  charts_same_groups(t, syn.chart), verbose)
    mz = morel_zero_line(C, -4, 4)
    diag = all(t.group(n, n).same_group(complete_desc(mz.group(n, n), 3))
               for n in range(-4, 5))
    ok &= _report("diagonal agreement with the completed Morel 0-line",
                  diag, verbose)
    return ok


def suite_determinism(verbose: bool = True) -> bool:
    import json
    from .catalog import default_catalog
    from .render import render_svg, render_text
    from .stems import synthetic_stems, tensor_formula
    ok = True
    a = tensor_formula(default_catalog()["complex"], 3, 8).to_json()
    b = tensor_formula(default_catalog()["complex"], 3, 8).to_json()
    ok &= _report("tensor formula reruns byte-identically",
                  json.dumps(a) == json.dumps(b), verbose)
    s1 = render_svg(synthetic_stems(3, 10, source="table").chart)
    s2 = render_svg(synthetic_stems(3, 10, source="table").chart)
    ok &= _report("SVG rendering is deterministic", s1 == s2, verbose)
    t1 = render_text(synthetic_stems(3, 10, source="table").chart)
    ok &= _report("text rendering is read-only and deterministic",
                  t1 == render_text(synthetic_stems(3, 10, source="table").chart),
                  verbose)
    return ok


SUITES = {
    "milnor": suite_milnor,
    "fpt": suite_fpt,
    "charts": suite_charts,
    "hopf": suite_hopf,
    "ext": suite_ext,
    "stems": suite_stems,
    "determinism": suite_determinism,
}


def run_suite(name: str, verbose: bool = True) -> bool:
    if name == "all":
        ok = True
        for key in SUITES:
            if verbose:
                print(f"-- suite {key}")
            ok &= SUITES[key](verbose)
        return ok
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](verbose)

"""End-to-end acceptance gate.

One test per criterion; each prints a single PASS/FAIL line before
asserting, so the final report always shows all nine verdicts.
"""

import random
import time
from fractions import Fraction as F

from bracketforge.config import (
    Config,
    cactus_check,
    is_nilpotent,
    nilpotent_dim,
    preset,
    q_points,
    subset_has_cycle,
)
from bracketforge.gc import line_expr, meet, parse_bracket_text
from bracketforge.harness import (
    cactus_realization,
    collinear_realization,
    decomposition_report,
    generic_q,
    in_realization_space,
    pappus_realization,
    pascal_family_sample,
    quadrilateral_set_flat,
    random_cactus,
    replay_cactus_counterexample,
)
from bracketforge.ideals import (
    HypothesisError,
    cactus_generators,
    circuit_generators,
    gc_generators_preset,
    pappus_gc_expressions,
    pascal_gc_expressions,
    PAPPUS_GC_EXPECTED_TEXT,
    PASCAL_GC_EXPECTED_TEXT,
)
from bracketforge.lifting import (
    QScheme,
    eval_descriptor,
    lift_dim,
    lift_matrix,
    minor_count,
    sample_descriptors,
)
from bracketforge.linalg import Realization, cross, det3, proportional, vec3
from bracketforge.poly import (
    BracketPoly,
    Q_COL,
    bracket,
    const_col,
    symbolic_minor,
)


def report(n, ok, detail):
    print(f"\nCRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def rand_realization(rng, d):
    return Realization(
        tuple(vec3(*(F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(3))) for _ in range(d))
    )


def test_criterion_1_generator_counts():
    start = time.perf_counter()
    got = {}
    for name in ("pascal", "pappus"):
        cfg = preset(name)
        exprs = pascal_gc_expressions() if name == "pascal" else pappus_gc_expressions()
        got[name] = (len(circuit_generators(cfg)), len(exprs), minor_count(name))
    elapsed = time.perf_counter() - start
    want = {"pascal": (7, 7, 708_588), "pappus": (9, 9, 2_361_960)}
    ok = got == want and elapsed < 1.0
    assert report(1, ok, f"counts {got}, {elapsed:.2f}s (budget 1s)")


def substitute_gamma(p: BracketPoly, gamma: Realization) -> BracketPoly:
    """Specialize the point variables, leaving q symbolic."""
    out = BracketPoly.zero()
    for mono, coeff in p.terms.items():
        c = F(coeff)
        qpart = []
        for v, e in mono:
            if v[0] == "x":
                c *= gamma.col(v[1])[v[2]] ** e
            else:
                qpart.append((v, e))
        if c:
            out = out + BracketPoly({tuple(qpart): c})
    return out


def test_criterion_2_qs_matrix_and_minors():
    start = time.perf_counter()
    cfg = preset("qs")
    m = lift_matrix(cfg, QScheme.symbolic())
    expected_rows = [
        [bracket(2, 3, Q_COL), -bracket(1, 3, Q_COL), bracket(1, 2, Q_COL), 0, 0, 0],
        [bracket(5, 6, Q_COL), 0, 0, 0, -bracket(1, 6, Q_COL), bracket(1, 5, Q_COL)],
        [0, bracket(4, 6, Q_COL), 0, -bracket(2, 6, Q_COL), 0, bracket(2, 4, Q_COL)],
        [0, 0, bracket(4, 5, Q_COL), -bracket(3, 5, Q_COL), bracket(3, 4, Q_COL), 0],
    ]
    expected = [
        tuple(e if isinstance(e, BracketPoly) else BracketPoly.zero() for e in row)
        for row in expected_rows
    ]

    def row_key(row):
        # canonical form up to a global sign of the row
        first = next(e for e in row if not e.is_zero())
        sign = 1 if first.leading_coeff() > 0 else -1
        return tuple(e.scale(sign) for e in row)

    rows_ok = {row_key(r) for r in m.entries} == {row_key(r) for r in expected}

    minors_ok = True
    from itertools import combinations

    col_sets = list(combinations(range(6), 4))
    assert len(col_sets) == 15
    rows = (0, 1, 2, 3)
    gammas = [quadrilateral_set_flat(seed) for seed in range(20)]
    for g in gammas:
        assert g.rank() <= 2
        sub = [[substitute_gamma(e, g) for e in row] for row in m.entries]
        for cols in col_sets:
            if not symbolic_minor(sub, rows, cols).is_zero():
                minors_ok = False
    elapsed = time.perf_counter() - start
    ok = rows_ok and minors_ok and elapsed < 10.0
    assert report(
        2,
        ok,
        f"matrix form {'matches' if rows_ok else 'differs'}; 15 symbolic 4x4 minors "
        f"{'vanish' if minors_ok else 'do not vanish'} on 20 rank<=2 collections; "
        f"{elapsed:.2f}s (budget 10s)",
    )


def test_criterion_3_gc_reproduction():
    def canonical(combo):
        return combo.expand().sign_normalized().to_text()

    mismatches = []
    for idx, (_, combo) in enumerate(pascal_gc_expressions()):
        if idx in PASCAL_GC_EXPECTED_TEXT:
            want = parse_bracket_text(PASCAL_GC_EXPECTED_TEXT[idx])
            if canonical(combo) != canonical(want):
                mismatches.append(("pascal", idx))
    for idx, (_, combo) in enumerate(pappus_gc_expressions()):
        want = parse_bracket_text(PAPPUS_GC_EXPECTED_TEXT[idx])
        if canonical(combo) != canonical(want):
            mismatches.append(("pappus", idx))
    ok = not mismatches
    assert report(3, ok, f"7 Pascal + 9 Pappus expressions; mismatches: {mismatches or 'none'}")


def test_criterion_4_vanishing_suite():
    start = time.perf_counter()
    samplers = {"pascal": pascal_family_sample, "pappus": pappus_realization}
    detail = []
    ok = True
    for name, sampler in samplers.items():
        cfg = preset(name)
        gammas = [sampler(seed) for seed in range(20)]
        bad_circuit = sum(
            1 for c in circuit_generators(cfg) if any(c.eval(g) != 0 for g in gammas)
        )
        bad_gc = sum(1 for c in gc_generators_preset(name) if any(c.eval(g) != 0 for g in gammas))
        descs = sample_descriptors(name, 200, seed=0)
        bad_lift = 0
        for d in descs:
            for g in gammas:
                gd = g if d.deleted is None else g.restrict(
                    [p for p in range(1, g.d + 1) if p != d.deleted]
                )
                if eval_descriptor(d, gd) != 0:
                    bad_lift += 1
                    break
        ok = ok and bad_circuit == 0 and bad_gc == 0 and bad_lift == 0
        detail.append(
            f"{name}: circuit {bad_circuit}/{len(circuit_generators(cfg))} bad, "
            f"gc {bad_gc} bad, lifting {bad_lift}/200 descriptors nonzero"
        )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    assert report(4, ok, "; ".join(detail) + f"; {elapsed:.1f}s (budget 60s)")


def test_criterion_5_counterexample_replay():
    rep = replay_cactus_counterexample()
    l1_ok = proportional(rep.l1, vec3(1, F(13, 3), F(23, 3)))
    l3_ok = proportional(rep.l3, vec3(1, F(13, 3), F(20, 3)))
    l2_ok = proportional(rep.l2, vec3(1, F(65, 12), F(80, 12)))
    det_ok = rep.det_exact_representatives == -455
    ok = l1_ok and l2_ok and l3_ok and det_ok and rep.ok()
    assert report(
        5,
        ok,
        f"L1/L3/L2 proportional: {l1_ok}/{l3_ok}/{l2_ok}; det = "
        f"{rep.det_exact_representatives} (want -455)",
    )


def test_criterion_6_dimension_formula():
    configs = [
        preset("line:4"),
        preset("line:6"),
        preset("cycle:3:3"),
        preset("cycle:4:4"),
        random_cactus(0),
        random_cactus(1),
        random_cactus(2),
        preset("cactus14"),
        preset("pascal").delete({7}),
        preset("pappus").delete({1, 9}),
    ]
    mismatches = []
    for i, cfg in enumerate(configs):
        want = nilpotent_dim(cfg)
        for gseed in range(5):
            g = collinear_realization(cfg, seed=gseed)
            for qseed in range(3):
                q = generic_q(g, seed=100 * gseed + qseed, cfg=cfg)
                got = lift_dim(cfg, g, q)
                if got != want:
                    mismatches.append((i, gseed, qseed, got, want))
    named = (nilpotent_dim(configs[-2]), nilpotent_dim(configs[-1]))
    ok = not mismatches and named == (4, 4)
    assert report(
        6,
        ok,
        f"10 fixtures x 5 collinear samples x 3 directions; mismatches: "
        f"{mismatches or 'none'}; Pascal minus point 7 and Pappus minus points 1,9 dims {named}",
    )


def test_criterion_7_decompositions():
    counts = (
        decomposition_report("pascal").count,
        decomposition_report("pappus").count,
        decomposition_report("cactus", preset("cactus14")).count,
    )
    ok = counts == (5, 32, 8)
    assert report(7, ok, f"Pascal/Pappus/cactus14 component counts {counts} (want (5, 32, 8))")


def test_criterion_8_cactus_pipeline():
    configs = [preset("cactus14"), preset("line:4"), preset("cycle:3:3"), preset("cycle:4:3")]
    configs += [random_cactus(seed) for seed in range(20)]
    all_cactus = all(cactus_check(c).is_cactus for c in configs)
    all_nilpotent = all(is_nilpotent(c) for c in configs)
    all_realized = all(
        in_realization_space(c, cactus_realization(c, seed=3))[0] for c in configs
    )
    try:
        cactus_generators(preset("cactus14"))
        raised = False
    except HypothesisError as e:
        raised = "cycle" in str(e)
    ok = all_cactus and all_nilpotent and all_realized and raised
    assert report(
        8,
        ok,
        f"24 cacti: recognition {all_cactus}, nilpotent {all_nilpotent}, realized "
        f"{all_realized}; acyclicity violation raised on the 14-point example: {raised}",
    )


def test_criterion_9_property_suites():
    rng = random.Random(0)
    # bracket alternation / multilinearity on constant columns
    alt_ok = mult_ok = True
    for _ in range(50):
        a, b, c, d = (vec3(*(F(rng.randint(-6, 6)) for _ in range(3))) for _ in range(4))
        t = F(rng.randint(-4, 4))
        ca, cb, cc, cd = map(const_col, (a, b, c, d))
        if bracket(ca, cb, cc) != -bracket(cb, ca, cc) or not bracket(ca, ca, cc).is_zero():
            alt_ok = False
        mixed = const_col(vec3(*(x + t * y for x, y in zip(a, d))))
        if bracket(mixed, cb, cc) != bracket(ca, cb, cc) + bracket(cd, cb, cc).scale(t):
            mult_ok = False
    # evaluation is a ring homomorphism
    hom_ok = True
    for _ in range(100):
        dim = rng.randint(4, 6)
        p = bracket(*rng.sample(range(1, dim + 1), 3))
        q = bracket(*rng.sample(range(1, dim + 1), 3))
        g = rand_realization(rng, dim)
        if (p + q).eval(g) != p.eval(g) + q.eval(g) or (p * q).eval(g) != p.eval(g) * q.eval(g):
            hom_ok = False
    # meet agrees with the cross-product intersection of realized lines
    meet_ok = True
    checked = 0
    while checked < 100:
        g = rand_realization(rng, 4)
        la, lb = cross(g.col(1), g.col(2)), cross(g.col(3), g.col(4))
        pt = cross(la, lb)
        if la == (0, 0, 0) or lb == (0, 0, 0) or pt == (0, 0, 0):
            continue
        expr = meet(line_expr(1, 2), line_expr(3, 4))
        vec = (F(0), F(0), F(0))
        for (sym,), combo in expr.terms:
            coeff = combo.eval(g)
            vec = tuple(x + coeff * y for x, y in zip(vec, g.col(sym)))
        if not proportional(vec, pt):
            meet_ok = False
        checked += 1
    # one q vector in every column agrees with the symbolic q scheme
    qs = preset("qs")
    sym = lift_matrix(qs, QScheme.symbolic())
    scheme_ok = True
    for _ in range(10):
        qv = vec3(*(F(rng.randint(-5, 5)) for _ in range(3)))
        conc = lift_matrix(qs, QScheme.per_col((qv,) * 6))
        g = rand_realization(rng, 6)
        if sym.evaluate(g, qv) != conc.evaluate(g):
            scheme_ok = False
    # evaluated and expanded minors agree on all 15 QS 4x4 minors
    from itertools import combinations

    minor_ok = True
    for _ in range(10):
        g = rand_realization(rng, 6)
        qv = vec3(*(F(rng.randint(-5, 5)) for _ in range(3)))
        for cols in combinations(range(6), 4):
            if sym.minor((0, 1, 2, 3), cols).eval(g, qv) != sym.minor_eval(
                (0, 1, 2, 3), cols, g, qv
            ):
                minor_ok = False
    ok = alt_ok and mult_ok and hom_ok and meet_ok and scheme_ok and minor_ok
    assert report(
        9,
        ok,
        f"alternation {alt_ok}, multilinearity {mult_ok}, eval homomorphism {hom_ok}, "
        f"meet duality {meet_ok}, concrete-vs-symbolic {scheme_ok}, evaluated-vs-symbolic {minor_ok}",
    )

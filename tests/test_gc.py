import hashlib
import json
import random
from fractions import Fraction as F
from itertools import permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bracketforge.config import preset
from bracketforge.gc import (
    BracketCombo,
    circuit_combos,
    gm_generators,
    gm_rewrite,
    gm_rewrite_combo,
    join,
    meet,
    parse_bracket_text,
    rewrite_choices,
)
from bracketforge.harness import pascal_family_sample, random_cactus
from bracketforge.ideals import concurrency_expressions, pascal_gc_expressions
from bracketforge.linalg import Realization, cross, det3, proportional, vec3, vscale, vsub

from oracles import rand_realization, sha256_lines


def test_combo_ring_and_expand():
    a = BracketCombo.of_bracket(1, 2, 3)
    b = BracketCombo.of_bracket(2, 1, 3)
    assert (a + b).is_zero()  # alternation is applied at construction
    c = a * BracketCombo.of_bracket(1, 4, 5)
    assert len(c.terms) == 1
    assert c.expand().total_degree() == 6
    assert BracketCombo.of_bracket(1, 1, 2).is_zero()


def test_parse_round_trip():
    text = "[153][142]-[154][132]"
    combo = parse_bracket_text(text)
    assert len(combo.terms) == 2
    # parsing the canonical rendering gives the same combination back
    assert parse_bracket_text(combo.to_text().replace(" ", "")) == combo


labels = st.integers(min_value=1, max_value=30)
triples = st.tuples(labels, labels, labels).filter(lambda t: len(set(t)) == 3)
coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
combos = st.lists(
    st.tuples(coefficients, st.lists(triples, min_size=0, max_size=3)), max_size=4
).map(
    lambda terms: sum(
        (
            BracketCombo.const(c) * _product(BracketCombo.of_bracket(*t) for t in ts)
            for c, ts in terms
        ),
        BracketCombo.zero(),
    )
)


def _product(factors):
    out = BracketCombo.const(1)
    for f in factors:
        out = out * f
    return out


@given(combos)
def test_parse_round_trip_multi_digit_labels(combo):
    assert parse_bracket_text(combo.to_text()) == combo


def test_constant_terms_print_bare_and_parse_back():
    assert BracketCombo.const(3).to_text() == "3"
    assert BracketCombo.const(F(-1, 2)).to_text() == "-1/2"
    mixed = BracketCombo.const(-2) + BracketCombo.of_bracket(1, 2, 3).scale(F(3, 4))
    assert mixed.to_text() == "-2 + 3/4*[1 2 3]"
    for combo in (BracketCombo.const(3), BracketCombo.const(F(-1, 2)), BracketCombo.const(1),
                  mixed, BracketCombo.of_bracket(4, 5, 6) - BracketCombo.const(1)):
        assert parse_bracket_text(combo.to_text()) == combo


def test_parse_multi_digit_and_compact_forms():
    combo = parse_bracket_text("[1 2 10][3 11 12]")
    assert combo == BracketCombo.of_bracket(1, 2, 10) * BracketCombo.of_bracket(3, 11, 12)
    assert parse_bracket_text(combo.to_text()) == combo
    assert parse_bracket_text("[153]") == parse_bracket_text("[1 5 3]")
    for bad in ("[12]", "[1 2]", "[1 2 3] -", "*[123]", "[123]x", "[1 2 3]*-[4 5 6]",
                "1/0*[1 2 3]"):
        with pytest.raises(ValueError):
            parse_bracket_text(bad)


def test_join_grade3_is_bracket():
    assert join(1, 2, 3) == BracketCombo.of_bracket(1, 2, 3)


def test_join_repeated_point_is_zero():
    assert join(1, 2, 1).is_zero()


def test_meet_repeated_point_raises():
    with pytest.raises(ValueError):
        meet((1, 1), (2, 3))


def test_meet_matches_line_intersection():
    """The meet of two realized lines is their projective intersection."""
    rng = random.Random(2)
    checked = 0
    while checked < 100:
        g = rand_realization(rng, 4)
        a, b, c, d = (g.col(i) for i in range(1, 5))
        la, lb = cross(a, b), cross(c, d)
        if la == (0, 0, 0) or lb == (0, 0, 0):
            continue
        pt = cross(la, lb)
        if pt == (0, 0, 0):
            continue
        # evaluate the meet: sum of coefficient * point vector
        vec = (F(0), F(0), F(0))
        for sym, combo in meet((1, 2), (3, 4)).items():
            coeff = combo.eval(g)
            vec = tuple(x + coeff * y for x, y in zip(vec, g.col(sym)))
        assert proportional(vec, pt)
        checked += 1


def test_concurrency_poly_detects_concurrence():
    rng = random.Random(4)
    poly = join(meet((1, 2), (3, 4)), 5, 6).expand()
    hits = 0
    while hits < 20:
        # three lines through a common point p
        g0 = rand_realization(rng, 7)
        p = g0.col(7)
        g = Realization((g0.col(1), p, g0.col(3), p, g0.col(5), p))
        assert poly.eval(g) == 0
        hits += 1
    # generic lines are not concurrent
    nonzero = 0
    for _ in range(10):
        g = rand_realization(rng, 6)
        if poly.eval(g) != 0:
            nonzero += 1
    assert nonzero > 0


def test_concurrency_combo_shape():
    combo = join(meet((2, 3), (5, 7)), 6, 8)
    want = parse_bracket_text("[235][768]-[237][568]")
    assert combo.expand().eq_up_to_sign(want.expand())


def test_meet_and_join_match_graded_calculus_goldens():
    """Digests recorded from the graded meet/join calculus these closed forms
    replaced: the published Pascal and Pappus expressions, and the
    concurrency combination (l1 ^ l2) v l3 of every triple of ordered pairs
    of distinct points among 1..6."""
    pairs = [[d, c.to_text()] for d, c in pascal_gc_expressions() + concurrency_expressions(preset("pappus"))]
    digest = hashlib.sha256(json.dumps(pairs).encode()).hexdigest()
    assert digest == "0277fb9adbd90c26465d32cff9f33a153dc0ddfc9638246cabb36871ff16cc44"
    lines = list(permutations(range(1, 7), 2))
    texts = [join(meet(l1, l2), *l3).to_text() for l1, l2, l3 in product(lines, repeat=3)]
    assert sha256_lines(texts) == "95679b3e0c9dbc337e33e07c8e6af375e45cb3c88414c47d61ab64ac55a73f06"


def test_gm_rewrite_combo_and_poly_agree():
    combo = BracketCombo.of_bracket(7, 8, 9)
    r_combo = gm_rewrite_combo(combo, 8, (1, 6), (3, 4))
    r_poly = gm_rewrite(combo.expand(), 8, (1, 6), (3, 4))
    assert r_combo.expand().eq_up_to_sign(r_poly) or r_combo.expand() == r_poly


def _meet_substituted(gamma, x, l1_pts, l2_pts):
    """gamma with column x replaced by [p1 p2 p3] gamma_p4 - [p1 p2 p4] gamma_p3."""
    (p1, p2), (p3, p4) = l1_pts, l2_pts
    a, b, c3, c4 = (gamma.col(p) for p in (p1, p2, p3, p4))
    meet_point = vsub(vscale(det3(a, b, c3), c4), vscale(det3(a, b, c4), c3))
    return Realization(tuple(meet_point if i == x else gamma.col(i) for i in range(1, gamma.d + 1)))


def test_gm_rewrite_combo_matches_numeric_substitution():
    """Brackets are multilinear, so a rewrite's value at gamma is the value of
    the original combination at gamma with gamma_x replaced by the meet.  Both
    sides are evaluated as sums of det3 products, so the oracle multiplies no
    combinations."""
    cfg = preset("cycle:4:4")
    rewrites = [
        (c, x, l1, l2)
        for c in gm_generators(cfg, depth=1)
        for x, l1, l2 in rewrite_choices(cfg, sorted(c.points()))
    ]
    rng = random.Random(3)
    points = [
        Realization(tuple(vec3(*(rng.randint(-40, 40) for _ in range(3))) for _ in range(cfg.d)))
        for _ in range(2)
    ]
    nonzero = 0
    for c, x, l1, l2 in rng.sample(rewrites, 400):
        r = gm_rewrite_combo(c, x, l1, l2)
        for g in points:
            value = r.eval(g)
            assert value == c.eval(_meet_substituted(g, x, l1, l2))
            nonzero += value != 0
    assert nonzero > 400  # generic points: the identity is not checked on zeros alone


def _product_rewrite(combo, x, l1_pts, l2_pts):
    """Oracle: the rewrite as a product of combinations, each bracket on x
    replaced by sign * ([p1 p2 p3][p4 rest] - [p1 p2 p4][p3 rest])."""
    (p1, p2), (p3, p4) = l1_pts, l2_pts
    plus = BracketCombo.of_bracket(p1, p2, p3)
    minus = BracketCombo.of_bracket(p1, p2, p4)
    out = BracketCombo.zero()
    for m, c in combo.terms.items():
        acc = BracketCombo({tuple(t for t in m if x not in t): c})
        for t in m:
            if x in t:
                rest = [p for p in t if p != x]
                sign = (-1) ** t.index(x)
                acc = acc * (
                    plus * BracketCombo.of_bracket(p4, *rest)
                    - minus * BracketCombo.of_bracket(p3, *rest)
                ).scale(sign)
        out = out + acc
    return out


def _check_against_product_rewrite(combos, cfg):
    for c in combos:
        for x, l1, l2 in rewrite_choices(cfg, sorted(c.points())):
            r = gm_rewrite_combo(c, x, l1, l2)
            assert r == _product_rewrite(c, x, l1, l2), (c.to_text(), x, l1, l2)
            # the result is wrapped without LinearCombination's normalization
            assert all(type(v) is F and v != 0 for v in r.terms.values())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gm_rewrite_combo_matches_product_oracle_depth1(seed):
    cfg = random_cactus(seed)
    _check_against_product_rewrite(gm_generators(cfg, depth=1), cfg)


def test_gm_rewrite_combo_matches_product_oracle_depth2_sample():
    cfg = random_cactus(0)
    depth1 = len(gm_generators(cfg, depth=1))
    stage2 = gm_generators(cfg, depth=2)[depth1:]
    _check_against_product_rewrite(random.Random(7).sample(stage2, 60), cfg)


def test_gm_rewrite_argument_checks():
    combo = BracketCombo.of_bracket(7, 8, 9)
    with pytest.raises(ValueError):
        gm_rewrite_combo(combo, 8, (1, 8), (3, 4))  # x on the line pair
    with pytest.raises(ValueError):
        gm_rewrite_combo(combo, 1, (1, 6), (3, 4))  # x not in the combo


def test_gm_generators_vanish_on_realizations():
    cfg = preset("pascal")
    gens = gm_generators(cfg, depth=1)
    assert len(gens) > len(cfg.circuits3())
    for seed in (0, 1):
        g = pascal_family_sample(seed)
        for c in gens:
            assert c.eval(g) == 0


def test_circuit_combos():
    combos = circuit_combos(preset("qs"))
    assert len(combos) == 4
    assert all(len(c.terms) == 1 for c in combos)


def test_gm_generators_vanish_on_qs_and_cactus():
    from bracketforge.harness import cactus_realization, qs_realization

    qs = preset("qs")
    for seed in (0, 1):
        g = qs_realization(seed)
        for c in gm_generators(qs, depth=1):
            assert c.eval(g) == 0
    cactus = preset("cactus14")
    for seed in (0, 1):
        g = cactus_realization(cactus, seed)
        for c in gm_generators(cactus, depth=1):
            assert c.eval(g) == 0


# ---------------------------------------------------------------------------
# BracketCombo.eval on integer columns against the Fraction evaluator


def _fraction_eval(combo, gamma, dets):
    """sum c * prod det3 on the Fraction columns: the evaluator
    BracketCombo.eval used before it read integer columns.  `dets` keeps each
    triple's determinant at gamma across calls."""
    total = F(0)
    for m, c in combo.terms.items():
        for t in m:
            v = dets.get(t)
            if v is None:
                v = dets[t] = det3(*(gamma.col(p) for p in t))
            c *= v
        total += c
    return total


def _assert_matches_fraction_eval(combos, gamma):
    dets = {}
    for c in combos:
        value = c.eval(gamma)
        assert type(value) is F
        assert value == _fraction_eval(c, gamma, dets), c.to_text()


def _shuffled(gamma, seed):
    cols = list(gamma.cols)
    random.Random(seed).shuffle(cols)
    return Realization(tuple(cols))


@pytest.fixture(scope="module")
def cactus_orbit():
    from bracketforge.ideals import cactus_generators

    cfg = random_cactus(0)
    gens = cactus_generators(cfg, 2)
    return cfg, gens.circuit + gens.gc


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_eval_matches_fraction_eval_on_cactus_orbit(cactus_orbit, seed):
    """Every depth-2 generator of random_cactus(0): zero at a sampled
    realization, and the Fraction value (mostly nonzero) once its columns
    are permuted."""
    from bracketforge.harness import cactus_realization

    cfg, orbit = cactus_orbit
    gamma = cactus_realization(cfg, seed)
    assert all(c.eval(gamma) == 0 for c in orbit)
    _assert_matches_fraction_eval(orbit, gamma)
    permuted = _shuffled(gamma, seed)
    assert sum(c.eval(permuted) != 0 for c in orbit) > len(orbit) // 2
    _assert_matches_fraction_eval(orbit, permuted)


def test_eval_matches_fraction_eval_on_edge_cases():
    rng = random.Random(11)
    combos = [
        parse_bracket_text("3/2*[1 2 4][3 5 6] - [1 2 3]"),  # rational coefficient
        parse_bracket_text("[1 2 3] + 2"),  # not homogeneous
        parse_bracket_text("-5/7*[1 2 3][1 4 5][2 4 6] + 1/3*[1 2 4][1 3 5][2 3 6]"),
        BracketCombo.zero(),
        BracketCombo.const(F(-4, 9)),
    ]
    big = [F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) for _ in range(18)]
    gammas = [
        rand_realization(rng, 6),
        Realization(tuple(vec3(*big[3 * i:3 * i + 3]) for i in range(6))),
        Realization((vec3(0, 0, 0),) + rand_realization(rng, 5).cols),  # a zero column
        Realization(tuple(vec3(*(F(1, 10**6 - i - r) for r in range(3))) for i in range(6))),
    ]
    for gamma in gammas:
        _assert_matches_fraction_eval(combos, gamma)
    assert combos[1].eval(gammas[2]) == 2


@pytest.mark.parametrize("text, label", [("[0 1 2]", 0), ("[1 2 7]", 7), ("[1 2 3][4 5 9]", 9)])
def test_eval_rejects_labels_outside_the_realization(text, label):
    gamma = rand_realization(random.Random(1), 6)
    with pytest.raises(IndexError, match=f"label {label} out of range 1..6"):
        parse_bracket_text(text).eval(gamma)


# Recorded with the evaluator that read one column at a time through the
# realization: sha256 of str(c.eval(g)), one line per (realization, generator),
# at the sampled realizations and at a column-shuffled copy of each (where
# most values are nonzero).
EVAL_GOLDEN = {
    "orbit": "0f09af1bab158bb3df5314046b68b2a3da6672900ad6022847f6fc390a2ab237",
    "orbit-shuffled": "59af3d68f0f99d9e5e15f52ff8e7120bb89b76d1d57c125a8f27374e3c636484",
    "fixtures": "b05f78fc7c0101b6b8ffc30f0de71dd8e62a0e81391a0d58595ce9b47d169833",
    "fixtures-shuffled": "205c7d9b6571c0ff1433f1e8e443817266a64b34d6794173b77ab947364db4e4",
}


def test_eval_golden_on_cactus_orbit(cactus_orbit):
    """Every depth-2 generator of random_cactus(0) at cactus_realization(cfg, s),
    s in 0..2."""
    from bracketforge.harness import cactus_realization

    cfg, orbit = cactus_orbit
    gammas = [cactus_realization(cfg, s) for s in range(3)]
    assert sha256_lines(str(c.eval(g)) for g in gammas for c in orbit) == EVAL_GOLDEN["orbit"]
    shuffled = [_shuffled(g, s) for s, g in enumerate(gammas)]
    assert sha256_lines(str(c.eval(g)) for g in shuffled for c in orbit) == (
        EVAL_GOLDEN["orbit-shuffled"])


def test_eval_golden_on_fixtures():
    """The circuit generators of every fixture, and the published GC
    generators of Pascal and Pappus, at fixture.samples(2, seed=0)."""
    from bracketforge.harness import fixtures
    from bracketforge.ideals import circuit_generators, gc_generators_preset

    at_samples, at_shuffled = [], []
    for fx in fixtures():
        gens = circuit_generators(fx.cfg)
        if fx.name in ("pascal", "pappus"):
            gens = gens + gc_generators_preset(fx.name)
        for s, g in enumerate(fx.samples(2, seed=0)):
            at_samples += [str(c.eval(g)) for c in gens]
            at_shuffled += [str(c.eval(_shuffled(g, s))) for c in gens]
    assert len(at_samples) == 84 and sum(v != "0" for v in at_shuffled) == 82
    assert sha256_lines(at_samples) == EVAL_GOLDEN["fixtures"]
    assert sha256_lines(at_shuffled) == EVAL_GOLDEN["fixtures-shuffled"]


def test_eval_sums_several_keys_and_the_zero_combination():
    """A combination whose monomials have different keys is summed over its
    keys; the zero combination is Fraction(0)."""
    gamma = Realization((vec3(1, 2, 3), vec3(F(1, 2), 0, 1), vec3(0, F(1, 3), 1),
                         vec3(F(2, 5), 1, F(1, 7)), vec3(1, F(3, 4), 0), vec3(F(1, 11), 1, 1)))
    assert len(set(gamma._integer_view[1])) == gamma.d  # distinct multipliers
    several = parse_bracket_text("[1 2 3] + [1 2 4][4 5 6]")
    for combo in (several, BracketCombo.zero()):
        value = combo.eval(gamma)
        assert type(value) is F
        assert value == _fraction_eval(combo, gamma, {})
    assert several.eval(gamma) != 0
    assert BracketCombo.zero().eval(gamma) == 0

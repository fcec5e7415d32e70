import math
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from bracketforge.config import Config, cactus_check, is_nilpotent, preset
from bracketforge.gc import gm_generators
from bracketforge.harness import (
    RETRY_CAP,
    FixtureError,
    _representative,
    _retrying,
    cactus_realization,
    collinear_realization,
    components_distinct,
    counterexample_realization,
    decomposition_report,
    family_limit_check,
    fixtures,
    in_circuit_variety,
    in_realization_space,
    pappus8_cfg,
    pappus8_family,
    pascal_family,
    pascal_family_sample,
    qs_realization,
    random_cactus,
    replay_cactus_counterexample,
    xi_family,
    xi_limit_config,
)
from bracketforge.linalg import ZERO3, Realization, cross, det3, meet_lines, vec3, vscale

from oracles import sha256_lines


def test_fixture_samples_are_genuine_realizations():
    for fx in fixtures():
        for g in fx.samples(2, seed=0):
            ok, witness = in_realization_space(fx.cfg, g)
            assert ok, (fx.name, witness)


# sha256 of fixture.samples(3, seed=5), one to_json() line per sample
FIXTURE_SAMPLES_SHA256 = {
    "pappus": "8c3ae2ef9e83a406cb9b0e046e2132e1aa3410cfc8c534ac4888b4a38a9efdb7",
    "pascal": "588c9eadf349ffd40b58543ed2d4eff12449bacb7a8f8ac0a93c0d618418a67b",
    "cactus14": "cdbbd70faf6ccc69885422cb8927673631e72a662a4c3ea4986aed33549791ec",
    "triangle-cycle": "ede6f9765347d12a195156d37f365f85c9e48af127e69d7f449f7bdd1ebd3c2a",
}


def test_fixture_samples_deterministic():
    fxs = fixtures()
    assert [fx.name for fx in fxs] == list(FIXTURE_SAMPLES_SHA256)
    for fx in fxs:
        samples = fx.samples(3, seed=5)
        assert samples == fx.samples(3, seed=5)
        assert sha256_lines(g.to_json() for g in samples) == FIXTURE_SAMPLES_SHA256[fx.name]


def test_sampler_gives_up_at_the_retry_cap():
    """A sampler that can never succeed raises once RETRY_CAP draws are used."""
    with pytest.raises(FixtureError, match="retry cap"):
        collinear_realization(Config(1, []))  # one point never has rank 2
    draws = []

    def planted(rng):
        draws.append(rng)
        raise FixtureError("planted")

    with pytest.raises(FixtureError, match="retry cap") as exc:
        _retrying(planted, seed=0)
    assert len(draws) == RETRY_CAP
    assert "planted" in str(exc.value)


def test_sampler_does_not_retry_other_errors():
    """Only FixtureError and the DegenerateLineError of meet_lines reject a
    draw; any other exception is a fault in the sampler and propagates at
    once."""
    draws = []

    def broken(rng):
        draws.append(rng)
        return 1 // 0

    with pytest.raises(ZeroDivisionError):
        _retrying(broken, seed=0)
    assert len(draws) == 1

    meets = []

    def degenerate_once(rng):
        meets.append(rng)
        if len(meets) == 1:  # a dependent first pair: DegenerateLineError
            return meet_lines(vec3(1, 0, 0), vec3(2, 0, 0), vec3(0, 1, 0), vec3(0, 0, 1))
        return "accepted"

    assert _retrying(degenerate_once, seed=0) == "accepted"
    assert len(meets) == 2


def _outcome(family, args) -> str:
    try:
        return family(*args).to_json()
    except FixtureError as exc:
        return f"FixtureError: {exc}"


# The goldens below were recorded before the samplers shared one rejection
# path (`_retrying`, `_realization`); every draw and error text is unchanged.


def test_qs_realization_golden():
    assert sha256_lines(qs_realization(s).to_json() for s in range(200)) == (
        "d8311a06834be3c3f5fbb0ec37c544f5636e9cc73d25c09b6db4dea40c9051fb"
    )


# Parameter grid with zeros, repeats and opposite values, so both families
# also reject: 2933 of the 3125 Pascal points and 186 of the 216 8-point ones.
_GRID = (F(0), F(1), F(-1), F(2), F(1, 2))


def test_pascal_family_golden_with_degenerate_parameters():
    outcomes = [_outcome(pascal_family, a) for a in product(_GRID, repeat=5)]
    assert sum(o.startswith("FixtureError") for o in outcomes) == 2933
    assert sha256_lines(outcomes) == (
        "01ff499d2344fdb6014ea9f9060ffa3b2da7dbfa2a95061714ced208a90e03f7"
    )


def test_pappus8_family_golden_with_degenerate_parameters():
    outcomes = [_outcome(pappus8_family, a) for a in product(_GRID + (F(-2),), repeat=3)]
    assert sum(o.startswith("FixtureError") for o in outcomes) == 186
    assert sha256_lines(outcomes) == (
        "eb94fc349cec5d2e6cf09775bf82118f28bc811d5c2f0544d73e86bd9c8f4576"
    )


def test_in_circuit_variety_vs_realization_space():
    cfg = preset("pascal")
    g = collinear_realization(cfg, seed=0)
    # collinear points satisfy every circuit but carry extra dependencies
    assert in_circuit_variety(cfg, g)[0]
    assert not in_realization_space(cfg, g)[0]


def test_pascal_family_degenerate_params_rejected():
    with pytest.raises(FixtureError):
        pascal_family(F(0), F(1), F(1), F(1), F(2))


def test_pappus8_family_satisfies_circuits():
    cfg = pappus8_cfg()
    g = pappus8_family(F(1, 3), F(2, 5), F(3, 7))
    assert in_circuit_variety(cfg, g)[0]


def test_xi_family_and_limit():
    cfg = xi_limit_config()
    g = xi_family(F(2), F(3))
    assert in_circuit_variety(cfg, g)[0]
    shrinking, distances = family_limit_check(F(2), F(3))
    assert shrinking
    assert all(b < a for a, b in zip(distances, distances[1:]))


def test_xi_limit_is_in_its_realization_space():
    # parallel classes collapse before dependence is decided: {2, 3, 6} is
    # dependent because 2 is parallel to 1 and {1, 3, 6} is on a line
    assert in_realization_space(xi_limit_config(), xi_family(F(2), F(3))) == (True, None)


def test_xi_limit_dependent_triples_are_the_zero_determinants():
    cfg = xi_limit_config()
    g = xi_family(F(2), F(3))
    triples = list(combinations(cfg.points, 3))
    dependent = {t for t in triples if cfg.is_dependent_triple(t)}
    assert dependent == {t for t in triples if det3(*(g.col(p) for p in t)) == 0}


def test_counterexample_replay_exact_values():
    rep = replay_cactus_counterexample()
    assert rep.ok()
    assert rep.det_exact_representatives == -455
    assert rep.in_circuit_variety
    assert rep.gm_vanishing["nonvanishing"] == []


def representative_by_normalizing(v):
    """The integer representative as the first nonzero coordinate scaled to
    1, denominators cleared, then divided by the gcd."""
    first = next((c for c in v if c), F(1))
    w = [c / first for c in v]
    den = math.lcm(*(c.denominator for c in w))
    ints = [c.numerator * (den // c.denominator) for c in w]
    g = math.gcd(*ints) or 1
    return tuple(c // g for c in ints)


@pytest.mark.parametrize(
    "v, want",
    [
        (vec3(-2, 4, 6), (1, -2, -3)),  # first nonzero coordinate negative
        (vec3(0, F(-3, 2), 6), (0, 1, -4)),  # first coordinate zero
        (vec3(F(4, 3), F(8, 9), F(-2, 3)), (6, 4, -3)),  # Fractions with common content
        (vec3(0, 0, 0), (0, 0, 0)),
    ],
)
def test_representative(v, want):
    assert _representative(v) == representative_by_normalizing(v) == want


def test_counterexample_point_is_in_circuit_variety():
    cfg = preset("cactus14")
    g = counterexample_realization()
    assert in_circuit_variety(cfg, g)[0]


def test_decomposition_counts():
    pascal = decomposition_report(preset("pascal"))
    assert pascal.count == 5
    assert components_distinct(pascal)
    pappus = decomposition_report(preset("pappus"))
    assert pappus.count == 32
    assert components_distinct(pappus)
    cactus = decomposition_report(preset("cactus14"))
    assert cactus.count == 8
    assert cactus.upper_bound_only


def test_decomposition_report_dispatches_on_the_configuration():
    """A configuration equal to a preset with a published decomposition gets
    it, however its lines are listed; any other configuration gets the
    cactus bound, and one that is not a cactus is an error."""
    pappus = preset("pappus")
    relisted = Config(9, lines=[tuple(reversed(l)) for l in reversed(pappus.lines)])
    assert decomposition_report(relisted) == decomposition_report(pappus)
    assert decomposition_report(relisted).preset == "pappus"
    assert decomposition_report(preset("cactus14")).preset == "cactus"
    for cfg in (preset("qs"), preset("fano"), preset("grid3x3")):
        with pytest.raises(FixtureError, match="not a cactus configuration"):
            decomposition_report(cfg)


def test_pappus_decomposition_structure():
    kinds = [c.kind for c in decomposition_report(preset("pappus")).components]
    from collections import Counter

    counts = Counter(kinds)
    assert sum(counts.values()) == 32
    assert counts["V_M"] == 1 and counts["V_U29"] == 1
    assert counts["V_I"] == 18 and counts["V_J"] == 3 and counts["V_pi"] == 9


def test_random_cactus_is_cactus_and_nilpotent():
    for seed in range(5):
        cfg = random_cactus(seed)
        assert cactus_check(cfg).is_cactus
        assert is_nilpotent(cfg)
        g = cactus_realization(cfg, seed)
        assert in_realization_space(cfg, g)[0]


def test_collinear_realization_is_rank_two():
    cfg = preset("line:6")
    g = collinear_realization(cfg, seed=4)
    assert g.rank() == 2
    cols = set(g.cols)
    assert len(cols) == 6  # pairwise distinct points


def test_cactus_orbit_golden():
    gens = gm_generators(random_cactus(0), 2)
    assert len(gens) == 6825
    assert sha256_lines(c.to_text() for c in gens) == (
        "4798c758664be84a40b649d32d5bd31113a4f60888b37e3c6506faafc70a8cf1"
    )


def test_cactus_realization_golden():
    cfg = random_cactus(0)
    assert sha256_lines(cactus_realization(cfg, s).to_json() for s in range(10)) == (
        "babacd588aa13c003933c0ab58e99afc27a506a2e251756b637aefcfb45ace69"
    )


# Reference membership checks on the Fraction columns, as a realization
# gives them; the package clears denominators first.


def _ref_in_circuit_variety(cfg, gamma):
    for p in sorted(cfg.loops):
        if any(gamma.col(p)):
            return False, f"loop {p} is nonzero"
    for cls in cfg.parallel:
        for a, b in combinations(cls, 2):
            if cross(gamma.col(a), gamma.col(b)) != ZERO3:
                return False, f"parallel pair {{{a},{b}}} is independent"
    triples = cfg.circuits3() if cfg.is_simple() else [
        t for t in cfg.dependency_signature() if len(t) == 3]
    for c in sorted(triples, key=sorted):
        a, b, d = sorted(c)
        if det3(gamma.col(a), gamma.col(b), gamma.col(d)) != 0:
            return False, f"circuit {{{a},{b},{d}}} has nonzero determinant"
    return True, None


def _ref_in_realization_space(cfg, gamma):
    ok, witness = _ref_in_circuit_variety(cfg, gamma)
    if not ok:
        return False, witness
    for p in cfg.nonloop_points:
        if not any(gamma.col(p)):
            return False, f"non-loop point {p} is the zero vector"
    rep = cfg._rep
    for a, b in combinations(cfg.nonloop_points, 2):
        if rep[a] != rep[b] and cross(gamma.col(a), gamma.col(b)) == ZERO3:
            return False, f"points {a},{b} coincide but are not parallel"
    for t in cfg.bases():
        if det3(*(gamma.col(p) for p in t)) == 0:
            return False, f"basis {set(t)} is dependent"
    return True, None


def _with_col(gamma, label, v):
    return Realization(tuple(v if i == label else c for i, c in enumerate(gamma.cols, 1)))


@pytest.fixture(scope="module")
def planted_faults():
    """name -> (cfg, gamma, a word of the expected witness, or None when gamma
    is in the realization space), over configurations with lines, a loop and
    a parallel class."""
    cactus = random_cactus(0)
    g = cactus_realization(cactus, 0)
    loopy = preset("pascal").make_loops({7})
    h = _with_col(pascal_family_sample(0), 7, vec3(0, 0, 0))
    xi = xi_limit_config()
    k = xi_family(F(2), F(3))
    # p lies on one line only, so moving it along that line keeps every circuit
    p = next(p for p in cactus.points if cactus.degree(p) == 1)
    u, v = [x for x in cactus.lines_through(p)[0] if x != p][:2]
    a, b = next((a, b) for a, b in combinations(cactus.points, 2)
                if {a, b, p} in map(set, cactus.bases()) and {a, b} & {u, v} == set())
    cases = [
        ("cactus as sampled", cactus, g, None),
        ("column scaled by -3/7", cactus, _with_col(g, 5, vscale(F(-3, 7), g.col(5))), None),
        ("zero non-loop column", cactus, _with_col(g, 4, vec3(0, 0, 0)), "zero vector"),
        ("two coincident points", cactus, _with_col(g, p, g.col(u)), "coincide"),
        ("point off its line", cactus, _with_col(g, p, vec3(*(x + 1 for x in g.col(p)))), "circuit"),
        ("dependent basis", cactus,
         _with_col(g, p, meet_lines(g.col(u), g.col(v), g.col(a), g.col(b))), "basis"),
        ("loop as sampled", loopy, h, None),
        ("nonzero loop", loopy, _with_col(h, 7, vec3(1, F(1, 2), 3)), "loop 7"),
        ("xi as given", xi, k, None),
        ("xi column scaled by -3/7", xi, _with_col(k, 8, vscale(F(-3, 7), k.col(8))), None),
        ("independent parallel pair", xi, _with_col(k, 2, vec3(1, 1, 2)), "parallel pair"),
    ]
    return {name: case for name, *case in cases}


@pytest.mark.parametrize("name", [
    "cactus as sampled", "column scaled by -3/7", "zero non-loop column", "two coincident points",
    "point off its line", "dependent basis", "loop as sampled", "nonzero loop", "xi as given",
    "xi column scaled by -3/7", "independent parallel pair",
])
def test_membership_on_integer_columns_matches_fraction_reference(planted_faults, name):
    cfg, gamma, expect = planted_faults[name]
    assert in_circuit_variety(cfg, gamma) == _ref_in_circuit_variety(cfg, gamma)
    ok, witness = in_realization_space(cfg, gamma)
    assert (ok, witness) == _ref_in_realization_space(cfg, gamma)
    assert ok is (expect is None)
    assert expect is None or expect in witness

from fractions import Fraction as F
from itertools import combinations

import pytest

from bracketforge.config import cactus_check, is_nilpotent, preset
from bracketforge.harness import (
    FixtureError,
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
    random_cactus,
    replay_cactus_counterexample,
    xi_family,
    xi_limit_config,
)
from bracketforge.linalg import det3


def test_fixture_samples_are_genuine_realizations():
    for fx in fixtures():
        for g in fx.samples(2, seed=0):
            ok, witness = in_realization_space(fx.cfg, g)
            assert ok, (fx.name, witness)


def test_fixture_samples_deterministic():
    fx = fixtures()[0]
    assert fx.samples(3, seed=5) == fx.samples(3, seed=5)


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


def test_counterexample_point_is_in_circuit_variety():
    cfg = preset("cactus14")
    g = counterexample_realization()
    assert in_circuit_variety(cfg, g)[0]


def test_decomposition_counts():
    pascal = decomposition_report("pascal")
    assert pascal.count == 5
    assert components_distinct(pascal)
    pappus = decomposition_report("pappus")
    assert pappus.count == 32
    assert components_distinct(pappus)
    cactus = decomposition_report("cactus", preset("cactus14"))
    assert cactus.count == 8
    assert cactus.upper_bound_only


def test_pappus_decomposition_structure():
    kinds = [c.kind for c in decomposition_report("pappus").components]
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

"""Golden digests of what `config` derives, and its 3-circuits, incidence index
and dependency signature against brute force.

Each digest is the sha256 of the printed results over one fixed list of
configurations: every fixed preset, line:5, cycle:4:4, random_cactus(0..19)
and the 37 components of the Pascal and Pappus decomposition reports. How
`config` computes degrees inside a subset, point-line cycles and
sub-configurations may change; what it computes may not.
"""

import hashlib
import random
from itertools import combinations

import pytest

from bracketforge.config import (
    _FIXED_PRESETS,
    ConfigError,
    admissible_ordering,
    chains,
    preset,
    q_points,
    subset_has_cycle,
)
from bracketforge.harness import (
    decomposition_report,
    quadrilateral_set_flat,
    random_cactus,
    xi_limit_config,
)
from bracketforge.linalg import cross

from oracles import (dependency_signature_scan, lines_through_scan, same_class, sha256_lines,
                     subset_has_cycle_dfs)


def _configs():
    named = [(n, preset(n)) for n in sorted(_FIXED_PRESETS) + ["line:5", "cycle:4:4"]]
    named += [(f"random_cactus({s})", random_cactus(s)) for s in range(20)]
    for name in ("pascal", "pappus"):
        for i, comp in enumerate(decomposition_report(preset(name)).components):
            named.append((f"{name} component {i}", comp.cfg))
    return named


CONFIGS = _configs()

GOLDEN = {
    "chains": "a90375d3507293b70f8d573f22e5186dfd09363eb572d56a569f0611741dc758",
    "admissible_ordering": "afaf06e721f466dc3d504954106290d39c5b926625d04fbdeff434a8a70eed5e",
    "subset_has_cycle": "00422c3674b46644241a3a61d2490d85e6c00e5837187f95f87c3399ea65259f",
    "restrict": "d9282a51e14b4e46d1a5d1f15e0dd389dc21aa67b69ff7dcc0fb130f815deb32",
    "delete": "9015f3d8969644f5bb0db519eb43108ebe45ebea3a2bd2682dda7a5f59779bf2",
    "make_loops": "23e287e534cd2d5d6a9d2e8a17565b2f0be363fe12cf2e6ac32f877de63fe94f",
}


def _outcome(fn, *args) -> str:
    """The printed result of fn(*args), or the ConfigError it raised."""
    try:
        out = fn(*args)
    except ConfigError as exc:
        return f"ConfigError: {exc}"
    return out.to_json() if hasattr(out, "to_json") else repr(out)


def _random_subsets(population, rng: random.Random, n: int = 5) -> list[list[int]]:
    return [sorted(rng.sample(population, rng.randint(0, len(population)))) for _ in range(n)]


def test_config_count():
    assert len(CONFIGS) == len(_FIXED_PRESETS) + 2 + 20 + 37


@pytest.mark.parametrize("fn", [chains, admissible_ordering], ids=lambda fn: fn.__name__)
def test_whole_configuration_golden(fn):
    lines = [f"{name}: {_outcome(fn, cfg)}" for name, cfg in CONFIGS]
    assert sha256_lines(lines) == GOLDEN[fn.__name__]


def test_subset_has_cycle_golden():
    rng = random.Random(0)
    lines = []
    for name, cfg in CONFIGS:
        subsets = [sorted(q_points(cfg))] + _random_subsets(list(cfg.nonloop_points), rng)
        for sub in subsets:
            verdict = subset_has_cycle(cfg, sub)
            assert verdict == subset_has_cycle_dfs(cfg, sub), (name, sub)
            lines.append(f"{name} {sub}: {verdict}")
    assert sha256_lines(lines) == GOLDEN["subset_has_cycle"]


@pytest.mark.parametrize("method", ["restrict", "delete", "make_loops"])
def test_sub_configuration_golden(method):
    rng = random.Random(0)
    lines = []
    for name, cfg in CONFIGS:
        for sub in _random_subsets(list(cfg.points), rng):
            lines.append(f"{name} {sub}: {_outcome(getattr(cfg, method), sub)}")
    assert sha256_lines(lines) == GOLDEN[method]


def test_circuits3_are_the_dependent_triples_without_loops_or_parallel_pairs():
    for name, cfg in CONFIGS + [("xi_limit_config()", xi_limit_config())]:
        want = tuple(
            t
            for t in combinations(cfg.points, 3)
            if cfg.is_dependent_triple(t)
            and not set(t) & cfg.loops
            and not any(same_class(cfg, a, b) for a, b in combinations(t, 2))
        )
        assert cfg.circuits3() == want, name
        assert cfg.circuits3() is cfg.circuits3()


def test_incidence_index_matches_the_line_scan():
    for name, cfg in CONFIGS + [("xi_limit_config()", xi_limit_config())]:
        for p in range(cfg.d + 2):
            scan = lines_through_scan(cfg, p)
            assert cfg.lines_through(p) == scan, (name, p)
            if 1 <= p <= cfg.d and p not in cfg.loops:
                assert cfg.degree(p) == len(scan), (name, p)
            else:
                with pytest.raises(ConfigError):
                    cfg.degree(p)
        assert cfg.dependency_signature() == dependency_signature_scan(cfg), name


# The seeds in 0..4999 whose quadrilateral_set_flat sample used to hold two
# proportional points; every other sample is as it was.
FLAT_REDRAWN = (221, 365, 544, 599, 882, 956, 1274, 1989, 2021, 2034, 2122, 2536,
                2988, 3033, 3181, 3217, 3305, 3490, 3657, 3890, 4328, 4356, 4469, 4547)
FLAT_GOLDEN = "dc485571781a275800e38fede825960abc8af18ad78ea9f0601d2a886a03e83d"


def test_quadrilateral_set_flat_points_are_distinct():
    h = hashlib.sha256()
    for seed in range(5000):
        cols = quadrilateral_set_flat(seed).cols
        assert all(any(cross(a, b)) for a, b in combinations(cols, 2)), seed
        if seed not in FLAT_REDRAWN:
            h.update(repr(cols).encode())
    assert h.hexdigest() == FLAT_GOLDEN

import random
import subprocess
import sys
from collections import Counter
from itertools import combinations

import pytest

from bracketforge.config import (
    CactusReport,
    Config,
    ConfigError,
    admissible_ordering,
    cactus_check,
    chains,
    free_glue,
    is_nilpotent,
    nilpotent_dim,
    preset,
    q_points,
    subset_has_cycle,
    subset_has_cycle_dfs,
)


def test_qs_circuits():
    cfg = preset("qs")
    assert cfg.circuits3() == ((1, 2, 3), (1, 5, 6), (2, 4, 6), (3, 4, 5))
    assert all(cfg.degree(p) == 2 for p in cfg.points)


def test_pascal_pappus_shape():
    pascal = preset("pascal")
    assert pascal.d == 9 and len(pascal.lines) == 7 and len(pascal.circuits3()) == 7
    pappus = preset("pappus")
    assert pappus.d == 9 and len(pappus.lines) == 9 and len(pappus.circuits3()) == 9
    # in the Pappus configuration every point lies on exactly three lines
    assert all(pappus.degree(p) == 3 for p in pappus.points)


def test_validation_rejects_bad_lines():
    with pytest.raises(ConfigError):
        Config(5, lines=[(1, 2, 3), (1, 2, 4)])  # two lines sharing two points
    with pytest.raises(ConfigError):
        Config(5, lines=[(1, 2, 3, 4), (1, 2, 3)])  # nested lines
    with pytest.raises(ConfigError):
        Config(3, lines=[(1, 2, 9)])  # label out of range


def test_parallel_collapse_detects_shared_points():
    # 4 and 5 are parallel, so the two lines share two collapsed points
    with pytest.raises(ConfigError):
        Config(6, lines=[(1, 2, 4), (1, 3, 5)], parallel=[(4, 5), (2, 3)])


def pairwise_line_error(d, lines, parallel):
    """The line rule by brute force over all pairs of lines: the first pair
    (i, j) sharing two collapsed points, else any line inside another."""
    lines = sorted(tuple(sorted(set(l))) for l in lines)
    rep = {p: p for p in range(1, d + 1)}
    for cls in parallel:
        for p in cls:
            rep[p] = min(cls)
    collapsed = [{rep[p] for p in l} for l in lines]
    for i, j in combinations(range(len(lines)), 2):
        if len(collapsed[i] & collapsed[j]) > 1:
            return f"lines {lines[i]} and {lines[j]} share more than one point"
    for a, b in combinations(lines, 2):
        if set(a) <= set(b) or set(b) <= set(a):
            return "no line may contain another"
    return None


def random_line_set(rng: random.Random):
    """Lines on up to 9 points, with parallel classes: some lines overlap in
    two points, some are copies or subsets of others, and some lie inside
    one parallel class."""
    d = rng.randint(4, 9)
    points = list(range(1, d + 1))
    rng.shuffle(points)
    parallel = []
    while rng.random() < 0.5 and len(points) >= 2:
        size = rng.randint(2, min(4, len(points)))
        parallel.append(tuple(points.pop() for _ in range(size)))
    lines = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.random()
        if lines and kind < 0.2:
            lines.append(rng.choice(lines))  # the same line twice
        elif lines and kind < 0.4:
            base = rng.choice(lines)
            extra = [p for p in range(1, d + 1) if p not in base]
            if rng.random() < 0.5 and len(base) > 3:
                lines.append(tuple(rng.sample(base, len(base) - 1)))  # nested inside
            elif extra:
                lines.append(tuple(base) + (rng.choice(extra),))  # nested around
        elif parallel and kind < 0.5 and len(max(parallel, key=len)) >= 3:
            lines.append(tuple(rng.sample(max(parallel, key=len), 3)))  # one collapsed point
        else:
            lines.append(tuple(rng.sample(range(1, d + 1), rng.randint(3, min(5, d)))))
    return d, lines, parallel


def test_line_rule_matches_pairwise_brute_force():
    rng = random.Random(20)
    outcomes = Counter()
    for _ in range(3000):
        d, lines, parallel = random_line_set(rng)
        want = pairwise_line_error(d, lines, parallel)
        try:
            Config(d, lines=lines, parallel=parallel)
            got = None
        except ConfigError as exc:
            got = str(exc)
        assert got == want, (d, lines, parallel)
        outcomes[want if want is None or want.startswith("no") else "share"] += 1
    # every outcome is exercised, the containment rule too
    assert set(outcomes) == {None, "share", "no line may contain another"}, outcomes
    assert min(outcomes.values()) >= 30, outcomes


def test_restrict_delete_relabel():
    pascal = preset("pascal")
    sub = pascal.restrict([1, 5, 7, 2, 4])  # keeps {157} and {247}
    assert sub.d == 5
    assert set(map(tuple, sub.lines)) == {(1, 4, 5), (2, 3, 5)}
    assert pascal.delete({7}).d == 8


def test_make_loops_keeps_ground_set():
    cfg = preset("qs").make_loops({2, 5})
    assert cfg.d == 6 and cfg.loops == frozenset({2, 5})
    assert all(2 not in l and 5 not in l for l in cfg.lines)


def test_free_glue():
    a = preset("line:4")
    b = preset("line:3")
    g = free_glue(a, b, 1, 1)
    assert g.d == a.d + b.d - 1
    assert len(g.lines) == 2
    # the glued point is the only point on both lines
    common = set(g.lines[0]) & set(g.lines[1])
    assert len(common) == 1


def test_chains_verdicts():
    s, q = chains(preset("cactus14"))
    assert s.verdict == "nilpotent" and s.terminates
    s, q = chains(preset("qs"))
    assert s.verdict != "nilpotent"  # degree-2 points everywhere, chain is stuck
    assert q.verdict == "solvable"  # no degree-3 points at all
    s, q = chains(preset("pappus"))
    assert s.verdict != "nilpotent" and q.verdict != "solvable"


def test_admissible_ordering_dims():
    assert nilpotent_dim(preset("line:5")) == 2
    assert nilpotent_dim(preset("line:3")) == 2
    triangle = Config(6, lines=[(1, 2, 4), (2, 3, 5), (1, 3, 6)])
    assert nilpotent_dim(triangle) == 3
    assert nilpotent_dim(preset("pascal").delete({7})) == 4
    assert nilpotent_dim(preset("pappus").delete({1, 9})) == 4
    assert admissible_ordering(preset("qs")) is None


def test_ordering_weights_consistent():
    cfg = preset("cactus14")
    o = admissible_ordering(cfg)
    assert sorted(o.perm) == list(cfg.points)
    assert o.dim == cfg.d - sum(o.weights)
    assert all(w in (0, 1, 2) for w in o.weights)


def test_cactus_check():
    assert cactus_check(preset("cactus14")).is_cactus
    assert cactus_check(preset("line:4")).is_cactus
    assert cactus_check(preset("cycle:3:3")).is_cactus
    assert cactus_check(preset("cycle:4:3")).is_cactus
    for name in ("pascal", "pappus", "qs", "fano", "grid3x3"):
        report = cactus_check(preset(name))
        assert not report.is_cactus
        assert report.offending_block is not None


def _networkx_cactus_report(cfg):
    """CactusReport computed with networkx, the reference for cactus_check."""
    nx = pytest.importorskip("networkx")
    g = nx.Graph()
    verts = [p for p in cfg.points if cfg.degree(p) >= 2]
    g.add_nodes_from(verts)
    for l in cfg.lines:
        g.add_edges_from(combinations([p for p in l if p in verts], 2))
    blocks = [tuple(sorted(b)) for b in nx.biconnected_components(g)]
    offending = None
    for block in blocks:
        sub = g.subgraph(block)
        edge = sub.number_of_edges() == 1
        cycle = sub.number_of_edges() == len(block) and all(k == 2 for _, k in sub.degree())
        if not (edge or cycle):
            offending = block
            break
    return CactusReport(
        is_cactus=offending is None,
        vertices=tuple(sorted(g.nodes)),
        edges=tuple(sorted(tuple(sorted(e)) for e in g.edges)),
        blocks=tuple(sorted(blocks)),
        offending_block=offending,
    )


def test_cactus_check_matches_networkx():
    from bracketforge.harness import random_cactus

    names = ("pascal", "pappus", "qs", "fano", "grid3x3", "cactus14", "cycle:4:3", "line:4")
    cfgs = [preset(n) for n in names]
    cfgs += [random_cactus(seed, blocks) for seed in range(20) for blocks in (2, 4)]
    # glued presets: several blocks that are neither edges nor cycles
    rng = random.Random(0)
    for _ in range(40):
        cfg = preset(rng.choice(names))
        for _ in range(rng.randint(1, 3)):
            other = preset(rng.choice(names))
            cfg = free_glue(cfg, other, rng.randint(1, cfg.d), rng.randint(1, other.d))
        cfgs.append(cfg)
    for cfg in cfgs:
        assert cactus_check(cfg) == _networkx_cactus_report(cfg), cfg


def test_import_does_not_load_networkx():
    code = "import sys, bracketforge; sys.exit('networkx' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_q_points():
    assert q_points(preset("cactus14")) == frozenset({1, 2, 3})
    assert q_points(preset("pappus")) == frozenset(range(1, 10))
    assert q_points(preset("qs")) == frozenset()


def test_subset_has_cycle_and_cross_check():
    cactus14 = preset("cactus14")
    assert subset_has_cycle(cactus14, {1, 2, 3})
    assert not subset_has_cycle(cactus14, {1, 2})
    assert not subset_has_cycle(cactus14, {4, 9, 11})
    # points on a single line form a star in the incidence graph: no cycle
    assert not subset_has_cycle(preset("line:4"), {1, 2, 3})
    rng = random.Random(0)
    for name in ("pascal", "pappus", "cactus14", "qs"):
        cfg = preset(name)
        pts = list(cfg.points)
        for _ in range(30):
            sub = rng.sample(pts, rng.randint(0, len(pts)))
            assert subset_has_cycle(cfg, sub) == subset_has_cycle_dfs(cfg, sub)


def test_json_roundtrip():
    for name in ("pascal", "cactus14", "qs"):
        cfg = preset(name)
        assert Config.from_json(cfg.to_json()) == cfg


def test_one_point_parallel_class_is_dropped():
    cfg = Config(3, [(1, 2, 3)], parallel=[(1, 1)])
    assert cfg.parallel == () and cfg.is_simple()
    assert Config.from_json(cfg.to_json()) == cfg


def test_simplification_labels():
    cfg = Config(5, lines=[(1, 2, 3)], loops={4}, parallel=[(2, 5)])
    labels = cfg.simplification_labels()
    assert 4 not in labels and len(labels) == 3


def test_free_glue_symmetric_up_to_relabeling():
    a = preset("cycle:3:3")
    b = preset("line:4")
    g1 = free_glue(a, b, 2, 3)
    g2 = free_glue(b, a, 3, 2)
    assert g1.d == g2.d
    assert sorted(len(l) for l in g1.lines) == sorted(len(l) for l in g2.lines)
    assert nilpotent_dim(g1) == nilpotent_dim(g2)


def test_chain_stages_are_nested():
    for name in ("cactus14", "pascal", "pappus", "qs"):
        for report in chains(preset(name)):
            stages = [set(s) for s in report.stages]
            assert all(b <= a for a, b in zip(stages, stages[1:]))


def test_cactus_implies_nilpotent():
    for name in ("cactus14", "line:5", "cycle:3:3", "cycle:4:4"):
        assert cactus_check(preset(name)).is_cactus
        assert is_nilpotent(preset(name))


def test_bases_are_kept_and_match_a_fresh_computation():
    from bracketforge.config import _FIXED_PRESETS
    from bracketforge.harness import random_cactus

    cfgs = [preset(n) for n in sorted(_FIXED_PRESETS)] + [preset("line:5"), preset("cycle:4:4")]
    cfgs += [random_cactus(s) for s in range(20)]
    for cfg in cfgs:
        fresh = tuple(t for t in combinations(cfg.points, 3) if not cfg.is_dependent_triple(t))
        first = cfg.bases()
        assert type(first) is tuple and first == fresh
        assert cfg.bases() is first
        assert Config(cfg.d, cfg.lines, cfg.loops, cfg.parallel).bases() == fresh
    assert "bases" in Config.__dict__

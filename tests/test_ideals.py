import pytest

from bracketforge.config import Config, preset
from bracketforge.gc import parse_bracket_text
from bracketforge.harness import (
    cactus_realization,
    pappus_realization,
    pascal_family_sample,
)
from bracketforge.ideals import (
    PAPPUS_GC_EXPECTED_TEXT,
    PASCAL_GC_EXPECTED_TEXT,
    HypothesisError,
    cactus_generators,
    circuit_generators,
    concurrency_expressions,
    gc_generators_preset,
    pascal_gc_expressions,
)


def test_circuit_generator_counts():
    assert len(circuit_generators(preset("pascal"))) == 7
    assert len(circuit_generators(preset("pappus"))) == 9
    assert len(circuit_generators(preset("qs"))) == 4


def test_circuit_generators_vanish():
    for name, sampler in (("pascal", pascal_family_sample), ("pappus", pappus_realization)):
        cfg = preset(name)
        g = sampler(0)
        for c in circuit_generators(cfg):
            assert c.eval(g) == 0


def test_pascal_gc_seven_expressions():
    exprs = pascal_gc_expressions()
    assert len(exprs) == 7
    for idx, text in PASCAL_GC_EXPECTED_TEXT.items():
        want = parse_bracket_text(text).expand()
        assert exprs[idx][1].expand().eq_up_to_sign(want)


def test_pappus_gc_nine_expressions():
    exprs = concurrency_expressions(preset("pappus"))
    assert len(exprs) == 9
    for idx, text in enumerate(PAPPUS_GC_EXPECTED_TEXT):
        want = parse_bracket_text(text).expand()
        assert exprs[idx][1].expand().eq_up_to_sign(want)


def test_gc_generators_vanish():
    for name, sampler in (("pascal", pascal_family_sample), ("pappus", pappus_realization)):
        g = sampler(1)
        for c in gc_generators_preset(name):
            assert c.eval(g) == 0


def test_concurrency_rule_on_pascal_is_published_generators_6_4_5():
    """Points 7, 8 and 9 are Pascal's only points on three lines; their
    concurrencies are published generators 6, 4 and 5, up to sign."""
    exprs = concurrency_expressions(preset("pascal"))
    assert [d for d, _ in exprs] == [
        "((1, 5)^(2, 4))v(8, 9)",
        "((1, 6)^(3, 4))v(7, 9)",
        "((2, 6)^(3, 5))v(7, 8)",
    ]
    published = pascal_gc_expressions()
    for (_, combo), idx in zip(exprs, (6, 4, 5)):
        assert combo.expand().eq_up_to_sign(published[idx][1].expand())


@pytest.mark.parametrize(
    "name, points",
    [
        ("three-concurrent", [7]),
        ("fano", [1, 2, 3, 4, 5, 6, 7]),
        ("cactus14", [2, 3]),
        ("pappus", [1, 2, 3, 4, 5, 6, 7, 8, 9]),
        ("qs", []),
        ("grid3x3", []),
        ("cycle:4:4", []),
    ],
)
def test_concurrency_rule_counts(name, points):
    """One expression per point on exactly three 3-point lines: cactus14's
    point 1 lies on four lines, and no point of qs, grid3x3 or cycle:4:4
    lies on more than two."""
    cfg = preset(name)
    exprs = concurrency_expressions(cfg)
    assert len(exprs) == len(points)
    for p, (_, combo) in zip(points, exprs):
        others = {x for l in cfg.lines_through(p) for x in l} - {p}
        assert combo.points() <= others


def test_qs_published_gc_list_is_empty():
    assert gc_generators_preset("qs") == []


def test_gc_generators_unknown_preset():
    with pytest.raises(HypothesisError):
        gc_generators_preset("fano")


def test_cactus_generators_requires_cactus():
    with pytest.raises(HypothesisError):
        cactus_generators(preset("pascal"))


def test_cactus_generators_rejects_cyclic_degree3_points():
    # the 14-point triangle cactus is a cactus, but its degree-3 points
    # {1,2,3} form a point-line cycle, which the generator theorem excludes
    with pytest.raises(HypothesisError) as err:
        cactus_generators(preset("cactus14"))
    assert "cycle" in str(err.value)


def test_cactus_generators_on_acyclic_cactus():
    # a path of three lines: no cycles at all
    cfg = Config(7, lines=[(1, 2, 3), (3, 4, 5), (5, 6, 7)])
    gs = cactus_generators(cfg, depth=1)
    assert len(gs.circuit) == 3
    for seed in (0, 1):
        g = cactus_realization(cfg, seed)
        for c in list(gs.circuit) + list(gs.gc):
            assert c.eval(g) == 0


def test_published_form_mismatch_is_a_hypothesis_error(monkeypatch):
    """A derived generator that differs from its published text is reported,
    not returned."""
    monkeypatch.setitem(PASCAL_GC_EXPECTED_TEXT, 4, "[749][361]+[461][739]")
    with pytest.raises(HypothesisError, match="published form"):
        gc_generators_preset("pascal")

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
    gc_generators_preset,
    pappus_gc_expressions,
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
    exprs = pappus_gc_expressions()
    assert len(exprs) == 9
    for idx, text in enumerate(PAPPUS_GC_EXPECTED_TEXT):
        want = parse_bracket_text(text).expand()
        assert exprs[idx][1].expand().eq_up_to_sign(want)


def test_gc_generators_vanish():
    for name, sampler in (("pascal", pascal_family_sample), ("pappus", pappus_realization)):
        g = sampler(1)
        for c in gc_generators_preset(name):
            assert c.eval(g) == 0


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

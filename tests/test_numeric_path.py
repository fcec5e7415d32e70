"""The numeric evaluation path against the symbolic path it replaced.

Verdicts evaluate bracket combinations as sum c * prod det3, and liftability
minors from numerically built rows.  The expanded polynomials stay as the
reference.  Each comparison runs at exact rank-3 realizations, where most
values are zero, and at generic integer points, where they are not.
"""

import random
from itertools import combinations

import pytest

from bracketforge.config import preset
from bracketforge.gc import gm_generators
from bracketforge.harness import (
    cactus_realization,
    collinear_realization,
    pappus_realization,
    pascal_family_sample,
    qs_realization,
)
from bracketforge.ideals import gc_generators_preset
from bracketforge.lifting import (
    LiftingError,
    MinorDescriptor,
    QScheme,
    _numeric_rows,
    descriptor_matrix,
    eval_descriptor,
    lift_matrix,
    sample_descriptors,
)
from bracketforge.linalg import Realization, vec3


def generic_points(seed: int, d: int, n: int = 2) -> list[Realization]:
    rng = random.Random(seed)
    return [
        Realization(tuple(vec3(*(rng.randint(-30, 30) for _ in range(3))) for _ in range(d)))
        for _ in range(n)
    ]


def restricted(gamma: Realization, deleted) -> Realization:
    if deleted is None:
        return gamma
    return gamma.restrict([p for p in range(1, gamma.d + 1) if p != deleted])


@pytest.mark.parametrize(
    "name, gens, sampler",
    [
        (
            "cactus14-depth2",
            lambda: gm_generators(preset("cactus14"), 2),
            lambda s: cactus_realization(preset("cactus14"), s),
        ),
        ("pascal-gc", lambda: gc_generators_preset("pascal"), pascal_family_sample),
        ("pappus-gc", lambda: gc_generators_preset("pappus"), pappus_realization),
    ],
)
def test_combo_eval_matches_expanded_polynomial(name, gens, sampler):
    combos = gens()
    polys = [c.expand() for c in combos]
    realizations = [sampler(0), sampler(1)]
    points = realizations + generic_points(5, realizations[0].d)
    nonzero = 0
    for gamma in points:
        for c, p in zip(combos, polys):
            value = c.eval(gamma)
            assert value == p.eval(gamma), (name, c.to_text())
            nonzero += value != 0
    assert all(c.eval(g) == 0 for g in realizations for c in combos)
    assert nonzero > 0  # the generic points compare nonzero values too


@pytest.mark.parametrize(
    "preset_name, sampler, q",
    [
        ("pascal", pascal_family_sample, None),
        ("pappus", pappus_realization, None),
        ("qs", qs_realization, vec3(2, -3, 5)),
    ],
)
def test_eval_descriptor_matches_symbolic_minor(preset_name, sampler, q):
    descs = sample_descriptors(preset_name, 12, seed=4)
    full = [sampler(0)] + generic_points(9, preset(preset_name).d)
    nonzero = 0
    for d in descs:
        m = descriptor_matrix(d)
        for gamma in full:
            g = restricted(gamma, d.deleted)
            value = eval_descriptor(d, g, q)
            assert value == m.minor_eval(d.rows, d.cols, g, q), d
            nonzero += value != 0
    assert nonzero > 0


def test_eval_descriptor_input_checks():
    [d] = sample_descriptors("pascal", 1, seed=0)
    with pytest.raises(LiftingError):
        eval_descriptor(d, generic_points(0, 8, 1)[0])
    [sym] = sample_descriptors("qs", 1, seed=0)
    with pytest.raises(ValueError):
        eval_descriptor(sym, qs_realization(0))
    bad = MinorDescriptor("qs", "full", None, (0, 1, 2, 3), (0, 1, 2, 6), None)
    with pytest.raises(ValueError):
        eval_descriptor(bad, qs_realization(0), vec3(1, 2, 3))
    # a repeated column gives a singular minor, as in the symbolic matrix
    twice = MinorDescriptor("qs", "full", None, (0, 1, 2, 3), (0, 1, 1, 2), None)
    assert eval_descriptor(twice, generic_points(1, 6, 1)[0], vec3(1, 2, 3)) == 0


@pytest.mark.parametrize("name", ["qs", "pascal", "line:5", "cycle:4:4", "cactus14"])
def test_numeric_rows_match_concrete_lift_matrix(name):
    """The numeric rows, and the matrix with q fixed in every column, are the
    symbolic matrix evaluated at q."""
    cfg = preset(name)
    q = vec3(3, -1, 7)
    m = lift_matrix(cfg, QScheme.symbolic())
    uniform = lift_matrix(cfg, QScheme.per_col((q,) * cfg.d))
    points = [collinear_realization(cfg, 0)] + generic_points(2, cfg.d)
    for gamma in points:
        assert _numeric_rows(cfg, gamma, (q,) * cfg.d) == m.evaluate(gamma, q)
        assert uniform.evaluate(gamma) == m.evaluate(gamma, q)
    # a submatrix is the selected rows and columns of the full one
    gamma = points[-1]
    full = m.evaluate(gamma, q)
    rows = tuple(range(0, len(full), 2))
    for cols in list(combinations(range(cfg.d), 3))[:5]:
        sub = _numeric_rows(cfg, gamma, (q,) * cfg.d, rows, cols)
        assert sub == [[full[r][c] for c in cols] for r in rows]

import random
from fractions import Fraction as F

import pytest

from bracketforge.config import Config, is_nilpotent, nilpotent_dim, preset
from bracketforge.harness import (
    collinear_realization,
    generic_q,
    pascal_family_sample,
    qs_realization,
    quadrilateral_set_flat,
)
from bracketforge.lifting import (
    LiftingError,
    QScheme,
    construct_lifting,
    eval_descriptor,
    iter_descriptors,
    lift_dim,
    lift_matrix,
    minor_count,
    q_general_position,
    sample_descriptors,
    trivial_lifting_dim,
)
from bracketforge import poly
from bracketforge.linalg import E1, E2, E3, Realization, cross, kernel_basis, rank, vec3
from bracketforge.poly import Q_COL, bracket

from oracles import CRITERION_6_CONFIGS, expanded_values, random_simple_config


def test_matrix_shape_and_row_support():
    cfg = preset("qs")
    m = lift_matrix(cfg, QScheme.symbolic())
    assert m.shape == (4, 6)
    for circuit, row in zip(m.circuits, m.entries):
        support = {i + 1 for i, p in enumerate(row) if not p.is_zero()}
        assert support == set(circuit)


def test_qs_matrix_entries_match_expected_form():
    """Row for circuit {c1,c2,c3}: [c2 c3 q], -[c1 c3 q], [c1 c2 q]."""
    cfg = preset("qs")
    m = lift_matrix(cfg, QScheme.symbolic())
    expected_rows = {
        (1, 2, 3): {1: bracket(2, 3, Q_COL), 2: -bracket(1, 3, Q_COL), 3: bracket(1, 2, Q_COL)},
        (1, 5, 6): {1: bracket(5, 6, Q_COL), 5: -bracket(1, 6, Q_COL), 6: bracket(1, 5, Q_COL)},
        (2, 4, 6): {2: bracket(4, 6, Q_COL), 4: -bracket(2, 6, Q_COL), 6: bracket(2, 4, Q_COL)},
        (3, 4, 5): {3: bracket(4, 5, Q_COL), 4: -bracket(3, 5, Q_COL), 5: bracket(3, 4, Q_COL)},
    }
    for circuit, row in zip(m.circuits, m.entries):
        want = expected_rows[circuit]
        for col in range(1, 7):
            assert row[col - 1] == want.get(col, row[col - 1].zero())


def test_concrete_matches_symbolic():
    """One fixed q in every column is the symbolic matrix evaluated at q."""
    cfg = preset("qs")
    sym = lift_matrix(cfg, QScheme.symbolic())
    rng = random.Random(0)
    for _ in range(5):
        q = vec3(*(F(rng.randint(-5, 5)) for _ in range(3)))
        conc = lift_matrix(cfg, QScheme.per_col((q,) * cfg.d))
        g = Realization(
            tuple(vec3(*(F(rng.randint(-5, 5)) for _ in range(3))) for _ in range(6))
        )
        assert sym.evaluate(g, q) == conc.evaluate(g) == expanded_values(sym, g, q)


def test_per_column_scheme_length_must_equal_d():
    cfg = preset("qs")
    with pytest.raises(LiftingError, match="length"):
        lift_matrix(cfg, QScheme.per_col((E1,) * (cfg.d - 1)))
    assert lift_matrix(cfg, QScheme.per_col((E1, E2, E3) * 2)).bracket_text()[0][:3] == [
        "[23 q1]", "-[13 q2]", "[12 q3]"
    ]


def test_per_column_matrix_rejects_a_q():
    """A per-column matrix has its q in its scheme: a q given to it, or to a
    basis-vector descriptor, is an error, not ignored."""
    cfg = preset("qs")
    m = lift_matrix(cfg, QScheme.per_col((E1, E2, E3) * 2))
    g = collinear_realization(cfg, 0)
    q = vec3(1, 2, 5)
    with pytest.raises(ValueError, match="one q per column"):
        m.evaluate(g, q)
    with pytest.raises(ValueError, match="one q per column"):
        m.minor_eval((0, 1, 2, 3), (0, 1, 2, 3), g, q)
    desc = next(iter_descriptors("pascal", 1))
    with pytest.raises(ValueError, match="one q per column"):
        eval_descriptor(desc, pascal_family_sample(0), q)


def test_minor_eval_checks_realization_size():
    m = lift_matrix(preset("qs"), QScheme.symbolic())
    with pytest.raises(LiftingError, match="size"):
        m.minor_eval((0, 1, 2, 3), (0, 1, 2, 3), collinear_realization(preset("line:5"), 0),
                     vec3(1, 2, 5))


def test_minor_counts():
    assert minor_count("qs") == 15
    assert minor_count("pascal") == 708_588
    assert minor_count("pappus") == 2_361_960


def test_iter_descriptors_shapes():
    descs = list(iter_descriptors("qs"))
    assert len(descs) == 15
    assert all(d.q_assignment is None and len(d.cols) == 4 for d in descs)
    some = list(iter_descriptors("pascal", 10))
    assert len(some) == 10
    assert all(len(d.cols) == 7 and len(d.q_assignment) == 9 for d in some)


def test_sample_descriptors_deterministic():
    a = sample_descriptors("pappus", 25, seed=3)
    b = sample_descriptors("pappus", 25, seed=3)
    assert a == b
    assert any(d.deleted is not None for d in sample_descriptors("pappus", 100, seed=0))


def test_entries_are_expanded_on_first_use(monkeypatch):
    """Shape, circuits and the printed shorthand need no bracket polynomial;
    the entries are expanded once, when first read."""
    calls = []
    expand = poly._det
    monkeypatch.setattr(poly, "_det", lambda matrix: calls.append(matrix) or expand(matrix))
    m = lift_matrix(preset("pappus"), QScheme.symbolic())
    assert m.shape == (9, 9) and len(m.circuits) == 9 and len(m.bracket_text()) == 9
    assert calls == []
    assert m.entries is m.entries
    assert len(calls) == 3 * len(m.circuits)


def test_q_general_position():
    cfg = preset("line:4")
    g = collinear_realization(cfg, seed=0)
    assert q_general_position(cfg, g, generic_q(g, 0, cfg))
    # q equal to one of the points is not in general position
    assert not q_general_position(cfg, g, g.col(1))
    # nor is q = 0, or a q on the realized line that is on none of its points
    assert not q_general_position(cfg, g, vec3(0, 0, 0))
    on_line = tuple(a + b for a, b in zip(g.col(1), g.col(2)))
    assert all(any(cross(g.col(p), on_line)) for p in cfg.points)
    assert not q_general_position(cfg, g, on_line)
    for verdict in (lift_dim, construct_lifting, trivial_lifting_dim):
        with pytest.raises(LiftingError, match="general position"):
            verdict(cfg, g, on_line)


def test_lift_dim_matches_dimension_formula_on_a_line():
    cfg = preset("line:5")
    g = collinear_realization(cfg, seed=1)
    q = generic_q(g, 1, cfg)
    assert lift_dim(cfg, g, q) == nilpotent_dim(cfg) == 2
    assert trivial_lifting_dim(cfg, g, q) == 2


def check_lifting_verdicts(cfg, g, q):
    """The three lifting verdicts against the kernel K of the symbolic matrix
    evaluated at g.  lift_dim is d minus a rank, so by rank-nullity it is
    len(K).  trivial_lifting_dim is dim(K & rowspace g), the kernel vectors
    z_i = h(g_i), by the dimension formula for an intersection of subspaces.
    construct_lifting finds a rank-3 lifting exactly when K holds more."""
    kernel = kernel_basis(lift_matrix(cfg, QScheme.symbolic()).evaluate(g, q))
    rows = g.as_rows()
    dim, trivial = lift_dim(cfg, g, q), trivial_lifting_dim(cfg, g, q)
    assert dim == len(kernel)
    assert trivial == len(kernel) + rank(rows) - rank(kernel + rows)
    lifted = construct_lifting(cfg, g, q)
    assert (lifted is None) == (dim == trivial)
    assert lifted is None or lifted.rank() == 3


@pytest.mark.parametrize("cfg", CRITERION_6_CONFIGS)
def test_lift_dim_is_kernel_dimension(cfg):
    for gseed in range(2):
        g = collinear_realization(cfg, seed=gseed)
        for qseed in range(2):
            check_lifting_verdicts(cfg, g, generic_q(g, seed=100 * gseed + qseed, cfg=cfg))


def test_lift_dim_is_nilpotent_dim_on_random_nilpotent_configs():
    """Criterion 6 beyond its fixtures: at generic collinear points, with a
    generic q, the lifting dimension of a nilpotent configuration is
    d - sum(w_i) of its admissible ordering."""
    rng = random.Random(6)
    checked, cut = 0, 0
    while checked < 500:
        cfg = random_simple_config(rng)
        if not is_nilpotent(cfg):
            continue
        g = collinear_realization(cfg, seed=checked)
        want = nilpotent_dim(cfg)
        assert lift_dim(cfg, g, generic_q(g, checked, cfg)) == want, cfg
        checked += 1
        cut += want < cfg.d
    assert cut >= 400, cut


@pytest.mark.parametrize("flat", [False, True])
def test_lifting_verdicts_on_quadrilateral_sets(flat):
    """qs at generic collinear points and at flattened complete quadrilaterals,
    which lift out of the plane by construction."""
    cfg = preset("qs")
    for seed in range(4):
        g = quadrilateral_set_flat(seed) if flat else collinear_realization(cfg, seed=seed)
        check_lifting_verdicts(cfg, g, generic_q(g, seed, cfg))


@pytest.mark.parametrize("q, dim", [(vec3(0, 0, 1), 2), (vec3(1, 5, 0), 4)])
def test_trivial_lifting_dim_without_circuits(q, dim):
    """With no 3-circuit every z is in the kernel.  Out of the points' plane
    only z_i = h(g_i) stays planar; with q in it every lifting does."""
    cfg = Config(4, lines=())
    g = Realization(tuple(vec3(1, i, 0) for i in range(1, 5)))
    assert lift_dim(cfg, g, q) == 4
    assert trivial_lifting_dim(cfg, g, q) == dim
    assert (construct_lifting(cfg, g, q) is None) == (dim == 4)


def test_construct_lifting_triangle():
    cfg = Config(6, lines=[(1, 2, 4), (2, 3, 5), (1, 3, 6)])
    g = collinear_realization(cfg, seed=2)
    q = generic_q(g, 2, cfg)
    lifted = construct_lifting(cfg, g, q)
    assert lifted is not None
    assert lifted.rank() == 3


def test_construct_lifting_none_when_only_trivial():
    # the quadrilateral set is not nilpotent; a generic collinear collection
    # admits only in-plane liftings
    cfg = preset("qs")
    g = collinear_realization(cfg, seed=3)
    q = generic_q(g, 3, cfg)
    assert lift_dim(cfg, g, q) == trivial_lifting_dim(cfg, g, q) == 2
    assert construct_lifting(cfg, g, q) is None


def test_eval_descriptor_uniform_q_vanishes_on_realization():
    """Descriptors whose q-assignment is constant come from a single direction
    vector and vanish on every exact realization."""
    g = pascal_family_sample(0)
    uniform = [
        d for d in iter_descriptors("pascal", 5000) if len(set(d.q_assignment)) == 1
    ]
    assert uniform
    for d in uniform[:20]:
        assert eval_descriptor(d, g) == 0


def test_qs_minors_separate_liftable_from_generic_collinear():
    """All 4x4 minors vanish on a flattened complete quadrilateral, while a
    generic collection of six collinear points leaves some minor nonzero."""
    from itertools import combinations

    from bracketforge.harness import quadrilateral_set_flat

    cfg = preset("qs")
    m = lift_matrix(cfg, QScheme.symbolic())
    q = vec3(1, 2, 5)
    flat = quadrilateral_set_flat(7)
    assert rank(m.evaluate(flat, q)) <= 3
    generic = collinear_realization(cfg, seed=7)
    assert rank(m.evaluate(generic, q)) == 4
    assert any(
        m.minor_eval((0, 1, 2, 3), cols, generic, q) != 0 for cols in combinations(range(6), 4)
    )


@pytest.mark.parametrize("d", [5, 7])
@pytest.mark.parametrize("fn", [lift_dim, construct_lifting, trivial_lifting_dim])
def test_realization_size_mismatch_is_lifting_error(fn, d):
    """Fewer or more columns than the configuration has points."""
    cfg = preset("line:6")
    g = collinear_realization(preset(f"line:{d}"), seed=0)
    with pytest.raises(LiftingError, match="size"):
        fn(cfg, g, vec3(0, 0, 1))


@pytest.mark.parametrize("fn", [lift_dim, construct_lifting, trivial_lifting_dim])
def test_verdicts_report_circuit_witness(fn):
    cfg = preset("line:4")
    g = Realization(tuple(vec3(1, i, i * i) for i in range(4)))  # not collinear
    with pytest.raises(LiftingError, match=r"circuit \{1,2,3\}"):
        fn(cfg, g, vec3(0, 0, 1))


@pytest.mark.parametrize("fn", [construct_lifting, trivial_lifting_dim])
def test_planar_verdicts_reject_rank_3(fn):
    cfg = preset("qs")
    g = qs_realization(0)
    with pytest.raises(LiftingError, match="planar"):
        fn(cfg, g, generic_q(g, 0, cfg))

"""The single-q lifting verdicts on integer rows against the Fraction rows.

`lift_dim`, `construct_lifting` and `trivial_lifting_dim` build the
liftability matrix at gamma from the integer columns of the realization and
the integer form of q.  The Fraction path they replaced (rank and kernel of
`LiftMatrix.evaluate` with a symbolic q) stays here as the oracle: every
verdict must be byte-identical to it, and the integer rows must be the
Fraction rows rescaled by the column, row and q multipliers.
"""

import math
import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from bracketforge import lifting
from bracketforge.config import Config, preset
from bracketforge.harness import (
    cactus_realization,
    collinear_realization,
    generic_q,
    in_circuit_variety,
    pappus_realization,
    quadrilateral_set_flat,
    random_cactus,
)
from bracketforge.lifting import (
    LiftingError,
    _check_lifting_input,
    QScheme,
    construct_lifting,
    lift_dim,
    lift_matrix,
    q_general_position,
    trivial_lifting_dim,
)
from bracketforge.linalg import (
    Realization,
    _integer_rows,
    _rank,
    cross,
    dot,
    kernel_basis,
    rank,
    vec3,
)

from oracles import (
    CRITERION_6_CONFIGS,
    fraction_rref,
    peel,
    sha256_lines,
    two_scan_prologue,
)

# the names the benchmark's lift-kernel workload gives CRITERION_6_CONFIGS
LIFT_KERNEL_NAMES = ["line:4", "line:6", "cycle:3:3", "cycle:4:4", "random_cactus(0)",
                     "random_cactus(1)", "random_cactus(2)", "cactus14", "pascal-{7}",
                     "pappus-{1,9}"]


def lift_kernel_inputs(seed: int, passes: int) -> list:
    """(name, cfg, gamma, q) as the benchmark's lift-kernel workload draws
    them: per pass, each configuration at one collinear realization with two
    generic directions, then eight flattened quadrilateral sets."""
    qs = preset("qs")
    outer = random.Random(seed)
    out = []
    for _ in range(passes):
        rng = random.Random(outer.randrange(10**9))
        for name, cfg in zip(LIFT_KERNEL_NAMES, CRITERION_6_CONFIGS):
            g = collinear_realization(cfg, rng.randrange(10**9))
            for _ in range(2):
                out.append((name, cfg, g, generic_q(g, rng.randrange(10**9), cfg)))
        for _ in range(8):
            rseed, qseed = rng.randrange(10**9), rng.randrange(10**9)
            flat = quadrilateral_set_flat(rseed)
            out.append(("qs-flat", qs, flat, generic_q(flat, qseed, qs)))
    return out


def rescaled(gamma: Realization, scales) -> Realization:
    """gamma with column i multiplied by scales[i]: the same projective points."""
    return Realization(tuple(tuple(s * x for x in col) for s, col in zip(scales, gamma.cols)))


def distinct_denominator_inputs() -> list:
    """Collinear and flattened-quadrilateral realizations whose columns carry
    pairwise distinct denominators, with a q that has denominators too."""
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
    out = []
    for cfg in (preset("qs"), preset("line:6"), random_cactus(1), preset("cactus14")):
        g = collinear_realization(cfg, seed=5)
        g = rescaled(g, [F(i + 2, p) for i, p in enumerate(primes[: cfg.d])])
        out.append((cfg, g, tuple(x * F(5, 11) for x in generic_q(g, 5, cfg))))
    qs = preset("qs")
    for seed in range(3):
        g = rescaled(quadrilateral_set_flat(seed), [F(-3 * i - 1, p) for i, p in enumerate(primes)])
        out.append((qs, g, tuple(x * F(-7, 13) for x in generic_q(g, seed, qs))))
    return out


def no_circuit_inputs() -> list:
    cfg = Config(4, lines=())
    g = Realization(tuple(vec3(1, i, 0) for i in range(1, 5)))
    return [(cfg, g, vec3(0, 0, 1)), (cfg, g, vec3(1, 5, 0)), (cfg, g, vec3(F(1, 3), 5, F(2, 7)))]


def criterion_6_inputs() -> list:
    out = []
    for cfg in CRITERION_6_CONFIGS:
        for gseed in range(2):
            g = collinear_realization(cfg, seed=gseed)
            for qseed in range(2):
                out.append((cfg, g, generic_q(g, seed=100 * gseed + qseed, cfg=cfg)))
    return out


# ---------------------------------------------------------------------------
# The Fraction oracle: the verdicts as computed from `LiftMatrix.evaluate`


def oracle_rows(cfg, gamma, q):
    return lift_matrix(cfg, QScheme.symbolic()).evaluate(gamma, q)


def oracle_lift_dim(cfg, gamma, q) -> int:
    return cfg.d - rank(oracle_rows(cfg, gamma, q))


def oracle_construct(cfg, gamma, q):
    for z in kernel_basis(oracle_rows(cfg, gamma, q) or [[F(0)] * cfg.d]):
        lifted = Realization(
            tuple(tuple(x + zi * y for x, y in zip(col, q)) for zi, col in zip(z, gamma.cols))
        )
        if oracle_rank(lifted.cols) == 3:
            return lifted
    return None


def oracle_rank(vectors) -> int:
    return len(fraction_rref([list(v) for v in vectors])[1])


def oracle_trivial(cfg, gamma, q) -> int:
    if oracle_rank(gamma.cols + (q,)) == 3:
        return 2
    return oracle_lift_dim(cfg, gamma, q)


def outcome(cfg, gamma, q) -> str:
    """The three verdicts, printed."""
    lifted = construct_lifting(cfg, gamma, q)
    return (f"{lift_dim(cfg, gamma, q)} {trivial_lifting_dim(cfg, gamma, q)} "
            f"{None if lifted is None else lifted.to_json()}")


def oracle_outcome(cfg, gamma, q) -> str:
    lifted = oracle_construct(cfg, gamma, q)
    return (f"{oracle_lift_dim(cfg, gamma, q)} {oracle_trivial(cfg, gamma, q)} "
            f"{None if lifted is None else lifted.to_json()}")


INPUT_SETS = {
    "criterion-6": criterion_6_inputs,
    "qs-flat": lambda: [x[1:] for x in lift_kernel_inputs(3, 1) if x[0] == "qs-flat"],
    "no-circuits": no_circuit_inputs,
    "distinct-denominators": distinct_denominator_inputs,
}


@pytest.mark.parametrize("name", INPUT_SETS)
def test_verdicts_match_fraction_oracle(name):
    inputs = INPUT_SETS[name]()
    lifted = 0
    for cfg, gamma, q in inputs:
        got = outcome(cfg, gamma, q)
        assert got == oracle_outcome(cfg, gamma, q), (name, cfg, gamma)
        lifted += not got.endswith("None")
    if name in ("qs-flat", "distinct-denominators"):
        assert lifted > 0  # the liftings compare columns, not only None


def has_independent_pair(gamma, line) -> bool:
    return any(any(cross(gamma.col(a), gamma.col(b))) for a, b in combinations(line, 2))


def check_integer_rows(cfg, gamma, q):
    """Each integer row, three (column, value) pairs in distinct columns,
    is the Fraction row of a 3-circuit with entry c scaled by s_q * (prod of
    the column multipliers over the circuit) / s_c.  The rows are those of
    k_L - 2 circuits per line L with an independent pair, and have the rank
    of the whole Fraction matrix.  Returns the lines with an independent
    pair and the rows the peel of `_rank` leaves (`oracles.peel`)."""
    _, _, ints = _check_lifting_input(cfg, gamma, q)
    fracs = oracle_rows(cfg, gamma, q)
    _, s = gamma._integer_view
    _, (s_q,) = _integer_rows([q])
    assert len(fracs) == len(cfg.circuits3())
    used, dense = [], []
    for pairs in ints:
        assert len(pairs) == 3 and len({c for c, _ in pairs}) == 3
        row = [0] * cfg.d
        for c, x in pairs:
            row[c] = x
        dense.append(row)
        assert all(type(x) is int for x in row)
        matches = [
            circuit for circuit, frac_row in zip(cfg.circuits3(), fracs)
            if row == [s_q * math.prod(s[k - 1] for k in circuit) * x / s[c]
                       for c, x in enumerate(frac_row)]
        ]
        assert matches, row
        used.append(matches[0])
    assert len(set(used)) == len(ints)
    independent = [l for l in cfg.lines if has_independent_pair(gamma, l)]
    assert len(ints) == sum(len(l) - 2 for l in independent)
    assert _rank(ints, cfg.d) == len(fraction_rref(fracs)[1]) if fracs else not ints
    return independent, peel(dense)[0]


@pytest.mark.parametrize("name", INPUT_SETS)
def test_integer_rows_are_scaled_fraction_rows(name):
    cores = [check_integer_rows(cfg, gamma, q)[1] for cfg, gamma, q in INPUT_SETS[name]()]
    if name == "criterion-6":
        assert not any(cores)  # every frame row peels
    if name == "qs-flat":
        assert all(cores)  # each point is on two lines, so no column is owned


# Recorded with the Fraction rows: sha256 of the printed verdicts over the
# lift-kernel inputs of 3 passes for each seed.
GOLDEN = {
    0: "70dfc62c8092dbf12a97ab7868b989d38415f799f77f72560ed12985644f966e",
    1: "0148c14af387dbcc2394fa79995b286c68eb8978e9186d599e2dbb6e1f48125f",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_lift_kernel_golden(seed):
    lines = [f"{name}: {outcome(cfg, gamma, q)}"
             for name, cfg, gamma, q in lift_kernel_inputs(seed, 3)]
    assert sha256_lines(lines) == GOLDEN[seed]


def lifting_golden_inputs() -> list:
    """Flattened quadrilateral sets with their generic q, then the inputs
    with distinct denominators and with no circuit."""
    qs = preset("qs")
    out = []
    for seed in range(500):
        flat = quadrilateral_set_flat(seed)
        out.append((qs, flat, generic_q(flat, seed, qs)))
    return out + distinct_denominator_inputs() + no_circuit_inputs()


# Recorded before the liftings were checked on integer columns: sha256 of
# trivial_lifting_dim and the printed construct_lifting per input.
LIFTING_GOLDEN = "f5f7b5232ae83ec19d1313ef1e862760866c6fe7d69a67828e085cd5ac5cc6b7"


def test_lifting_golden():
    lines = []
    for cfg, gamma, q in lifting_golden_inputs():
        lifted = construct_lifting(cfg, gamma, q)
        lines.append(f"{trivial_lifting_dim(cfg, gamma, q)} "
                     f"{None if lifted is None else lifted.to_json()}")
    assert sum(not line.endswith("None") for line in lines) > 500
    assert sha256_lines(lines) == LIFTING_GOLDEN


def test_verdicts_never_build_fraction_rows(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a single-q verdict built Fraction rows")

    monkeypatch.setattr(lifting.LiftMatrix, "_values", fail)
    inputs = criterion_6_inputs()[::4] + distinct_denominator_inputs() + no_circuit_inputs()
    for cfg, gamma, q in inputs:
        assert lift_dim(cfg, gamma, q) >= 0
        assert trivial_lifting_dim(cfg, gamma, q) >= 0
        construct_lifting(cfg, gamma, q)


def test_an_inexact_kernel_is_caught_on_the_lifted_columns(monkeypatch):
    """A planted kernel whose first vector lifts within the plane and whose
    second is no kernel vector and lifts to rank 3: construct_lifting skips
    the first and raises on the second, with the witness in_circuit_variety
    gives on the Fraction lifted collection."""
    inputs = INPUT_SETS["qs-flat"]() + distinct_denominator_inputs()
    for cfg, gamma, q in inputs:
        planar = [F(0)] * cfg.d
        planted = [F(0)] * cfg.d
        planted[0], planted[2] = F(-2, 3), F(5, 7)
        # _integer_kernel yields (w, den) with the vector w / den
        kernel = [(w, den) for (w,), (den,) in (_integer_rows([z]) for z in (planar, planted))]
        monkeypatch.setattr(lifting, "_integer_kernel", lambda rows, ncols, scale: iter(kernel))
        lifted = Realization(tuple(
            tuple(x + zi * y for x, y in zip(col, q)) for zi, col in zip(planted, gamma.cols)
        ))
        assert oracle_rank(lifted.cols) == 3
        ok, witness = in_circuit_variety(cfg, lifted)
        assert not ok
        with pytest.raises(LiftingError) as err:
            construct_lifting(cfg, gamma, q)
        assert str(err.value) == f"lifted collection violates a circuit; kernel not exact: {witness}"


def forbid_elimination(monkeypatch):
    """Make `lifting._rank` and `lifting._integer_kernel` raise."""
    def fail(*args, **kwargs):
        raise AssertionError("trivial_lifting_dim eliminated rows it does not read")

    monkeypatch.setattr(lifting, "_rank", fail)
    monkeypatch.setattr(lifting, "_integer_kernel", fail)


def test_trivial_lifting_dim_on_a_spanning_q_takes_no_rank(monkeypatch):
    """qs-flat and collinear samples with a generic q span Q^3: 2."""
    forbid_elimination(monkeypatch)
    cfg = random_cactus(0)
    gamma = collinear_realization(cfg, 0)
    assert trivial_lifting_dim(cfg, gamma, generic_q(gamma, 0, cfg)) == 2
    qs = preset("qs")
    for seed in range(3):
        flat = quadrilateral_set_flat(seed)
        assert trivial_lifting_dim(qs, flat, generic_q(flat, seed, qs)) == 2
    for cfg in CRITERION_6_CONFIGS:
        gamma = collinear_realization(cfg, 1)
        assert trivial_lifting_dim(cfg, gamma, generic_q(gamma, 1, cfg)) == 2


def test_trivial_lifting_dim_without_a_frame_pair_takes_no_rank(monkeypatch):
    """With q in the points' plane no line has an independent pair, the scan
    builds no row and the Fraction matrix is zero: d, with neither a rank
    nor a kernel.  The input check's errors keep their texts."""
    forbid_elimination(monkeypatch)
    plane = Realization(tuple(vec3(1, i, 0) for i in range(1, 5)))
    # points 1, 2, 3 of the line coincide, so it has no independent pair
    coincident = Realization((vec3(1, 0, 0), vec3(2, 0, 0), vec3(-1, 0, 0), vec3(0, 1, 0)))
    one_line = Config(4, lines=[(1, 2, 3)])
    for cfg, gamma, q in [(Config(4, lines=()), plane, vec3(1, 5, 0)),
                          (one_line, coincident, vec3(1, 1, 0))]:
        assert _check_lifting_input(cfg, gamma, q)[2] == []
        assert rank(lift_matrix(cfg, QScheme.symbolic()).evaluate(gamma, q)) == 0
        assert trivial_lifting_dim(cfg, gamma, q) == 4
    skew = Realization((vec3(1, 0, 0), vec3(0, 1, 0), vec3(0, 0, 1), vec3(1, 1, 1)))
    witness = in_circuit_variety(one_line, skew)[1]
    with pytest.raises(LiftingError) as err:
        trivial_lifting_dim(one_line, skew, vec3(1, 2, 5))
    assert str(err.value) == f"realization violates a circuit of the configuration: {witness}"
    with pytest.raises(LiftingError) as err:
        trivial_lifting_dim(one_line, coincident, coincident.col(4))
    assert str(err.value) == "q is not in general position for this realization"


def coincide(gamma: Realization, points, onto: int, scales) -> Realization:
    """gamma with each of `points` moved onto the span of point `onto`, as
    that column times the matching scale (0 gives the zero vector)."""
    cols = list(gamma.cols)
    for p, t in zip(points, scales):
        cols[p - 1] = tuple(t * x for x in cols[onto - 1])
    return Realization(tuple(cols))


def frame_inputs() -> dict:
    """Inputs beyond generic collinear points: rank-3 realizations in the
    circuit variety, lines of >= 4 points whose first pair coincides (so
    the frame is another pair), and lines whose points all coincide (so
    they have no frame)."""
    cactus0, c44, line6 = random_cactus(0), preset("cycle:4:4"), preset("line:6")
    rank3 = [(preset("pappus"), pappus_realization(s)) for s in range(3)]
    rank3 += [(random_cactus(s), cactus_realization(random_cactus(s), s)) for s in range(4)]
    # point 9 lies on line (4, 9, 10, 11, 12) alone, so it may join point 4
    rank3 += [(cactus0, coincide(cactus_realization(cactus0, s), [9], 4, [F(-2, 3)]))
              for s in range(2)]
    first_pair = [(line6, coincide(collinear_realization(line6, 1), [2], 1, [F(5, 2)])),
                  (c44, coincide(collinear_realization(c44, 2), [2], 1, [-3])),
                  (cactus0, coincide(collinear_realization(cactus0, 3), [9], 4, [F(1, 7)])),
                  # a zero point depends on every point: the frame of (1, 2, 5, 6) is (2, 5)
                  (c44, coincide(collinear_realization(c44, 7), [1], 1, [0]))]
    all_coincide = [(line6, coincide(collinear_realization(line6, 4), [2, 3, 4, 5, 6], 1,
                                     [2, -1, F(1, 3), 5, 7])),
                    (c44, coincide(collinear_realization(c44, 5), [2, 5, 6], 1, [3, 0, -2])),
                    (cactus0, coincide(collinear_realization(cactus0, 6), [9, 10, 11, 12], 4,
                                       [-1, 2, F(3, 5), 4]))]
    return {name: [(cfg, g, generic_q(g, i, cfg)) for i, (cfg, g) in enumerate(inputs)]
            for name, inputs in [("rank-3", rank3), ("first-pair-coincides", first_pair),
                                 ("line-all-coincides", all_coincide)]}


@pytest.mark.parametrize("name", ["rank-3", "first-pair-coincides", "line-all-coincides"])
def test_frame_rows_give_the_full_matrix_verdicts(name):
    """The frame rows and the verdicts on them against the whole Fraction
    matrix where a line's frame is not its first pair or where it has none.
    A rank-3 realization has a lift dimension but no planar lifting."""
    for cfg, gamma, q in frame_inputs()[name]:
        independent, _ = check_integer_rows(cfg, gamma, q)
        if name == "rank-3":
            assert gamma.rank() == 3
            assert lift_dim(cfg, gamma, q) == oracle_lift_dim(cfg, gamma, q)
            for verdict in (construct_lifting, trivial_lifting_dim):
                with pytest.raises(LiftingError, match="planar"):
                    verdict(cfg, gamma, q)
        else:
            assert outcome(cfg, gamma, q) == oracle_outcome(cfg, gamma, q)
        if name == "line-all-coincides":
            assert len(independent) < len(cfg.lines)


def test_cactus_lift_dim_matches_fraction_rank():
    """lift_dim against d - rank of the Fraction rows, the rank taken by
    Gauss-Jordan elimination with Fraction division, on collinear
    realizations of random cacti up to 30 x 23."""
    for seed in range(20):
        cfg = random_cactus(seed)
        g = collinear_realization(cfg, seed=seed)
        q = generic_q(g, seed=seed, cfg=cfg)
        _, pivots = fraction_rref(oracle_rows(cfg, g, q))
        assert lift_dim(cfg, g, q) == cfg.d - len(pivots), seed


def old_q_general_position(cfg, gamma, q) -> bool:
    """q_general_position with a cross product for every pair on a line."""
    if not any(q):
        return False
    cols = gamma._integer_view[0]
    (q,), _ = _integer_rows([q])
    for p in cfg.nonloop_points:
        v = cols[p - 1]
        if any(v) and not any(cross(v, q)):
            return False
    for l in cfg.lines:
        for a, b in combinations([cols[p - 1] for p in l], 2):
            w = cross(a, b)
            if any(w) and dot(w, q) == 0:
                return False
    return True


def degenerate_q_inputs(seed: int):
    """A configuration (one has points on no line), points with some
    coincident or zero columns, and a q that is random, zero, on a point's
    span or on the span of two points of a line."""
    rng = random.Random(seed)
    cfg = rng.choice([preset("qs"), preset("line:6"), preset("cycle:4:4"), preset("pappus"),
                      random_cactus(seed % 5), Config(5, lines=[(1, 2, 3)])])
    frac = lambda: F(rng.randint(-6, 6), rng.randint(1, 4))
    if rng.random() < 0.5:
        cols = list(collinear_realization(cfg, seed).cols)
    else:
        cols = [vec3(frac(), frac(), frac()) for _ in range(cfg.d)]
    line = rng.choice(cfg.lines)
    for _ in range(rng.randint(0, 2)):
        a, b = rng.sample(line, 2)
        cols[b - 1] = tuple(frac() * x for x in cols[a - 1])  # coincident (or zero)
    if rng.random() < 0.3:
        cols[rng.choice(line) - 1] = vec3(0, 0, 0)
    a, b = (cols[p - 1] for p in rng.sample(line, 2))
    s, t = frac(), frac()
    q = rng.choice([
        vec3(frac(), frac(), frac()),
        vec3(0, 0, 0),
        tuple(s * x for x in cols[rng.randrange(cfg.d)]),
        tuple(s * x + t * y for x, y in zip(a, b)),
    ])
    return cfg, Realization(tuple(cols)), q


def test_q_general_position_matches_all_pairs_cross_products():
    """On inputs in the circuit variety q_general_position agrees with the
    all-pairs test; on the others it raises the verdicts' circuit error."""
    inputs = [degenerate_q_inputs(seed) for seed in range(400)]
    inputs += [x[1:] for x in lift_kernel_inputs(1, 1)]
    inputs += [x for group in frame_inputs().values() for x in group]
    verdicts, faults = [], 0
    for cfg, gamma, q in inputs:
        if in_circuit_variety(cfg, gamma)[0]:
            want = old_q_general_position(cfg, gamma, q)
            assert q_general_position(cfg, gamma, q) == want, (cfg, gamma, q)
            verdicts.append(want)
        else:
            want = prologue_outcome(two_scan_prologue, cfg, gamma, q)
            assert want.startswith("LiftingError: realization violates a circuit"), want
            assert prologue_outcome(q_general_position, cfg, gamma, q) == want
            faults += 1
    assert min(verdicts.count(True), verdicts.count(False)) >= 20
    assert faults == 298


def test_generic_q_rejects_a_realization_off_the_circuit_variety():
    """The first draw raises the verdicts' circuit error.  Point 6 is on the
    line (1, 2, 5, 6) alone, and moving it violates {1, 2, 6}."""
    c44 = preset("cycle:4:4")
    gamma = moved(collinear_realization(c44, 1), 6, (1, -2, 3))
    with pytest.raises(LiftingError, match=r"violates a circuit of the configuration: "
                                           r"circuit \{1,2,6\} "):
        generic_q(gamma, 0, c44)


# ---------------------------------------------------------------------------
# The one-scan prologue against the two-scan reference


def prologue_outcome(check, cfg, gamma, q) -> str:
    try:
        return f"ok {check(cfg, gamma, q)}"
    except LiftingError as err:
        return f"LiftingError: {err}"


def moved(gamma: Realization, p: int, shift) -> Realization:
    """gamma with point p moved by the vector shift."""
    cols = list(gamma.cols)
    cols[p - 1] = tuple(x + y for x, y in zip(cols[p - 1], shift))
    return Realization(tuple(cols))


def combined(gamma: Realization, s, a: int, t, b: int):
    """s * gamma_a + t * gamma_b: a q on the line of the pair (a, b)."""
    return tuple(s * x + t * y for x, y in zip(gamma.col(a), gamma.col(b)))


def planted_prologue_inputs() -> dict:
    """name -> (cfg, gamma, q, the start of the expected outcome)."""
    c44, cactus0, pappus = preset("cycle:4:4"), random_cactus(0), preset("pappus")
    flat = collinear_realization(c44, 1)
    q44 = generic_q(flat, 1, c44)
    rank3 = cactus_realization(cactus0, 2)
    pappus3 = pappus_realization(4)
    gp = "LiftingError: q is not in general position"
    frames = frame_inputs()
    return {
        "q' = 0": (c44, flat, vec3(0, 0, 0), gp),
        # no point has a span for q to lie on, and no pair a line
        "q' = 0 with every point zero": (preset("line:4"), Realization((vec3(0, 0, 0),) * 4),
                                         vec3(0, 0, 0), gp),
        "q on a point's span": (c44, flat, tuple(F(-3, 2) * x for x in flat.col(5)), gp),
        # (4, 9) is the frame pair of the line (4, 9, 10, 11, 12)
        "q on a non-frame pair's line": (cactus0, rank3, combined(rank3, 1, 10, F(2, 3), 12), gp),
        # point 6 is on the line (1, 2, 5, 6) alone; {1, 2, 5} holds, {1, 2, 6} does not
        "point off a 4-point line": (c44, moved(flat, 6, (1, -2, 3)), q44,
                                     "LiftingError: realization violates a circuit of the "
                                     "configuration: circuit {1,2,6}"),
        "coincident pair before the frame pair": frames["first-pair-coincides"][1] + ("ok",),
        "line with no independent pair": frames["line-all-coincides"][0] + ("ok",),
        # point 10 is on the last line (3, 4, 9, 10) alone: the earlier lines
        # build their frame rows before the scan meets the fault
        "point off the last line": (c44, moved(flat, 10, (1, -2, 3)), q44,
                                    "LiftingError: realization violates a circuit of the "
                                    "configuration: circuit {3,4,10} has nonzero determinant"),
        # q on the first line (1, 2, 3), and point 9, on later lines only, moved
        "general position fault, then a circuit fault": (
            pappus, moved(pappus3, 9, (2, 1, -1)), combined(pappus3, 2, 1, -1, 2),
            "LiftingError: realization violates a circuit of the configuration: circuit {2,6,9}"),
    }


@pytest.mark.parametrize("name", list(planted_prologue_inputs()))
def test_prologue_matches_two_scan_reference_on_planted_inputs(name):
    cfg, gamma, q, expected = planted_prologue_inputs()[name]
    got = prologue_outcome(_check_lifting_input, cfg, gamma, q)
    assert got == prologue_outcome(two_scan_prologue, cfg, gamma, q)
    assert got.startswith(expected), got
    if name == "general position fault, then a circuit fault":
        pappus3 = pappus_realization(4)
        assert not q_general_position(cfg, pappus3, q) and in_circuit_variety(cfg, pappus3)[0]


def test_prologue_matches_two_scan_reference():
    """Equal verdicts, returns and error texts on the lift-kernel inputs and
    on points with coincident or zero columns and degenerate q."""
    inputs = [x[1:] for x in lift_kernel_inputs(2, 2)]
    inputs += [degenerate_q_inputs(seed) for seed in range(400)]
    inputs += [x for group in frame_inputs().values() for x in group]
    seen = {"ok": 0, "circuit": 0, "general position": 0}
    for cfg, gamma, q in inputs:
        want = prologue_outcome(two_scan_prologue, cfg, gamma, q)
        assert prologue_outcome(_check_lifting_input, cfg, gamma, q) == want, (cfg, gamma, q)
        seen[next(kind for kind in seen if kind in want)] += 1
    assert min(seen.values()) >= 20, seen


def test_valid_inputs_skip_the_full_scans(monkeypatch):
    """On inputs that pass, no single-q verdict evaluates every circuit or
    tests every pair of a line."""
    inputs = [x[1:] for x in lift_kernel_inputs(4, 1)]
    inputs += frame_inputs()["first-pair-coincides"] + frame_inputs()["line-all-coincides"]
    inputs += distinct_denominator_inputs() + no_circuit_inputs()

    def fail(*args, **kwargs):
        raise AssertionError("a verdict ran a full scan of its input")

    monkeypatch.setattr(lifting, "_scan_fault", fail)
    monkeypatch.setattr(lifting, "q_general_position", fail)
    for cfg, gamma, q in inputs:
        assert lift_dim(cfg, gamma, q) >= 0
        assert trivial_lifting_dim(cfg, gamma, q) >= 0
        construct_lifting(cfg, gamma, q)


# Recorded before the scan built the frame rows: sha256 of the return value
# (a Realization as its JSON) or the error text of each single-q entry point
# per input, so the precedence of the error texts is pinned too.
OUTCOME_GOLDEN = "672091fb951a2b0d9a6d3f98bd12f8c3f96d386d2327ee426c6a6a2a8314b21f"


def entry_point_outcome(fn, cfg, gamma, q) -> str:
    try:
        got = fn(cfg, gamma, q)
    except ValueError as err:
        return f"{type(err).__name__}: {err}"
    return got.to_json() if isinstance(got, Realization) else str(got)


def test_entry_point_outcome_golden():
    inputs = [x[1:] for x in lift_kernel_inputs(3, 5)]
    inputs += [degenerate_q_inputs(seed) for seed in range(400)]
    inputs += [x for group in frame_inputs().values() for x in group]
    inputs += [x[:3] for x in planted_prologue_inputs().values()]
    inputs += distinct_denominator_inputs() + no_circuit_inputs() + criterion_6_inputs()
    lines = [entry_point_outcome(fn, cfg, gamma, q)
             for cfg, gamma, q in inputs
             for fn in (lift_dim, construct_lifting, trivial_lifting_dim, q_general_position)]
    assert sha256_lines(lines) == OUTCOME_GOLDEN

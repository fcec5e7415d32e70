"""The single-q lifting verdicts on integer rows against the Fraction rows.

`lift_dim`, `construct_lifting` and `trivial_lifting_dim` build the
liftability matrix at gamma from the integer columns of the realization and
the integer form of q.  The Fraction path they replaced (rank and kernel of
`_numeric_rows` with q in every column) stays here as the oracle: every
verdict must be byte-identical to it, and the integer rows must be the
Fraction rows rescaled by the column, row and q multipliers.
"""

import hashlib
import math
import random
from fractions import Fraction as F

import pytest

from bracketforge import lifting
from bracketforge.config import Config, preset
from bracketforge.harness import (
    collinear_realization,
    generic_q,
    quadrilateral_set_flat,
    random_cactus,
)
from bracketforge.lifting import (
    _integer_lift_rows,
    _numeric_rows,
    construct_lifting,
    lift_dim,
    trivial_lifting_dim,
)
from bracketforge.linalg import Realization, _integer_rows, kernel_basis, rank, rank_vectors, vec3

from test_lifting import CRITERION_6_CONFIGS

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
# The Fraction oracle: the verdicts as computed from `_numeric_rows`


def oracle_rows(cfg, gamma, q):
    return _numeric_rows(cfg, gamma, (q,) * cfg.d)


def oracle_lift_dim(cfg, gamma, q) -> int:
    return cfg.d - rank(oracle_rows(cfg, gamma, q))


def oracle_construct(cfg, gamma, q):
    for z in kernel_basis(oracle_rows(cfg, gamma, q) or [[F(0)] * cfg.d]):
        lifted = Realization(
            tuple(tuple(x + zi * y for x, y in zip(col, q)) for zi, col in zip(z, gamma.cols))
        )
        if lifted.rank() == 3:
            return lifted
    return None


def oracle_trivial(cfg, gamma, q) -> int:
    if rank_vectors(gamma.cols + (q,)) == 3:
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


@pytest.mark.parametrize("name", INPUT_SETS)
def test_integer_rows_are_scaled_fraction_rows(name):
    """Entry (circuit, c) of the integer rows is s_q * (prod of the column
    multipliers over the circuit) / s_c times the Fraction entry."""
    for cfg, gamma, q in INPUT_SETS[name]():
        ints = _integer_lift_rows(cfg, gamma, q)
        fracs = oracle_rows(cfg, gamma, q)
        _, s = gamma._integer_view
        _, (s_q,) = _integer_rows([q])
        assert len(ints) == len(fracs) == len(cfg.circuits3())
        for row, frac_row, circuit in zip(ints, fracs, cfg.circuits3()):
            assert all(type(x) is int for x in row)
            s_r = math.prod(s[k - 1] for k in circuit)
            assert row == [s_q * s_r * x / s[c] for c, x in enumerate(frac_row)]


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
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GOLDEN[seed]


def test_verdicts_never_build_fraction_rows(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a single-q verdict built Fraction rows")

    monkeypatch.setattr(lifting, "_numeric_rows", fail)
    inputs = criterion_6_inputs()[::4] + distinct_denominator_inputs() + no_circuit_inputs()
    for cfg, gamma, q in inputs:
        assert lift_dim(cfg, gamma, q) >= 0
        assert trivial_lifting_dim(cfg, gamma, q) >= 0
        construct_lifting(cfg, gamma, q)

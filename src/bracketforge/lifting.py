"""Liftability matrices, their minors, lifting dimensions, and liftings.

For a simple configuration the liftability matrix has one row per 3-circuit
{c1 < c2 < c3} and one column per point; the row carries the bracket
polynomials [c2 c3 q], -[c1 c3 q], [c1 c2 q] in columns c1, c2, c3.  Its
kernel at a planar collection gamma parametrizes the ways to lift gamma out
of its plane along the direction q while preserving the circuits to first
order.

`lift_matrix` builds the matrix of polynomials, with one symbolic q or one
fixed q vector per column (`QScheme`); a fixed q shared by all columns is the
symbolic matrix evaluated at q.  Its entries are expanded on first use, so
its circuits and printed shorthand cost no expansion.  Verdicts build its
value at gamma directly, in the same layout, with no polynomial.  A descriptor
minor has its own q per column and builds the selected Fraction rows from
cross products, [u v q] = dot(cross(gamma_u, gamma_v), q).  The single-q
verdicts (lifting dimensions, liftings) build the whole matrix on the
realization's integer columns and the integer form of q; it differs from the
Fraction matrix only by positive row scalings and one positive scaling per
column, which keep the rank and scale each kernel vector back exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import comb
from typing import Iterable, Iterator, Optional, Sequence

from . import config
from .config import Config
from .harness import in_circuit_variety
from .linalg import (
    BASIS,
    Realization,
    Vec3,
    _eliminate,
    _integer_kernel,
    _integer_rows,
    cross,
    det_exact,
    dot,
    rank_vectors,
    vadd,
    vscale,
)
from .poly import BracketPoly, Q_COL, _select, bracket, const_col, symbolic_minor


class LiftingError(ValueError):
    pass


ZERO = Fraction(0)


@dataclass(frozen=True)
class QScheme:
    """How the direction vector q enters the matrix entries: one symbolic q
    shared by every column (per_column None), or one fixed vector per
    column, used by the brackets in that column."""

    per_column: Optional[tuple[Vec3, ...]] = None

    @staticmethod
    def symbolic() -> "QScheme":
        return QScheme()

    @staticmethod
    def per_col(vectors: Sequence[Vec3]) -> "QScheme":
        return QScheme(tuple(vectors))


@dataclass(frozen=True)
class LiftMatrix:
    cfg: Config
    scheme: QScheme
    circuits: tuple[tuple[int, ...], ...]

    @cached_property
    def entries(self) -> tuple[tuple[BracketPoly, ...], ...]:
        """The bracket polynomials, expanded on first use."""
        q_cols = self.scheme.per_column
        rows = []
        for entries in _circuit_rows(self.cfg):
            row = [BracketPoly.zero()] * self.cfg.d
            for col, (u, v), sign in entries:
                p = bracket(u, v, Q_COL if q_cols is None else const_col(q_cols[col - 1]))
                row[col - 1] = p if sign > 0 else -p
            rows.append(tuple(row))
        return tuple(rows)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.circuits), self.cfg.d

    def evaluate(self, gamma: Realization, q: Optional[Vec3] = None) -> list[list[Fraction]]:
        if gamma.d != self.cfg.d:
            raise LiftingError("realization size does not match configuration")
        return [[p.eval(gamma, q) for p in row] for row in self.entries]

    def minor(self, rows: Sequence[int], cols: Sequence[int]) -> BracketPoly:
        return symbolic_minor(self.entries, rows, cols)

    def minor_eval(
        self,
        rows: Sequence[int],
        cols: Sequence[int],
        gamma: Realization,
        q: Optional[Vec3] = None,
    ) -> Fraction:
        return det_exact(_select(self.evaluate(gamma, q), rows, cols))

    def bracket_text(self) -> list[list[str]]:
        """Shorthand like "[23 q1]" mirroring how such matrices are printed."""
        out = []
        for entries in _circuit_rows(self.cfg):
            row = ["0"] * self.cfg.d
            for col, (u, v), sign in entries:
                qname = "q" if self.scheme.per_column is None else f"q{col}"
                row[col - 1] = f"{'-' if sign < 0 else ''}[{u}{v} {qname}]"
            out.append(row)
        return out


def _circuit_rows(cfg: Config) -> list[tuple[tuple[int, tuple[int, int], int], ...]]:
    """The liftability layout: one row per 3-circuit c1 < c2 < c3, in
    circuit order, as (column, bracket pair, sign) for columns c1, c2, c3."""
    return [
        ((c1, (c2, c3), 1), (c2, (c1, c3), -1), (c3, (c1, c2), 1))
        for c1, c2, c3 in cfg.circuits3()
    ]


def lift_matrix(cfg: Config, scheme: QScheme) -> LiftMatrix:
    cfg._require_simple()
    q_cols = scheme.per_column
    if q_cols is not None and len(q_cols) != cfg.d:
        raise LiftingError("per-column scheme length must equal d")
    return LiftMatrix(cfg, scheme, cfg.circuits3())


def _numeric_rows(
    cfg: Config,
    gamma: Realization,
    q_cols: Sequence[Vec3],
    rows: Optional[Sequence[int]] = None,
    cols: Optional[Sequence[int]] = None,
) -> list[list[Fraction]]:
    """The liftability matrix evaluated at gamma, built numerically.

    Entry (circuit, c) is sign * [u v q_c] = sign * dot(cross(gamma_u,
    gamma_v), q_c), with q_cols[c - 1] the direction used in column c.
    rows and cols (0-based) select a submatrix; by default all of it.
    """
    if gamma.d != cfg.d:
        raise LiftingError("realization size does not match configuration")
    if len(q_cols) != cfg.d:
        raise LiftingError("one q vector per column is needed")
    layout = _circuit_rows(cfg)
    if rows is None:
        rows = range(len(layout))
    if cols is None:
        cols = range(cfg.d)
    if any(not 0 <= r < len(layout) for r in rows) or any(not 0 <= c < cfg.d for c in cols):
        raise ValueError("minor indices out of range")
    crosses: dict = {}
    out = []
    for r in rows:
        entries = {}
        for col, pair, sign in layout[r]:
            w = crosses.get(pair)
            if w is None:
                w = crosses[pair] = cross(gamma.col(pair[0]), gamma.col(pair[1]))
            value = dot(w, q_cols[col - 1])
            entries[col] = value if sign > 0 else -value
        out.append([entries.get(c + 1, ZERO) for c in cols])
    return out


# ---------------------------------------------------------------------------
# Minor descriptors and counts

PRESET_MINOR_RECIPES = {
    # preset -> list of (matrix tag, deleted point or None, minor size, q mode)
    "pascal": [("full", None, 7, "basis")],
    "pappus": [("full", None, 7, "basis")]
    + [("delete", i, 6, "basis") for i in range(1, 10)],
    "qs": [("full", None, 4, "symbolic")],
}


@dataclass(frozen=True)
class MinorDescriptor:
    """One lifting generator: a minor position plus a q assignment.

    matrix_tag/deleted identify the liftability matrix; rows and cols are
    0-based indices into it; q_assignment gives the basis-vector index
    (1..3) per column of the matrix, or None for symbolic q.
    """

    preset: str
    matrix_tag: str
    deleted: Optional[int]
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    q_assignment: Optional[tuple[int, ...]]


def _matrix_config(preset: str, deleted: Optional[int]) -> Config:
    base = config.preset(preset)
    return base if deleted is None else base.delete({deleted})


def _recipe_matrices(preset: str):
    """Per liftability matrix of a preset: (tag, deleted, size, qmode, cfg,
    count), count being its number of descriptors.

    A minor position is a choice of `size` columns (for square matrices the
    omitted rows are the positionally matching ones, so positions are in
    bijection with column choices); each position is counted once per
    basis-vector assignment to all matrix columns, or once if q is symbolic.
    """
    if preset not in PRESET_MINOR_RECIPES:
        raise LiftingError(f"unknown lifting preset {preset!r}")
    for tag, deleted, size, qmode in PRESET_MINOR_RECIPES[preset]:
        cfg = _matrix_config(preset, deleted)
        count = comb(cfg.d, size) * (3 ** cfg.d if qmode == "basis" else 1)
        yield tag, deleted, size, qmode, cfg, count


def minor_count(preset: str) -> int:
    """Exact count of lifting generators for a preset."""
    return sum(m[-1] for m in _recipe_matrices(preset))


def _minor_rows(cfg: Config, size: int, cols: tuple[int, ...]) -> tuple[int, ...]:
    """The rows matched to a column choice.

    For an r x c matrix with r == size, rows are all of them; for a square
    matrix with r == c > size, the rows omitted are those with the same
    indices as the omitted columns.
    """
    n_rows = len(cfg.circuits3())
    if n_rows == size:
        return tuple(range(n_rows))
    if n_rows == cfg.d:
        return cols
    raise LiftingError("ambiguous minor position for this shape")


def iter_descriptors(preset: str, limit: Optional[int] = None) -> Iterator[MinorDescriptor]:
    """Stream lifting generator descriptors in deterministic order."""
    emitted = 0
    for tag, deleted, size, qmode, cfg, _count in _recipe_matrices(preset):
        for cols in combinations(range(cfg.d), size):
            rows = _minor_rows(cfg, size, cols)
            if qmode == "symbolic":
                assigns: Iterable = [None]
            else:
                assigns = product((1, 2, 3), repeat=cfg.d)
            for a in assigns:
                if limit is not None and emitted >= limit:
                    return
                yield MinorDescriptor(preset, tag, deleted, rows, cols, a)
                emitted += 1


def sample_descriptors(preset: str, count: int, seed: int) -> list[MinorDescriptor]:
    """Uniform sample (with replacement) from the descriptor space."""
    rng = random.Random(seed)
    matrices = list(_recipe_matrices(preset))
    weights = [m[-1] for m in matrices]
    out = []
    for _ in range(count):
        (tag, deleted, size, qmode, cfg, _count), = rng.choices(matrices, weights=weights, k=1)
        cols = tuple(sorted(rng.sample(range(cfg.d), size)))
        assign = None if qmode == "symbolic" else tuple(rng.randrange(1, 4) for _ in range(cfg.d))
        out.append(MinorDescriptor(preset, tag, deleted, _minor_rows(cfg, size, cols), cols, assign))
    return out


def descriptor_matrix(desc: MinorDescriptor) -> LiftMatrix:
    """The symbolic liftability matrix a descriptor's minor is taken from."""
    if desc.q_assignment is None:
        scheme = QScheme.symbolic()
    else:
        scheme = QScheme.per_col(tuple(BASIS[i - 1] for i in desc.q_assignment))
    return lift_matrix(_matrix_config(desc.preset, desc.deleted), scheme)


def eval_descriptor(
    desc: MinorDescriptor, gamma: Realization, q: Optional[Vec3] = None
) -> Fraction:
    """Evaluate the descriptor's minor at gamma (gamma indexed by the
    descriptor's own configuration, i.e. already restricted if deleted).

    Only the selected rows and columns are built, numerically; q is the
    direction for a symbolic-q descriptor and is ignored otherwise.
    """
    # Stays on Fraction rows until perfbench bounds its records (ROADMAP
    # item 1).  Integer rows gave identical values 4.9x faster (420 -> 86 us
    # per call), but perfbench keeps one record per verdict, so verify-named
    # went from 3.69 to 5.55 verdicts_per_ref and from 47 to 57 peak_rss_mb,
    # past its 10% bound (medians of 3 pairs, 2 vCPU, Python 3.11).
    if len(desc.rows) != len(desc.cols):
        raise ValueError("minor needs equally many rows and columns")
    if not desc.rows:
        raise ValueError("empty minor")
    cfg = _matrix_config(desc.preset, desc.deleted)
    if desc.q_assignment is not None:
        q_cols = tuple(BASIS[i - 1] for i in desc.q_assignment)
    elif q is None:
        raise ValueError("descriptor has a symbolic q but no q value given")
    else:
        q_cols = (q,) * cfg.d
    return det_exact(_numeric_rows(cfg, gamma, q_cols, desc.rows, desc.cols))


# ---------------------------------------------------------------------------
# Lifting dimensions


def q_general_position(cfg: Config, gamma: Realization, q: Vec3) -> bool:
    """q outside every realized line and every point span."""
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


def _check_lifting_input(cfg: Config, gamma: Realization, q: Vec3) -> None:
    cfg._require_simple()
    if gamma.d != cfg.d:
        raise LiftingError("realization size does not match configuration")
    ok, witness = in_circuit_variety(cfg, gamma)
    if not ok:
        raise LiftingError(f"realization violates a circuit of the configuration: {witness}")
    if not q_general_position(cfg, gamma, q):
        raise LiftingError("q is not in general position for this realization")


def _integer_lift_rows(cfg: Config, gamma: Realization, q: Vec3) -> list[list[int]]:
    """The liftability matrix at gamma with q in every column, on integers.

    With the integer columns g_c = s_c * gamma_c (`_integer_view`) and the
    integer q' = s_q * q, entry (circuit, c) is the signed bracket [u v q'] =
    dot(g_u, cross(g_v, q')) of the `_numeric_rows` layout.  So these rows
    are s_q * D_r * M * D_c^-1, M being the Fraction rows, D_c = diag(s_c) and
    D_r the product of s_c over each row's circuit: the rank and the pivot
    columns are M's.
    """
    cols, _ = gamma._integer_view
    (q,), _ = _integer_rows([q])
    by_q = [cross(v, q) for v in cols]
    rows = []
    for entries in _circuit_rows(cfg):
        row = [0] * cfg.d
        for col, (u, v), sign in entries:
            value = dot(cols[u - 1], by_q[v - 1])
            row[col - 1] = value if sign > 0 else -value
        rows.append(row)
    return rows


def _lift_rank(cfg: Config, gamma: Realization, q: Vec3) -> int:
    return len(_eliminate(_integer_lift_rows(cfg, gamma, q), reduce=False))


def lift_dim(cfg: Config, gamma: Realization, q: Vec3) -> int:
    _check_lifting_input(cfg, gamma, q)
    return cfg.d - _lift_rank(cfg, gamma, q)


# ---------------------------------------------------------------------------
# Constructing liftings


def _lift_kernel(cfg: Config, gamma: Realization, q: Vec3) -> list[list[Fraction]]:
    """The kernel basis of the liftability matrix at gamma, as `kernel_basis`
    gives it for the Fraction rows.

    The integer rows are the Fraction rows scaled by positive row factors and
    with column c divided by s_c, so the Fraction kernel is that of the
    integer rows with column c times s_c.  With no 3-circuit there is no row,
    and every vector is in the kernel.
    """
    rows = _integer_lift_rows(cfg, gamma, q) or [[0] * cfg.d]
    return _integer_kernel(rows, gamma._integer_view[1])


def _lifted(gamma: Realization, z: Sequence[Fraction], q: Vec3) -> Realization:
    cols = [vadd(gamma.col(i + 1), vscale(z[i], q)) for i in range(gamma.d)]
    return Realization(tuple(cols))


def construct_lifting(cfg: Config, gamma: Realization, q: Vec3) -> Optional[Realization]:
    """Lift a rank <= 2 collection out of its plane along q, if possible.

    Returns the lifted collection of the first kernel vector of the evaluated
    liftability matrix whose lifting has rank 3, or None when every kernel
    vector lifts within a plane.
    """
    _check_lifting_input(cfg, gamma, q)
    if gamma.rank() > 2:
        raise LiftingError("construct_lifting expects a planar (rank <= 2) collection")
    for z in _lift_kernel(cfg, gamma, q):
        lifted = _lifted(gamma, z, q)
        if lifted.rank() == 3:
            ok, witness = in_circuit_variety(cfg, lifted)
            if not ok:
                raise LiftingError(
                    f"lifted collection violates a circuit; kernel not exact: {witness}"
                )
            return lifted
    return None


def trivial_lifting_dim(cfg: Config, gamma: Realization, q: Vec3) -> int:
    """Dimension of the liftings of a rank <= 2 collection that stay planar.

    Every linear form h gives one, z_i = h(gamma_i).  Each circuit row
    vanishes on z: by the Grassmann-Pluecker relation,
    [c2 c3 q] gamma_c1 - [c1 c3 q] gamma_c2 + [c1 c2 q] gamma_c3 = [c1 c2 c3] q,
    and [c1 c2 c3] = 0.  The lifted collection (I + q h^T) gamma is planar.
    When gamma and q span Q^3 these are the only planar liftings, so the
    dimension is rank(gamma) = 2.  Otherwise every lifting stays inside
    span(gamma, q), and the whole kernel counts.
    """
    _check_lifting_input(cfg, gamma, q)
    if gamma.rank() > 2:
        raise LiftingError("trivial_lifting_dim expects a planar (rank <= 2) collection")
    if rank_vectors(gamma.cols + (q,)) == 3:
        return 2
    return cfg.d - _lift_rank(cfg, gamma, q)

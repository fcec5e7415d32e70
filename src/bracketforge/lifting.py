"""Liftability matrices, their minors, lifting dimensions, and liftings.

For a simple configuration the liftability matrix has one row per 3-circuit
{c1 < c2 < c3} and one column per point; the row carries the bracket
polynomials [c2 c3 q], -[c1 c3 q], [c1 c2 q] in columns c1, c2, c3.  Its
kernel at a planar collection gamma parametrizes the ways to lift gamma out
of its plane along the direction q while preserving the circuits to first
order.

- `lift_matrix` builds a `LiftMatrix` with one symbolic q or one fixed q
  per column (`QScheme`).  `LiftMatrix._values` is its one numeric builder,
  read by `evaluate` and `minor_eval`; `entries` expands the bracket
  polynomials only where a polynomial is the result.
- A `MinorDescriptor` is one (d - 2)-minor of a preset's matrix with its q
  assignment (`PRESET_MINOR_RECIPES`); `eval_descriptor` is that matrix's
  `minor_eval`.
- The single-q verdicts `lift_dim`, `construct_lifting` and
  `trivial_lifting_dim` share one input check, `_scan_lifting_input`, which
  `q_general_position` answers from too.  Its one pass per line checks the
  line and builds the line's frame rows of the liftability matrix on the
  realization's integer columns, k - 2 per k-point line; the verdicts take
  their rank and kernel in `linalg`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations, product
from math import comb, lcm
from typing import Iterable, Iterator, Optional, Sequence

from . import config
from .config import Config
from .harness import _circuit_witness, in_circuit_variety
from .linalg import (
    BASIS,
    Realization,
    Vec3,
    _integer_kernel,
    _rank,
    _span_rank,
    cross,
    det_exact,
    dot,
)
from .poly import BracketPoly, Q_COL, _check_minor, bracket, const_col, symbolic_minor


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

    @property
    def circuits(self) -> tuple[tuple[int, int, int], ...]:
        """The 3-circuits that index the rows."""
        return self.cfg.circuits3()

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

    def _values(
        self, gamma: Realization, q: Optional[Vec3], rows: Iterable[int], cols: Sequence[int]
    ) -> list[list[Fraction]]:
        """The selected rows and columns (0-based) of the matrix at gamma.

        Entry (circuit, c) is sign * [u v q_c] = sign * dot(cross(gamma_u,
        gamma_v), q_c), with q_c the scheme's vector for column c, or q when
        the scheme's q is symbolic; q is given exactly then.
        """
        if gamma.d != self.cfg.d:
            raise LiftingError("realization size does not match configuration")
        q_cols = self.scheme.per_column
        if q_cols is None:
            if q is None:
                raise ValueError("the matrix has a symbolic q but no q value given")
            q_cols = (q,) * self.cfg.d
        elif q is not None:
            raise ValueError("the matrix has one q per column; a q value was given")
        layout = _circuit_rows(self.cfg)
        out = []
        for r in rows:
            entries = {}
            for col, (u, v), sign in layout[r]:
                value = dot(cross(gamma.col(u), gamma.col(v)), q_cols[col - 1])
                entries[col] = value if sign > 0 else -value
            out.append([entries.get(c + 1, ZERO) for c in cols])
        return out

    def evaluate(self, gamma: Realization, q: Optional[Vec3] = None) -> list[list[Fraction]]:
        """The matrix at gamma; q is the direction of a symbolic-q matrix,
        and a per-column matrix takes none."""
        return self._values(gamma, q, range(len(self.circuits)), range(self.cfg.d))

    def minor(self, rows: Sequence[int], cols: Sequence[int]) -> BracketPoly:
        return symbolic_minor(self.entries, rows, cols)

    def minor_eval(
        self,
        rows: Sequence[int],
        cols: Sequence[int],
        gamma: Realization,
        q: Optional[Vec3] = None,
    ) -> Fraction:
        """The minor at gamma, from the selected entries only."""
        _check_minor(rows, cols, *self.shape)
        return det_exact(self._values(gamma, q, rows, cols))

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
    return LiftMatrix(cfg, scheme)


# ---------------------------------------------------------------------------
# Minor descriptors and counts

PRESET_MINOR_RECIPES = {
    # preset -> list of (deleted point or None, q mode); the minor size is
    # d - 2 of the matrix's configuration
    "pascal": [(None, "basis")],
    "pappus": [(None, "basis")] + [(i, "basis") for i in range(1, 10)],
    "qs": [(None, "symbolic")],
}


@dataclass(frozen=True, slots=True)
class MinorDescriptor:
    """One lifting generator: a minor position plus a q assignment.

    preset/deleted identify the liftability matrix; rows and cols are
    0-based indices into it; q_assignment gives the basis-vector index
    (1..3) per column of the matrix, or None for symbolic q.
    """

    preset: str
    deleted: Optional[int]
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    q_assignment: Optional[tuple[int, ...]]

    @property
    def matrix_tag(self) -> str:
        """"full" for the preset's matrix, "delete" for a deleted point's."""
        return "full" if self.deleted is None else "delete"

    def restrict(self, gamma: Realization) -> Realization:
        """The realization of this descriptor's matrix from one of its preset:
        gamma itself, or gamma without point `deleted`, relabeled in order as
        `Config.delete` relabels the configuration."""
        if self.deleted is None:
            return gamma
        return gamma.restrict([p for p in range(1, gamma.d + 1) if p != self.deleted])


@cache
def _matrix_config(preset: str, deleted: Optional[int]) -> Config:
    """The configuration of a liftability matrix, built once per matrix;
    a Config is immutable, so its derived facts are computed once too."""
    base = config.preset(preset)
    return base if deleted is None else base.delete({deleted})


def _recipe_matrices(preset: str):
    """Per liftability matrix of a preset: (deleted, size, qmode, cfg, count),
    count being its number of descriptors.

    The minors have size d - 2 of the matrix's configuration: on a rank-3
    realization the trivial liftings z_i = h(gamma_i) put 3 dimensions in
    the kernel, so every (d - 2)-minor vanishes.  A minor position is a choice of `size`
    columns (for square matrices the omitted rows are the positionally
    matching ones, so positions are in bijection with column choices); each
    position is counted once per basis-vector assignment to all matrix
    columns, or once if q is symbolic.
    """
    if preset not in PRESET_MINOR_RECIPES:
        raise LiftingError(f"unknown lifting preset {preset!r}")
    for deleted, qmode in PRESET_MINOR_RECIPES[preset]:
        cfg = _matrix_config(preset, deleted)
        size = cfg.d - 2
        count = comb(cfg.d, size) * (3 ** cfg.d if qmode == "basis" else 1)
        yield deleted, size, qmode, cfg, count


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
    for deleted, size, qmode, cfg, _count in _recipe_matrices(preset):
        for cols in combinations(range(cfg.d), size):
            rows = _minor_rows(cfg, size, cols)
            if qmode == "symbolic":
                assigns: Iterable = [None]
            else:
                assigns = product((1, 2, 3), repeat=cfg.d)
            for a in assigns:
                if limit is not None and emitted >= limit:
                    return
                yield MinorDescriptor(preset, deleted, rows, cols, a)
                emitted += 1


def sample_descriptors(preset: str, count: int, seed: int) -> list[MinorDescriptor]:
    """Uniform sample (with replacement) from the descriptor space."""
    rng = random.Random(seed)
    matrices = list(_recipe_matrices(preset))
    weights = [m[-1] for m in matrices]
    out = []
    for _ in range(count):
        (deleted, size, qmode, cfg, _count), = rng.choices(matrices, weights=weights, k=1)
        cols = tuple(sorted(rng.sample(range(cfg.d), size)))
        assign = None if qmode == "symbolic" else tuple(rng.randrange(1, 4) for _ in range(cfg.d))
        out.append(MinorDescriptor(preset, deleted, _minor_rows(cfg, size, cols), cols, assign))
    return out


def eval_descriptor(
    desc: MinorDescriptor, gamma: Realization, q: Optional[Vec3] = None
) -> Fraction:
    """Evaluate the descriptor's minor at gamma (gamma indexed by the
    descriptor's own configuration, as `MinorDescriptor.restrict` gives it):
    the `LiftMatrix.minor_eval` of its matrix, whose q is one basis vector
    per column or, for a symbolic-q descriptor, q.
    """
    # Stays on Fraction rows until perfbench bounds its records (ROADMAP
    # item 1).  Integer rows gave identical values 4.9x faster (420 -> 86 us
    # per call), but perfbench keeps one record per verdict, so verify-named
    # went from 3.69 to 5.55 verdicts_per_ref and from 47 to 57 peak_rss_mb,
    # past its 10% bound (medians of 3 pairs, 2 vCPU, Python 3.11).
    if desc.q_assignment is None:
        scheme = QScheme.symbolic()
    else:
        scheme = QScheme.per_col(tuple(BASIS[i - 1] for i in desc.q_assignment))
    m = lift_matrix(_matrix_config(desc.preset, desc.deleted), scheme)
    return m.minor_eval(desc.rows, desc.cols, gamma, q)


# ---------------------------------------------------------------------------
# Lifting dimensions


def q_general_position(cfg: Config, gamma: Realization, q: Vec3) -> bool:
    """Whether q is in general position for gamma, a realization of cfg in
    its circuit variety: True exactly when the single-q verdicts accept the
    input, False when only q's position fails.

    Any other fault raises the verdicts' own error (`_scan_lifting_input`):
    ConfigError for a non-simple cfg, LiftingError for a size mismatch or
    naming the first circuit gamma violates.
    """
    return _scan_lifting_input(cfg, gamma, q) is not None


def _scan_lifting_input(cfg: Config, gamma: Realization, q: Vec3):
    """(q', s_q, rows) when a single-q verdict applies, None when only q's
    position fails; any other fault raises LiftingError.

    q' = s_q * q is q with its denominators cleared, and rows are the frame
    rows of the liftability matrix at gamma with q in every column, on the
    integer columns g_v of gamma (`_integer_view`), as `linalg._rank` takes
    them: each row is three (0-based column, value) pairs.

    The input applies when every circuit vanishes at gamma and q is in
    general position: q' != 0, off the span of every nonzero point, and off
    the line of every independent pair on a line.  The loop that builds the
    crosses g_v x q' tests the points.  Then one scan per line finds its
    frame pair (a, b), the first pair in `combinations` order with [a b q'] =
    dot(g_a, g_b x q') != 0; the pairs before it must be dependent, so they
    have no line.  Every other point c must have [a b c] = 0: then the line's
    points lie in span(g_a, g_b), so every circuit of the line vanishes, and
    [a b q'] != 0 puts q' off that plane, so off the line of every
    independent pair on it.  A line whose pairs are all dependent has no
    frame pair and only zero rows.

    Once c is checked, its frame row is the row of the circuit {a, b, c}:
    [b c q'], [c a q'], [a b q'] in columns a, b, c, negated when a < c < b
    to match the `_circuit_rows` layout's sorted circuit.  An entry [u v q']
    is its Fraction entry times s_q * s_u * s_v, so a row is the Fraction row
    of its circuit times s_q and the s_v over the circuit, with column v
    divided by s_v.  The k_L - 2 frame rows of a line L span all its C(k_L, 3)
    rows: by the Grassmann-Pluecker relation
    [y z q] gamma_x - [x z q] gamma_y + [x y q] gamma_z = [x y z] q = 0
    for a circuit {x < y < z} of L, every row of L vanishes on both
    coordinate vectors of L's points in the basis (g_a, g_b), so L's rows span
    at most k_L - 2 dimensions, and the frame rows, each the only one nonzero
    in its column c, are k_L - 2 independent rows.  So the rank, the RREF and
    the kernel are the whole matrix's.

    A fault the scan meets is a point c off span(g_a, g_b), which violates
    the circuit {a, b, c}, or q' on the span of a point or on the line of an
    independent pair; `_scan_fault` tells them apart.  The crosses and dot
    products of the per-point loops are written out on coordinates, as
    `linalg.det3` is: on these small integers a call costs more than its
    arithmetic.
    """
    cfg._require_simple()
    if gamma.d != cfg.d:
        raise LiftingError("realization size does not match configuration")
    x0, x1, x2 = q
    s_q = lcm(x0.denominator, x1.denominator, x2.denominator)
    q0, q1, q2 = q_int = [x.numerator * (s_q // x.denominator) for x in q]
    if not (q0 or q1 or q2):
        return _scan_fault(cfg, gamma)
    cols = gamma._integer_view[0]
    by_q = []
    for g in cols:
        g0, g1, g2 = g
        g_q = (g1 * q2 - g2 * q1, g2 * q0 - g0 * q2, g0 * q1 - g1 * q0)
        if not any(g_q) and any(g):
            return _scan_fault(cfg, gamma)
        by_q.append(g_q)
    rows = []
    for line in cfg.lines:
        for a, b in combinations(line, 2):
            g_a = cols[a - 1]
            ab = dot(g_a, by_q[b - 1])
            if ab:
                break
            if any(cross(g_a, cols[b - 1])):
                return _scan_fault(cfg, gamma)
        else:
            continue
        n0, n1, n2 = cross(g_a, cols[b - 1])
        b0, b1, b2 = cols[b - 1]
        a0, a1, a2 = by_q[a - 1]
        for c in line:
            if c != a and c != b:
                c0, c1, c2 = cols[c - 1]
                if n0 * c0 + n1 * c1 + n2 * c2:
                    return _scan_fault(cfg, gamma)
                u0, u1, u2 = by_q[c - 1]
                sign = -1 if a < c < b else 1
                rows.append(((a - 1, sign * (b0 * u0 + b1 * u1 + b2 * u2)),
                             (b - 1, sign * (c0 * a0 + c1 * a1 + c2 * a2)), (c - 1, sign * ab)))
    return q_int, s_q, rows


def _scan_fault(cfg: Config, gamma: Realization) -> None:
    """The outcome of a scan that met a fault: the LiftingError naming the
    first circuit gamma violates (`in_circuit_variety`), as when the circuits
    were checked first, or None.  A point off its line's frame plane always
    leaves a violated circuit, so when there is none, q is not in general
    position."""
    ok, witness = in_circuit_variety(cfg, gamma)
    if not ok:
        raise LiftingError(f"realization violates a circuit of the configuration: {witness}")
    return None


def _check_lifting_input(cfg: Config, gamma: Realization, q: Vec3):
    """The prologue of the single-q verdicts: `_scan_lifting_input`, with
    q out of general position a LiftingError too."""
    checked = _scan_lifting_input(cfg, gamma, q)
    if checked is None:
        raise LiftingError("q is not in general position for this realization")
    return checked


def lift_dim(cfg: Config, gamma: Realization, q: Vec3) -> int:
    _, _, rows = _check_lifting_input(cfg, gamma, q)
    return cfg.d - _rank(rows, cfg.d)


# ---------------------------------------------------------------------------
# Constructing liftings


def _lifted_columns(
    gamma: Realization, w: Sequence[int], den: int, q: Sequence[int], s_q: int
) -> tuple[list[tuple[int, ...]], list[int]]:
    """(N, dens): the columns gamma_i + z_i * q' / s_q are N_i / dens_i,
    for the kernel vector z = w / den of `_integer_kernel`.

    With gamma_i = g_i / s_i (`_integer_view`) and the integer q',
    N_i = g_i * den * s_q + w_i * s_i * q' is an integer column and
    dens_i = s_i * den * s_q > 0, so N_i is a positive multiple of
    gamma_i + z_i * q."""
    ints, mults = gamma._integer_view
    g_mult = den * s_q
    cols, dens = [], []
    for g, s, wi in zip(ints, mults, w):
        q_mult = wi * s
        cols.append(tuple(g_mult * x + q_mult * y for x, y in zip(g, q)))
        dens.append(s * g_mult)
    return cols, dens


def construct_lifting(cfg: Config, gamma: Realization, q: Vec3) -> Optional[Realization]:
    """Lift a rank <= 2 collection out of its plane along q, if possible.

    Returns the lifted collection of the first kernel vector of the evaluated
    liftability matrix whose lifting has rank 3, or None when every kernel
    vector lifts within a plane.  The integer rows span the Fraction rows
    scaled by positive row factors and with column c divided by s_c, so the
    Fraction kernel is theirs with column c times s_c.  With no frame row
    (no 3-circuit, or only lines with no independent pair) every vector is
    in the kernel.

    A kernel vector's lifting is tried on its integer columns N_i
    (`_lifted_columns`), positive multiples of gamma_i + z_i * q: they have
    its rank and its circuit witness (`harness._circuit_witness`), so the
    rank 3 test and the check that the lifting keeps every circuit run on
    integers, and the Fractions N_ik / den_i of the returned collection are
    built once.
    """
    q_int, s_q, rows = _check_lifting_input(cfg, gamma, q)
    ints, mults = gamma._integer_view
    if _span_rank(ints) > 2:
        raise LiftingError("construct_lifting expects a planar (rank <= 2) collection")
    for w, den in _integer_kernel(rows, cfg.d, mults):
        cols, dens = _lifted_columns(gamma, w, den, q_int, s_q)
        if _span_rank(cols) == 3:
            witness = _circuit_witness(cfg, cols)
            if witness is not None:
                raise LiftingError(
                    f"lifted collection violates a circuit; kernel not exact: {witness}"
                )
            return Realization(tuple(
                tuple(Fraction(x, den) for x in col) for col, den in zip(cols, dens)
            ))
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
    q_int, _, rows = _check_lifting_input(cfg, gamma, q)
    ints = gamma._integer_view[0]
    if _span_rank(ints) > 2:
        raise LiftingError("trivial_lifting_dim expects a planar (rank <= 2) collection")
    if _span_rank(ints + (q_int,)) == 3:
        return 2
    return cfg.d - _rank(rows, cfg.d)

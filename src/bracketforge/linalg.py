"""Exact rational linear algebra over Q^3.

There are no tolerances anywhere. Vectors are 3-tuples of Fraction; the
vector helpers (cross, dot, det3) work on int 3-tuples as well, and det3 is
the closed-form triple product, one call with the same arithmetic on ints and
Fractions. Matrices are lists of row lists with int or Fraction entries.
Rank, RREF, kernels and determinants clear each row's denominators and then
eliminate on integer rows, fraction-free, so only their outputs are
Fractions, and those are exact. Rank, RREF and kernels keep every row
primitive and change only the rows with a nonzero in the pivot column, so a
sparse matrix such as a liftability matrix (three nonzeros per row) costs
little and no entry grows past the Bareiss entry.  Rank and kernels take
integer rows as sparse (column, value) pairs, and `rank` passes a matrix's
integer rows through the same `_rank`.  Rank first peels on the rows'
supports: a row that is the only nonzero of some column is independent of
the rest, adds 1 and is set aside, which may leave another column with one
nonzero; only the rows left are written densely and eliminated.  A kernel
yields its vectors one at a time as integer vectors over one positive
denominator, so a caller that stops at the first it can use builds no
other, and only `kernel_basis` makes Fractions of them.  det_exact stays
Bareiss: exact division by the previous pivot leaves the determinant as the
last pivot.
A set of 3-vectors, such as a Realization's columns, takes its rank from
`_span_rank` with no elimination: one cross product or one dot product per
vector.
A Realization clears its columns' denominators once, on first use
(`_integer_view`, the integer columns and their multipliers), and the
membership checks and the bracket and polynomial evaluators read that view.
The evaluators read it once per call, index its columns by label and check
the label range themselves: a value is an integer sum divided once by the
product of the column multipliers it involves.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

Vec3 = tuple[Fraction, Fraction, Fraction]


class DegenerateLineError(ValueError):
    """Raised when two supposedly independent vectors are dependent."""


def vec3(x, y, z) -> Vec3:
    return (Fraction(x), Fraction(y), Fraction(z))


ZERO3: Vec3 = vec3(0, 0, 0)
E1: Vec3 = vec3(1, 0, 0)
E2: Vec3 = vec3(0, 1, 0)
E3: Vec3 = vec3(0, 0, 1)
BASIS: tuple[Vec3, Vec3, Vec3] = (E1, E2, E3)


def vsub(u: Vec3, v: Vec3) -> Vec3:
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2])


def vscale(c, u: Vec3) -> Vec3:
    c = Fraction(c)
    return (c * u[0], c * u[1], c * u[2])


def cross(u: Vec3, v: Vec3) -> Vec3:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def dot(u: Vec3, v: Vec3) -> Fraction:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def det3(u: Vec3, v: Vec3, w: Vec3) -> Fraction:
    """Determinant of the 3x3 matrix with columns u, v, w: dot(u, cross(v, w))
    in closed form."""
    u0, u1, u2 = u
    v0, v1, v2 = v
    w0, w1, w2 = w
    return u0 * (v1 * w2 - v2 * w1) + u1 * (v2 * w0 - v0 * w2) + u2 * (v0 * w1 - v1 * w0)


def proportional(u: Vec3, v: Vec3) -> bool:
    """Projective equality: u and v are nonzero scalar multiples of each other.

    Zero vectors are only proportional to zero vectors.
    """
    if not any(u) or not any(v):
        return not any(u) and not any(v)
    return cross(u, v) == ZERO3


def meet_lines(a1: Vec3, a2: Vec3, b1: Vec3, b2: Vec3) -> Vec3:
    """Intersection point of the lines span{a1,a2} and span{b1,b2}.

    Returns [a1 a2 b1]*b2 - [a1 a2 b2]*b1, which lies in both spans; the
    result is zero iff the two lines coincide.
    """
    if cross(a1, a2) == ZERO3:
        raise DegenerateLineError("degenerate line: first point pair is dependent")
    if cross(b1, b2) == ZERO3:
        raise DegenerateLineError("degenerate line: second point pair is dependent")
    return vsub(vscale(det3(a1, a2, b1), b2), vscale(det3(a1, a2, b2), b1))


# ---------------------------------------------------------------------------
# Generic exact matrices (rows of int or Fraction entries)


def _integer_rows(m: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Each row of m times the lcm of its denominators, and those positive
    multipliers, one per row.  Scaling a row keeps the rank, the RREF and the
    kernel."""
    cols = len(m[0]) if m else 0
    a: list[list[int]] = []
    mults: list[int] = []
    for row in m:
        if len(row) != cols:
            raise ValueError("ragged matrix: rows have different lengths")
        den = math.lcm(*(x.denominator for x in row))
        a.append([x.numerator * (den // x.denominator) for x in row])
        mults.append(den)
    return a, mults


def _primitive(row: Sequence[int]) -> Sequence[int]:
    """row divided by its content, the gcd of its entries."""
    h = math.gcd(*row)
    return [x // h for x in row] if h > 1 else row


def _eliminate(a: list[list[int]], reduce: bool) -> list[int]:
    """Fraction-free elimination of the integer rows a, with each row kept
    primitive; returns the pivot columns.

    The rows of a are replaced, never modified, so they may be tuples shared
    with a caller.  Every row is first divided by its content.  At a pivot p
    in column c, only the rows whose entry f in column c is nonzero change:
    such a row becomes (p/g)*row - (f/g)*pivot_row with g = gcd(p, f),
    divided by its content.  Forward elimination clears below
    each pivot; with `reduce` (Gauss-Jordan) it clears above too.

    Each row is a nonzero rational multiple of the row Bareiss elimination
    (exact division by the previous pivot) would hold at the same step, so
    the pivots and the zero pattern are the same and the rank, the RREF and
    the kernel are unchanged.  A row is the primitive integer vector on its
    line, of which the Bareiss row, an integer vector, is an integer
    multiple: no entry grows past the Bareiss entry, a minor of the input.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    a[:] = map(_primitive, a)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        top = a[r]
        p = top[c]
        for i in range(0 if reduce else r + 1, rows):
            f = a[i][c]
            if f and i != r:
                g = math.gcd(p, f)
                pg, fg = p // g, f // g
                a[i] = _primitive([pg * x - fg * y for x, y in zip(a[i], top)])
        pivots.append(c)
        r += 1
    return pivots


def _sparse(a: Sequence[Sequence[int]]) -> list[list[tuple[int, int]]]:
    """The dense integer rows a as (column, value) pairs of their nonzeros."""
    return [[(c, x) for c, x in enumerate(row) if x] for row in a]


def _dense(rows: Sequence[Sequence[tuple[int, int]]], ncols: int) -> list[list[int]]:
    """The sparse integer rows written densely over ncols columns."""
    out = []
    for row in rows:
        dense = [0] * ncols
        for c, x in row:
            dense[c] = x
        out.append(dense)
    return out


def _rank(rows: Sequence[Sequence[tuple[int, int]]], ncols: int) -> int:
    """Rank of the sparse integer rows, each a sequence of (column, value)
    pairs over ncols columns; a pair with value 0 is no nonzero.  The rows
    are left as they are.

    First peels: a row that is the only nonzero of some column is
    independent of the other rows, so it adds 1 to the rank and is set
    aside, which may leave another column with one nonzero.  Each column
    keeps its count of nonzeros in the rows not set aside and the sum of
    those rows' indices, which is the row's index once the count is 1.
    Then writes the rows left densely and eliminates them.
    """
    support = [[c for c, x in row if x] for row in rows]
    count = [0] * ncols
    index_sum = [0] * ncols
    for i, cs in enumerate(support):
        for c in cs:
            count[c] += 1
            index_sum[c] += i
    peeled = 0
    ready = [c for c, k in enumerate(count) if k == 1]
    while ready:
        c = ready.pop()
        if count[c] != 1:
            continue  # its row was set aside for another column
        i = index_sum[c]
        cs, support[i] = support[i], ()
        peeled += 1
        for c in cs:
            count[c] -= 1
            index_sum[c] -= i
            if count[c] == 1:
                ready.append(c)
    a = _dense([row for row, cs in zip(rows, support) if cs], ncols)
    return peeled + len(_eliminate(a, reduce=False))


def _span_rank(vectors: Iterable[Vec3]) -> int:
    """Rank of a set of int or Fraction 3-vectors, one cross or one dot per
    vector: u is the first nonzero vector, v the first after it with
    u x v != 0, and the rank is 3 iff some later w has (u x v) . w != 0.
    The vectors before v lie on span(u), so they have (u x v) . w = 0."""
    it = iter(vectors)
    u = next((w for w in it if any(w)), None)
    if u is None:
        return 0
    uv = next((c for c in (cross(u, w) for w in it) if any(c)), None)
    if uv is None:
        return 1
    return 3 if any(dot(uv, w) for w in it) else 2


def rref(m: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rref matrix, pivot column indices)."""
    a, _ = _integer_rows(m)
    pivots = _eliminate(a, reduce=True)
    out = [[Fraction(x, row[c]) for x in row] for row, c in zip(a, pivots)]
    out += [[Fraction(0)] * len(row) for row in a[len(pivots):]]
    return out, pivots


def rank(m: Sequence[Sequence[Fraction]]) -> int:
    a, _ = _integer_rows(m)
    return _rank(_sparse(a), len(m[0]) if m else 0)


def kernel_basis(m: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Exact basis of the right kernel {v : m v = 0}."""
    if not m:
        return []
    a, _ = _integer_rows(m)
    return [[Fraction(x, den) for x in w] for w, den in _integer_kernel(_sparse(a), len(m[0]))]


def _integer_kernel(
    rows: Sequence[Sequence[tuple[int, int]]], ncols: int, scale: Optional[Sequence[int]] = None
) -> Iterator[tuple[list[int], int]]:
    """Kernel basis of the sparse integer rows (as `_rank` takes them), one
    vector per free column f, with 1 at f and 0 at the other free columns,
    each built only when the caller asks for it.  A vector is yielded as
    (w, den), den > 0 and w integer: the vector is w / den.

    With positive column multipliers `scale` it is the kernel of the matrix
    whose column c is the rows' column c times scale[c]: a kernel vector v
    of the rows becomes v_c / scale[c], rescaled to 1 at f.  In the reduced
    rows, the pivot of column p gives v_p = -row[f] * scale[f] / d_p with
    d_p = row[p] * scale[p], so den is the lcm of the |d_p|.
    """
    a = _dense(rows, ncols)
    s = scale or [1] * ncols
    pivots = _eliminate(a, reduce=True)
    dens = [row[pc] * s[pc] for row, pc in zip(a, pivots)]
    den = math.lcm(*dens)
    for fc in (c for c in range(ncols) if c not in pivots):
        w = [0] * ncols
        w[fc] = den
        for row, pc, d in zip(a, pivots, dens):
            w[pc] = -row[fc] * s[fc] * (den // d)
        yield w, den


def det_exact(m: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant via fraction-free (Bareiss) elimination.

    Denominators are cleared per row first so the elimination runs on
    integers, which keeps intermediate growth polynomial.  Unlike
    `_eliminate`, every step divides exactly by the previous pivot and removes
    no content, so the last pivot is the determinant of the integer rows.
    """
    n = len(m)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    a, mults = _integer_rows(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pr = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pr is None:
                return Fraction(0)
            a[k], a[pr] = a[pr], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return Fraction(sign * a[n - 1][n - 1], math.prod(mults))


# ---------------------------------------------------------------------------
# Realizations


@dataclass(frozen=True)
class Realization:
    """A candidate point of C^{3d}: one exact column vector per label 1..d."""

    cols: tuple[Vec3, ...]

    @property
    def d(self) -> int:
        return len(self.cols)

    def col(self, label: int) -> Vec3:
        if not 1 <= label <= self.d:
            raise IndexError(f"label {label} out of range 1..{self.d}")
        return self.cols[label - 1]

    @cached_property
    def _integer_view(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """(integer columns, multipliers), computed once per realization:
        cols[i] == ints[i] / mults[i], where mults[i] > 0 is the lcm of
        column i's denominators.  A positive multiple of a column keeps the
        zero pattern and the sign of every cross product and determinant."""
        ints, mults = _integer_rows(self.cols)
        return tuple(map(tuple, ints)), tuple(mults)

    def restrict(self, labels: Sequence[int]) -> "Realization":
        return Realization(tuple(self.col(i) for i in labels))

    def rank(self) -> int:
        return _span_rank(self._integer_view[0])

    def as_rows(self) -> list[list[Fraction]]:
        return [[self.cols[c][r] for c in range(self.d)] for r in range(3)]

    def to_json(self) -> str:
        rows = [[_frac_str(x) for x in row] for row in self.as_rows()]
        return json.dumps(rows)

    @staticmethod
    def from_json(text: str) -> "Realization":
        """Parse the to_json format; a malformed document is a ValueError
        that says what is wrong."""
        rows = json.loads(text)
        shaped = isinstance(rows, list) and len(rows) == 3
        if not shaped or not all(isinstance(r, list) for r in rows):
            raise ValueError("realization must be a 3 x d array of rows")
        d = len(rows[0])
        if any(len(r) != d for r in rows):
            raise ValueError("ragged realization rows")
        cols = [vec3(*(_parse_entry(rows[r][c]) for r in range(3))) for c in range(d)]
        return Realization(tuple(cols))


def _parse_entry(x) -> Fraction:
    """A realization entry: an integer, or a string like "-3/4"."""
    try:
        return Fraction(str(x))
    except ValueError:
        raise ValueError(f"realization entry {x!r} is not a rational number") from None
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in realization entry {x!r}") from None


def _frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

"""Exact rational linear algebra over Q^3.

There are no tolerances anywhere. Vectors are 3-tuples of Fraction; the
vector helpers (cross, dot, det3) work on int 3-tuples as well. Matrices are
lists of row lists with int or Fraction entries. Rank, RREF, kernels and
determinants clear each row's denominators and then eliminate on integer rows,
fraction-free (Bareiss), so only their outputs are Fractions, and those are
exact. A Realization clears its columns' denominators once, on first use, and
the membership checks and the bracket and polynomial evaluators read those
integer columns: a value is an integer sum divided once by the product of the
column multipliers it involves.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

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


def vadd(u: Vec3, v: Vec3) -> Vec3:
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2])


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
    """Determinant of the 3x3 matrix with columns u, v, w."""
    return dot(u, cross(v, w))


def is_zero(u: Vec3) -> bool:
    return u == ZERO3 or all(c == 0 for c in u)


def proportional(u: Vec3, v: Vec3) -> bool:
    """Projective equality: u and v are nonzero scalar multiples of each other.

    Zero vectors are only proportional to zero vectors.
    """
    if is_zero(u) or is_zero(v):
        return is_zero(u) and is_zero(v)
    return cross(u, v) == ZERO3


def normalize_projective(u: Vec3) -> Vec3:
    """Scale u so its first nonzero coordinate is 1 (canonical representative)."""
    for c in u:
        if c != 0:
            return vscale(Fraction(1, 1) / c, u)
    return u


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


def _eliminate(a: list[list[int]], reduce: bool) -> list[int]:
    """Fraction-free elimination of the integer rows a, in place; returns the
    pivot columns.

    Each step replaces a row by (p*row - f*pivot_row) // prev, where p is the
    new pivot, f the row's entry in the pivot column and prev the previous
    pivot.  Every entry stays an integer minor of the input, so the division
    is exact (Bareiss).  Forward elimination clears below each pivot; with
    `reduce` (Gauss-Jordan) it clears above too, and every pivot row ends with
    the last pivot on its pivot column.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list[int] = []
    prev = 1
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
            if i != r:
                f = a[i][c]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], top)]
        pivots.append(c)
        prev = p
        r += 1
    return pivots


def rref(m: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rref matrix, pivot column indices)."""
    a, _ = _integer_rows(m)
    pivots = _eliminate(a, reduce=True)
    out = [[Fraction(x, row[c]) for x in row] for row, c in zip(a, pivots)]
    out += [[Fraction(0)] * len(row) for row in a[len(pivots):]]
    return out, pivots


def rank(m: Sequence[Sequence[Fraction]]) -> int:
    a, _ = _integer_rows(m)
    return len(_eliminate(a, reduce=False))


def kernel_basis(m: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Exact basis of the right kernel {v : m v = 0}."""
    if not m:
        return []
    a, _ = _integer_rows(m)
    return _integer_kernel(a)


def _integer_kernel(
    a: list[list[int]], scale: Optional[Sequence[int]] = None
) -> list[list[Fraction]]:
    """Kernel basis of the integer rows a (eliminated in place), one vector
    per free column f, with 1 at f and 0 at the other free columns.

    With positive column multipliers `scale` it is the kernel of the matrix
    whose column c is a's column c times scale[c]: a kernel vector w of a
    becomes w_c / scale[c], rescaled to 1 at f.
    """
    cols = len(a[0])
    s = scale or [1] * cols
    pivots = _eliminate(a, reduce=True)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for row, pc in zip(a, pivots):
            v[pc] = Fraction(-row[fc] * s[fc], row[pc] * s[pc])
        basis.append(v)
    return basis


def det_exact(m: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant via fraction-free (Bareiss) elimination.

    Denominators are cleared per row first so the elimination runs on
    integers, which keeps intermediate growth polynomial.
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


def rank_vectors(vectors: Iterable[Vec3]) -> int:
    """Rank of the span of a collection of vectors in Q^3."""
    return rank([list(v) for v in vectors])


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

    def _int_col(self, label: int) -> tuple[tuple[int, ...], int]:
        """col(label) as (integer vector, multiplier); see _integer_view."""
        if not 1 <= label <= self.d:
            raise IndexError(f"label {label} out of range 1..{self.d}")
        ints, mults = self._integer_view
        return ints[label - 1], mults[label - 1]

    def restrict(self, labels: Sequence[int]) -> "Realization":
        return Realization(tuple(self.col(i) for i in labels))

    def rank(self) -> int:
        return len(_eliminate(list(self._integer_view[0]), reduce=False))

    def as_rows(self) -> list[list[Fraction]]:
        return [[self.cols[c][r] for c in range(self.d)] for r in range(3)]

    def to_json(self) -> str:
        rows = [[_frac_str(x) for x in row] for row in self.as_rows()]
        return json.dumps(rows)

    @staticmethod
    def from_json(text: str) -> "Realization":
        rows = json.loads(text)
        if len(rows) != 3:
            raise ValueError("realization must be a 3 x d array")
        d = len(rows[0])
        if any(len(r) != d for r in rows):
            raise ValueError("ragged realization rows")
        cols = [vec3(*(Fraction(str(rows[r][c])) for r in range(3))) for c in range(d)]
        return Realization(tuple(cols))


def _frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

"""Exact rational linear algebra over Q^3.

All arithmetic uses Fraction; there are no tolerances anywhere. Vectors are
3-tuples of Fraction, matrices are lists of row lists.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

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
# Generic exact matrices (rows of Fractions)


def mat_copy(m: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in m]


def rref(m: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rref matrix, pivot column indices)."""
    a = mat_copy(m)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = Fraction(1, 1) / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def rank(m: Sequence[Sequence[Fraction]]) -> int:
    if not m:
        return 0
    _, pivots = rref(m)
    return len(pivots)


def kernel_basis(m: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Exact basis of the right kernel {v : m v = 0}."""
    if not m:
        return []
    cols = len(m[0])
    a, pivots = rref(m)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][fc]
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
    a: list[list[int]] = []
    scale = Fraction(1)
    for row in m:
        fr = [Fraction(x) for x in row]
        den = 1
        for x in fr:
            den = den * x.denominator // math.gcd(den, x.denominator)
        scale /= den
        a.append([int(x * den) for x in fr])
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
    return sign * scale * a[n - 1][n - 1]


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

    def restrict(self, labels: Sequence[int]) -> "Realization":
        return Realization(tuple(self.col(i) for i in labels))

    def rank(self) -> int:
        return rank_vectors(self.cols)

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

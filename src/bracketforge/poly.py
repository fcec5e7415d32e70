"""Sparse multivariate polynomials over Q in generic matrix entries.

A configuration on d points is realized by a 3 x d matrix whose entries are
the variables x[r,c] (row r in 0..2, column c in 1..d).  Polynomials may also
mention the three coordinates q1..q3 of one extra symbolic vector.  The main
constructor is `bracket`, the fully expanded 3 x 3 determinant of three
columns.  A column is a 3-vector of polynomials: a configuration point
(`point`), the symbolic vector q (`Q_COL`), a constant vector (`const_col`),
or any other polynomial vector.

Variables are keyed for sorting by (column, row) with the q vector last, and
monomials are compared graded-lex, so every polynomial has one canonical
serialized form.

`LinearCombination` is the sparse Q-linear-combination core shared with
gc.BracketCombo; `sort_sign` is the one permutation sign of the package.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from typing import Mapping, Optional, Sequence, Union

from .linalg import Realization, Vec3, _integer_rows, vec3

# A variable is ("x", col, row) or ("q", row).
Var = tuple
# A monomial maps variables to positive integer exponents; stored as a
# sorted tuple of (var, exp) pairs.
Monomial = tuple


def _var_key(v: Var):
    if v[0] == "x":
        return (0, v[1], v[2])
    return (1, 0, v[1])


def _mono_key(m: Monomial):
    degree = sum(e for _, e in m)
    return (degree, tuple((_var_key(v), e) for v, e in m))


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    exps: dict = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items(), key=lambda p: _var_key(p[0])))


def var_str(v: Var) -> str:
    if v[0] == "x":
        return f"x[{v[2]},{v[1]}]"
    return f"q{v[1] + 1}"


def sort_sign(items: Sequence) -> tuple[Optional[tuple], int]:
    """(items sorted ascending, sign of the sorting permutation).

    A repeated item gives (None, 0): an alternating form of it vanishes.
    """
    ordered = tuple(sorted(items))
    if len(set(ordered)) < len(ordered):
        return None, 0
    inversions = sum(a > b for a, b in combinations(items, 2))
    return ordered, -1 if inversions % 2 else 1


class LinearCombination:
    """Immutable sparse Q-linear combination of monomials.

    `terms` maps each monomial to its nonzero Fraction coefficient; the empty
    monomial () is the constant 1.  A subclass says what a monomial is: its
    product (passed to `_product`), its term order (`_order_key`, largest
    first if `_descending`; the first term in that order is the leading
    term) and how one monomial prints (`_body`).
    """

    __slots__ = ("terms",)
    _order_key = None
    _descending = False

    def __init__(self, terms: Optional[Mapping] = None):
        self.terms = {m: Fraction(c) for m, c in terms.items() if c} if terms else {}

    @classmethod
    def _of(cls, terms: dict):
        """Wrap a dict that already holds only nonzero Fractions."""
        out = object.__new__(cls)
        out.terms = terms
        return out

    # -- construction --------------------------------------------------

    @classmethod
    def zero(cls):
        return cls._of({})

    @classmethod
    def const(cls, c):
        c = Fraction(c)
        return cls._of({(): c} if c else {})

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                del out[m]
        return self._of(out)

    def __neg__(self):
        return self._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def _product(self, other, mono_mul):
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    del out[m]
        return self._of(out)

    def scale(self, c):
        c = Fraction(c)
        return self._of({m: c * k for m, k in self.terms.items()} if c else {})

    # -- comparison ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def eq_up_to_sign(self, other) -> bool:
        return self == other or self == -other

    def _leading(self):
        pick = max if self._descending else min
        return pick(self.terms, key=self._order_key)

    def sign_normalized(self):
        """Negated if needed so the leading coefficient is > 0."""
        return -self if self.terms and self.terms[self._leading()] < 0 else self

    # -- printing ----------------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=self._order_key, reverse=self._descending):
            c = self.terms[m]
            if not m:
                lead = str(abs(c))
            elif abs(c) == 1:
                lead = self._body(m)
            else:
                lead = f"{abs(c)}*{self._body(m)}"
            parts.append(("- " if c < 0 else "+ ") + lead)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self):
        return f"{type(self).__name__}({self.to_text()})"


def _sum_by_key(sums: dict) -> Fraction:
    """The sum of num / key over the integer numerators `sums` holds per
    positive integer key: one Fraction when there is one key, Fraction(0)
    when there is none."""
    if len(sums) == 1:
        [(key, num)] = sums.items()
        return Fraction(num, key)
    return sum((Fraction(n, k) for k, n in sums.items()), Fraction(0))


class BracketPoly(LinearCombination):
    """Polynomial in the matrix entries; terms ordered graded-lex."""

    __slots__ = ()
    _order_key = staticmethod(_mono_key)
    _descending = True

    @staticmethod
    def variable(v: Var) -> "BracketPoly":
        return BracketPoly._of({((v, 1),): Fraction(1)})

    def __mul__(self, other: "BracketPoly") -> "BracketPoly":
        return self._product(other, _mono_mul)

    @staticmethod
    def _body(m: Monomial) -> str:
        return "*".join(var_str(v) + (f"^{e}" if e > 1 else "") for v, e in m)

    # -- queries -----------------------------------------------------------

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e for _, e in m) for m in self.terms)

    def variables(self) -> set:
        out: set = set()
        for m in self.terms:
            out.update(v for v, _ in m)
        return out

    def mentions_q(self) -> bool:
        return any(v[0] == "q" for v in self.variables())

    def columns(self) -> set:
        return {v[1] for v in self.variables() if v[0] == "x"}

    def leading_coeff(self) -> Fraction:
        return self.terms[self._leading()] if self.terms else Fraction(0)

    # -- evaluation --------------------------------------------------------

    def eval(self, gamma: Realization, q: Optional[Vec3] = None) -> Fraction:
        """Exact value at gamma (and q), on integer columns.

        Reads gamma's integer view once.  A variable reads its entry of
        gamma's integer column, or of q with q's denominators cleared,
        together with that vector's multiplier.  A monomial is the integer
        c.numerator * prod entry^e over the key c.denominator * prod
        multiplier^e; numerators are summed per key and each key divides
        once, so a single key gives a single Fraction.
        """
        if q is None and self.mentions_q():
            raise ValueError("polynomial mentions q but no q value given")
        if q is not None:
            (q_ints,), (q_mult,) = _integer_rows([q])
        ints, mults = gamma._integer_view
        d = gamma.d
        values: dict = {}
        sums: dict = {}
        for m, c in self.terms.items():
            num, key = c.numerator, c.denominator
            for v, e in m:
                val = values.get(v)
                if val is None:
                    if v[0] == "x":
                        label = v[1]
                        if not 1 <= label <= d:
                            raise IndexError(f"label {label} out of range 1..{d}")
                        val = values[v] = (ints[label - 1][v[2]], mults[label - 1])
                    else:
                        val = values[v] = (q_ints[v[1]], q_mult)
                num *= val[0] ** e
                key *= val[1] ** e
            sums[key] = sums.get(key, 0) + num
        return _sum_by_key(sums)


# ---------------------------------------------------------------------------
# Columns, brackets and minors

PolyMatrix = Sequence[Sequence[BracketPoly]]


def point(i: int) -> tuple[BracketPoly, ...]:
    """The generic column of point i: the variables x[0,i], x[1,i], x[2,i]."""
    if i < 1:
        raise ValueError("point index must be >= 1")
    return tuple(BracketPoly.variable(("x", i, row)) for row in range(3))


def const_col(v: Sequence) -> tuple[BracketPoly, ...]:
    return tuple(BracketPoly.const(c) for c in vec3(*v))


Q_COL = tuple(BracketPoly.variable(("q", row)) for row in range(3))


def _det(matrix: PolyMatrix) -> BracketPoly:
    """Leibniz expansion of a square matrix of polynomials; k! products."""
    k = len(matrix)
    out = BracketPoly.zero()
    for perm in permutations(range(k)):
        term = BracketPoly.const(sort_sign(perm)[1])
        for i in range(k):
            term = term * matrix[i][perm[i]]
            if term.is_zero():
                break
        out = out + term
    return out


def bracket(
    c1: Union[int, Sequence[BracketPoly]],
    c2: Union[int, Sequence[BracketPoly]],
    c3: Union[int, Sequence[BracketPoly]],
) -> BracketPoly:
    """Fully expanded determinant of the 3 x 3 matrix with these columns;
    an int column i stands for point(i)."""
    # the matrix with these columns as rows is the transpose: same determinant
    return _det([point(c) if isinstance(c, int) else c for c in (c1, c2, c3)])


def _check_minor(rows: Sequence[int], cols: Sequence[int], n_rows: int, n_cols: int) -> None:
    """Raise ValueError unless rows and cols (0-based) pick a nonempty square
    minor of an n_rows x n_cols matrix."""
    if len(rows) != len(cols):
        raise ValueError("minor needs equally many rows and columns")
    if not rows:
        raise ValueError("empty minor")
    if any(not 0 <= r < n_rows for r in rows) or any(not 0 <= c < n_cols for c in cols):
        raise ValueError("minor indices out of range")


def _select(entries: PolyMatrix, rows: Sequence[int], cols: Sequence[int]):
    _check_minor(rows, cols, len(entries), len(entries[0]) if entries else 0)
    return [[entries[r][c] for c in cols] for r in rows]


def symbolic_minor(entries: PolyMatrix, rows: Sequence[int], cols: Sequence[int]) -> BracketPoly:
    """Fully expanded determinant of the selected square submatrix.

    Intended for small minors (4 x 4 and below); cost is k! products.
    """
    return _det(_select(entries, rows, cols))

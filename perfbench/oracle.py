"""Independent exact checks for every verdict the benchmark collects.

Nothing here calls bracketforge's evaluation code: values are recomputed
from the raw data (combination terms, polynomial terms, realization columns,
configuration lines) with the oracle's own 3x3 determinants and its own
fraction elimination.  The package objects are only read.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def det3(u, v, w) -> Fraction:
    return (u[0] * (v[1] * w[2] - v[2] * w[1])
            - u[1] * (v[0] * w[2] - v[2] * w[0])
            + u[2] * (v[0] * w[1] - v[1] * w[0]))


def cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def det(matrix) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    result = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            result = -result
        result *= a[k][k]
        for i in range(k + 1, n):
            if a[i][k]:
                f = a[i][k] / a[k][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return result


def rank(rows) -> int:
    a = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def combo_value(terms, cols) -> Fraction:
    """Sum of c * prod det3 over a bracket combination's terms; `cols` is the
    list of realized columns, label i at index i - 1."""
    total = Fraction(0)
    for mono, c in terms.items():
        t = Fraction(c)
        for a, b, d in mono:
            t *= det3(cols[a - 1], cols[b - 1], cols[d - 1])
            if not t:
                break
        total += t
    return total


def poly_value(terms, cols, q=None) -> Fraction:
    """Value of an expanded polynomial: variables ("x", col, row) and ("q", row)."""
    total = Fraction(0)
    for mono, c in terms.items():
        t = 1
        for var, e in mono:
            t *= (cols[var[1] - 1][var[2]] if var[0] == "x" else q[var[1]]) ** e
        total += c * t
    return total


def circuits(lines):
    """Sorted 3-point circuits of a simple configuration, one per liftability row."""
    return sorted({t for line in lines for t in combinations(sorted(line), 3)})


def lift_rows(lines, d, cols, q_of_col):
    """Numeric liftability matrix: row per circuit (c1, c2, c3) carrying
    [c2 c3 q], -[c1 c3 q], [c1 c2 q] in columns c1, c2, c3."""
    rows = []
    for c1, c2, c3 in circuits(lines):
        row = [Fraction(0)] * d
        g = lambda i: cols[i - 1]  # noqa: E731
        row[c1 - 1] = det3(g(c2), g(c3), q_of_col(c1))
        row[c2 - 1] = -det3(g(c1), g(c3), q_of_col(c2))
        row[c3 - 1] = det3(g(c1), g(c2), q_of_col(c3))
        rows.append(row)
    return rows


def minor(rows, row_idx, col_idx) -> Fraction:
    return det([[rows[r][c] for c in col_idx] for r in row_idx])


def deleted_lines(lines, d, deleted):
    """Lines of the configuration with point `deleted` removed and the
    remaining labels shifted down to stay contiguous."""
    if deleted is None:
        return [tuple(l) for l in lines], d
    out = []
    for l in lines:
        kept = [p if p < deleted else p - 1 for p in l if p != deleted]
        if len(kept) >= 3:
            out.append(tuple(kept))
    return out, d - 1


BASIS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def descriptor_value(desc, lines, d, cols) -> Fraction:
    """Per-column basis-vector minor named by a lifting descriptor; `cols`
    are the columns of the (already restricted) realization."""
    lines, d = deleted_lines(lines, d, desc.deleted)
    if desc.q_assignment is None:
        raise ValueError("symbolic-q descriptors have no single value")
    assign = desc.q_assignment
    rows = lift_rows(lines, d, cols, lambda c: tuple(map(Fraction, BASIS[assign[c - 1] - 1])))
    return minor(rows, desc.rows, desc.cols)


def parse_bracket_text(text: str):
    """Published generator text ("[153][142]-[154][132]") as a dict of
    monomials (tuples of bracket triples, each as written) to coefficients."""
    out: dict = {}
    term: list = []
    sign = 1
    i = 0

    def flush():
        if term:
            key = tuple(term)
            out[key] = out.get(key, 0) + sign

    while i < len(text):
        ch = text[i]
        if ch in "+-":
            flush()
            term = []
            sign = -1 if ch == "-" else 1
            i += 1
        elif ch == " ":
            i += 1
        elif ch == "[":
            j = text.index("]", i)
            digits = [int(c) for c in text[i + 1:j] if not c.isspace()]
            term.append(tuple(digits))
            i = j + 1
        else:
            raise ValueError(f"unexpected {ch!r} in {text!r}")
    flush()
    return out


def text_value(parsed, cols) -> Fraction:
    total = Fraction(0)
    for mono, c in parsed.items():
        t = Fraction(c)
        for a, b, d in mono:
            t *= det3(cols[a - 1], cols[b - 1], cols[d - 1])
        total += t
    return total


def meet(a1, a2, b1, b2):
    return cross(cross(a1, a2), cross(b1, b2))


def primitive(v):
    """Integer representative of a projective point, first nonzero entry > 0."""
    from math import gcd

    lead = next(c for c in v if c != 0)
    w = [Fraction(c) / lead for c in v]
    den = 1
    for c in w:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in w]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    return tuple(Fraction(c // g) for c in ints)


def replay_values(cols) -> tuple:
    """(l1, l3, l2, det) of the 14-point counterexample replay, recomputed:
    l1 = 9,10 ^ 7,8; l3 = l1,6 ^ 11,12; l2 = l3,5 ^ 13,14; det of the
    primitive representatives of l1, l2 with point 4."""
    g = lambda i: cols[i - 1]  # noqa: E731
    l1 = meet(g(9), g(10), g(7), g(8))
    l3 = meet(l1, g(6), g(11), g(12))
    l2 = meet(l3, g(5), g(13), g(14))
    return l1, l3, l2, det3(primitive(l1), primitive(l2), g(4))


# The published generator texts, written out by hand: Pascal indices 0, 1
# and 4 have a printed form, Pappus all nine.
PASCAL_TEXT = {
    0: "[153][142][546][326]-[154][132][536][426]",
    1: "[526][361][734]-[326][361][754]+[326][461][753]",
    4: "[749][361]-[461][739]",
}
PAPPUS_TEXT = dict(enumerate([
    "[235][768]-[237][568]",
    "[134][769]-[137][469]",
    "[124][859]-[128][459]",
    "[273][856]-[278][356]",
    "[461][739]-[467][139]",
    "[291][845]-[298][145]",
    "[241][589]-[245][189]",
    "[791][634]-[796][134]",
    "[263][578]-[265][378]",
]))
GC_COUNT = {"pascal": 7, "pappus": 9}

# The three forced line meets of the counterexample replay.
REPLAY_LINES = (
    (Fraction(1), Fraction(13, 3), Fraction(23, 3)),
    (Fraction(1), Fraction(13, 3), Fraction(20, 3)),
    (Fraction(1), Fraction(65, 12), Fraction(80, 12)),
)

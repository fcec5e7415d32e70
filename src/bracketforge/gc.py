"""Symbolic Grassmann-Cayley algebra over a 3-space on point symbols.

Two representation layers, both subclasses of poly.LinearCombination, which
owns the coefficients, the ring operations, equality and the printer:

* BracketCombo - a formal Q-linear combination of products of brackets
  [i j k] on point symbols.  This layer keeps the shape in which such
  polynomials are usually printed and is the working representation for the
  meet/join calculus and the rewriting procedure.
* BracketPoly (from .poly) - the fully expanded polynomial in the matrix
  variables.  Two formally different bracket combinations can expand to the
  same polynomial (bracket syzygies), so canonical comparison happens at
  this layer.  Evaluation does not need it: a bracket's value at a
  realization is a 3 x 3 determinant.

Grades are the exterior-algebra grades in dimension 3: points are grade 1,
lines (2-extensors) grade 2, scalars grade 0.  Meet is implemented for the
one case needed in rank 3: two lines meet in the grade-1 expression
ab ^ cd = [a b c] d - [a b d] c.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from typing import Iterable, Sequence

from .config import Config
from .linalg import det3
from .poly import BracketPoly, LinearCombination, bracket, sort_sign

# A bracket triple is stored sorted ascending; a combo monomial is a sorted
# tuple of such triples.
ComboMono = tuple


class GradeError(ValueError):
    pass


def _combo_mono_mul(a: ComboMono, b: ComboMono) -> ComboMono:
    return tuple(sorted(a + b))


@cache
def _triple(a: int, b: int, c: int):
    """sort_sign((a, b, c)), computed once per label triple so that every
    monomial holding the bracket shares one sorted tuple."""
    return sort_sign((a, b, c))


class BracketCombo(LinearCombination):
    """Formal Q-linear combination of products of point brackets."""

    __slots__ = ()

    @staticmethod
    def of_bracket(a: int, b: int, c: int) -> "BracketCombo":
        t, sign = _triple(a, b, c)
        if t is None:
            return BracketCombo.zero()
        return BracketCombo._of({(t,): Fraction(sign)})

    def __mul__(self, other: "BracketCombo") -> "BracketCombo":
        return self._product(other, _combo_mono_mul)

    @staticmethod
    def _body(m: ComboMono) -> str:
        return "".join("[" + " ".join(map(str, t)) + "]" for t in m)

    def points(self) -> set[int]:
        return {p for m in self.terms for t in m for p in t}

    def expand(self) -> BracketPoly:
        out = BracketPoly.zero()
        for m, c in self.terms.items():
            term = BracketPoly.const(c)
            for t in m:
                term = term * bracket(*t)
            out = out + term
        return out

    def eval(self, gamma) -> Fraction:
        """Exact value at gamma as sum c * prod det3, with no expansion.

        The brackets are taken on gamma's integer columns, so a monomial is
        the integer c.numerator * prod det3 over the key c.denominator * prod
        of its bracket columns' multipliers.  Numerators are summed per key,
        and each key divides once: a multihomogeneous combination has one
        key.  Each distinct bracket triple is computed once per call.
        """
        dets: dict = {}
        sums: dict = {}
        for m, c in self.terms.items():
            num, key = c.numerator, c.denominator
            for t in m:
                v = dets.get(t)
                if v is None:
                    (x, lx), (y, ly), (z, lz) = (gamma._int_col(p) for p in t)
                    v = dets[t] = (det3(x, y, z), lx * ly * lz)
                num *= v[0]
                key *= v[1]
            sums[key] = sums.get(key, 0) + num
        return sum((Fraction(n, k) for k, n in sums.items()), Fraction(0))


_TOKEN = re.compile(r"\s*(?:\[([^\]]*)\]|(\d+(?:/\d+)?)|([-+*]))")


def _parse_bracket(body: str, text: str) -> BracketCombo:
    labels = body.split()
    if len(labels) == 1:
        labels = list(labels[0])  # compact published form, one digit per point
    if len(labels) != 3 or not all(l.isdigit() for l in labels):
        raise ValueError(f"bad bracket [{body}] in {text!r}")
    return BracketCombo.of_bracket(*map(int, labels))


def parse_bracket_text(text: str) -> BracketCombo:
    """Parse a bracket combination as printed by BracketCombo.to_text.

    A bracket holds three point labels separated by whitespace ("[1 2 10]"),
    or three single digits in the compact published form ("[153]").  A term
    is a product of brackets and rational coefficients, with an optional
    "*" between factors ("- 3/2*[1 2 4][3 5 6]").
    """
    out = BracketCombo.zero()
    term = None
    sign = 1
    prev = None  # kind of the previous token: "factor", "*" or "sign"
    pos, end = 0, len(text.rstrip())
    while pos < end:
        tok = _TOKEN.match(text, pos)
        if tok is None:
            raise ValueError(f"unexpected character {text[pos:].lstrip()[0]!r} in {text!r}")
        pos = tok.end()
        body, number, op = tok.groups()
        if op is None:
            factor = _parse_bracket(body, text) if number is None else BracketCombo.const(Fraction(number))
            term = factor if term is None else term * factor
            prev = "factor"
        elif op == "*" and prev == "factor":
            prev = "*"
        elif op in "+-" and prev != "*":
            if term is not None:
                out = out + term.scale(sign)
                term, sign = None, 1
            if op == "-":
                sign = -sign
            prev = "sign"
        else:
            raise ValueError(f"misplaced {op!r} in {text!r}")
    if prev in ("*", "sign"):
        raise ValueError(f"expression ends with an operator: {text!r}")
    if term is not None:
        out = out + term.scale(sign)
    return out


# ---------------------------------------------------------------------------
# Graded expressions


@dataclass(frozen=True)
class GCExpr:
    """Formal linear combination of grade-k extensors on point symbols.

    terms maps a sorted tuple of k distinct points to a BracketCombo
    coefficient; grade-0 expressions use the empty tuple.
    """

    grade: int
    terms: tuple  # tuple of (symbol tuple, BracketCombo) pairs, sorted

    @staticmethod
    def make(grade: int, mapping: dict) -> "GCExpr":
        items = tuple(sorted((k, v) for k, v in mapping.items() if not v.is_zero()))
        return GCExpr(grade, items)

    def is_zero(self) -> bool:
        return not self.terms


def point_expr(p: int) -> GCExpr:
    return GCExpr.make(1, {(p,): BracketCombo.const(1)})


def line_expr(a: int, b: int) -> GCExpr:
    if a == b:
        raise GradeError("a line needs two distinct points")
    sign = 1 if a < b else -1
    return GCExpr.make(2, {tuple(sorted((a, b))): BracketCombo.const(sign)})


def join(a: GCExpr, b: GCExpr) -> GCExpr:
    """Exterior product; grade-3 results collapse to scalar brackets."""
    g = a.grade + b.grade
    if g > 3:
        raise GradeError(f"join of grades {a.grade} and {b.grade} exceeds 3")
    out: dict = {}
    for s1, c1 in a.terms:
        for s2, c2 in b.terms:
            sym, sign = sort_sign(s1 + s2)
            if sym is None:
                continue
            coeff = (c1 * c2).scale(sign)
            if g == 3:
                coeff = coeff * BracketCombo.of_bracket(*sym)
                sym = ()
            if sym in out:
                out[sym] = out[sym] + coeff
            else:
                out[sym] = coeff
    return GCExpr.make(0 if g == 3 else g, out)


def meet(a: GCExpr, b: GCExpr) -> GCExpr:
    """Meet of two lines: ab ^ cd = [a b c] d - [a b d] c, bilinear."""
    if a.grade != 2 or b.grade != 2:
        raise GradeError("meet is implemented for two grade-2 expressions")
    out: dict = {}
    for (x, y), c1 in a.terms:
        for (u, v), c2 in b.terms:
            for sym, other, sgn in (((u,), v, 1), ((v,), u, -1)):
                coeff = (c1 * c2 * BracketCombo.of_bracket(x, y, other)).scale(sgn)
                key = sym
                if key in out:
                    out[key] = out[key] + coeff
                else:
                    out[key] = coeff
    return GCExpr.make(1, out)


def flatten(e: GCExpr) -> BracketCombo:
    if e.grade != 0:
        raise GradeError("only grade-0 expressions flatten to a scalar")
    total = BracketCombo.zero()
    for _, c in e.terms:
        total = total + c
    return total


def concurrency_combo(l1: Sequence[int], l2: Sequence[int], l3: Sequence[int]) -> BracketCombo:
    """(l1 ^ l2) v l3, each line given by two distinct chosen points."""
    for l in (l1, l2, l3):
        if len(l) != 2 or l[0] == l[1]:
            raise GradeError(f"degenerate line spec {tuple(l)}")
    return flatten(join(meet(line_expr(*l1), line_expr(*l2)), line_expr(*l3)))


def concurrency_poly(l1: Sequence[int], l2: Sequence[int], l3: Sequence[int]) -> BracketPoly:
    """Polynomial vanishing whenever the three realized lines are concurrent."""
    return concurrency_combo(l1, l2, l3).expand()


# ---------------------------------------------------------------------------
# Rewriting: replace a point by the meet of two lines through it


def _check_rewrite_args(x: int, l1_pts: Sequence[int], l2_pts: Sequence[int]):
    p1, p2 = l1_pts
    p3, p4 = l2_pts
    pts = (p1, p2, p3, p4)
    if len(set(pts)) < 4 or x in pts:
        raise ValueError("rewrite needs four distinct points, none equal to x")
    if {p1, p2} == {p3, p4}:
        raise ValueError("the two lines of a rewrite must be distinct")
    return p1, p2, p3, p4


def gm_rewrite_combo(
    combo: BracketCombo, x: int, l1_pts: Sequence[int], l2_pts: Sequence[int]
) -> BracketCombo:
    """Replace x by [p1 p2 p3] p4 - [p1 p2 p4] p3 in every bracket of combo.

    Brackets are multilinear, so a monomial with k brackets on x expands
    directly into at most 2^k monomials, one per choice of replacement in
    each of those brackets.
    """
    p1, p2, p3, p4 = _check_rewrite_args(x, l1_pts, l2_pts)
    if x not in combo.points():
        raise ValueError(f"point {x} does not occur in the combination")
    plus, s_plus = _triple(p1, p2, p3)
    minus, s_minus = _triple(p1, p2, p4)
    replacements: dict = {}  # bracket on x -> [(sign, (triple, triple)), ...]

    def replace(t: tuple) -> list:
        i = t.index(x)
        rest = t[:i] + t[i + 1:]
        sign = -1 if i % 2 else 1  # move x to the front
        opts = []
        for left, s, p in ((plus, s_plus, p4), (minus, -s_minus, p3)):
            right, s2 = _triple(p, *rest)  # None when p is already in the bracket
            if right is not None:
                opts.append((sign * s * s2, (left, right)))
        return opts

    out: dict = {}
    for m, c in combo.terms.items():
        coeff = {1: c, -1: -c}
        # brackets without x carry over; a subsequence of m is still sorted
        kept = tuple(t for t in m if x not in t)
        choices = []
        for t in m:
            if x in t:
                r = replacements.get(t)
                if r is None:
                    r = replacements[t] = replace(t)
                choices.append(r)
        for pick in product(*choices):
            mono, sign = kept, 1
            for s, pair in pick:
                mono += pair
                sign *= s
            mono = tuple(sorted(mono))
            v = out.get(mono)
            v = coeff[sign] if v is None else v + coeff[sign]
            if v:
                out[mono] = v
            else:
                del out[mono]
    return BracketCombo._of(out)


def gm_rewrite(
    p: BracketPoly, x: int, l1_pts: Sequence[int], l2_pts: Sequence[int]
) -> BracketPoly:
    """Variable-level substitution of column x by the meet of two lines.

    Each variable x[r, x] is replaced by the r-th coordinate polynomial of
    [p1 p2 p3] gamma_{p4} - [p1 p2 p4] gamma_{p3} and the result re-expanded.
    """
    p1, p2, p3, p4 = _check_rewrite_args(x, l1_pts, l2_pts)
    if x not in p.columns():
        raise ValueError(f"column {x} does not occur in the polynomial")
    plus = bracket(p1, p2, p3)
    minus = bracket(p1, p2, p4)
    repl = {
        row: plus * BracketPoly.variable(("x", p4, row))
        - minus * BracketPoly.variable(("x", p3, row))
        for row in range(3)
    }
    out = BracketPoly.zero()
    for mono, coeff in p.terms.items():
        term = BracketPoly.const(coeff)
        for v, e in mono:
            factor = repl[v[2]] if (v[0] == "x" and v[1] == x) else BracketPoly.variable(v)
            for _ in range(e):
                term = term * factor
        out = out + term
    return out


def rewrite_choices(cfg: Config, points: Iterable[int]):
    """All (x, l1-pair, l2-pair) rewrite choices for the given points."""
    for x in points:
        through = cfg.lines_through(x)
        for l1, l2 in combinations(through, 2):
            for p1, p2 in combinations([p for p in l1 if p != x], 2):
                for p3, p4 in combinations([p for p in l2 if p != x], 2):
                    if len({p1, p2, p3, p4}) == 4:
                        yield x, (p1, p2), (p3, p4)


DEFAULT_TERM_CEILING = 64


def circuit_combos(cfg: Config) -> list[BracketCombo]:
    return [BracketCombo.of_bracket(*sorted(c)) for c in sorted(cfg.circuits3(), key=sorted)]


def gm_generators(cfg: Config, depth: int) -> list[BracketCombo]:
    """Bounded rewrite orbit of the circuit brackets.

    Stage 0 is the circuit brackets; each later stage applies every single
    point rewrite (point x replaced via a pair of distinct configuration
    lines through it) to the previous stage.  Results are deduplicated up to
    sign; combinations exceeding DEFAULT_TERM_CEILING terms are dropped.  Returns
    the union of all stages up to depth.
    """
    cfg._require_simple()
    stage = circuit_combos(cfg)
    seen = {c.sign_normalized() for c in stage}
    collected = list(stage)
    for _ in range(depth):
        nxt = []
        for combo in stage:
            for x, l1p, l2p in rewrite_choices(cfg, sorted(combo.points())):
                r = gm_rewrite_combo(combo, x, l1p, l2p)
                if r.is_zero() or len(r.terms) > DEFAULT_TERM_CEILING:
                    continue
                key = r.sign_normalized()
                if key not in seen:
                    seen.add(key)
                    nxt.append(r)
        collected.extend(nxt)
        stage = nxt
        if not stage:
            break
    return collected

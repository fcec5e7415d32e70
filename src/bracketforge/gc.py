"""Symbolic Grassmann-Cayley algebra over a 3-space on point symbols.

Two representation layers, both subclasses of poly.LinearCombination, which
owns the coefficients, the ring operations, equality and the printer:

* BracketCombo - a formal Q-linear combination of products of brackets
  [i j k] on point symbols.  This layer keeps the shape in which such
  polynomials are usually printed and is the working representation for
  meet, join and the rewriting procedure.
* BracketPoly (from .poly) - the fully expanded polynomial in the matrix
  variables.  Two formally different bracket combinations can expand to the
  same polynomial (bracket syzygies), so canonical comparison happens at
  this layer.  Evaluation does not need it: a bracket's value at a
  realization is a 3 x 3 determinant.

In rank 3 every Grassmann-Cayley expression used here is the join of three
grade-1 terms, each a point or the meet of two lines.  Both have closed
forms: two lines meet in the point ab ^ cd = [a b d] c - [a b c] d, and the
join of three points is their bracket, extended multilinearly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from typing import Iterable, Sequence

from .config import Config
from .linalg import det3
from .poly import BracketPoly, LinearCombination, _sum_by_key, bracket, sort_sign

# A bracket triple is stored sorted ascending; a combo monomial is a sorted
# tuple of such triples.
ComboMono = tuple


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

        Reads gamma's integer view once: a monomial is the integer
        c.numerator * prod det3 of its brackets' integer columns over the key
        c.denominator * prod of those columns' multipliers.  Each distinct
        bracket triple is computed once per call.  Numerators are summed per
        key; a multihomogeneous combination has one key, so its value is one
        Fraction(num, key), and several keys are summed.  The zero
        combination is Fraction(0).
        """
        ints, mults = gamma._integer_view
        d = gamma.d
        dets: dict = {}
        sums: dict = {}
        for m, k in self.terms.items():
            num, key = k.numerator, k.denominator
            for t in m:
                v = dets.get(t)
                if v is None:
                    a, b, c = t  # sorted, so a and c bound the labels
                    if a < 1 or c > d:
                        raise IndexError(f"label {a if a < 1 else c} out of range 1..{d}")
                    a, b, c = a - 1, b - 1, c - 1
                    v = dets[t] = (det3(ints[a], ints[b], ints[c]), mults[a] * mults[b] * mults[c])
                num *= v[0]
                key *= v[1]
            sums[key] = sums.get(key, 0) + num
        return _sum_by_key(sums)


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
            try:
                factor = _parse_bracket(body, text) if number is None else BracketCombo.const(Fraction(number))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {number!r} in {text!r}") from None
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
# Meet and join in rank 3


def meet(l1: Sequence[int], l2: Sequence[int]) -> dict[int, BracketCombo]:
    """The point where the lines ab and cd meet, as {point: coefficient}.

    For l1 = (a, b) and l2 = (c, d) this is ab ^ cd = [a b d] c - [a b c] d.
    """
    (a, b), (c, d) = l1, l2
    if a == b or c == d:
        raise ValueError(f"a line needs two distinct points, got {tuple(l1)} and {tuple(l2)}")
    return {c: BracketCombo.of_bracket(a, b, d), d: -BracketCombo.of_bracket(a, b, c)}


def join(e1, e2, e3) -> BracketCombo:
    """Join of three grade-1 terms: the sum of c1 c2 c3 [p1 p2 p3].

    Each term is a point label (coefficient 1) or the {point: coefficient}
    mapping returned by meet.
    """
    one = BracketCombo.const(1)
    terms = [{e: one} if isinstance(e, int) else e for e in (e1, e2, e3)]
    out = BracketCombo.zero()
    for (p1, c1), (p2, c2), (p3, c3) in product(*(t.items() for t in terms)):
        out = out + c1 * c2 * c3 * BracketCombo.of_bracket(p1, p2, p3)
    return out


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
    cfg._require_simple()
    return [BracketCombo.of_bracket(*c) for c in cfg.circuits3()]


def gm_generators(cfg: Config, depth: int) -> list[BracketCombo]:
    """Bounded rewrite orbit of the circuit brackets.

    Stage 0 is the circuit brackets; each later stage applies every single
    point rewrite (point x replaced via a pair of distinct configuration
    lines through it) to the previous stage.  Results are deduplicated up to
    sign; combinations exceeding DEFAULT_TERM_CEILING terms are dropped.  Returns
    the union of all stages up to depth.
    """
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

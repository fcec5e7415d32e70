import random
from fractions import Fraction as F
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bracketforge.gc import BracketCombo
from bracketforge.linalg import Realization, det3, vec3
from bracketforge.poly import (
    Q_COL,
    BracketPoly,
    bracket,
    const_col,
    point,
    sort_sign,
)

fracs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
vecs = st.tuples(fracs, fracs, fracs)


def rand_realization(rng, d):
    return Realization(
        tuple(vec3(*(F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(3))) for _ in range(d))
    )


def rand_poly(rng, d):
    """Random small combination of products of point brackets."""
    out = BracketPoly.zero()
    for _ in range(rng.randint(1, 3)):
        term = BracketPoly.const(F(rng.randint(-5, 5)))
        for _ in range(rng.randint(1, 2)):
            cols = rng.sample(range(1, d + 1), 3)
            term = term * bracket(*cols)
        out = out + term
    return out


def test_bracket_alternation():
    assert bracket(1, 2, 3) == -bracket(2, 1, 3)
    assert bracket(1, 2, 3) == bracket(2, 3, 1)
    assert bracket(1, 1, 3).is_zero()


@given(vecs, vecs, vecs, vecs, fracs)
def test_bracket_multilinear_in_constant_columns(a, b, c, d, t):
    a, b, c, d = (vec3(*v) for v in (a, b, c, d))
    mixed = vec3(*(x + t * y for x, y in zip(a, d)))
    lhs = bracket(const_col(mixed), const_col(b), const_col(c))
    rhs = bracket(const_col(a), const_col(b), const_col(c)) + bracket(
        const_col(d), const_col(b), const_col(c)
    ).scale(t)
    assert lhs == rhs


def test_bracket_eval_is_det3():
    rng = random.Random(3)
    for _ in range(30):
        g = rand_realization(rng, 5)
        i, j, k = rng.sample(range(1, 6), 3)
        assert bracket(i, j, k).eval(g) == det3(g.col(i), g.col(j), g.col(k))
        v, q = rand_realization(rng, 2).cols
        assert bracket(i, const_col(v), Q_COL).eval(g, q) == det3(g.col(i), v, q)


def test_point_index_starts_at_one():
    with pytest.raises(ValueError):
        point(0)


def test_eval_is_ring_homomorphism():
    rng = random.Random(5)
    for _ in range(100):
        d = rng.randint(4, 6)
        p, q = rand_poly(rng, d), rand_poly(rng, d)
        g = rand_realization(rng, d)
        assert (p + q).eval(g) == p.eval(g) + q.eval(g)
        assert (p * q).eval(g) == p.eval(g) * q.eval(g)
        assert (-p).eval(g) == -p.eval(g)


def test_sign_normalization():
    p = bracket(1, 2, 3) * bracket(1, 4, 5)
    assert p.eq_up_to_sign(-p)
    assert p.sign_normalized() == (-p).sign_normalized()
    assert p.sign_normalized().leading_coeff() > 0
    assert not p.eq_up_to_sign(p * BracketPoly.const(F(2)))


def test_total_degree_and_columns():
    p = bracket(1, 2, 3) * bracket(2, 4, 5)
    assert p.total_degree() == 6
    assert p.columns() == {1, 2, 3, 4, 5}
    assert not p.mentions_q()


def test_to_text_round_shape():
    p = bracket(1, 2, 3)
    text = p.to_text()
    assert "x[" in text and text == bracket(1, 2, 3).to_text()
    assert BracketPoly.zero().to_text() == "0"


def test_sort_sign_matches_inversion_count():
    for n in range(6):
        for perm in permutations(range(n)):
            inversions = sum(1 for i in range(n) for j in range(i) if perm[j] > perm[i])
            assert sort_sign(perm) == (tuple(range(n)), (-1) ** inversions)
            labels = [10 * p + 3 for p in perm]  # any ordered items, not only 0..n-1
            assert sort_sign(labels) == (tuple(sorted(labels)), (-1) ** inversions)
    assert sort_sign((3, 1, 3)) == (None, 0)
    assert sort_sign((2, 2)) == (None, 0)


small_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
poly_atoms = st.one_of(
    st.builds(lambda c: BracketPoly.const(c), small_coeffs),
    st.builds(lambda i, j, k: bracket(i, j, k), *[st.integers(1, 4)] * 3),
)
combo_atoms = st.one_of(
    st.builds(lambda c: BracketCombo.const(c), small_coeffs),
    st.builds(lambda i, j, k: BracketCombo.of_bracket(i, j, k), *[st.integers(1, 4)] * 3),
)
OPS = ("+", "-", "neg", "*", "scale")


def _combine(atoms, steps, scalars):
    out = atoms[0]
    for (op, i), c in zip(steps, scalars):
        other = atoms[i % len(atoms)]
        if op == "+":
            out = out + other
        elif op == "-":
            out = out - other
        elif op == "neg":
            out = -out
        elif op == "*":
            out = out * other
        else:
            out = out.scale(c)
    return out


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([poly_atoms, combo_atoms]).flatmap(
        lambda atom: st.lists(atom, min_size=1, max_size=4)
    ),
    st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 3)), max_size=6),
    st.lists(small_coeffs, min_size=6, max_size=6),
)
def test_ring_operations_keep_only_nonzero_fractions(atoms, steps, scalars):
    out = _combine(atoms, steps, scalars)
    assert type(out) is type(atoms[0])
    assert all(type(c) is F and c != 0 for c in out.terms.values())


def test_equality_needs_the_same_type():
    assert BracketPoly.const(1) != BracketCombo.const(1)
    assert BracketPoly.const(1).terms == BracketCombo.const(1).terms
    assert BracketPoly.zero() != BracketCombo.zero()


# ---------------------------------------------------------------------------
# BracketPoly.eval on integer columns against the Fraction evaluator


def _fraction_eval(poly, gamma, q=None):
    """sum c * prod value^e on Fraction entries: the evaluator BracketPoly.eval
    used before it read integer columns."""
    total = F(0)
    for m, c in poly.terms.items():
        t = c
        for v, e in m:
            t *= (gamma.col(v[1])[v[2]] if v[0] == "x" else q[v[1]]) ** e
        total += t
    return total


def _assert_matches_fraction_eval(polys, gamma, q=None):
    for p in polys:
        value = p.eval(gamma, q)
        assert type(value) is F
        assert value == _fraction_eval(p, gamma, q), p.to_text()


def test_eval_matches_fraction_eval_on_qs_minors():
    """All 15 symbolic-q 4x4 minors of the complete quadrilateral's lifting
    matrix, at random realizations and rational q."""
    from bracketforge.config import preset
    from bracketforge.lifting import QScheme, lift_matrix

    sym = lift_matrix(preset("qs"), QScheme.symbolic())
    minors = [sym.minor((0, 1, 2, 3), cols) for cols in combinations(range(6), 4)]
    assert len(minors) == 15 and all(p.mentions_q() for p in minors)
    rng = random.Random(13)
    for _ in range(2):
        gamma = rand_realization(rng, 6)
        q = vec3(*(F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(3)))
        _assert_matches_fraction_eval(minors, gamma, q)
        assert any(p.eval(gamma, q) != 0 for p in minors)


def test_eval_matches_fraction_eval_on_edge_cases():
    rng = random.Random(17)
    x = BracketPoly.variable
    polys = [
        BracketCombo.const(F(3, 2)).expand() * bracket(1, 2, 4) * bracket(3, 5, 6) - bracket(1, 2, 3),
        bracket(1, 2, 3) + BracketPoly.const(2),  # not homogeneous
        x(("x", 2, 1)) * x(("x", 2, 1)) * x(("x", 4, 0)).scale(F(-5, 7)) + x(("x", 1, 2)),
        bracket(1, const_col((F(1, 3), 2, F(-7, 10**6))), Q_COL) * x(("q", 2)),
        BracketPoly.zero(),
        BracketPoly.const(F(-4, 9)),
    ]
    big = [F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) for _ in range(18)]
    gammas = [
        rand_realization(rng, 6),
        Realization(tuple(vec3(*big[3 * i:3 * i + 3]) for i in range(6))),
        Realization((vec3(0, 0, 0),) + rand_realization(rng, 5).cols),  # a zero column
    ]
    for gamma in gammas:
        for q in (vec3(F(2, 3), F(-1, 10**6), 5), vec3(0, 0, 0)):
            _assert_matches_fraction_eval(polys, gamma, q)
    assert polys[1].eval(gammas[2]) == 2


def test_eval_rejects_labels_outside_the_realization():
    gamma = rand_realization(random.Random(1), 6)
    with pytest.raises(IndexError, match="label 0 out of range 1..6"):
        BracketPoly.variable(("x", 0, 0)).eval(gamma)
    with pytest.raises(IndexError, match="label 7 out of range 1..6"):
        bracket(1, 2, 7).eval(gamma)
    with pytest.raises(ValueError, match="mentions q"):
        bracket(1, 2, Q_COL).eval(gamma)

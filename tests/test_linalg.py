import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bracketforge.linalg import (
    DegenerateLineError,
    Realization,
    cross,
    det3,
    det_exact,
    dot,
    kernel_basis,
    meet_lines,
    proportional,
    rank,
    rank_vectors,
    rref,
    vec3,
)

fracs = st.fractions(min_value=-30, max_value=30, max_denominator=12)
vecs = st.tuples(fracs, fracs, fracs)


def fraction_rref(m):
    """Gauss-Jordan elimination with a Fraction division at every step: the
    reference the integer elimination must reproduce exactly."""
    a = [[F(x) for x in row] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = F(1, 1) / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def fraction_kernel(m):
    """The kernel basis read off fraction_rref: one vector per free column."""
    a, pivots = fraction_rref(m)
    cols = len(m[0])
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [F(0)] * cols
        v[fc] = F(1)
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][fc]
        basis.append(v)
    return basis


entries = st.one_of(st.integers(-9, 9), fracs)
shapes = st.one_of(
    st.tuples(st.just(1), st.integers(1, 7)),
    st.tuples(st.integers(1, 7), st.just(1)),
    st.tuples(st.integers(1, 7), st.integers(1, 7)),
)


@st.composite
def matrices(draw):
    """rows x cols products A B of inner size k <= min(rows, cols), so the
    rank is usually k, with some rows and columns then set to zero.  Entries
    mix int and Fraction."""
    rows, cols = draw(shapes)
    k = draw(st.integers(0, min(rows, cols)))
    a = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=rows, max_size=rows))
    b = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=k, max_size=k))
    zero_rows = draw(st.sets(st.integers(0, rows - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=2))
    return [
        [
            0 if i in zero_rows or j in zero_cols else sum(a[i][t] * b[t][j] for t in range(k))
            for j in range(cols)
        ]
        for i in range(rows)
    ]


def laplace_det(m):
    """Permutation-expansion determinant, the independent oracle."""
    n = len(m)
    total = F(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = F(1)
        for i in range(n):
            prod *= m[i][perm[i]]
        total += sign * prod
    return total


def test_det3_known_values():
    assert det3(vec3(1, 0, 0), vec3(0, 1, 0), vec3(0, 0, 1)) == 1
    assert det3(vec3(1, 2, 3), vec3(4, 5, 6), vec3(7, 8, 9)) == 0
    assert det3(vec3(2, 0, 1), vec3(1, 3, 0), vec3(0, 1, 4)) == 25
    assert det3(vec3(F(1, 2), 0, 0), vec3(0, F(1, 3), 0), vec3(0, 0, 6)) == 1


@given(vecs, vecs, vecs)
def test_det3_alternating(a, b, c):
    a, b, c = vec3(*a), vec3(*b), vec3(*c)
    assert det3(a, b, c) == -det3(b, a, c) == -det3(a, c, b)
    assert det3(a, a, c) == 0


@given(vecs, vecs, vecs, vecs, fracs)
def test_det3_multilinear(a, b, c, d, t):
    a, b, c, d = (vec3(*v) for v in (a, b, c, d))
    lhs = det3(tuple(x + t * y for x, y in zip(a, d)), b, c)
    assert lhs == det3(a, b, c) + t * det3(d, b, c)


@given(vecs, vecs)
def test_cross_orthogonal(a, b):
    a, b = vec3(*a), vec3(*b)
    n = cross(a, b)
    assert dot(n, a) == 0 and dot(n, b) == 0


@given(vecs, vecs, vecs)
def test_cross_triple_product(a, b, c):
    a, b, c = vec3(*a), vec3(*b), vec3(*c)
    assert dot(cross(a, b), c) == det3(a, b, c)


def test_meet_lines_through_common_point():
    # two lines both passing through (1, 2, 3)
    p = vec3(1, 2, 3)
    a2, b2 = vec3(1, 0, 0), vec3(0, 1, 0)
    m = meet_lines(p, a2, p, b2)
    assert proportional(m, p)


def test_meet_lines_degenerate():
    with pytest.raises(DegenerateLineError):
        meet_lines(vec3(1, 1, 1), vec3(2, 2, 2), vec3(1, 0, 0), vec3(0, 1, 0))


def test_rref_rank_kernel_known():
    m = [
        [F(1), F(2), F(3)],
        [F(2), F(4), F(6)],
        [F(0), F(1), F(1)],
    ]
    r, pivots = rref(m)
    assert rank(m) == 2
    ker = kernel_basis(m)
    assert len(ker) == 1
    for v in ker:
        assert all(sum(row[j] * v[j] for j in range(3)) == 0 for row in m)


@given(
    st.lists(
        st.lists(fracs, min_size=4, max_size=4),
        min_size=2,
        max_size=5,
    )
)
@settings(max_examples=60)
def test_rank_nullity(m):
    ker = kernel_basis(m)
    assert rank(m) + len(ker) == 4
    for v in ker:
        assert all(sum(row[j] * v[j] for j in range(4)) == 0 for row in m)


@given(matrices())
@settings(max_examples=300)
def test_integer_elimination_matches_fraction_oracle(m):
    want, pivots = fraction_rref(m)
    got = rref(m)
    assert got == (want, pivots)
    assert all(type(x) is F for row in got[0] for x in row)
    assert rank(m) == len(pivots)
    assert kernel_basis(m) == fraction_kernel(m)


@pytest.mark.parametrize("fn", [rref, rank, kernel_basis])
@pytest.mark.parametrize("m", [[[1, 2], [3]], [[1], [2, 3]], [[F(1, 2)], []]])
def test_ragged_rows_raise_value_error(fn, m):
    with pytest.raises(ValueError):
        fn(m)


def test_det_exact_vs_permutation_expansion():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.choice((2, 3, 4))
        m = [[F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        assert det_exact(m) == laplace_det(m)


def test_det_exact_rejects_non_square():
    # a check, not an assert, so it holds under python -O too
    with pytest.raises(ValueError):
        det_exact([[F(1), F(2), F(3)], [F(4), F(5), F(6)]])


def test_det_exact_matches_det3():
    rng = random.Random(11)
    for _ in range(20):
        cols = [vec3(*(F(rng.randint(-9, 9)) for _ in range(3))) for _ in range(3)]
        m = [[cols[j][i] for j in range(3)] for i in range(3)]
        assert det_exact(m) == det3(*cols)


def test_rank_vectors():
    assert rank_vectors([vec3(1, 0, 0), vec3(0, 1, 0), vec3(1, 1, 0)]) == 2
    assert rank_vectors([vec3(1, 0, 0), vec3(0, 1, 0), vec3(0, 0, 1)]) == 3


def test_realization_json_roundtrip():
    g = Realization((vec3(1, 2, 3), vec3(F(1, 2), 0, -1), vec3(0, 0, 0)))
    back = Realization.from_json(g.to_json())
    assert back == g
    assert back.col(2) == vec3(F(1, 2), 0, -1)


def test_realization_restrict_relabels():
    g = Realization(tuple(vec3(i, 0, 1) for i in range(1, 5)))
    h = g.restrict([2, 4])
    assert h.d == 2
    assert h.col(1) == vec3(2, 0, 1)
    assert h.col(2) == vec3(4, 0, 1)


@settings(max_examples=60, deadline=None)
@given(st.lists(vecs, max_size=6))
def test_realization_integer_view(cols):
    gamma = Realization(tuple(vec3(*v) for v in cols))
    ints, mults = gamma._integer_view
    assert gamma._integer_view is gamma._integer_view  # computed once
    for c, v, m in zip(gamma.cols, ints, mults):
        assert m > 0 and all(type(x) is int for x in v)
        assert tuple(F(x, m) for x in v) == c
    assert gamma.rank() == rank_vectors(gamma.cols)
    for label in (0, len(cols) + 1):
        with pytest.raises(IndexError, match=f"label {label} out of range"):
            gamma._int_col(label)

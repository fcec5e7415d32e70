import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bracketforge.linalg import (
    DegenerateLineError,
    Realization,
    _eliminate,
    _integer_rows,
    _rank,
    _span_rank,
    cross,
    det3,
    det_exact,
    dot,
    kernel_basis,
    meet_lines,
    proportional,
    rank,
    rref,
    vec3,
)

from oracles import dense_rank, fraction_kernel, fraction_rref, peel, sparse_rows

fracs = st.fractions(min_value=-30, max_value=30, max_denominator=12)
vecs = st.tuples(fracs, fracs, fracs)


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


def bareiss_eliminate(a, reduce):
    """Bareiss elimination, the oracle for `_eliminate`: every row below (and
    with `reduce` also above) the pivot becomes (p*row - f*pivot_row) // prev,
    whatever its entry f, with prev the previous pivot."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
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


@st.composite
def circuit_layouts(draw):
    """Integer rows laid out like a liftability matrix: row (c1, c2, c3) holds
    [c2 c3 q], -[c1 c3 q], [c1 c2 q] of integer points, collinear or not, and
    nothing else.  Tall and wide shapes up to 30 x 23, with some rows and
    columns then set to zero."""
    rows, cols = draw(st.integers(1, 30)), draw(st.integers(3, 23))
    coord = st.integers(-40, 40)
    if draw(st.booleans()):
        a, b = draw(st.tuples(coord, coord, coord)), draw(st.tuples(coord, coord, coord))
        ts = draw(st.lists(coord, min_size=cols, max_size=cols))
        pts = [tuple(x + t * y for x, y in zip(a, b)) for t in ts]
    else:
        pts = draw(st.lists(st.tuples(coord, coord, coord), min_size=cols, max_size=cols))
    q = draw(st.tuples(coord, coord, coord))
    triples = st.lists(st.integers(0, cols - 1), min_size=3, max_size=3, unique=True)
    zero_rows = draw(st.sets(st.integers(0, rows - 1), max_size=3))
    zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=3))
    out = []
    for i in range(rows):
        c1, c2, c3 = sorted(draw(triples))
        row = [0] * cols
        row[c1] = det3(pts[c2], pts[c3], q)
        row[c2] = -det3(pts[c1], pts[c3], q)
        row[c3] = det3(pts[c1], pts[c2], q)
        out.append([0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)])
    return out


def check_against_bareiss(a):
    """`_eliminate` picks Bareiss's pivots, keeps every row primitive and no
    entry above the Bareiss entry; the rank does not depend on the side."""
    transposed = [list(col) for col in zip(*a)]
    for reduce in (False, True):
        got, want = [list(row) for row in a], [list(row) for row in a]
        pivots = _eliminate(got, reduce)
        assert pivots == bareiss_eliminate(want, reduce)
        for row, oracle in zip(got, want):
            assert math.gcd(*row) in (0, 1)
            assert all(abs(x) <= abs(y) for x, y in zip(row, oracle))
    r = len(pivots)
    assert len(_eliminate([list(row) for row in transposed], False)) == r
    assert dense_rank(a) == dense_rank(transposed) == r


@given(circuit_layouts())
@settings(max_examples=150, deadline=None)
def test_elimination_on_circuit_layouts_matches_bareiss(a):
    check_against_bareiss(a)


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_elimination_matches_bareiss(m):
    check_against_bareiss(_integer_rows(m)[0])
    assert rank(m) == rank([list(col) for col in zip(*m)])


def test_rank_leaves_its_rows_alone():
    tall = sparse_rows([[0, 4, 6], [1, 0, 1], [3, 4, 7], [0, 0, 5]])
    wide = sparse_rows([[0, 4, 6, 2], [1, 0, 1, 1]])
    assert _rank(tall, 3) == 3 and _rank(wide, 4) == 2
    assert tall == sparse_rows([[0, 4, 6], [1, 0, 1], [3, 4, 7], [0, 0, 5]])
    assert wide == sparse_rows([[0, 4, 6, 2], [1, 0, 1, 1]])


def sparse_matrix(rng):
    """A random sparse integer matrix: 0..10 rows and 1..10 columns with
    nonzeros of a random density, some rows copied as combinations of others,
    some rows and columns zero; or a bidiagonal staircase, whose peels
    cascade one row at a time."""
    rows, cols = rng.randint(0, 10), rng.randint(1, 10)
    if rng.random() < 0.2:
        return [[rng.choice([-3, -1, 1, 2]) if c in (i, i + 1) else 0 for c in range(cols)]
                for i in range(rows)]
    density = rng.choice([0.15, 0.3, 0.6, 0.9])
    a = [[rng.randint(-5, 5) if rng.random() < density else 0 for _ in range(cols)]
         for _ in range(rows)]
    for i in range(rows):
        if i >= 2 and rng.random() < 0.2:
            s, t = rng.randint(-2, 2), rng.randint(-2, 2)
            a[i] = [s * x + t * y for x, y in zip(*rng.sample(a[:i], 2))]
    for i in rng.sample(range(rows), min(rows, rng.randint(0, 2))):
        a[i] = [0] * cols
    for c in rng.sample(range(cols), min(cols, rng.randint(0, 2))):
        for row in a:
            row[c] = 0
    return a


def test_rank_peel_matches_fraction_oracle():
    """`_rank` sets aside the rows that are the only nonzero of a column
    before it eliminates; the rank must stay that of Gauss-Jordan elimination
    with Fraction division, on both sides of the matrix."""
    rng = random.Random(2024)
    seen = {"empty": 0, "tall": 0, "zero row": 0, "zero column": 0, "cascade": 0, "no peel": 0}
    for _ in range(600):
        a = sparse_matrix(rng)
        copy = [list(row) for row in a]
        want = len(fraction_rref(a)[1])
        assert dense_rank(a) == want, a
        assert a == copy
        if a:
            assert dense_rank([list(col) for col in zip(*a)]) == want, a
        rounds = peel(a)[1]
        seen["empty"] += not a
        seen["tall"] += len(a) > len(a[0]) if a else 0
        seen["zero row"] += any(not any(row) for row in a)
        seen["zero column"] += bool(a) and any(not any(col) for col in zip(*a))
        seen["cascade"] += rounds >= 2
        seen["no peel"] += bool(a) and rounds == 0 and want > 0
    assert min(seen.values()) >= 10, seen


def test_sparse_rank_on_three_nonzero_rows():
    """`_rank` of rows of three (column, value) pairs, as the lifting
    verdicts build them, in random columns, against the Fraction RREF: rows
    that all peel and rows that leave a core to eliminate, tall and wide."""
    rng = random.Random(28)
    seen = {"empty core": 0, "core": 0, "tall core": 0, "wide core": 0}
    for _ in range(500):
        ncols, nrows = rng.randint(3, 12), rng.randint(0, 14)
        rows = [[(c, rng.choice([-4, -2, -1, 1, 3, 5])) for c in rng.sample(range(ncols), 3)]
                for _ in range(nrows)]
        dense = [[0] * ncols for _ in rows]
        for row, pairs in zip(dense, rows):
            for c, x in pairs:
                row[c] = x
        want = len(fraction_rref(dense)[1])
        copy = [list(row) for row in rows]
        assert _rank(rows, ncols) == want, rows
        assert rows == copy
        core = peel(dense)[0]
        seen["core" if core else "empty core"] += 1
        if core:
            live = sum(1 for col in zip(*core) if any(col))
            seen["tall core" if len(core) > live else "wide core"] += 1
    assert min(seen.values()) >= 20, seen


def test_realization_rank_with_coordinate_axis_points():
    """A coordinate that one point alone has nonzero, such as that of a
    point on a coordinate axis, is a column with one nonzero: the peel of
    `_rank` sets that point aside.  `Realization.rank` (`_span_rank`) and
    `_rank` on the integer columns both match the oracle."""
    rng = random.Random(7)
    axes = [vec3(1, 0, 0), vec3(0, -2, 0), vec3(0, 0, F(3, 4))]
    ranks, peeled = set(), 0
    for _ in range(200):
        cols = [rng.choice(axes)] + [
            rng.choice([vec3(*(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))),
                        vec3(0, rng.randint(-3, 3), rng.randint(-3, 3)),
                        rng.choice(axes), vec3(0, 0, 0)])
            for _ in range(rng.randint(0, 6))
        ]
        if len(cols) > 2 and rng.random() < 0.5:
            cols[-1] = tuple(2 * x - y for x, y in zip(cols[-2], cols[-3]))
        rng.shuffle(cols)
        want = len(fraction_rref([list(c) for c in cols])[1])
        gamma = Realization(tuple(cols))
        assert gamma.rank() == want, cols
        assert dense_rank(gamma._integer_view[0]) == want, cols
        ranks.add(want)
        peeled += peel([list(c) for c in cols])[1] > 0
    assert ranks == {1, 2, 3} and peeled >= 50


SPAN_RANK_CASES = {
    "empty": ([], 0),
    "all zero": ([(0, 0, 0)] * 3, 0),
    "parallel": ([(0, 0, 0), (1, -2, 3), (-2, 4, -6), (0, 0, 0), (3, -6, 9)], 1),
    # projective points on the line x = z, a parallel pair before the second point
    "collinear": ([(0, 0, 0), (1, 0, 1), (-3, 0, -3), (1, 1, 1), (1, 2, 1), (2, 3, 2)], 2),
    # vectors of the plane x + y + z = 0
    "coplanar": ([(1, -1, 0), (0, 1, -1), (1, 0, -1), (2, -3, 1), (0, 0, 0)], 2),
    "spanning": ([(1, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 0), (0, 0, 1)], 3),
    "spanning at once": ([(0, 0, 5), (1, 2, 3), (3, -1, 0), (1, 1, 1)], 3),
}


def check_span_rank(vectors: list, want=None) -> int:
    """_span_rank of the int vectors and of Fraction multiples of them (one
    nonzero factor per vector) against the Fraction RREF and `_rank`."""
    oracle = len(fraction_rref(vectors)[1])
    assert want is None or oracle == want
    assert _span_rank(vectors) == dense_rank(vectors) == oracle, vectors
    fracs = [tuple(F(i + 1, 2 * i + 3) * (-1) ** i * x for x in v)
             for i, v in enumerate(vectors)]
    assert len(fraction_rref(fracs)[1]) == oracle
    assert _span_rank(fracs) == dense_rank(_integer_rows(fracs)[0]) == oracle, fracs
    assert _span_rank(iter(fracs)) == oracle
    return oracle


@pytest.mark.parametrize("name", SPAN_RANK_CASES)
def test_span_rank_cases(name):
    check_span_rank(*SPAN_RANK_CASES[name])


def test_span_rank_on_random_low_rank_sets():
    """Integer combinations of 0..3 random vectors, in random order, some
    coefficients zero: every rank appears, and a set's rank never exceeds
    the number of vectors it is made from."""
    rng = random.Random(3)
    seen = {k: 0 for k in range(4)}
    for _ in range(400):
        gens = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(rng.randint(0, 3))]
        vectors = []
        for _ in range(rng.randint(0, 6)):
            coeffs = [rng.choice([0, 0, 1, -2, 3]) for _ in gens]
            vectors.append(tuple(sum(c * g[k] for c, g in zip(coeffs, gens)) for k in range(3)))
        r = check_span_rank(vectors)
        assert r <= len(gens)
        seen[r] += 1
    assert min(seen.values()) >= 20, seen


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


def test_realization_json_roundtrip():
    g = Realization((vec3(1, 2, 3), vec3(F(1, 2), 0, -1), vec3(0, 0, 0)))
    back = Realization.from_json(g.to_json())
    assert back == g
    assert back.col(2) == vec3(F(1, 2), 0, -1)


@pytest.mark.parametrize(
    "text, reason",
    [
        ('[["1/0", 2], [3, 4], [5, 6]]', "zero denominator in realization entry '1/0'"),
        ("[1, 2, 3]", "realization must be a 3 x d array of rows"),
        ('[["x", 2], [3, 4], [5, 6]]', "realization entry 'x' is not a rational number"),
        ("[[1, 2], [3], [4, 5]]", "ragged realization rows"),
    ],
)
def test_realization_from_json_rejects_malformed_documents(text, reason):
    with pytest.raises(ValueError) as err:
        Realization.from_json(text)
    assert type(err.value) is ValueError and str(err.value) == reason


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
    assert gamma.rank() == len(fraction_rref([list(c) for c in gamma.cols])[1])

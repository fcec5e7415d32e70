"""Reference implementations the tests check the package against, and the
helpers several test files share: random realizations, golden digests and
the configurations of criterion 6."""

import hashlib
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from bracketforge.config import Config, _point_line_graph, preset
from bracketforge.harness import in_circuit_variety, random_cactus
from bracketforge.lifting import LiftingError
from bracketforge.linalg import Realization, _integer_rows, _rank, cross, dot, vec3


def rand_realization(rng, d: int) -> Realization:
    """d columns of Fractions with numerators in -9..9 and denominators 1..3."""
    return Realization(
        tuple(vec3(*(Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(3)))
              for _ in range(d))
    )


# the configurations of acceptance criterion 6, on which the lifting
# verdicts are checked
CRITERION_6_CONFIGS = [
    preset("line:4"),
    preset("line:6"),
    preset("cycle:3:3"),
    preset("cycle:4:4"),
    random_cactus(0),
    random_cactus(1),
    random_cactus(2),
    preset("cactus14"),
    preset("pascal").delete({7}),
    preset("pappus").delete({1, 9}),
]


def random_simple_config(rng) -> Config:
    """A simple configuration on 3 to 10 points with up to 6 lines of 3 to 5
    points.  Each line is drawn up to 40 times, until it shares at most one
    point with every earlier line, so dense and non-nilpotent configurations
    come up too."""
    d = rng.randint(3, 10)
    lines: list[set[int]] = []
    for _ in range(rng.randint(0, 6)):
        for _ in range(40):
            line = set(rng.sample(range(1, d + 1), rng.randint(3, min(5, d))))
            if all(len(line & other) <= 1 for other in lines):
                lines.append(line)
                break
    return Config(d, lines)


def sha256_lines(lines: Iterable[str]) -> str:
    """The sha256 hex digest of the lines joined by newlines: how the golden
    digests of the tests are recorded."""
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def expanded_values(m, gamma: Realization, q=None) -> list:
    """Reference for LiftMatrix.evaluate: the expanded bracket polynomials of
    the liftability matrix m, each evaluated at gamma (and q)."""
    return [[p.eval(gamma, q) for p in row] for row in m.entries]


def subset_has_cycle_dfs(cfg: Config, subset: Iterable[int]) -> bool:
    """Independent cross-check of config.subset_has_cycle: a depth-first
    search of the same point-line incidence graph, which has a cycle iff the
    search meets an edge to a visited vertex other than the one it came from."""
    adj = _point_line_graph(cfg, subset)
    seen: set = set()
    for root in adj:
        if root in seen:
            continue
        seen.add(root)
        # (parent, vertex, unexplored neighbours) along the current path
        stack = [(None, root, iter(adj[root]))]
        while stack:
            parent, v, children = stack[-1]
            w = next(children, None)
            if w is None:
                stack.pop()
            elif w != parent:
                if w in seen:
                    return True
                seen.add(w)
                stack.append((v, w, iter(adj[w])))
    return False


def lines_through_scan(cfg: Config, p: int) -> tuple[tuple[int, ...], ...]:
    """Reference for Config.lines_through: every line holding p, in line order."""
    return tuple(l for l in cfg.lines if p in l)


def same_class(cfg: Config, p: int, q: int) -> bool:
    """Whether p and q lie in one parallel class of cfg."""
    return any(p in cls and q in cls for cls in cfg.parallel)


def dependency_signature_scan(cfg: Config) -> frozenset[frozenset[int]]:
    """Reference for Config.dependency_signature: the loops, the pairs of one
    parallel class, and every triple is_dependent_triple accepts."""
    sig: set[frozenset[int]] = {frozenset({p}) for p in cfg.loops}
    for p, q in combinations(cfg.nonloop_points, 2):
        if same_class(cfg, p, q):
            sig.add(frozenset({p, q}))
    for t in combinations(range(1, cfg.d + 1), 3):
        if cfg.is_dependent_triple(t):
            sig.add(frozenset(t))
    return frozenset(sig)


def fraction_rref(m):
    """Gauss-Jordan elimination with a Fraction division at every step: the
    reference the integer elimination must reproduce exactly."""
    a = [[Fraction(x) for x in row] for row in m]
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
        inv = Fraction(1, 1) / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def sparse_rows(a) -> list:
    """The dense integer rows a as the (column, value) pairs `linalg._rank`
    and `linalg._integer_kernel` read, zeros included: a pair with value 0
    must count as no nonzero."""
    return [list(enumerate(row)) for row in a]


def dense_rank(a) -> int:
    """`linalg._rank` of the dense integer rows a."""
    return _rank(sparse_rows(a), len(a[0]) if a else 0)


def peel(a) -> tuple[list, int]:
    """(core, rounds): the rows a column-owning peel of the dense rows a
    leaves, and how many rounds it takes.  Each round sets aside every
    nonzero row that is the only nonzero of some column."""
    live, rounds = [row for row in a if any(row)], 0
    while True:
        single = {c for c in range(len(a[0]) if a else 0)
                  if sum(1 for row in live if row[c]) == 1}
        if not single:
            return live, rounds
        live = [row for row in live if not any(row[c] for c in single)]
        rounds += 1


def two_scan_prologue(cfg: Config, gamma: Realization, q):
    """The single-q lifting prologue as two full scans, the reference for
    `lifting._check_lifting_input`: every circuit (`in_circuit_variety`),
    then q's general position against every point and every pair of every
    line.  Returns (q', s_q, rows) as the prologue does, the rows those of
    `frame_rows` for the frames (line, a, b, [a b q']), (a, b) the first
    pair of a line with [a b q'] != 0, or raises its LiftingError."""
    cfg._require_simple()
    if gamma.d != cfg.d:
        raise LiftingError("realization size does not match configuration")
    ok, witness = in_circuit_variety(cfg, gamma)
    if not ok:
        raise LiftingError(f"realization violates a circuit of the configuration: {witness}")
    (q_int,), (s_q,) = _integer_rows([q])
    cols = gamma._integer_view[0]
    by_q = [cross(v, q_int) for v in cols]
    general = any(q_int) and all(not any(g) or any(g_q) for g, g_q in zip(cols, by_q))
    for line in cfg.lines:
        for a, b in combinations(line, 2):
            if dot(cols[a - 1], by_q[b - 1]) == 0 and any(cross(cols[a - 1], cols[b - 1])):
                general = False
    if not general:
        raise LiftingError("q is not in general position for this realization")
    frames = []
    for line in cfg.lines:
        for a, b in combinations(line, 2):
            ab = dot(cols[a - 1], by_q[b - 1])
            if ab:
                frames.append((line, a, b, ab))
                break
    return q_int, s_q, frame_rows(gamma, by_q, frames)


def frame_rows(gamma: Realization, by_q, frames) -> list:
    """Reference for the frame rows of `lifting._scan_lifting_input`, built
    after the scan from the crosses by_q[v - 1] = cross(g_v, q') and the
    frames (line, a, b, [a b q']): per frame, the row of each circuit
    {a, b, c}, c any other point of the line, as three (0-based column,
    value) pairs [b c q'], [c a q'], [a b q'] in columns a, b, c, negated
    when a < c < b."""
    cols = gamma._integer_view[0]
    rows = []
    for line, a, b, ab in frames:
        g_b, a_q = cols[b - 1], by_q[a - 1]
        for c in line:
            if c != a and c != b:
                sign = -1 if a < c < b else 1
                rows.append((
                    (a - 1, sign * dot(g_b, by_q[c - 1])),
                    (b - 1, sign * dot(cols[c - 1], a_q)),
                    (c - 1, sign * ab),
                ))
    return rows


def fraction_kernel(m):
    """The kernel basis read off fraction_rref: one vector per free column."""
    a, pivots = fraction_rref(m)
    cols = len(m[0])
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][fc]
        basis.append(v)
    return basis

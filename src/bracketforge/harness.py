"""Fixture realizations, membership checks, replays, and decompositions.

Everything here is exact: realizations are rational, membership means
literal vanishing of determinants, and limit statements are checked through
monotone shrinking of exact differences at sample parameter values.  The
membership checks `in_circuit_variety` and `in_realization_space` run the
configuration's own checks (`Config.violated_dependency` and
`Config.violated_independence`) on a realization's integer columns.

Every sampler draws through `_retrying`: a draw is rejected only by raising
`FixtureError` (or the `DegenerateLineError` of `meet_lines`).  A rank-3
sample is accepted by one realization-space check, `_realization`; the
rank-2 `collinear_realization` and `quadrilateral_set_flat` check rank and
distinctness themselves, as that check there costs the benchmark's
lift-kernel its memory bound until its records are bounded (ROADMAP item 1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, partial
from itertools import combinations
from typing import Callable, Iterable, TypeVar

from .config import (
    Config,
    admissible_ordering,
    cactus_check,
    free_glue,
    preset,
    preset_name,
    q_points,
)
from .gc import gm_generators
from .lifting import q_general_position
from .linalg import (
    ZERO3,
    DegenerateLineError,
    Realization,
    Vec3,
    _integer_rows,
    _primitive,
    cross,
    det3,
    dot,
    meet_lines,
    proportional,
    vec3,
    vscale,
    vsub,
)


class FixtureError(RuntimeError):
    pass


RETRY_CAP = 100  # attempts a sampler makes before giving up


# ---------------------------------------------------------------------------
# Membership


def in_circuit_variety(cfg: Config, gamma: Realization):
    """(verdict, witness): every dependency of cfg holds at gamma.

    Checks zero loop columns, pairwise dependence inside parallel classes,
    and 3-circuits on gamma's integer columns (`Config.violated_dependency`);
    witness names the first violated dependency.
    """
    cols = gamma._integer_view[0]
    if len(cols) != cfg.d:
        raise FixtureError("realization size does not match configuration")
    witness = cfg.violated_dependency(cols)
    return witness is None, witness


def in_realization_space(cfg: Config, gamma: Realization):
    """(verdict, witness): dependencies of gamma match cfg exactly.

    Beyond in_circuit_variety this demands nonzero non-loop columns,
    independence across parallel classes, and nonzero determinant for every
    independent triple (every basis of the configuration):
    `Config.violated_independence`, checked once every dependency holds.
    """
    cols = gamma._integer_view[0]
    if len(cols) != cfg.d:
        raise FixtureError("realization size does not match configuration")
    witness = cfg.violated_dependency(cols) or cfg.violated_independence(cols)
    return witness is None, witness


# ---------------------------------------------------------------------------
# Fixtures


@dataclass
class Fixture:
    name: str
    cfg: Config
    sampler: Callable[[int], Realization]

    def samples(self, n: int, seed: int = 0) -> list[Realization]:
        return [self.sampler(seed + i) for i in range(n)]


def _rand_frac(rng: random.Random) -> Fraction:
    num = rng.randint(-12, 12)
    den = rng.randint(1, 12)
    return Fraction(num, den)


def _free(rng: random.Random) -> Vec3:
    """A generic point (1, a, b)."""
    return vec3(1, _rand_frac(rng), _rand_frac(rng))


def _on(a: Vec3, b: Vec3, t: Fraction) -> Vec3:
    """The point a + t*b of the line spanned by a and b."""
    return vec3(*(x + t * y for x, y in zip(a, b)))


def _realization(cfg: Config, cols: Iterable[Vec3]) -> Realization:
    """The realization with these columns, if it lies in cfg's realization
    space; raises FixtureError naming the first violation otherwise."""
    gamma = Realization(tuple(cols))
    ok, witness = in_realization_space(cfg, gamma)
    if not ok:
        raise FixtureError(f"parameters degenerate a basis minor: {witness}")
    return gamma


T = TypeVar("T")


def _retrying(make: Callable[[random.Random], T], seed: int) -> T:
    """The first draw make(rng) returns.  make rejects a draw by raising
    FixtureError or DegenerateLineError; any other exception propagates."""
    rng = random.Random(seed)
    for _ in range(RETRY_CAP):
        try:
            return make(rng)
        except (FixtureError, DegenerateLineError) as exc:
            reason = exc
    raise FixtureError(f"no valid sample found within the retry cap; last rejection: {reason}")


def pappus_realization(seed: int = 0) -> Realization:
    """Two random rational lines carrying the two point triples; the three
    cross-intersections are computed exactly, which forces the ninth line."""
    cfg = preset("pappus")

    def make(rng: random.Random) -> Realization:
        a1, a2, b1, b2 = (_free(rng) for _ in range(4))
        p1, p2, p3 = (_on(a1, a2, _rand_frac(rng)) for _ in range(3))
        p4, p5, p6 = (_on(b1, b2, _rand_frac(rng)) for _ in range(3))
        p7 = meet_lines(p1, p5, p2, p4)
        p8 = meet_lines(p1, p6, p3, p4)
        p9 = meet_lines(p2, p6, p3, p5)
        return _realization(cfg, (p1, p2, p3, p4, p5, p6, p7, p8, p9))

    return _retrying(make, seed)


def pascal_family(
    x: Fraction, y: Fraction, eta: Fraction, eps: Fraction, z: Fraction
) -> Realization:
    """Exact realization of the hexagon-with-meets configuration.

    The six hexagon points sit on the conic t -> (1, eps*t, eta*t^2) at
    parameters (0, x, y, z, x+y, x+y+z); the remaining three points are the
    pairwise meets 7 = 15^24, 8 = 16^34, 9 = 35^26.  All points degenerate
    to (1, 0, 0) as the parameters go to 0.  Raises if a basis minor of the
    configuration vanishes for these parameters.
    """
    cfg = preset("pascal")
    x, y, eta, eps, z = (Fraction(v) for v in (x, y, eta, eps, z))
    ts = [Fraction(0), x, y, z, x + y, x + y + z]
    p = {i + 1: vec3(1, eps * t, eta * t * t) for i, t in enumerate(ts)}
    try:
        p[7] = meet_lines(p[1], p[5], p[2], p[4])
        p[8] = meet_lines(p[1], p[6], p[3], p[4])
        p[9] = meet_lines(p[3], p[5], p[2], p[6])
    except ValueError as exc:
        raise FixtureError(f"degenerate parameters: {exc}")
    return _realization(cfg, (p[i] for i in range(1, 10)))


def pascal_family_sample(seed: int = 0) -> Realization:
    return _retrying(lambda rng: pascal_family(*(_rand_frac(rng) for _ in range(5))), seed)


# Columns of the 8-point family below are indexed, left to right, by the
# original labels (9, 4, 5, 6, 2, 3, 7, 8) of the configuration obtained by
# deleting point 1 of the hexagon-with-meets configuration; after the
# contiguous relabeling old -> old-1 used by Config.delete, column order by
# new label 1..8 is old (2, 3, 4, 5, 6, 7, 8, 9).
@cache
def pappus8_cfg() -> Config:
    """Built once: every pappus8_family sample checks its bases."""
    return preset("pascal").delete({1})


def pappus8_family(v: Fraction, z: Fraction, w: Fraction) -> Realization:
    v, z, w = Fraction(v), Fraction(z), Fraction(w)
    by_old = {
        9: vec3(1, 0, 0),
        4: vec3(0, 1, 0),
        5: vec3(0, 0, 1),
        6: vec3(1, 1, 1),
        2: vec3(1 + v, 1, 1),
        3: vec3(1, 0, w),
        7: vec3(1 + v, 1 + z, 1),
        8: vec3(1, w + z * w, w),
    }
    return _realization(pappus8_cfg(), (by_old[old] for old in range(2, 10)))


def xi_limit_config() -> Config:
    """The degenerate configuration the 8-point family converges to:
    old points 2, 3, 9 form a parallel class and old {2,4,7,8} are on one
    line with old 5 and 6 outside it (labels contiguous after old -> old-1)."""
    return Config(
        8,
        lines=[(1, 3, 6, 7)],
        parallel=[(1, 2, 8)],
    )


def xi_family(x: Fraction, y: Fraction) -> Realization:
    x, y = Fraction(x), Fraction(y)
    by_old = {
        9: vec3(1, 0, 0),
        4: vec3(0, 1, 0),
        5: vec3(0, 0, 1),
        6: vec3(1, 1, 1),
        2: vec3(1, 0, 0),
        3: vec3(1, 0, 0),
        7: vec3(1, x, 0),
        8: vec3(1, y, 0),
    }
    return Realization(tuple(by_old[old] for old in range(2, 10)))


def family_limit_check(x: Fraction, y: Fraction):
    """The 8-point family converges to the xi collection entry-wise.

    Substituting 1 + v = 1/eps, w = eps*y/x, 1 + z = x/eps and rescaling the
    two unbounded columns (old labels 2 and 7) by eps, the exact entry-wise
    distance to xi must shrink monotonically along eps = 1/10, 1/100, 1/1000.
    """
    x, y = Fraction(x), Fraction(y)
    target = xi_family(x, y)
    dists = []
    for eps in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)):
        v = Fraction(1) / eps - 1
        w = eps * y / x
        z = x / eps - 1
        gamma = pappus8_family(v, z, w)
        cols = list(gamma.cols)
        for old in (2, 7):
            idx = old - 2  # column order is old labels 2..9
            cols[idx] = vscale(eps, cols[idx])
        dist = sum(
            abs(a - b)
            for col_g, col_t in zip(cols, target.cols)
            for a, b in zip(col_g, col_t)
        )
        dists.append(dist)
    shrinking = all(d1 > d2 for d1, d2 in zip(dists, dists[1:]))
    return shrinking, dists


# ---------------------------------------------------------------------------
# Counterexample replay

_COUNTEREXAMPLE_COLUMNS = {
    4: (1, 0, 0),
    5: (0, 1, 0),
    6: (0, 0, 1),
    7: (1, 1, 1),
    8: (1, 2, 3),
    9: (1, 4, 8),
    10: (1, 5, 7),
    11: (1, 6, 10),
    12: (1, 7, 12),
    13: (1, 9, 21),
    14: (1, 8, 17),
    1: (0, 0, 0),
    2: (0, 0, 0),
    3: (0, 0, 0),
}


def counterexample_realization() -> Realization:
    return Realization(tuple(vec3(*_COUNTEREXAMPLE_COLUMNS[i]) for i in range(1, 15)))


def _representative(v: Vec3) -> tuple[int, ...]:
    """Integer representative of a projective point: the primitive integer
    vector on its line whose first nonzero coordinate is positive."""
    (ints,), _ = _integer_rows([v])
    ints = _primitive(ints)
    sign = -1 if next((c for c in ints if c), 0) < 0 else 1
    return tuple(sign * c for c in ints)


@dataclass
class ReplayReport:
    l1: Vec3
    l3: Vec3
    l2: Vec3
    det_exact_representatives: Fraction
    det_raw: Fraction
    in_circuit_variety: bool
    gm_vanishing: dict

    def ok(self) -> bool:
        return (
            proportional(self.l1, vec3(1, Fraction(13, 3), Fraction(23, 3)))
            and proportional(self.l3, vec3(1, Fraction(13, 3), Fraction(20, 3)))
            and proportional(self.l2, vec3(1, Fraction(65, 12), Fraction(80, 12)))
            and self.det_exact_representatives == -455
            and self.in_circuit_variety
        )


def replay_cactus_counterexample(check_gm_depth: int = 1) -> ReplayReport:
    """Re-run the step-by-step meet computation showing that the 14-point
    triangle cactus collection cannot be approximated inside the matroid
    variety: the forced limit positions of the three zero points violate the
    line {1,2,4}."""
    cfg = preset("cactus14")
    gamma = counterexample_realization()
    g = gamma.col
    l1 = meet_lines(g(9), g(10), g(7), g(8))
    l3 = meet_lines(l1, g(6), g(11), g(12))
    l2 = meet_lines(l3, g(5), g(13), g(14))
    raw = det3(l1, l2, g(4))
    rep = det3(
        tuple(map(Fraction, _representative(l1))),
        tuple(map(Fraction, _representative(l2))),
        g(4),
    )
    ok, _ = in_circuit_variety(cfg, gamma)
    gens = gm_generators(cfg, check_gm_depth)
    nonzero = [i for i, c in enumerate(gens) if c.eval(gamma) != 0]
    gm_report = {"generators": len(gens), "nonvanishing": nonzero}
    return ReplayReport(l1, l3, l2, rep, raw, ok, gm_report)


# ---------------------------------------------------------------------------
# Decomposition reports


@dataclass
class DecompComponent:
    kind: str
    description: str
    cfg: Config


@dataclass
class DecompReport:
    preset: str
    components: list[DecompComponent]
    upper_bound_only: bool = False

    @property
    def count(self) -> int:
        return len(self.components)


def _pascal_components(m: Config) -> list[DecompComponent]:
    return [
        DecompComponent("V_M(i)", f"point {i} made a loop", m.make_loops({i})) for i in (7, 8, 9)
    ]


def _pappus_components(m: Config) -> list[DecompComponent]:
    triples = ((1, 4, 9), (2, 5, 8), (3, 6, 7))
    comps = []
    for p in m.points:
        loops_cfg = m.make_loops({p})
        for t in (t for t in triples if p not in t):
            added = replace(loops_cfg, lines=loops_cfg.lines + (t,))
            comps.append(DecompComponent("V_I", f"loop {p} plus added circuit {set(t)}", added))
    comps += [DecompComponent("V_J", f"loops on {set(t)}", m.make_loops(set(t))) for t in triples]
    comps += [
        DecompComponent("V_pi", f"point {i} made a loop", m.make_loops({i})) for i in m.points
    ]
    return comps


# preset -> the published components of its variety besides V_M and V_U29,
# transcribed: no rule in the package derives them
PRESET_DECOMPOSITIONS = {"pascal": _pascal_components, "pappus": _pappus_components}


def decomposition_report(cfg: Config) -> DecompReport:
    """The published decomposition of a PRESET_DECOMPOSITIONS configuration
    (`preset_name`), or the upper bound of a cactus configuration."""
    name = preset_name(cfg)
    if name in PRESET_DECOMPOSITIONS:
        comps = [
            DecompComponent("V_M", "the configuration itself", cfg),
            DecompComponent("V_U29", "all nine points on one line", preset("line:9")),
        ]
        return DecompReport(name, comps + PRESET_DECOMPOSITIONS[name](cfg))
    if not cactus_check(cfg).is_cactus:
        raise FixtureError("not a cactus configuration")
    qm = sorted(q_points(cfg))
    comps = [
        DecompComponent(
            "V_M(J)", f"loops on {set(j) if j else 'no points'}", cfg.make_loops(set(j))
        )
        for r in range(len(qm) + 1)
        for j in combinations(qm, r)
    ]
    return DecompReport("cactus", comps, upper_bound_only=True)


def components_distinct(report: DecompReport) -> bool:
    """All components have pairwise distinct dependency data.

    Variety-level non-containment is not decidable from the descriptors
    alone (adding a loop enlarges the dependency signature while cutting out
    a different irreducible component), so distinctness is what we check.
    """
    sigs = [c.cfg.dependency_signature() for c in report.components]
    return len(set(sigs)) == len(sigs)


# ---------------------------------------------------------------------------
# Cactus realizations


def cactus_realization(cfg: Config, seed: int = 0) -> Realization:
    """Generic rational realization of a cactus configuration.

    Points are placed along an admissible ordering: weight-0 points get
    generic positions, weight-1 points get generic positions on the span of
    their one constraining line; membership in the realization space, which
    also fixes the rank, is verified exactly afterwards and the construction
    retries with fresh randomness on failure.
    """
    report = cactus_check(cfg)
    if not report.is_cactus:
        raise FixtureError("not a cactus configuration")
    ordering = admissible_ordering(cfg)
    if ordering is None:
        raise FixtureError("cactus configuration should be nilpotent")

    def attempt(rng: random.Random) -> Realization:
        placed: dict[int, Vec3] = {}
        for p in ordering.perm:
            constraining = None
            for l in cfg.lines_through(p):
                earlier = [x for x in l if x in placed]
                if len(earlier) >= 2:
                    constraining = earlier
                    break
            if constraining is None:
                placed[p] = _free(rng)
            else:
                a, b = placed[constraining[0]], placed[constraining[1]]
                placed[p] = _on(a, b, _rand_frac(rng))
        return _realization(cfg, (placed[i] for i in range(1, cfg.d + 1)))

    return _retrying(attempt, seed)


def _complete_quadrilateral(rng: random.Random) -> Realization:
    """The six pairwise intersection points of four generic lines, labelled
    to match the "qs" preset's circuits; raises FixtureError if the sample
    degenerates."""
    lines = [vec3(*(_rand_frac(rng) for _ in range(3))) for _ in range(4)]

    def pt(i: int, j: int) -> Vec3:
        return cross(lines[i], lines[j])

    # point 1 = L1^L2, 2 = L1^L3, 3 = L1^L4, 4 = L3^L4, 5 = L2^L4, 6 = L2^L3
    return _realization(
        preset("qs"), (pt(0, 1), pt(0, 2), pt(0, 3), pt(2, 3), pt(1, 3), pt(1, 2))
    )


def qs_realization(seed: int = 0) -> Realization:
    """A generic rank-3 realization of the complete quadrilateral."""
    return _retrying(_complete_quadrilateral, seed)


def _flat_quadrilateral(rng: random.Random) -> Realization:
    """A complete quadrilateral projected from a generic center onto the
    generic plane h = 0; raises FixtureError if the sample degenerates."""
    cols = _complete_quadrilateral(rng).cols
    center = vec3(*(_rand_frac(rng) for _ in range(3)))
    h = tuple(_rand_frac(rng) for _ in range(3))
    hc = dot(h, center)
    if hc == 0:
        raise FixtureError("the center lies on the image line")
    flat = Realization(tuple(vsub(vscale(hc, v), vscale(dot(h, v), center)) for v in cols))
    # every image lies in the plane h = 0, so distinct points give rank 2
    if any(not any(cross(a, b)) for a, b in combinations(flat.cols, 2)):
        raise FixtureError("two projected points coincide")
    return flat


def quadrilateral_set_flat(seed: int = 0) -> Realization:
    """A rank-2 quadrilateral set: the section of a complete quadrilateral.

    Realizes the six vertices of four generic lines (labels matching the
    "qs" preset's circuits) and projects them from a generic center onto a
    generic line.  The image satisfies every circuit, spans only a plane of
    vectors, and is liftable back to the original by construction.
    """
    return _retrying(_flat_quadrilateral, seed)


def collinear_realization(cfg: Config, seed: int = 0) -> Realization:
    """Generic distinct nonzero collinear points (a rank-2 collection that
    satisfies every 3-circuit trivially)."""

    def attempt(rng: random.Random) -> Realization:
        a = _free(rng)
        b = vec3(0, 1, _rand_frac(rng))
        gamma = Realization(tuple(_on(a, b, _rand_frac(rng)) for _ in range(cfg.d)))
        if gamma.rank() != 2:
            raise FixtureError("the points do not span a line")
        for i, j in combinations(range(1, cfg.d + 1), 2):
            if cross(gamma.col(i), gamma.col(j)) == ZERO3:
                raise FixtureError(f"points {i},{j} coincide")
        return gamma

    return _retrying(attempt, seed)


def generic_q(gamma: Realization, seed: int, cfg: Config) -> Vec3:
    """A rational q in general position for gamma, which must realize the
    simple configuration cfg in its circuit variety.  Otherwise the first
    draw raises the error of the single-q verdicts
    (`lifting.q_general_position`), such as a LiftingError naming the first
    violated circuit."""

    def make(rng: random.Random) -> Vec3:
        q = vec3(_rand_frac(rng), _rand_frac(rng), 1 + _rand_frac(rng))
        if not q_general_position(cfg, gamma, q):
            raise FixtureError("q is not in general position")
        return q

    return _retrying(make, seed)


# ---------------------------------------------------------------------------
# Random cacti


def random_cactus(seed: int, blocks: int = 3) -> Config:
    """A random glue-tree of lines and cycles."""
    rng = random.Random(seed)

    def random_block() -> Config:
        if rng.random() < 0.5:
            return preset(f"line:{rng.randint(3, 5)}")
        return preset(f"cycle:{rng.randint(3, 4)}:{rng.randint(3, 4)}")

    def safe_sites(c: Config) -> list[int]:
        # Gluing at p raises deg(p) to >= 2.  Keep every line at no more than
        # two degree->=2 points, so each block of the incidence graph stays a
        # single edge or an untouched cycle.
        out = []
        for p in c.points:
            if all(
                sum(1 for x in l if x != p and c.degree(x) >= 2) <= 1
                for l in c.lines_through(p)
            ):
                out.append(p)
        return out

    cfg = random_block()
    for _ in range(blocks - 1):
        nxt = random_block()
        p = rng.choice(safe_sites(cfg))
        q = rng.choice(safe_sites(nxt))
        cfg = free_glue(cfg, nxt, p, q)
    return cfg


def fixtures() -> list[Fixture]:
    # one Config per cactus fixture, shared with its sampler (and its bases() cache)
    cactus14 = preset("cactus14")
    triangle = preset("cycle:3:3")
    return [
        Fixture("pappus", preset("pappus"), pappus_realization),
        Fixture("pascal", preset("pascal"), pascal_family_sample),
        Fixture("cactus14", cactus14, partial(cactus_realization, cactus14)),
        Fixture("triangle-cycle", triangle, partial(cactus_realization, triangle)),
    ]

"""Fixture realizations, membership checks, replays, and decompositions.

Everything here is exact: realizations are rational, membership means
literal vanishing of determinants, and limit statements are checked through
monotone shrinking of exact differences at sample parameter values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Callable, Optional, TypeVar

from .config import Config, admissible_ordering, cactus_check, free_glue, preset, q_points
from .gc import gm_generators
from .linalg import (
    ZERO3,
    Realization,
    Vec3,
    _integer_rows,
    cross,
    det3,
    meet_lines,
    normalize_projective,
    proportional,
    vec3,
)


class FixtureError(RuntimeError):
    pass


RETRY_CAP = 100  # attempts a sampler makes before giving up


# ---------------------------------------------------------------------------
# Membership


def _circuit_witness(cfg: Config, gamma: Realization) -> Optional[str]:
    """The first dependency of cfg violated by gamma, or None.

    Reads gamma's integer columns: a nonzero multiple of a column keeps the
    zero pattern of every cross product and determinant."""
    if gamma.d != cfg.d:
        raise FixtureError("realization size does not match configuration")
    cols = gamma._integer_view[0]
    for p in sorted(cfg.loops):
        if any(cols[p - 1]):
            return f"loop {p} is nonzero"
    for cls in cfg.parallel:
        for a, b in combinations(cls, 2):
            if any(cross(cols[a - 1], cols[b - 1])):
                return f"parallel pair {{{a},{b}}} is independent"
    for c in sorted(cfg.circuits3() if cfg.is_simple() else _dependent_triples(cfg), key=sorted):
        a, b, d = sorted(c)
        if det3(cols[a - 1], cols[b - 1], cols[d - 1]) != 0:
            return f"circuit {{{a},{b},{d}}} has nonzero determinant"
    return None


def in_circuit_variety(cfg: Config, gamma: Realization):
    """(verdict, witness): every dependency of cfg holds at gamma.

    Checks 3-circuits, zero loop columns, and pairwise dependence inside
    parallel classes; witness names the first violated dependency.
    """
    witness = _circuit_witness(cfg, gamma)
    return witness is None, witness


def _dependent_triples(cfg: Config):
    return [t for t in cfg.dependency_signature() if len(t) == 3]


def in_realization_space(cfg: Config, gamma: Realization):
    """(verdict, witness): dependencies of gamma match cfg exactly.

    Beyond in_circuit_variety this demands nonzero non-loop columns,
    independence across parallel classes, and nonzero determinant for every
    independent triple (every basis of the configuration).
    """
    witness = _circuit_witness(cfg, gamma)
    if witness is not None:
        return False, witness
    cols = gamma._integer_view[0]
    for p in cfg.nonloop_points:
        if not any(cols[p - 1]):
            return False, f"non-loop point {p} is the zero vector"
    rep = cfg._parallel_rep_map()
    for a, b in combinations(cfg.nonloop_points, 2):
        if rep[a] != rep[b] and not any(cross(cols[a - 1], cols[b - 1])):
            return False, f"points {a},{b} coincide but are not parallel"
    for t in cfg.bases():
        if det3(*(cols[p - 1] for p in t)) == 0:
            return False, f"basis {set(t)} is dependent"
    return True, None


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


T = TypeVar("T")


def _retrying(make: Callable[[random.Random], Optional[T]], seed: int) -> T:
    """The first draw make(rng) accepts; make returns None to reject one."""
    rng = random.Random(seed)
    for _ in range(RETRY_CAP):
        draw = make(rng)
        if draw is not None:
            return draw
    raise FixtureError("no valid sample found within the retry cap")


def pappus_realization(seed: int = 0) -> Realization:
    """Two random rational lines carrying the two point triples; the three
    cross-intersections are computed exactly, which forces the ninth line."""
    cfg = preset("pappus")

    def make(rng: random.Random) -> Optional[Realization]:
        a1 = vec3(1, _rand_frac(rng), _rand_frac(rng))
        a2 = vec3(1, _rand_frac(rng), _rand_frac(rng))
        b1 = vec3(1, _rand_frac(rng), _rand_frac(rng))
        b2 = vec3(1, _rand_frac(rng), _rand_frac(rng))

        def on(u, v, t: Fraction) -> Vec3:
            return vec3(u[0] + t * v[0], u[1] + t * v[1], u[2] + t * v[2])

        t1, t2, t3 = (_rand_frac(rng) for _ in range(3))
        s1, s2, s3 = (_rand_frac(rng) for _ in range(3))
        p = {}
        p[1], p[2], p[3] = on(a1, a2, t1), on(a1, a2, t2), on(a1, a2, t3)
        p[4], p[5], p[6] = on(b1, b2, s1), on(b1, b2, s2), on(b1, b2, s3)
        try:
            p[7] = meet_lines(p[1], p[5], p[2], p[4])
            p[8] = meet_lines(p[1], p[6], p[3], p[4])
            p[9] = meet_lines(p[2], p[6], p[3], p[5])
        except ValueError:
            return None
        gamma = Realization(tuple(p[i] for i in range(1, 10)))
        return gamma if in_realization_space(cfg, gamma)[0] else None

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
    gamma = Realization(tuple(p[i] for i in range(1, 10)))
    ok, witness = in_realization_space(cfg, gamma)
    if not ok:
        raise FixtureError(f"parameters degenerate a basis minor: {witness}")
    return gamma


def pascal_family_sample(seed: int = 0) -> Realization:
    def attempt(rng: random.Random) -> Optional[Realization]:
        try:
            return pascal_family(
                _rand_frac(rng), _rand_frac(rng), _rand_frac(rng), _rand_frac(rng), _rand_frac(rng)
            )
        except FixtureError:
            return None

    return _retrying(attempt, seed)


# Columns of the 8-point family below are indexed, left to right, by the
# original labels (9, 4, 5, 6, 2, 3, 7, 8) of the configuration obtained by
# deleting point 1 of the hexagon-with-meets configuration; after the
# contiguous relabeling old -> old-1 used by Config.delete, column order by
# new label 1..8 is old (2, 3, 4, 5, 6, 7, 8, 9).
def pappus8_cfg() -> Config:
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
    gamma = Realization(tuple(by_old[old] for old in range(2, 10)))
    cfg = pappus8_cfg()
    ok, witness = in_realization_space(cfg, gamma)
    if not ok:
        raise FixtureError(f"parameters degenerate a basis minor: {witness}")
    return gamma


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
            cols[idx] = vec3(*(eps * c for c in cols[idx]))
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


def _primitive(v: Vec3) -> tuple[int, ...]:
    """Integer representative of a projective point, first coordinate > 0."""
    (ints,), _ = _integer_rows([normalize_projective(v)])
    g = gcd(*ints) or 1
    return tuple(c // g for c in ints)


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
        tuple(map(Fraction, _primitive(l1))),
        tuple(map(Fraction, _primitive(l2))),
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


def decomposition_report(name: str, cfg: Optional[Config] = None) -> DecompReport:
    if name == "pascal":
        m = preset("pascal")
        comps = [
            DecompComponent("V_M", "the configuration itself", m),
            DecompComponent("V_U29", "all nine points on one line", preset("line:9")),
        ]
        for i in (7, 8, 9):
            comps.append(
                DecompComponent("V_M(i)", f"point {i} made a loop", m.make_loops({i}))
            )
        return DecompReport("pascal", comps)
    if name == "pappus":
        m = preset("pappus")
        comps = [
            DecompComponent("V_M", "the configuration itself", m),
            DecompComponent("V_U29", "all nine points on one line", preset("line:9")),
        ]
        triples = ((1, 4, 9), (2, 5, 8), (3, 6, 7))
        for p in m.points:
            for t in triples:
                if p in t:
                    continue
                loops_cfg = m.make_loops({p})
                with_circuit = Config(
                    loops_cfg.d,
                    loops_cfg.lines + (t,),
                    loops_cfg.loops,
                    loops_cfg.parallel,
                )
                comps.append(
                    DecompComponent(
                        "V_I", f"loop {p} plus added circuit {set(t)}", with_circuit
                    )
                )
        for t in triples:
            comps.append(
                DecompComponent("V_J", f"loops on {set(t)}", m.make_loops(set(t)))
            )
        for i in m.points:
            comps.append(
                DecompComponent("V_pi", f"point {i} made a loop", m.make_loops({i}))
            )
        return DecompReport("pappus", comps)
    if name == "cactus":
        if cfg is None:
            raise FixtureError("cactus decomposition needs a configuration")
        if not cactus_check(cfg).is_cactus:
            raise FixtureError("not a cactus configuration")
        qm = sorted(q_points(cfg))
        comps = []
        for r in range(len(qm) + 1):
            for j in combinations(qm, r):
                comps.append(
                    DecompComponent(
                        "V_M(J)",
                        f"loops on {set(j) if j else 'no points'}",
                        cfg.make_loops(set(j)),
                    )
                )
        return DecompReport("cactus", comps, upper_bound_only=True)
    raise FixtureError(f"unknown decomposition preset {name!r}")


def components_distinct(report: DecompReport) -> bool:
    """All components have pairwise distinct dependency data.

    Variety-level non-containment is not decidable from the descriptors
    alone (adding a loop enlarges the dependency signature while cutting out
    a different irreducible component), so distinctness is what we check.
    """
    sigs = [(c.cfg.loops, c.cfg.dependency_signature()) for c in report.components]
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

    def attempt(rng: random.Random) -> Optional[Realization]:
        placed: dict[int, Vec3] = {}
        for p in ordering.perm:
            constraining = None
            for l in cfg.lines_through(p):
                earlier = [x for x in l if x in placed]
                if len(earlier) >= 2:
                    constraining = earlier
                    break
            if constraining is None:
                placed[p] = vec3(1, _rand_frac(rng), _rand_frac(rng))
            else:
                a, b = placed[constraining[0]], placed[constraining[1]]
                t = _rand_frac(rng)
                placed[p] = vec3(*(x + t * y for x, y in zip(a, b)))
        gamma = Realization(tuple(placed[i] for i in range(1, cfg.d + 1)))
        return gamma if in_realization_space(cfg, gamma)[0] else None

    return _retrying(attempt, seed)


def _complete_quadrilateral(rng: random.Random) -> Optional[Realization]:
    """The six pairwise intersection points of four generic lines, labelled
    to match the "qs" preset's circuits; None if the sample degenerates."""
    cfg = preset("qs")
    lines = [vec3(*(_rand_frac(rng) for _ in range(3))) for _ in range(4)]

    def pt(i: int, j: int) -> Vec3:
        return cross(lines[i], lines[j])

    # point 1 = L1^L2, 2 = L1^L3, 3 = L1^L4, 4 = L3^L4, 5 = L2^L4, 6 = L2^L3
    full = Realization((pt(0, 1), pt(0, 2), pt(0, 3), pt(2, 3), pt(1, 3), pt(1, 2)))
    return full if in_realization_space(cfg, full)[0] else None


def qs_realization(seed: int = 0) -> Realization:
    """A generic rank-3 realization of the complete quadrilateral."""
    return _retrying(_complete_quadrilateral, seed)


def quadrilateral_set_flat(seed: int = 0) -> Realization:
    """A rank-2 quadrilateral set: the section of a complete quadrilateral.

    Realizes the six vertices of four generic lines (labels matching the
    "qs" preset's circuits) and projects them from a generic center onto a
    generic line.  The image satisfies every circuit, spans only a plane of
    vectors, and is liftable back to the original by construction.
    """
    def attempt(rng: random.Random) -> Optional[Realization]:
        full = _complete_quadrilateral(rng)
        if full is None:
            return None
        cols = full.cols
        center = vec3(*(_rand_frac(rng) for _ in range(3)))
        h = tuple(_rand_frac(rng) for _ in range(3))

        def form(v: Vec3) -> Fraction:
            return sum(a * b for a, b in zip(h, v))

        if form(center) == 0:
            return None
        flat = Realization(
            tuple(
                vec3(*(form(center) * v[r] - form(v) * center[r] for r in range(3)))
                for v in cols
            )
        )
        if flat.rank() != 2 or len(set(flat.cols)) != 6:
            return None
        return flat

    return _retrying(attempt, seed)


def collinear_realization(cfg: Config, seed: int = 0) -> Realization:
    """Generic distinct nonzero collinear points (a rank-2 collection that
    satisfies every 3-circuit trivially)."""

    def attempt(rng: random.Random) -> Optional[Realization]:
        a = vec3(1, _rand_frac(rng), _rand_frac(rng))
        b = vec3(0, 1, _rand_frac(rng))
        cols = []
        for _ in range(cfg.d):
            t = _rand_frac(rng)
            cols.append(vec3(*(x + t * y for x, y in zip(a, b))))
        gamma = Realization(tuple(cols))
        if gamma.rank() != 2:
            return None
        for i, j in combinations(range(1, cfg.d + 1), 2):
            if cross(gamma.col(i), gamma.col(j)) == ZERO3:
                return None
        return gamma

    return _retrying(attempt, seed)


def generic_q(gamma: Realization, seed: int, cfg: Config) -> Vec3:
    """A rational q in general position for cfg realized by gamma."""
    from .lifting import q_general_position

    def make(rng: random.Random) -> Optional[Vec3]:
        q = vec3(_rand_frac(rng), _rand_frac(rng), 1 + _rand_frac(rng))
        return q if q_general_position(cfg, gamma, q) else None

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
    out = [
        Fixture("pappus", preset("pappus"), pappus_realization),
        Fixture("pascal", preset("pascal"), pascal_family_sample),
        Fixture(
            "cactus14",
            preset("cactus14"),
            lambda s: cactus_realization(preset("cactus14"), s),
        ),
        Fixture(
            "triangle-cycle",
            Config(6, [(1, 2, 4), (2, 3, 5), (1, 3, 6)]),
            lambda s: cactus_realization(Config(6, [(1, 2, 4), (2, 3, 5), (1, 3, 6)]), s),
        ),
    ]
    return out

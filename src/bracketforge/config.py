"""Rank-three point-line configurations and their combinatorics.

A configuration is a simple-or-not rank-<=3 matroid given by its ground set
1..d, its lines (maximal collinear sets of >= 3 points), its loops, and its
parallel classes. All operations are pure; Config instances are immutable.
"""

from __future__ import annotations

import heapq
import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from typing import Iterable, Iterator, Optional


class ConfigError(ValueError):
    pass


def _canon_lines(lines: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(tuple(sorted(set(l))) for l in lines))


@dataclass(frozen=True)
class Config:
    """A point-line configuration on ground set {1, ..., d}."""

    d: int
    lines: tuple[tuple[int, ...], ...]
    loops: frozenset[int] = frozenset()
    parallel: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "lines", _canon_lines(self.lines))
        object.__setattr__(self, "loops", frozenset(self.loops))
        par = tuple(sorted(tuple(sorted(set(c))) for c in self.parallel if len(set(c)) > 1))
        object.__setattr__(self, "parallel", par)
        self._validate()

    def _validate(self):
        ground = set(range(1, self.d + 1))
        if not self.loops <= ground:
            raise ConfigError("loop labels outside ground set")
        covered: set[int] = set()
        for cls in self.parallel:
            if not set(cls) <= ground - self.loops:
                raise ConfigError("parallel class outside non-loop points")
            if covered & set(cls):
                raise ConfigError("parallel classes must be disjoint")
            covered |= set(cls)
        for l in self.lines:
            if len(l) < 3:
                raise ConfigError(f"line {l} has fewer than 3 points")
            if not set(l) <= ground - self.loops:
                raise ConfigError(f"line {l} not within non-loop points")
        # each point's parallel-class representative, and the lines through
        # the representatives: dependence is decided on these
        rep = {p: p for p in ground}
        for cls in self.parallel:
            for p in cls:
                rep[p] = cls[0]
        collapsed = tuple(frozenset(rep[p] for p in l) for l in self.lines)
        object.__setattr__(self, "_rep", rep)
        object.__setattr__(self, "_collapsed", collapsed)
        # two lines share two collapsed points iff they share a pair of points
        # that each lie on two lines; the first offending (i, j) is the least
        # (first line through a pair, second line through it)
        degree = Counter(p for line in collapsed for p in line)
        first: dict[tuple[int, int], int] = {}
        shared = None
        for j, line in enumerate(collapsed):
            for pair in combinations(sorted(p for p in line if degree[p] > 1), 2):
                i = first.setdefault(pair, j)
                if i != j and (shared is None or (i, j) < shared):
                    shared = (i, j)
        if shared is not None:
            i, j = shared
            raise ConfigError(
                f"lines {self.lines[i]} and {self.lines[j]} share more than one point"
            )
        # now a line lies in another only if its points collapse to one
        for i, line in enumerate(self.lines):
            if len(collapsed[i]) == 1 and any(
                j != i and set(line) <= set(b) for j, b in enumerate(self.lines)
            ):
                raise ConfigError("no line may contain another")

    # -- basic queries -----------------------------------------------------

    @property
    def points(self) -> tuple[int, ...]:
        return tuple(range(1, self.d + 1))

    @property
    def nonloop_points(self) -> tuple[int, ...]:
        return tuple(p for p in self.points if p not in self.loops)

    def is_simple(self) -> bool:
        return not self.loops and not self.parallel

    @cached_property
    def _incidence(self) -> dict[int, list[int]]:
        """Each label 1..d -> the indices of the lines through it, in line order."""
        through: dict[int, list[int]] = {p: [] for p in self.points}
        for i, l in enumerate(self.lines):
            for p in l:
                through[p].append(i)
        return through

    def lines_through(self, p: int) -> tuple[tuple[int, ...], ...]:
        return tuple(self.lines[i] for i in self._incidence.get(p, ()))

    def degree(self, p: int) -> int:
        if not 1 <= p <= self.d:
            raise ConfigError(f"point {p} outside ground set")
        if p in self.loops:
            raise ConfigError(f"point {p} is a loop and has no degree")
        return len(self._incidence[p])

    # -- dependencies ------------------------------------------------------

    def circuits3(self) -> tuple[tuple[int, int, int], ...]:
        """All 3-circuits as sorted triples, in lexicographic order.

        A 3-circuit is three points of distinct parallel classes whose
        representatives lie on one line; in a simple configuration, a 3-subset
        of a line.  Every other dependent triple holds a loop or two points
        of one class.
        """
        return self._circuits3

    @cached_property
    def _circuits3(self) -> tuple[tuple[int, int, int], ...]:
        members: dict[int, list[int]] = defaultdict(list)
        for p in self.nonloop_points:
            members[self._rep[p]].append(p)
        return tuple(sorted(
            tuple(sorted(t))
            for line in self._collapsed
            for reps in combinations(sorted(line), 3)
            for t in product(*(members[r] for r in reps))
        ))

    def is_dependent_triple(self, t: Iterable[int]) -> bool:
        t = set(t)
        if t & self.loops:
            return True
        reps = {self._rep[p] for p in t}
        return len(reps) < len(t) or any(reps <= l for l in self._collapsed)

    def bases(self) -> tuple[tuple[int, int, int], ...]:
        """All independent 3-subsets of the ground set, in lexicographic order.

        Computed on the first call and kept, like circuits3(): membership
        checks ask for them on every realization.
        """
        return self._bases

    @cached_property
    def _bases(self) -> tuple[tuple[int, int, int], ...]:
        triples = combinations(self.points, 3)
        return tuple(t for t in triples if not self.is_dependent_triple(t))

    def dependency_signature(self) -> frozenset[frozenset[int]]:
        """All dependent subsets of size <= 3 (determines all dependencies)."""
        sig: set[frozenset[int]] = {frozenset({p}) for p in self.loops}
        rep = self._rep
        for p, q in combinations(self.nonloop_points, 2):
            if rep[p] == rep[q]:
                sig.add(frozenset({p, q}))
        bases = set(self.bases())
        sig.update(frozenset(t) for t in combinations(self.points, 3) if t not in bases)
        return frozenset(sig)

    def _require_simple(self):
        if not self.is_simple():
            raise ConfigError("requires simple configuration")

    # -- constructions -----------------------------------------------------

    def _cut(self, label: dict[int, int], d: int, loops: Iterable[int]) -> "Config":
        """The configuration on 1..d with the given loops whose lines and
        parallel classes are this one's, cut down to the points `label` maps
        and relabeled through it."""
        lines = (tuple(label[p] for p in l if p in label) for l in self.lines)
        # a class left with one point is dropped by __post_init__
        par = [tuple(label[p] for p in cls if p in label) for cls in self.parallel]
        return Config(d, [l for l in lines if len(l) >= 3], loops, par)

    def restrict(self, subset: Iterable[int]) -> "Config":
        """Restriction to `subset`, relabeled to 1..|subset| in label order."""
        keep = sorted(set(subset))
        if not set(keep) <= set(self.points):
            raise ConfigError("restriction set outside ground set")
        relabel = {p: i + 1 for i, p in enumerate(keep)}
        return self._cut(relabel, len(keep), (relabel[p] for p in self.loops if p in relabel))

    def delete(self, subset: Iterable[int]) -> "Config":
        return self.restrict(set(self.points) - set(subset))

    def make_loops(self, subset: Iterable[int]) -> "Config":
        """Turn the points of `subset` into loops, keeping d fixed."""
        j = set(subset)
        if not j <= set(self.points):
            raise ConfigError("loop set outside ground set")
        return self._cut({p: p for p in self.points if p not in j}, self.d, self.loops | j)

    def simplification_labels(self) -> list[int]:
        """Non-loop parallel-class representatives, in label order."""
        return sorted({self._rep[p] for p in self.nonloop_points})

    def to_json(self) -> str:
        return json.dumps(
            {
                "d": self.d,
                "lines": [list(l) for l in self.lines],
                "loops": sorted(self.loops),
                "parallel": [list(c) for c in self.parallel],
            }
        )

    @staticmethod
    def from_json(text: str) -> "Config":
        """Parse the to_json format; any malformed document is a ConfigError."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"configuration is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("configuration must be a JSON object")
        for key in data:
            if key not in ("d", "lines", "loops", "parallel"):
                raise ConfigError(f"unknown configuration key {key!r}")
        d = data.get("d")
        if type(d) is not int or d < 1:
            raise ConfigError(f'"d" must be a positive integer, got {d!r}')

        def labels(value, what: str) -> list[int]:
            if not isinstance(value, list) or any(type(p) is not int for p in value):
                raise ConfigError(f"{what} must be a list of integer labels")
            return value

        def groups(key: str) -> list[list[int]]:
            value = data.get(key, [])
            if not isinstance(value, list):
                raise ConfigError(f'"{key}" must be a list of label lists')
            return [labels(g, f'each entry of "{key}"') for g in value]

        loops = labels(data.get("loops", []), '"loops"')
        return Config(d, groups("lines"), set(loops), groups("parallel"))


# ---------------------------------------------------------------------------
# Free gluing


def free_glue(a: Config, b: Config, p: int, q: int) -> Config:
    """Glue b onto a, identifying b's point q with a's point p.

    b's labels are offset by a.d; the glued point keeps label p, and labels
    above the removed copy of q are compacted to stay contiguous.
    """
    if not a.is_simple() or not b.is_simple():
        raise ConfigError("free gluing requires simple configurations")
    if not 1 <= p <= a.d:
        raise ConfigError(f"glue point {p} outside first ground set")
    if not 1 <= q <= b.d:
        raise ConfigError(f"glue point {q} outside second ground set")

    def b_label(j: int) -> int:
        if j == q:
            return p
        shifted = a.d + j
        return shifted - 1 if j > q else shifted

    lines = [tuple(l) for l in a.lines]
    lines += [tuple(sorted(b_label(j) for j in l)) for l in b.lines]
    return Config(a.d + b.d - 1, lines)


# ---------------------------------------------------------------------------
# Chains (nilpotency / solvability)


@dataclass(frozen=True)
class ChainReport:
    kind: str  # "S" or "Q"
    stages: tuple[tuple[int, ...], ...]
    verdict: str  # "nilpotent" / "solvable" / "neither"


def _restriction_degrees(cfg: Config, present: set[int]) -> Counter[int]:
    """The degree of every point in the restriction of cfg to `present`, from
    one pass over the lines: a line counts for its present points when at
    least three of its points are present."""
    degrees: Counter[int] = Counter()
    for l in cfg.lines:
        kept = present.intersection(l)
        if len(kept) >= 3:
            degrees.update(kept)
    return degrees


def _chain(cfg: Config, min_degree: int, kind: str) -> ChainReport:
    ok_verdict = "nilpotent" if kind == "S" else "solvable"
    stages: list[tuple[int, ...]] = []
    present = set(cfg.points)
    while True:
        degrees = _restriction_degrees(cfg, present)
        stage = tuple(p for p in sorted(present) if degrees[p] >= min_degree)
        if not stage:
            stages.append(stage)
            return ChainReport(kind, tuple(stages), ok_verdict)
        if stages and stage == stages[-1]:
            return ChainReport(kind, tuple(stages), "neither")
        stages.append(stage)
        present = set(stage)


def chains(cfg: Config) -> tuple[ChainReport, ChainReport]:
    """S-chain (degree >= 2) and Q-chain (degree >= 3) until stabilization."""
    cfg._require_simple()
    return _chain(cfg, 2, "S"), _chain(cfg, 3, "Q")


def is_nilpotent(cfg: Config) -> bool:
    return chains(cfg)[0].verdict == "nilpotent"


def q_points(cfg: Config) -> frozenset[int]:
    """Points of degree >= 3."""
    return frozenset(p for p in cfg.nonloop_points if cfg.degree(p) >= 3)


# ---------------------------------------------------------------------------
# Admissible orderings


@dataclass(frozen=True)
class Ordering:
    perm: tuple[int, ...]
    weights: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.perm) - sum(self.weights)


def admissible_ordering(cfg: Config) -> Optional[Ordering]:
    """Greedy reverse peeling: repeatedly remove a point of current degree
    <= 1 (smallest label first). Succeeds exactly when cfg is nilpotent;
    returns None otherwise.

    The degrees come from one pass over the lines.  Removing a point lowers
    them only on a line through it that drops to two present points, and a
    degree never rises, so the removable points wait in one heap.
    """
    cfg._require_simple()
    present = set(cfg.points)
    degrees = _restriction_degrees(cfg, present)
    through = cfg._incidence
    left = [len(l) for l in cfg.lines]  # present points on each line
    ready = [p for p in cfg.points if degrees[p] <= 1]  # sorted, so a heap
    peeled: list[tuple[int, int]] = []  # (point, weight at removal)
    while ready:
        candidate = heapq.heappop(ready)
        peeled.append((candidate, degrees[candidate]))
        present.remove(candidate)
        for i in through[candidate]:
            left[i] -= 1
            if left[i] == 2:
                for p in present.intersection(cfg.lines[i]):
                    degrees[p] -= 1
                    if degrees[p] == 1:
                        heapq.heappush(ready, p)
    if present:
        return None
    peeled.reverse()
    return Ordering(tuple(p for p, _ in peeled), tuple(w for _, w in peeled))


def nilpotent_dim(cfg: Config) -> int:
    """d - sum(w_i) for an admissible ordering; defined for nilpotent cfgs."""
    ordering = admissible_ordering(cfg)
    if ordering is None:
        raise ConfigError("configuration is not nilpotent")
    return ordering.dim


# ---------------------------------------------------------------------------
# Cactus recognition


def incidence_graph(cfg: Config) -> dict[int, list[int]]:
    """G(M) as adjacency lists: vertices are the points of degree >= 2 in
    label order, edges join co-linear pairs.  Each vertex lists its
    neighbours line by line, in the order of cfg.lines."""
    cfg._require_simple()
    adj: dict[int, list[int]] = {p: [] for p in cfg.points if cfg.degree(p) >= 2}
    for l in cfg.lines:
        on_line = [p for p in l if p in adj]
        for u, v in combinations(on_line, 2):
            adj[u].append(v)
            adj[v].append(u)
    return adj


def _blocks(adj: dict[int, list[int]]) -> Iterator[list[tuple[int, int]]]:
    """Biconnected components (Hopcroft-Tarjan), each as its list of edges.

    Iterative depth-first search from each unvisited vertex in turn; a block
    is emitted when the search leaves a child whose subtree has no back edge
    above its parent.  Isolated vertices belong to no block.
    """
    disc: dict[int, int] = {}
    for root in adj:
        if root in disc:
            continue
        disc[root] = 0
        low = {root: 0}
        edges: list[tuple[int, int]] = []
        # (parent, vertex, unexplored neighbours, index of the tree edge in edges)
        stack = [(root, root, iter(adj[root]), 0)]
        while stack:
            parent, v, children, tree_edge = stack[-1]
            child = next(children, None)
            if child is None:
                stack.pop()
                if v != root:
                    if low[v] >= disc[parent]:
                        yield edges[tree_edge:]
                        del edges[tree_edge:]
                    low[parent] = min(low[parent], low[v])
            elif child not in disc:
                disc[child] = low[child] = len(low)
                stack.append((v, child, iter(adj[child]), len(edges)))
                edges.append((v, child))
            elif child != parent and disc[child] < disc[v]:  # back edge to an ancestor
                low[v] = min(low[v], disc[child])
                edges.append((v, child))


@dataclass(frozen=True)
class CactusReport:
    is_cactus: bool
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    blocks: tuple[tuple[int, ...], ...]
    offending_block: Optional[tuple[int, ...]] = None


def cactus_check(cfg: Config) -> CactusReport:
    """True iff every biconnected component of G(M) is an edge or a cycle."""
    adj = incidence_graph(cfg)
    blocks = []
    offending = None
    for block_edges in _blocks(adj):
        block = tuple(sorted({p for e in block_edges for p in e}))
        blocks.append(block)
        degree = Counter(p for e in block_edges for p in e)
        # a biconnected block is a simple cycle iff every vertex has degree 2
        is_edge_or_cycle = len(block_edges) == 1 or all(k == 2 for k in degree.values())
        if offending is None and not is_edge_or_cycle:
            offending = block
    return CactusReport(
        is_cactus=offending is None,
        vertices=tuple(adj),
        edges=tuple(sorted((u, v) for u in adj for v in adj[u] if u < v)),
        blocks=tuple(sorted(blocks)),
        offending_block=offending,
    )


def _point_line_graph(cfg: Config, subset: Iterable[int]) -> dict[tuple[str, int], list]:
    """The bipartite incidence graph between the points of `subset` and the
    lines meeting at least two of them, as adjacency lists."""
    pts = set(subset)
    adj: dict = {("p", p): [] for p in sorted(pts)}
    for li, l in enumerate(cfg.lines):
        members = [p for p in l if p in pts]
        if len(members) >= 2:
            adj[("l", li)] = [("p", p) for p in members]
            for p in members:
                adj[("p", p)].append(("l", li))
    return adj


def subset_has_cycle(cfg: Config, subset: Iterable[int]) -> bool:
    """True iff distinct points x_1..x_k of `subset` and distinct lines
    l_1..l_k exist with {x_i, x_{i+1}} inside l_i, cyclically.

    Equivalently: the point-line incidence graph of the subset has a cycle,
    that is, a biconnected block with more than one edge.
    """
    subset = set(subset)
    if not subset <= set(cfg.nonloop_points):
        raise ConfigError("subset must consist of non-loop points")
    return any(len(block) > 1 for block in _blocks(_point_line_graph(cfg, subset)))


# ---------------------------------------------------------------------------
# Presets


def _line_config(n: int) -> Config:
    if n < 3:
        raise ConfigError("a line needs at least 3 points")
    return Config(n, [tuple(range(1, n + 1))])


def _cycle_config(k: int, pts_per_line: int) -> Config:
    """k lines of `pts_per_line` points; consecutive lines share one point."""
    if k < 3:
        raise ConfigError("a cycle needs at least 3 lines")
    if pts_per_line < 3:
        raise ConfigError("each line needs at least 3 points")
    free = pts_per_line - 2
    lines = []
    for i in range(1, k + 1):
        joint_a, joint_b = i, (i % k) + 1
        extras = [k + (i - 1) * free + j for j in range(1, free + 1)]
        lines.append(tuple(sorted([joint_a, joint_b] + extras)))
    return Config(k + k * free, lines)


_FIXED_PRESETS: dict[str, Config] = {
    "qs": Config(6, [(1, 2, 3), (1, 5, 6), (2, 4, 6), (3, 4, 5)]),
    "three-concurrent": Config(7, [(1, 2, 7), (3, 4, 7), (5, 6, 7)]),
    "pascal": Config(
        9,
        [(1, 6, 8), (1, 5, 7), (2, 4, 7), (2, 6, 9), (3, 4, 8), (3, 5, 9), (7, 8, 9)],
    ),
    "pappus": Config(
        9,
        [
            (1, 2, 3),
            (1, 6, 8),
            (1, 5, 7),
            (2, 4, 7),
            (2, 6, 9),
            (7, 8, 9),
            (4, 5, 6),
            (3, 4, 8),
            (3, 5, 9),
        ],
    ),
    "grid3x3": Config(
        9,
        [(1, 2, 3), (4, 5, 6), (7, 8, 9), (1, 4, 7), (2, 5, 8), (3, 6, 9)],
    ),
    "fano": Config(
        7,
        [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6)],
    ),
    # 14-point cactus: a triangle on {1,2,3} plus four pendant lines.
    # Exactly the points 1, 2, 3 have degree >= 3.
    "cactus14": Config(
        14,
        [
            (1, 2, 4),
            (2, 3, 5),
            (1, 3, 6),
            (1, 7, 8),
            (1, 9, 10),
            (3, 11, 12),
            (2, 13, 14),
        ],
    ),
}

PRESET_NAMES = tuple(sorted(_FIXED_PRESETS)) + ("line:<n>", "cycle:<k>:<pts-per-line>")


def _preset_params(name: str, form: str) -> list[int]:
    """The integers of a parametrized preset name shaped like `form`."""
    fields = name.split(":")[1:]
    if len(fields) != form.count(":") or not all(f.isdecimal() for f in fields):
        raise ConfigError(f"preset {name!r} does not have the form {form}")
    return [int(f) for f in fields]


def preset(name: str) -> Config:
    """A named configuration; a malformed or unusable name is a ConfigError
    that says why."""
    if name in _FIXED_PRESETS:
        return _FIXED_PRESETS[name]
    if name.startswith("line:"):
        return _line_config(*_preset_params(name, "line:<n>"))
    if name.startswith("cycle:"):
        return _cycle_config(*_preset_params(name, "cycle:<k>:<pts-per-line>"))
    raise ConfigError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")


def preset_name(cfg: Config) -> Optional[str]:
    """The name of the fixed preset equal to cfg (however it was loaded), or None."""
    return next((name for name, fixed in _FIXED_PRESETS.items() if fixed == cfg), None)

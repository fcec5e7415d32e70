"""In-memory span tracing of bracketforge's public functions.

The tracer replaces public functions and methods of the package with wrappers
that record one span per call: name, start, end, parent span and verdict id.
It rebinds every module namespace that holds the same function object, so a
name bound by `from .poly import bracket` inside `gc` or `lifting` is traced
too.  Nothing under `src/` is edited; `uninstall()` restores the originals.

Spans are kept in flat arrays and written out once, at exit.  The per-layer
metrics are derived from the spans afterwards, not counted on the fly.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path

# Functions too small and too frequent to be worth a span: they would cost more
# than they measure and no per-layer metric is defined on them.
SKIP = {
    "linalg": {"vec3", "vadd", "vsub", "vscale", "cross", "dot", "is_zero", "mat_copy",
               "proportional", "normalize_projective", "random_vec3", "sample_until"},
    "poly": {"var_str", "point", "const_col", "as_column"},
    "gc": {"point_expr", "line_expr"},
}

# Public methods traced, as (module, class, method, span name).
METHODS = [
    ("linalg", "Realization", "restrict", "linalg.Realization.restrict"),
    ("linalg", "Realization", "rank", "linalg.Realization.rank"),
    ("poly", "BracketPoly", "__mul__", "poly.mul"),
    ("poly", "BracketPoly", "eval", "poly.eval"),
    ("gc", "BracketCombo", "eval", "gc.eval"),
    ("gc", "BracketCombo", "expand", "gc.expand"),
    ("lifting", "LiftMatrix", "evaluate", "lifting.evaluate"),
    ("lifting", "LiftMatrix", "minor", "lifting.LiftMatrix.minor"),
    ("lifting", "LiftMatrix", "minor_eval", "lifting.LiftMatrix.minor_eval"),
    ("harness", "Fixture", "samples", "harness.Fixture.samples"),
]

CONFIG_METHODS = ("lines_through", "degree", "is_simple", "circuits3", "is_dependent_triple",
                  "bases", "dependency_signature", "restrict", "delete", "make_loops",
                  "simplification_labels", "to_json", "from_json")

MODULES = ("config", "linalg", "poly", "gc", "lifting", "ideals", "harness")

# Samplers of realizations or directions; each retries until a check passes.
SAMPLERS = ("harness.pappus_realization", "harness.pascal_family_sample",
            "harness.cactus_realization", "harness.qs_realization",
            "harness.quadrilateral_set_flat", "harness.collinear_realization",
            "harness.generic_q")
# The check a sampler runs once per attempt.
ATTEMPT_CHECKS = ("harness.in_realization_space", "lifting.q_general_position")


def _terms(args, result) -> int:
    return len(result.terms)


def _orbit_kept(args, result) -> int:
    cfg = args[0]
    circuits = {frozenset(t) for line in cfg.lines for t in combinations(line, 3)}
    return len(result) - len(circuits)


# span name -> function of (args, result) giving a per-span count
COUNTS = {"poly.mul": _terms, "gc.gm_rewrite_combo": _terms, "gc.gm_generators": _orbit_kept}


class Tracer:
    """Records spans of wrapped calls; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.verdict = array("i")
        self.count = array("q")
        self.verdict_id = -1
        self.enabled = True
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        count = COUNTS.get(name)
        stack = self._stack
        start, end, names, parent, verdict, counts = (
            self.start, self.end, self.name, self.parent, self.verdict, self.count)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            verdict.append(self.verdict_id)
            counts.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                counts[idx] = count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr) if not isinstance(owner, type)
                              else owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap the public functions of every layer module of `package`."""
        mods = [m for n, m in list(sys.modules.items())
                if n == package.__name__ or n.startswith(package.__name__ + ".")]
        targets: list[tuple[object, str]] = []
        for short in MODULES:
            mod = getattr(package, short)
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or attr in SKIP.get(short, ())
                        or not inspect.isfunction(fn) or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                targets.append((fn, f"{short}.{attr}"))
        for fn, name in targets:
            wrapped = self.wrap(name, fn)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, attr, wrapped)
        methods = list(METHODS) + [("config", "Config", m, f"config.Config.{m}")
                                   for m in CONFIG_METHODS]
        for short, cls_name, meth, name in methods:
            cls = getattr(getattr(package, short), cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, staticmethod):
                self._set(cls, meth, staticmethod(self.wrap(name, raw.__func__)))
            else:
                self._set(cls, meth, self.wrap(name, raw))

    @contextmanager
    def paused(self):
        """Calls made inside the block pass straight through, unrecorded."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def write(self, directory: Path) -> Path:
        """Write the spans as raw arrays plus a JSON index; return the index."""
        directory.mkdir(parents=True, exist_ok=True)
        for field in ("start", "end", "name", "parent", "verdict", "count"):
            with open(directory / f"{field}.{getattr(self, field).typecode}", "wb") as fh:
                getattr(self, field).tofile(fh)
        index = directory / "spans.json"
        index.write_text(json.dumps({
            "spans": len(self.start),
            "names": self.names,
            "fields": {f: getattr(self, f).typecode
                       for f in ("start", "end", "name", "parent", "verdict", "count")},
            "note": "one span per traced call; parent -1 is a top-level call; "
                    "verdict -1 is pass-level construction work",
        }))
        return index


def summarize(tr: Tracer) -> dict:
    """Per-name calls, busy_s, self_s and count sums derived from the spans.

    busy_s sums durations of spans with no ancestor of the same name, so a
    recursive call is not counted twice; self_s is a span's duration minus the
    durations of its direct children.
    """
    n = len(tr.start)
    child = [0.0] * n
    for i in range(n):
        p = tr.parent[i]
        if p >= 0:
            child[p] += tr.end[i] - tr.start[i]
    stats: dict[str, dict] = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "count": 0,
                                     "top_busy_s": 0.0}
                              for name in tr.names}
    open_names: dict[int, int] = {}
    stack: list[int] = []
    for i in range(n):
        p = tr.parent[i]
        while stack and stack[-1] != p:
            open_names[tr.name[stack.pop()]] -= 1
        nid = tr.name[i]
        s = stats[tr.names[nid]]
        dur = tr.end[i] - tr.start[i]
        s["calls"] += 1
        s["self_s"] += dur - child[i]
        s["count"] += tr.count[i]
        if not open_names.get(nid):
            s["busy_s"] += dur
        if p < 0:
            s["top_busy_s"] += dur
        open_names[nid] = open_names.get(nid, 0) + 1
        stack.append(i)
    return stats


def sampler_attempts(tr: Tracer) -> tuple[int, int]:
    """(samples, attempts) over the outermost sampler spans.

    An attempt is one run of the sampler's acceptance check anywhere below
    it (`in_realization_space` or `q_general_position`); a sampler that
    checks only the rank counts its `Realization.rank` calls instead.
    """
    sampler_ids = {tr._ids[s] for s in SAMPLERS if s in tr._ids}
    check_ids = {tr._ids[s] for s in ATTEMPT_CHECKS if s in tr._ids}
    rank_id = tr._ids.get("linalg.Realization.rank", -2)
    owner = [-1] * len(tr.start)
    checks: dict[int, int] = {}
    ranks: dict[int, int] = {}
    for i in range(len(tr.start)):
        p = tr.parent[i]
        o = owner[p] if p >= 0 else -1
        nid = tr.name[i]
        if o < 0 and nid in sampler_ids:
            o = i
            checks[i] = ranks[i] = 0
        owner[i] = o
        if o >= 0 and o != i:
            if nid in check_ids:
                checks[o] += 1
            elif nid == rank_id:
                ranks[o] += 1
    attempts = sum(checks[i] or ranks[i] for i in checks)
    return len(checks), attempts

"""The four benchmark workloads and the pass context that times verdicts.

A verdict is one generator, descriptor or lifting dimension evaluated exactly
at one realization (for `symbolic-expand`, one polynomial computed).  Each
workload has a `setup(bf, seed)` that builds its fixed inputs, and a
`run_pass(ctx, bf, state, pass_seed)` that samples realizations, builds
orbits, generators and matrices, and times every verdict call.  Each verdict
carries its oracle check, which runs after its pass, outside the timing.
`PASS_S` is a workload's pass duration measured on a 2-core 2.1 GHz machine;
a traced run uses it only to fix its number of passes.

The package is reached only through the public functions of its layer
modules, looked up at call time so that a traced run sees its wrappers.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from functools import partial
from itertools import combinations

import oracle as O


class Context:
    """Collects the records of one run; `tracer` tags spans with verdict ids,
    and `probe` (hostspeed.Probe) is given a chance to run after each call."""

    def __init__(self, workload: str, tracer=None, probe=None):
        self.workload = workload
        self.tracer = tracer
        self.probe = probe
        self.records: list[dict] = []
        self.skipped: list[dict] = []
        self._settled = 0

    def step(self, call: str, fn, *args, **meta):
        """Construction work inside a pass; an exception becomes a failed record.
        A harness sampler that raises FixtureError has used up its retry cap
        without a valid sample: that draw is skipped and listed, not failed,
        as no verdict was attempted on it."""
        try:
            return fn(*args)
        except Exception as exc:  # the run must go on; the failure is reported
            error = f"{type(exc).__name__}: {exc}"
            if type(exc).__name__ == "FixtureError" and call.startswith("harness."):
                self.skipped.append({"workload": self.workload, "call": call, **meta,
                                     "error": error})
            else:
                self.records.append({"family": "construction", "call": call, "meta": meta,
                                     "error": error, "latency": None})
            return None
        finally:
            if self.probe is not None:
                self.probe.tick()

    def verdict(self, family: str, call: str, fn, args, meta: dict, reduce, expect, known=None,
                subject=None):
        """Time one verdict call; `reduce(value)` and `expect()` give the computed
        and the oracle's exact answers as strings, compared after the passes."""
        rec = {"family": family, "call": call, "meta": meta, "reduce": reduce,
               "expect": expect, "known": known, "subject": subject, "error": None}
        tr = self.tracer
        if tr is not None:
            tr.verdict_id = len(self.records)
        t0 = time.perf_counter()
        try:
            rec["value"] = fn(*args)
        except Exception as exc:
            rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["latency"] = time.perf_counter() - t0
        rec["start"] = t0
        if tr is not None:
            tr.verdict_id = -1
        self.records.append(rec)
        if self.probe is not None:
            self.probe.tick()

    def settle(self):
        """Check the records added since the last call and drop their values,
        so memory does not grow with the number of passes."""
        for rec in self.records[self._settled:]:
            rec["witness"] = check(self.workload, rec)
            value = rec.pop("value", None)
            if hasattr(value, "terms"):
                rec["nterms"] = len(value.terms)
            for key in ("reduce", "expect", "known"):
                rec.pop(key, None)
        self._settled = len(self.records)


def check(workload: str, rec: dict):
    """None if the record is correct, else its witness."""
    witness = {"workload": workload, "family": rec["family"], "call": rec["call"], **rec["meta"]}
    if rec["error"] is not None:
        witness["error"] = rec["error"]
        return witness
    try:
        computed = rec["reduce"](rec["value"])
        expected = rec["expect"]()
        known = rec["known"]() if callable(rec["known"]) else rec["known"]
    except Exception as exc:
        witness["error"] = f"check raised {type(exc).__name__}: {exc}"
        return witness
    if computed == expected and (known is None or computed == known):
        return None
    witness.update({"computed": computed, "expected": expected})
    if known is not None:
        witness["known"] = known
    return witness


# ---------------------------------------------------------------------------
# Reductions of computed values to exact strings, and the oracle answers


def combo_oracle(combo, gamma) -> str:
    return str(O.combo_value(combo.terms, gamma.cols))


def generic_points(rng: random.Random, d: int, n: int = 2):
    """n generic integer points: d columns plus a direction q."""
    def vec():
        return tuple(rng.randint(-30, 30) for _ in range(3))
    return [([vec() for _ in range(d)], vec()) for _ in range(n)]


def poly_at(points, poly) -> str:
    return ",".join(str(O.poly_value(poly.terms, cols, q)) for cols, q in points)


def minor_at(lines, points, rows, cols) -> str:
    out = []
    for pcols, q in points:
        m = O.lift_rows(lines, len(pcols), pcols, lambda _c, q=q: q)
        out.append(str(O.minor(m, rows, cols)))
    return ",".join(out)


def sign_normal(values):
    lead = next((v for v in values if v), 1)
    return tuple(v if lead > 0 else -v for v in values)


def preset_computed(points, vanish_at, gens) -> str:
    cols_list = [cols for cols, _ in points]
    published = {i: sign_normal([O.combo_value(gens[i].terms, c) for c in cols_list])
                 for i in vanish_at["published"]}
    gamma = vanish_at["gamma"]()
    zeros = [str(O.combo_value(g.terms, gamma.cols)) for g in gens]
    return repr((len(gens), sorted((i, tuple(map(str, v))) for i, v in published.items()), zeros))


def preset_expected(points, vanish_at) -> str:
    cols_list = [cols for cols, _ in points]
    texts = vanish_at["published"]
    published = {i: sign_normal([O.text_value(O.parse_bracket_text(t), c) for c in cols_list])
                 for i, t in texts.items()}
    n = vanish_at["count"]
    return repr((n, sorted((i, tuple(map(str, v))) for i, v in published.items()), ["0"] * n))


def rewrite_expected(points, circuit, x, l1, l2) -> str:
    (p1, p2), (p3, p4) = l1, l2
    out = []
    for cols, _q in points:
        g = lambda i: cols[i - 1]  # noqa: E731
        a, b = O.det3(g(p1), g(p2), g(p3)), O.det3(g(p1), g(p2), g(p4))
        m = tuple(a * s - b * t for s, t in zip(g(p4), g(p3)))
        sub = [m if i == x else g(i) for i in circuit]
        out.append(str(O.det3(*sub)))
    return ",".join(out) + "|0"


def rewrite_computed(points, gamma_fn, poly) -> str:
    return poly_at(points, poly) + "|" + str(O.poly_value(poly.terms, gamma_fn().cols))


def lifting_state(lines, gamma_cols, q, result) -> str:
    if result is None:
        return "none"
    cols = result.cols
    nonzero = sum(1 for a, b, c in O.circuits(lines)
                  if O.det3(cols[a - 1], cols[b - 1], cols[c - 1]))
    off_q = sum(1 for lifted, base in zip(cols, gamma_cols)
                if any(O.cross(tuple(x - y for x, y in zip(lifted, base)), q)))
    return f"rank={O.rank(cols)} nonzero_circuits={nonzero} off_q={off_q}"


LIFTED = "rank=3 nonzero_circuits=0 off_q=0"


def replay_computed(rep) -> str:
    return (f"det={rep.det_exact_representatives} lines="
            f"{[O.primitive(v) for v in (rep.l1, rep.l3, rep.l2)]} ok={rep.ok()}")


def replay_expected(gamma_fn) -> str:
    l1, l3, l2, d = O.replay_values(gamma_fn().cols)
    return f"det={d} lines={[O.primitive(v) for v in (l1, l3, l2)]} ok={d == -455}"


REPLAY_KNOWN = f"det=-455 lines={[O.primitive(v) for v in O.REPLAY_LINES]} ok=True"


# ---------------------------------------------------------------------------
# verify-named: the calls of `bracketforge verify`


class VerifyNamed:
    """Same calls as `bracketforge verify`; per pass, SAMPLES realizations
    per fixture and LIMIT sampled lifting descriptors per preset."""

    SAMPLES = 2
    LIMIT = 50

    PASS_S = 2.8

    def setup(self, bf, seed):
        return {"rng": random.Random(seed), "sampled": []}

    def pass_seed(self, state):
        return state["rng"].randrange(10**9)

    def run_pass(self, ctx: Context, bf, state, pseed: int):
        fixtures = ctx.step("harness.fixtures", bf.harness.fixtures)
        for fx in fixtures or ():
            name = fx.name
            gammas = ctx.step("harness.Fixture.samples", fx.samples, self.SAMPLES, pseed,
                              fixture=name, rseed=pseed)
            circuit = ctx.step("ideals.circuit_generators", bf.ideals.circuit_generators, fx.cfg,
                               fixture=name)
            if gammas is None or circuit is None:
                continue
            for j, g in enumerate(gammas):
                for i, c in enumerate(circuit):
                    ctx.verdict("circuit", "gc.eval", c.eval, (g,),
                                {"fixture": name, "index": i, "rseed": pseed + j},
                                str, partial(combo_oracle, c, g), "0", c)
            if name not in ("pascal", "pappus"):
                continue
            gc_gens = ctx.step("ideals.gc_generators_preset", bf.ideals.gc_generators_preset,
                               name, fixture=name)
            for j, g in enumerate(gammas):
                for i, c in enumerate(gc_gens or ()):
                    ctx.verdict("gc", "gc.eval", c.eval, (g,),
                                {"fixture": name, "index": i, "rseed": pseed + j},
                                str, partial(combo_oracle, c, g), "0", c)
            descs = ctx.step("lifting.sample_descriptors", bf.lifting.sample_descriptors, name,
                             self.LIMIT, pseed, fixture=name, dseed=pseed)
            state["sampled"].extend(descs or ())
            for d in descs or ():
                for j, g in enumerate(gammas):
                    gamma = g if d.deleted is None else g.restrict(
                        [p for p in range(1, g.d + 1) if p != d.deleted])
                    ctx.verdict("lifting", "lifting.eval_descriptor", bf.lifting.eval_descriptor,
                                (d, gamma),
                                {"fixture": name, "descriptor": descriptor_json(d),
                                 "rseed": pseed + j},
                                str, partial(descriptor_oracle, d, fx.cfg, gamma), None, d)
        ctx.verdict("replay", "harness.replay_cactus_counterexample",
                    bf.harness.replay_cactus_counterexample, (), {"fixture": "cactus14"},
                    replay_computed,
                    partial(replay_expected, bf.harness.counterexample_realization),
                    REPLAY_KNOWN)


def descriptor_json(d) -> dict:
    return {"preset": d.preset, "matrix": d.matrix_tag, "deleted": d.deleted,
            "rows": list(d.rows), "cols": list(d.cols), "q": list(d.q_assignment)}


def descriptor_oracle(d, cfg, gamma) -> str:
    return str(O.descriptor_value(d, cfg.lines, cfg.d, gamma.cols))


# ---------------------------------------------------------------------------
# cactus-orbit: the depth-2 rewrite orbit of random_cactus(0)


def stratified(rng: random.Random, groups: dict, n: int) -> list:
    """n items drawn without replacement, each group's share of n kept by
    largest-remainder rounding of its share of the population."""
    total = sum(len(v) for v in groups.values())
    quotas = {k: n * len(v) / total for k, v in groups.items()}
    alloc = {k: int(q) for k, q in quotas.items()}
    for k in sorted(quotas, key=lambda k: (alloc[k] - quotas[k], k))[: n - sum(alloc.values())]:
        alloc[k] += 1
    out = []
    for k in sorted(groups):
        out += rng.sample(groups[k], alloc[k])
    return out


class CactusOrbit:
    """Builds the depth-2 orbit every pass, draws SAMPLE of its generators
    stratified by (terms, brackets), and deals them out over REALIZATIONS
    fresh realizations.  Evaluation cost varies more between realizations
    than between generators of one stratum, hence several per pass."""

    DEPTH = 2
    SAMPLE = 90
    REALIZATIONS = 10

    PASS_S = 8.7

    def setup(self, bf, seed):
        return {"rng": random.Random(seed), "cfg": bf.harness.random_cactus(0)}

    def pass_seed(self, state):
        return state["rng"].randrange(10**9)

    def run_pass(self, ctx: Context, bf, state, pseed: int):
        cfg = state["cfg"]
        rng = random.Random(pseed)
        gs = ctx.step("ideals.cactus_generators", bf.ideals.cactus_generators, cfg, self.DEPTH,
                      fixture="random_cactus(0)")
        if gs is None:
            return
        orbit = gs.circuit + gs.gc
        groups: dict = {}
        for i, g in enumerate(orbit):
            groups.setdefault((len(g.terms), sum(map(len, g.terms))), []).append(i)
        chosen = stratified(rng, groups, self.SAMPLE)
        rng.shuffle(chosen)
        per = self.SAMPLE // self.REALIZATIONS
        for k in range(self.REALIZATIONS):
            rseed = rng.randrange(10**9)
            gamma = ctx.step("harness.cactus_realization", bf.harness.cactus_realization, cfg,
                             rseed, fixture="random_cactus(0)", rseed=rseed)
            if gamma is None:
                continue
            for i in chosen[k * per:(k + 1) * per]:
                c = orbit[i]
                ctx.verdict("rewrite", "gc.eval", c.eval, (gamma,),
                            {"fixture": "random_cactus(0)", "depth": self.DEPTH, "index": i,
                             "rseed": rseed},
                            str, partial(combo_oracle, c, gamma), "0", c)


def orbit_census(bf, cfg, depth: int) -> dict:
    """Orbit size per depth and what each rewrite attempt led to, replaying
    the orbit construction stage by stage with the public rewrite step."""
    gc = bf.gc
    stage = gc.circuit_combos(cfg)
    seen = {c.sign_normalized() for c in stage}
    sizes = [len(stage)]
    outcomes = []
    for _ in range(depth):
        nxt = []
        tally = Counter()
        for combo in stage:
            for x, l1, l2 in gc.rewrite_choices(cfg, sorted(combo.points())):
                if x not in combo.points():
                    continue
                r = gc.gm_rewrite_combo(combo, x, l1, l2)
                if r.is_zero():
                    tally["zero"] += 1
                elif len(r.terms) > gc.DEFAULT_TERM_CEILING:
                    tally["ceiling_drop"] += 1
                elif r.sign_normalized() in seen:
                    tally["duplicate"] += 1
                else:
                    seen.add(r.sign_normalized())
                    nxt.append(r)
                    tally["kept"] += 1
        sizes.append(len(nxt))
        outcomes.append(dict(tally))
        stage = nxt
    return {"stage_sizes": sizes, "rewrite_outcomes_per_depth": outcomes,
            "orbit_size": sum(sizes)}


# ---------------------------------------------------------------------------
# lift-kernel: lifting dimensions and constructive liftings, q concrete


class LiftKernel:
    """Per pass: every criterion-6 configuration at one collinear realization
    with Q_PER_REALIZATION generic directions, and LIFTINGS quadrilateral-set
    liftings.  No (configuration, realization, q) repeats.  With 8 liftings
    the pass's 28 latencies put p50 among the liftings and p90 among the
    cycle:4:4 and line:6 dimensions, not on a gap between cost groups."""

    Q_PER_REALIZATION = 2
    LIFTINGS = 8

    PASS_S = 0.6

    def setup(self, bf, seed):
        preset, cactus = bf.config.preset, bf.harness.random_cactus
        configs = [("line:4", preset("line:4")), ("line:6", preset("line:6")),
                   ("cycle:3:3", preset("cycle:3:3")), ("cycle:4:4", preset("cycle:4:4")),
                   ("random_cactus(0)", cactus(0)), ("random_cactus(1)", cactus(1)),
                   ("random_cactus(2)", cactus(2)), ("cactus14", preset("cactus14")),
                   ("pascal-{7}", preset("pascal").delete({7})),
                   ("pappus-{1,9}", preset("pappus").delete({1, 9}))]
        return {"rng": random.Random(seed), "configs": configs, "qs": preset("qs"),
                "known": {}}

    def pass_seed(self, state):
        return state["rng"].randrange(10**9)

    def run_pass(self, ctx: Context, bf, state, pseed: int):
        h = bf.harness
        rng = random.Random(pseed)
        for name, cfg in state["configs"]:
            rseed = rng.randrange(10**9)
            g = ctx.step("harness.collinear_realization", h.collinear_realization, cfg, rseed,
                         fixture=name, rseed=rseed)
            for _ in range(self.Q_PER_REALIZATION):
                qseed = rng.randrange(10**9)
                q = ctx.step("harness.generic_q", h.generic_q, g, qseed, cfg,
                             fixture=name, rseed=rseed, qseed=qseed) if g else None
                if q is None:
                    continue
                ctx.verdict("lift_dim", "lifting.lift_dim", bf.lifting.lift_dim, (cfg, g, q),
                            {"fixture": name, "rseed": rseed, "qseed": qseed},
                            str, partial(kernel_dim, cfg, g, q),
                            partial(known_dim, bf, state["known"], name, cfg), cfg)
        qs = state["qs"]
        for _ in range(self.LIFTINGS):
            rseed, qseed = rng.randrange(10**9), rng.randrange(10**9)
            flat = ctx.step("harness.quadrilateral_set_flat", h.quadrilateral_set_flat, rseed,
                            fixture="qs-flat", rseed=rseed)
            q = ctx.step("harness.generic_q", h.generic_q, flat, qseed, qs,
                         fixture="qs-flat", rseed=rseed, qseed=qseed) if flat else None
            if q is None:
                continue
            ctx.verdict("construct", "lifting.construct_lifting", bf.lifting.construct_lifting,
                        (qs, flat, q), {"fixture": "qs-flat", "rseed": rseed, "qseed": qseed},
                        partial(lifting_state, qs.lines, flat.cols, q), lambda: LIFTED, None, qs)


def kernel_dim(cfg, gamma, q) -> str:
    rows = O.lift_rows(cfg.lines, cfg.d, gamma.cols, lambda _c: q)
    return str(cfg.d - (O.rank(rows) if rows else 0))


def known_dim(bf, cache: dict, name: str, cfg) -> str:
    """The dimension formula's answer (criterion 6), once per configuration."""
    if name not in cache:
        cache[name] = str(bf.config.nilpotent_dim(cfg))
    return cache[name]


# ---------------------------------------------------------------------------
# symbolic-expand: polynomials as results


class SymbolicExpand:
    """Per pass: the symbolic-q QS liftability matrix and all fifteen of its
    4x4 minors, both published GC generator lists, and REWRITES
    variable-level rewrites of Pappus circuit brackets."""

    REWRITES = 4

    PASS_S = 2.2

    def setup(self, bf, seed):
        preset = bf.config.preset
        pappus = preset("pappus")
        choices = []
        for x, l1, l2 in bf.gc.rewrite_choices(pappus, pappus.points):
            third = [l for l in pappus.lines_through(x)
                     if not {*l1, x} <= set(l) and not {*l2, x} <= set(l)]
            choices.append((x, l1, l2, third[0]))
        return {"rng": random.Random(seed), "qs": preset("qs"), "pappus": pappus,
                "choices": choices}

    def pass_seed(self, state):
        return state["rng"].randrange(10**9)

    def run_pass(self, ctx: Context, bf, state, pseed: int):
        rng = random.Random(pseed)
        qs = state["qs"]
        m = ctx.step("lifting.lift_matrix", bf.lifting.lift_matrix, qs,
                     bf.lifting.QScheme.symbolic(), fixture="qs")
        points6 = generic_points(rng, qs.d)
        rows = tuple(range(4))
        for cols in combinations(range(qs.d), 4) if m else ():
            ctx.verdict("symbolic_minor", "poly.symbolic_minor", bf.poly.symbolic_minor,
                        (m.entries, rows, cols), {"fixture": "qs", "cols": list(cols),
                                                  "pseed": pseed},
                        partial(poly_at, points6), partial(minor_at, qs.lines, points6, rows, cols))
        points9 = generic_points(rng, 9)
        h = bf.harness
        for name, sampler, texts in (("pascal", h.pascal_family_sample, O.PASCAL_TEXT),
                                     ("pappus", h.pappus_realization, O.PAPPUS_TEXT)):
            rseed = rng.randrange(10**9)
            vanish = {"published": texts, "count": O.GC_COUNT[name],
                      "gamma": partial(sampler, rseed)}
            ctx.verdict("gc_preset", "ideals.gc_generators_preset",
                        bf.ideals.gc_generators_preset, (name,),
                        {"fixture": name, "rseed": rseed, "pseed": pseed},
                        partial(preset_computed, points9, vanish),
                        partial(preset_expected, points9, vanish))
        pappus = state["pappus"]
        for x, l1, l2, circuit in rng.sample(state["choices"], self.REWRITES):
            p = ctx.step("poly.bracket", bf.poly.bracket, *circuit, fixture="pappus")
            rseed = rng.randrange(10**9)
            gamma_fn = partial(h.pappus_realization, rseed)
            ctx.verdict("gm_rewrite", "gc.gm_rewrite", bf.gc.gm_rewrite, (p, x, l1, l2),
                        {"fixture": "pappus", "bracket": list(circuit), "x": x,
                         "lines": [list(l1), list(l2)], "rseed": rseed, "pseed": pseed},
                        partial(rewrite_computed, points9, gamma_fn),
                        partial(rewrite_expected, points9, circuit, x, l1, l2), None,
                        pappus)


WORKLOADS = {
    "verify-named": VerifyNamed,
    "cactus-orbit": CactusOrbit,
    "lift-kernel": LiftKernel,
    "symbolic-expand": SymbolicExpand,
}


# ---------------------------------------------------------------------------
# Input-property census, computed from the records after the passes


def histogram(values) -> dict:
    return {str(k): v for k, v in sorted(Counter(values).items())}


def census(bf, workload: str, records: list, state) -> dict:
    verdicts = [r for r in records if r["family"] != "construction"]
    per_real = Counter((r["meta"].get("fixture"), r["meta"].get("rseed"))
                       for r in verdicts if "rseed" in r["meta"])
    out = {
        "verdicts": len(verdicts),
        "verdicts_by_family": dict(Counter(r["family"] for r in verdicts)),
        "realizations": len(per_real),
        "verdicts_per_realization": histogram(per_real.values()),
    }
    combo_recs = [r for r in verdicts if r["family"] in ("circuit", "gc", "rewrite")]
    if combo_recs:
        out["generator_terms"] = histogram(len(r["subject"].terms) for r in combo_recs)
        out["brackets_per_term"] = histogram(len(m) for r in combo_recs
                                             for m in r["subject"].terms)
        triples: dict = {}
        for r in combo_recs:
            key = (r["meta"]["fixture"], r["meta"]["rseed"])
            triples.setdefault(key, []).extend(t for m in r["subject"].terms for t in m)
        out["bracket_triples_at_one_realization"] = {
            "occurrences": sum(len(v) for v in triples.values()),
            "distinct": sum(len(set(v)) for v in triples.values())}
    sampled = state.get("sampled")
    if sampled:
        out["descriptors_sampled"] = len(sampled)
        out["descriptors_distinct"] = len(set(sampled))
        out["minor_sizes"] = histogram(len(d.cols) for d in sampled)
    if workload == "cactus-orbit":
        out["orbit"] = orbit_census(bf, state["cfg"], CactusOrbit.DEPTH)
    if workload == "lift-kernel":
        out["matrix_shapes"] = histogram(
            f"{len(O.circuits(r['subject'].lines))}x{r['subject'].d}" for r in verdicts)
    if workload == "symbolic-expand":
        out["matrix_shapes"] = {"qs": f"{len(O.circuits(state['qs'].lines))}x{state['qs'].d}"}
        out["polynomial_terms"] = histogram(
            r["nterms"] for r in verdicts
            if "nterms" in r and r["family"] in ("symbolic_minor", "gm_rewrite"))
    return out

"""bracketforge benchmark: exact verdicts on four seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py): verify-named, cactus-orbit, lift-kernel,
symbolic-expand.  BENCHMARK.json lists the first three.  symbolic-expand runs
by hand: its long polynomial products speed up less than the reference
computation when the host frees up, so its times in `ref` spread too much
between runs for a regression bound.  One process runs one workload: a closed loop with a single
caller and no extra threads.  It repeats passes (realization sampling, orbit,
generator and matrix construction, and the verdict calls) for about --seconds
of pass time, checking each pass's verdicts against the independent oracle in
oracle.py after it, outside the timed region.

--trace 0 prints the end-to-end metrics.  Times are in `ref`, multiples of a
fixed reference computation timed during the same run (hostspeed.py), because
a shared host's speed drifts by up to 1.5x over minutes: verdicts_per_ref,
verdict_p50_ref, verdict_p90_ref.  The same three in wall-clock units
(verdicts_per_s, verdict_p50_ms, verdict_p90_ms) and the reference time go to
the report line.  setup_s (median of fresh interpreters that import the
package and build the workload's inputs) and peak_rss_mb are as measured.
--trace 1 runs a fixed number of passes, each once untraced and once with
every public function of the layer modules wrapped (spans.py), and prints the
per-layer metrics; the spans are written under .perfbench_out/.

Before the last line the run prints one `report` line of JSON: failed_share,
a witness for every failed verdict, the sample count, the input census, and
the realization draws skipped because a harness sampler hit its retry cap.
The last line is the result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
IMPORT_PROBES = 3

import workloads as W  # noqa: E402
import spans as S  # noqa: E402
import hostspeed as H  # noqa: E402


def load_package():
    if not (SRC / "bracketforge" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bracketforge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bracketforge

    if Path(bracketforge.__file__).resolve().parent != SRC / "bracketforge":
        raise SystemExit(f"perfbench: imported bracketforge from {bracketforge.__file__}")
    return bracketforge


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile."""
    k = max(0, min(len(sorted_values) - 1, -(-len(sorted_values) * p // 100) - 1))
    return sorted_values[int(k)]


def run_passes(bf, workload, state, ctx, seconds=None, seeds=None) -> float:
    """Run the passes `seeds`, or fresh passes for about `seconds` of pass time;
    check each pass's verdicts after it, outside the timing.  Returns the
    total pass time, less the time of any host-speed probes."""
    timed = 0.0
    done = 0
    # Without `seeds`, stop at the pass boundary nearest to `seconds`.
    while (done < len(seeds)) if seeds is not None else (not done or timed * (1 + 0.5 / done)
                                                          < seconds):
        pseed = seeds[done] if seeds is not None else workload.pass_seed(state)
        # Each pass starts with the collector's counts at zero, so that its
        # garbage collections fall at the same points of the pass in every run.
        gc.collect()
        if ctx.probe is None:
            t0 = time.perf_counter()
            workload.run_pass(ctx, bf, state, pseed)
            timed += time.perf_counter() - t0
        else:
            n = len(ctx.probe.segments)
            ctx.probe.begin()
            workload.run_pass(ctx, bf, state, pseed)
            ctx.probe.end()
            timed += sum(d for _, d in ctx.probe.segments[n:])
        done += 1
        if ctx.tracer is None:
            ctx.settle()
        else:
            with ctx.tracer.paused():
                ctx.settle()
    return timed


def verify(records):
    """(attempted, witnesses) over settled records."""
    return len(records), [r["witness"] for r in records if r["witness"] is not None]


def setup_probe(name: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its first verdict being
    ready: interpreter start, `import bracketforge`, building the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise SystemExit(f"perfbench: set-up probe failed: {line!r}")
    return elapsed


def import_times() -> tuple[float, float]:
    """Median cumulative import time of bracketforge and of networkx, from
    `python -X importtime -c "import bracketforge"` in fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    pkg, nx = [], []
    for _ in range(IMPORT_PROBES):
        res = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bracketforge"],
                             cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
                             check=True)
        cumulative = {}
        for line in res.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, mod = line[len("import time:"):].split("|")
                if cum.strip().isdigit():
                    cumulative[mod.strip()] = int(cum) / 1e6
        pkg.append(cumulative["bracketforge"])
        nx.append(cumulative.get("networkx", 0.0))
    return statistics.median(pkg), statistics.median(nx)


def end_to_end(name, bf, workload, state, seconds, seed):
    probe = H.Probe()
    ctx = W.Context(name, probe=probe)
    timed = run_passes(bf, workload, state, ctx, seconds=seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat = sorted(r["latency"] for r in ctx.records if r["family"] != "construction")
    completed = sum(1 for r in ctx.records if r["family"] != "construction" and not r["error"])
    setup = statistics.median(setup_probe(name, seed) for _ in range(SETUP_PROBES))
    lat_ref = sorted(probe.in_ref(r["start"], r["latency"]) for r in ctx.records
                     if r["family"] != "construction")
    timed_ref = probe.timed_ref()
    p50, p90 = percentile(lat, 50), percentile(lat, 90)
    metrics = {
        "verdicts_per_ref": (completed / timed_ref, "1/ref"),
        "verdict_p50_ref": (percentile(lat_ref, 50), "ref"),
        "verdict_p90_ref": (percentile(lat_ref, 90), "ref"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    wall = {
        "verdicts_per_s": {"value": completed / timed, "unit": "1/s"},
        "verdict_p50_ms": {"value": p50 * 1e3, "unit": "ms"},
        "verdict_p90_ms": {"value": p90 * 1e3, "unit": "ms"},
        "ref_ms": {"value": statistics.median(probe.times) * 1e3, "unit": "ms",
                   "probes": len(probe.times)},
    }
    return ctx.records, ctx.records, metrics, {"wall_clock": wall, "timed_s": timed,
                                               "verdict_samples": len(lat),
                                               "samples_skipped": ctx.skipped}


SPLITS = {
    "verify-named": "lifting.eval_descriptor has the largest busy share among top-level calls",
    "cactus-orbit": "gc.eval + gc.gm_rewrite_combo busy > half the pass; no lifting span",
    "lift-kernel": "lifting.lift_dim busy > half the pass; no gc span",
    "symbolic-expand": "poly.symbolic_minor and poly.mul have the two largest busy shares",
}


def split_holds(name, stats, pass_s) -> bool:
    def busy(n):
        return stats.get(n, {}).get("busy_s", 0.0)

    def ran(prefix):
        return any(k.startswith(prefix) and v["calls"] for k, v in stats.items())

    if name == "verify-named":
        top = max(stats, key=lambda k: stats[k]["top_busy_s"])
        return top == "lifting.eval_descriptor"
    if name == "cactus-orbit":
        return busy("gc.eval") + busy("gc.gm_rewrite_combo") > pass_s / 2 and not ran("lifting.")
    if name == "lift-kernel":
        return busy("lifting.lift_dim") > pass_s / 2 and not ran("gc.")
    top2 = sorted(stats, key=lambda k: stats[k]["busy_s"], reverse=True)[:2]
    return set(top2) == {"poly.symbolic_minor", "poly.mul"}


def traced(name, bf, workload, state, seconds, seed):
    import_s, networkx_s = import_times()
    # A fixed number of passes for a given --seconds, so that every count
    # repeats exactly for a given seed; the untraced and the traced passes
    # each take about half of --seconds.  Each pass runs untraced, then
    # traced, so that both halves see the same host speed.
    passes = max(1, round(seconds / 2 / workload.PASS_S))
    plain = W.Context(name)
    tracer = S.Tracer()
    ctx = W.Context(name, tracer)
    sampled = state.get("sampled")
    untraced_s = traced_s = 0.0
    for pseed in [workload.pass_seed(state) for _ in range(passes)]:
        n = len(sampled) if sampled is not None else 0
        untraced_s += run_passes(bf, workload, state, plain, seeds=[pseed])
        if sampled is not None:
            del sampled[n:]  # the census describes the traced passes only
        tracer.install(bf)
        try:
            traced_s += run_passes(bf, workload, state, ctx, seeds=[pseed])
        finally:
            tracer.uninstall()
    stats = S.summarize(tracer)
    verdicts = sum(1 for r in ctx.records if r["family"] != "construction")
    samples, attempts = S.sampler_attempts(tracer)
    top_s = sum(v["top_busy_s"] for v in stats.values())

    def agg(pred, key):
        return sum(v[key] for k, v in stats.items() if pred(k))

    def get(span, key):
        return stats.get(span, {}).get(key, 0)

    sampled = sampled or []
    rewrites = get("gc.gm_rewrite_combo", "calls")
    rewrite_id = tracer.names.index("gc.gm_rewrite_combo")
    drops = sum(1 for nid, terms in zip(tracer.name, tracer.count)
                if nid == rewrite_id and terms > bf.gc.DEFAULT_TERM_CEILING)
    m = {
        "cli.import_s": (import_s, "s"),
        "cli.import.networkx_s": (networkx_s, "s"),
        "config.calls": (agg(lambda k: k.startswith("config."), "calls"), "count"),
        "config.self_s": (agg(lambda k: k.startswith("config."), "self_s"), "s"),
    }
    for span, keys in (
            ("linalg.det_exact", ("calls", "self_s")), ("linalg.rref", ("calls", "self_s")),
            ("linalg.det3", ("calls", "self_s")), ("poly.bracket", ("calls", "self_s")),
            ("poly.mul", ("calls", "self_s")), ("poly.eval", ("calls", "self_s")),
            ("poly.lazy_minor_eval", ("self_s",)), ("poly.symbolic_minor", ("calls", "self_s")),
            ("gc.gm_rewrite_combo", ("calls", "busy_s", "self_s")),
            ("gc.eval", ("calls", "busy_s")), ("gc.expand", ("calls", "self_s")),
            ("lifting.eval_descriptor", ("calls", "busy_s", "self_s")),
            ("lifting.lift_matrix", ("calls", "self_s")), ("lifting.evaluate", ("self_s",)),
            ("lifting.lift_dim", ("busy_s",)), ("lifting.construct_lifting", ("busy_s",)),
            ("lifting.q_general_position", ("calls",)),
            ("ideals.gc_generators_preset", ("calls", "self_s")),
            ("ideals.cactus_generators", ("busy_s",)),
            ("harness.in_realization_space", ("calls", "self_s"))):
        for key in keys:
            m[f"{span}.{key}"] = (get(span, key), "count" if key == "calls" else "s")
    m["poly.mul.terms_out"] = (get("poly.mul", "count"), "count")
    m["gc.rewrite.kept_share"] = (get("gc.gm_generators", "count") / rewrites if rewrites else 0.0,
                                  "share")
    m["gc.rewrite.ceiling_drops"] = (drops, "count")
    m["lifting.lift_matrix.builds_per_verdict"] = (
        get("lifting.lift_matrix", "calls") / max(verdicts, 1), "count/verdict")
    m["lifting.descriptors.distinct_share"] = (
        len(set(sampled)) / len(sampled) if sampled else 0.0, "share")
    m["harness.sampler.calls"] = (samples, "count")
    m["harness.sampler.self_s"] = (agg(lambda k: k in S.SAMPLERS, "self_s"), "s")
    m["harness.sampler.attempts_per_sample"] = (attempts / samples if samples else 0.0,
                                                "count/sample")
    m["harness.replay.busy_s"] = (get("harness.replay_cactus_counterexample", "busy_s"), "s")
    m["trace.overhead_share"] = (traced_s / untraced_s - 1, "share")
    m["trace.pass_s"] = (traced_s, "s")
    m["trace.unattributed_share"] = ((traced_s - top_s) / traced_s, "share")
    m["trace.split_holds"] = (int(split_holds(name, stats, traced_s)), "bool")
    OUT.mkdir(exist_ok=True)
    index = tracer.write(OUT / f"trace-{name}-{seed}")
    extra = {
        "split": {"claim": SPLITS[name], "holds": bool(m["trace.split_holds"][0])},
        "busy_share_of_pass": {k: round(v["busy_s"] / traced_s, 4)
                               for k, v in sorted(stats.items(), key=lambda kv: -kv[1]["busy_s"])
                               if v["busy_s"] / traced_s >= 0.01},
        "spans": len(tracer.start),
        "spans_file": str(index.relative_to(ROOT)),
        "untraced_s": untraced_s,
        "verdict_samples": verdicts,
        "samples_skipped": plain.skipped + ctx.skipped,
    }
    return plain.records + ctx.records, ctx.records, m, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    bf = load_package()
    workload = W.WORKLOADS[args.workload]()
    state = workload.setup(bf, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    run = traced if args.trace else end_to_end
    records, census_records, metrics, extra = run(
        args.workload, bf, workload, state, args.seconds, args.seed)
    attempted, witnesses = verify(records)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failed_share": {"value": len(witnesses) / attempted, "unit": "share"},
        **extra,
        "census": W.census(bf, args.workload, census_records, state),
        "witnesses": witnesses,
    }
    print("report " + json.dumps(report, default=str))
    print(json.dumps({
        "correct": not witnesses,
        "attempted": attempted,
        "failed": len(witnesses),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark: planted faults are caught and witnessed, the
host-speed probe divides each interval by the speed around it, and a
traced run accounts for its pass time.

Run from the root of a checkout: python3 -m pytest perfbench
"""

import json

import hostspeed as H
import run
import spans as S
import workloads as W


def one_pass(bf, name, seed=5):
    workload = W.WORKLOADS[name]()
    state = workload.setup(bf, seed)
    ctx = W.Context(name)
    run.run_passes(bf, workload, state, ctx, seeds=[workload.pass_seed(state)])
    return run.verify(ctx.records)


def test_clean_pass_has_no_witnesses():
    bf = run.load_package()
    attempted, witnesses = one_pass(bf, "lift-kernel")
    assert attempted > 0 and witnesses == []


def test_planted_faults_are_witnessed(monkeypatch):
    bf = run.load_package()
    real = bf.lifting.eval_descriptor

    def perturbed(desc, gamma, q=None):
        return real(desc, gamma, q) + 1

    def raising(*args, **kwargs):
        raise RuntimeError("planted fault")

    monkeypatch.setattr(W.VerifyNamed, "LIMIT", 3)
    monkeypatch.setattr(bf.lifting, "eval_descriptor", perturbed)
    monkeypatch.setattr(bf.harness, "replay_cactus_counterexample", raising)
    attempted, witnesses = one_pass(bf, "verify-named")

    assert len(witnesses) / attempted > 0
    by_call = {}
    for w in witnesses:
        by_call.setdefault(w["call"], []).append(w)
    assert set(by_call) == {"lifting.eval_descriptor", "harness.replay_cactus_counterexample"}
    # every perturbed evaluation is caught, and its witness can be replayed
    evaluations = 2 * W.VerifyNamed.LIMIT * W.VerifyNamed.SAMPLES
    assert len(by_call["lifting.eval_descriptor"]) == evaluations
    for w in by_call["lifting.eval_descriptor"]:
        assert w["computed"] != w["expected"]
        assert {"workload", "family", "fixture", "descriptor", "rseed"} <= set(w)
    [raised] = by_call["harness.replay_cactus_counterexample"]
    assert "planted fault" in raised["error"]


def test_tracer_rebinds_imported_names_and_restores_them():
    bf = run.load_package()
    original = bf.poly.bracket
    tracer = S.Tracer()
    tracer.install(bf)
    try:
        for mod in (bf.poly, bf.gc, bf.lifting, bf):
            assert mod.bracket is not original and mod.bracket.__wrapped__ is original
        bf.gc.BracketCombo.of_bracket(1, 2, 3).expand()
    finally:
        tracer.uninstall()
    assert bf.poly.bracket is original and bf.gc.bracket is original
    names = {tracer.names[i] for i in tracer.name}
    assert {"gc.expand", "poly.bracket", "poly.mul"} <= names


def test_traced_top_level_spans_cover_the_pass():
    bf = run.load_package()
    workload = W.WORKLOADS["lift-kernel"]()
    state = workload.setup(bf, 7)
    records, _, metrics, extra = run.traced("lift-kernel", bf, workload, state, 1.0, 7)
    assert run.verify(records)[1] == []
    overhead = metrics["trace.overhead_share"][0]
    unattributed = metrics["trace.unattributed_share"][0]
    assert 0 <= unattributed <= max(overhead, 0.02)
    assert metrics["trace.split_holds"][0] == 1
    assert extra["spans"] > 0


def test_probe_divides_each_interval_by_the_speed_around_it():
    probe = H.Probe()
    probe.at = [0.1 * i for i in range(100)]
    probe.times = [0.001] * 50 + [0.002] * 50  # the host halves its speed at t = 5
    assert probe.in_ref(1.0, 0.01) == 10.0
    assert probe.in_ref(8.0, 0.02) == 10.0
    probe.segments = [(1.0, 0.01), (8.0, 0.02)]
    assert probe.timed_ref() == 20.0


def test_end_to_end_prints_the_declared_metrics():
    bf = run.load_package()
    workload = W.WORKLOADS["lift-kernel"]()
    state = workload.setup(bf, 7)
    records, _, metrics, extra = run.end_to_end("lift-kernel", bf, workload, state, 1.0, 7)
    assert run.verify(records)[1] == []
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: u for k, (_, u) in metrics.items()}
    assert all(v > 0 for v, _ in metrics.values())
    assert set(extra["wall_clock"]) == {"verdicts_per_s", "verdict_p50_ms", "verdict_p90_ms",
                                        "ref_ms"}


def test_sampler_retry_cap_is_a_skip_and_other_construction_errors_fail(monkeypatch):
    bf = run.load_package()

    def capped(*args):
        raise bf.harness.FixtureError("no valid sample found within the retry cap")

    monkeypatch.setattr(bf.harness, "quadrilateral_set_flat", capped)
    workload = W.LiftKernel()
    state = workload.setup(bf, 5)
    ctx = W.Context("lift-kernel")
    run.run_passes(bf, workload, state, ctx, seeds=[workload.pass_seed(state)])
    assert run.verify(ctx.records)[1] == []
    assert len(ctx.skipped) == W.LiftKernel.LIFTINGS
    assert {s["call"] for s in ctx.skipped} == {"harness.quadrilateral_set_flat"}

    def broken(*args):
        raise ValueError("planted fault")

    monkeypatch.setattr(bf.harness, "quadrilateral_set_flat", broken)
    ctx = W.Context("lift-kernel")
    run.run_passes(bf, workload, state, ctx, seeds=[workload.pass_seed(state)])
    witnesses = run.verify(ctx.records)[1]
    assert len(witnesses) == W.LiftKernel.LIFTINGS and not ctx.skipped
    assert all("planted fault" in w["error"] for w in witnesses)

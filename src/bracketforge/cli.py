"""Command-line interface.

Each subcommand returns its JSON document and exit code; `_run` loads the
--config a subcommand declares, calls it, and prints the one document of the
run to standard output (pretty-printed with --pretty).  The exit code is 0 on
success, 1 on a verification failure or violated hypothesis, 2 on usage
errors.  Errors are one-line documents {"error": message}.  When standard
output is closed before the document is written, nothing is printed and the
exit code is 1.

Published data are tables keyed by preset name, read under the name of the
configuration given (`preset_name`): a file holding a preset gets its data.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import harness, ideals, lifting
from .config import (
    Config,
    ConfigError,
    admissible_ordering,
    cactus_check,
    chains,
    preset,
    preset_name,
    q_points,
    subset_has_cycle,
)
from .lifting import QScheme, lift_matrix, minor_count, sample_descriptors


def load_config(source: str) -> Config:
    path = Path(source)
    try:
        return preset(source)
    except ConfigError as exc:
        if not path.is_file():
            raise ConfigError(f"{source!r} is neither a usable preset nor a file: {exc}") from None
    return Config.from_json(path.read_text())


def emit(doc, pretty: bool) -> None:
    # flushed here, so that a closed standard output fails inside main()
    print(json.dumps(doc, indent=2 if pretty else None, sort_keys=True), flush=True)


def cmd_describe(cfg: Config, args) -> tuple[dict, int]:
    doc = {
        "d": cfg.d,
        "lines": [list(l) for l in cfg.lines],
        "loops": sorted(cfg.loops),
        "parallel": [list(c) for c in cfg.parallel],
    }
    if cfg.is_simple():
        s, q = chains(cfg)
        doc.update(
            {
                "degrees": {str(p): cfg.degree(p) for p in cfg.points},
                "circuits": [list(c) for c in cfg.circuits3()],
                "chains": {
                    "S": {"stages": [list(st) for st in s.stages], "verdict": s.verdict},
                    "Q": {"stages": [list(st) for st in q.stages], "verdict": q.verdict},
                },
            }
        )
    return doc, 0


def cmd_cactus_check(cfg: Config, args) -> tuple[dict, int]:
    report = cactus_check(cfg)
    qm = sorted(q_points(cfg))
    return {
        "is_cactus": report.is_cactus,
        "vertices": list(report.vertices),
        "edges": [list(e) for e in report.edges],
        "blocks": [list(b) for b in report.blocks],
        "offending_block": list(report.offending_block) if report.offending_block else None,
        "q_points": qm,
        "q_points_have_cycle": subset_has_cycle(cfg, qm),
    }, 0


def cmd_ordering(cfg: Config, args) -> tuple[dict, int]:
    ordering = admissible_ordering(cfg)
    if ordering is None:
        return {"admissible": False, "reason": "configuration is not nilpotent"}, 0
    return {
        "admissible": True,
        "perm": list(ordering.perm),
        "weights": list(ordering.weights),
        "dim": ordering.dim,
    }, 0


def cmd_lift_matrix(cfg: Config, args) -> tuple[dict, int]:
    m = lift_matrix(cfg, QScheme.symbolic())
    return {
        "shape": list(m.shape),
        "circuits": [list(c) for c in m.circuits],
        "entries": m.bracket_text(),
    }, 0


def cmd_generators(cfg: Config, args) -> tuple[dict, int]:
    name = preset_name(cfg)
    fams = ("circuit", "gc", "lifting") if args.family == "all" else (args.family,)
    families: dict = {}
    if "circuit" in fams:
        gens = ideals.circuit_generators(cfg)
        families["circuit"] = {"count": len(gens)}
        if not args.count_only:
            families["circuit"]["polynomials"] = [g.to_text() for g in gens]
    if "gc" in fams:
        if name in ideals.PRESET_GC_LISTS:
            gens = ideals.gc_generators_preset(name)
        else:
            gens = ideals.cactus_generators(cfg, depth=args.depth).gc
        families["gc"] = {"count": len(gens)}
        if not args.count_only:
            families["gc"]["polynomials"] = [g.to_text() for g in gens[: args.limit]]
    if "lifting" in fams:
        has_lifting = name in lifting.PRESET_MINOR_RECIPES
        families["lifting"] = {"count": minor_count(name) if has_lifting else 0}
        if has_lifting and not args.count_only:
            limit = args.limit if args.limit is not None else 10
            families["lifting"]["descriptors"] = [
                {
                    "matrix": desc.matrix_tag,
                    "deleted": desc.deleted,
                    "rows": list(desc.rows),
                    "cols": list(desc.cols),
                    "q": list(desc.q_assignment) if desc.q_assignment else "symbolic",
                }
                for desc in lifting.iter_descriptors(name, limit)
            ]
    return {"config": args.config, "families": families}, 0


def cmd_verify(args) -> tuple[dict, int]:
    samples = args.samples
    seed = args.seed
    limit = args.limit if args.limit is not None else 200
    failures = 0
    report: dict = {"samples": samples, "seed": seed, "fixtures": {}}
    for fixture in harness.fixtures():
        cfg = fixture.cfg
        gammas = fixture.samples(samples, seed)
        entry: dict = {}
        circuit = ideals.circuit_generators(cfg)
        bad = sum(1 for g in gammas for c in circuit if c.eval(g) != 0)
        entry["circuit"] = {"generators": len(circuit), "nonvanishing": bad}
        failures += bad
        name = preset_name(cfg)
        if name in ideals.PRESET_GC_LISTS:
            gc_gens = ideals.gc_generators_preset(name)
            bad = sum(1 for g in gammas for c in gc_gens if c.eval(g) != 0)
            entry["gc"] = {"generators": len(gc_gens), "nonvanishing": bad}
            failures += bad
        if name in lifting.PRESET_MINOR_RECIPES:
            descs = sample_descriptors(name, limit, seed)
            bad = 0
            for d in descs:
                for g in gammas:
                    if lifting.eval_descriptor(d, d.restrict(g)) != 0:
                        bad += 1
            entry["lifting"] = {"descriptors": len(descs), "nonvanishing_evaluations": bad}
            failures += bad
        report["fixtures"][fixture.name] = entry
    replay = harness.replay_cactus_counterexample()
    report["counterexample_replay_ok"] = replay.ok()
    if not replay.ok():
        failures += 1
    report["failures"] = failures
    return report, 1 if failures else 0


def cmd_decompose(cfg: Config, args) -> tuple[dict, int]:
    rep = harness.decomposition_report(cfg)
    return {
        "preset": rep.preset,
        "count": rep.count,
        "upper_bound_only": rep.upper_bound_only,
        "components": [
            {
                "kind": c.kind,
                "description": c.description,
                "d": c.cfg.d,
                "lines": [list(l) for l in c.cfg.lines],
                "loops": sorted(c.cfg.loops),
            }
            for c in rep.components
        ],
    }, 0


def cmd_replay(args) -> tuple[dict, int]:
    rep = harness.replay_cactus_counterexample(check_gm_depth=args.depth)
    return {
        "l1": [str(c) for c in rep.l1],
        "l3": [str(c) for c in rep.l3],
        "l2": [str(c) for c in rep.l2],
        "det_with_integer_representatives": str(rep.det_exact_representatives),
        "det_raw": str(rep.det_raw),
        "in_circuit_variety": rep.in_circuit_variety,
        "rewrite_generators": rep.gm_vanishing,
        "ok": rep.ok(),
    }, 0 if rep.ok() else 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # usage errors take the same JSON path as every other error
        raise ValueError(message)


def _at_least(low: int):
    """argparse type: an integer no smaller than `low`."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="bracketforge",
        description="Exact generators and verification for rank-3 point-line configurations",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, config=True):
        if config:
            sp.add_argument("--config", required=True, help="preset name or JSON file path")
        sp.add_argument("--pretty", action="store_true")
        return sp

    common(sub.add_parser("describe")).set_defaults(func=cmd_describe)
    common(sub.add_parser("cactus-check")).set_defaults(func=cmd_cactus_check)
    common(sub.add_parser("ordering")).set_defaults(func=cmd_ordering)
    common(sub.add_parser("lift-matrix")).set_defaults(func=cmd_lift_matrix)

    g = common(sub.add_parser("generators"))
    g.add_argument("--family", choices=("circuit", "gc", "lifting", "all"), default="all")
    g.add_argument("--limit", type=_at_least(0), default=None)
    g.add_argument("--count-only", action="store_true")
    g.add_argument("--depth", type=_at_least(0), default=ideals.DEFAULT_GM_DEPTH)
    g.set_defaults(func=cmd_generators)

    v = common(sub.add_parser("verify"), config=False)
    v.add_argument("--seed", type=int, default=0)
    # zero samples or descriptors would evaluate nothing and report a vacuous pass
    v.add_argument("--samples", type=_at_least(1), default=5)
    v.add_argument("--limit", type=_at_least(1), default=None, help="lifting descriptors per preset")
    v.set_defaults(func=cmd_verify)

    common(sub.add_parser("decompose")).set_defaults(func=cmd_decompose)

    r = common(sub.add_parser("replay-counterexample"), config=False)
    r.add_argument("--depth", type=_at_least(0), default=1, help="rewrite depth checked at the witness")
    r.set_defaults(func=cmd_replay)
    return p


def main(argv=None) -> int:
    try:
        return _run(argv)
    except BrokenPipeError:
        # the reader has gone: print nothing more, and point standard output
        # at devnull so that the flush at interpreter exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


def _run(argv) -> int:
    """Parse argv, load --config once, run the subcommand and print the one
    document it returns, or the error that stopped it."""
    pretty = False  # an error document is always one line
    try:
        args = build_parser().parse_args(argv)
        inputs = (load_config(args.config),) if "config" in vars(args) else ()
        doc, code = args.func(*inputs, args)
        pretty = args.pretty
    except SystemExit:  # only --help exits the parser; it has printed its text
        return 0
    except (ConfigError, ideals.HypothesisError, lifting.LiftingError, harness.FixtureError) as exc:
        doc, code = {"error": str(exc)}, 1
    except (OSError, ValueError) as exc:
        doc, code = {"error": str(exc)}, 2
    emit(doc, pretty)
    return code


if __name__ == "__main__":
    sys.exit(main())

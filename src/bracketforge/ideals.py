"""Assembly of the circuit and Grassmann-Cayley generator families.

For a configuration these are the circuit brackets (one per 3-circuit) and
the Grassmann-Cayley polynomials (`concurrency_expressions`, or a preset's
published list).  The third family, the lifting polynomials, are minors of
liftability matrices; because of their count `lifting` streams them as
descriptors (`iter_descriptors`, `minor_count`) instead of assembling them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import Config, cactus_check, preset, q_points, subset_has_cycle
from .gc import BracketCombo, circuit_combos, gm_generators, join, meet, parse_bracket_text


class HypothesisError(ValueError):
    """A generating-set theorem's hypothesis fails for the given input."""


@dataclass
class GeneratorSet:
    circuit: list[BracketCombo]
    gc: list[BracketCombo]


def circuit_generators(cfg: Config) -> list[BracketCombo]:
    """One bracket per 3-circuit, in sorted circuit order."""
    return circuit_combos(cfg)


# ---------------------------------------------------------------------------
# The published Pascal / Pappus Grassmann-Cayley generators

# Expected printed forms, where a published text form exists.
PASCAL_GC_EXPECTED_TEXT = {
    0: "[153][142][546][326]-[154][132][536][426]",
    1: "[526][361][734]-[326][361][754]+[326][461][753]",
    4: "[749][361]-[461][739]",
}

PAPPUS_GC_EXPECTED_TEXT = [
    "[235][768]-[237][568]",
    "[134][769]-[137][469]",
    "[124][859]-[128][459]",
    "[273][856]-[278][356]",
    "[461][739]-[467][139]",
    "[291][845]-[298][145]",
    "[241][589]-[245][189]",
    "[791][634]-[796][134]",
    "[263][578]-[265][378]",
]


def pascal_gc_expressions():
    """The seven Pascal GC expressions as (description, BracketCombo)."""
    out = []
    # (i) meet of three line pairs joined together
    e = join(meet((1, 5), (2, 4)), meet((1, 6), (3, 4)), meet((3, 5), (2, 6)))
    out.append(("(15^24)v(16^34)v(35^26)", e))
    # (ii) a point joined with two meets
    for p, first, second in (
        (7, ((5, 3), (2, 6)), ((3, 4), (6, 1))),
        (8, ((5, 1), (2, 4)), ((3, 5), (6, 2))),
        (9, ((4, 3), (1, 6)), ((2, 4), (5, 1))),
    ):
        e = join(p, meet(*first), meet(*second))
        out.append((f"{p}v({first[0]}^{first[1]})v({second[0]}^{second[1]})", e))
    # (iii) two points joined with one meet
    for p1, p2, (a, b), (c, d) in (
        (7, 9, (3, 4), (6, 1)),
        (7, 8, (3, 5), (6, 2)),
        (9, 8, (1, 5), (4, 2)),
    ):
        e = join(p1, p2, meet((a, b), (c, d)))
        out.append((f"{p1}v{p2}v({a}{b}^{c}{d})", e))
    return out


def concurrency_expressions(cfg: Config):
    """(description, (l1 ^ l2) v l3) for each point p on exactly three lines
    of three points: l1, l2, l3 are those lines less p, in `cfg.lines` order."""
    out = []
    for p in cfg.points:
        through = cfg.lines_through(p)
        if len(through) == 3 and all(len(l) == 3 for l in through):
            l1, l2, l3 = (tuple(x for x in l if x != p) for l in through)
            out.append((f"({l1}^{l2})v{l3}", join(meet(l1, l2), *l3)))
    return out


# preset -> (its GC expressions, their published forms by index).  Pappus'
# list is the concurrency rule.  Pascal's stays transcribed: only its
# generators 4, 5 and 6 are concurrencies (up to sign).  qs has none.
PRESET_GC_LISTS = {
    "pascal": (pascal_gc_expressions, PASCAL_GC_EXPECTED_TEXT),
    "pappus": (
        lambda: concurrency_expressions(preset("pappus")),
        dict(enumerate(PAPPUS_GC_EXPECTED_TEXT)),
    ),
    "qs": (lambda: [], {}),
}


def gc_generators_preset(preset_name: str) -> list[BracketCombo]:
    """The published GC generators, re-derived from their GC expressions."""
    if preset_name not in PRESET_GC_LISTS:
        raise HypothesisError(f"no published GC generator list for {preset_name!r}")
    expressions, expected = PRESET_GC_LISTS[preset_name]
    derived = [c for _, c in expressions()]
    for idx, text in expected.items():
        want = parse_bracket_text(text).expand()
        got = derived[idx].expand()
        if not got.eq_up_to_sign(want):
            raise HypothesisError(
                f"derived GC generator {idx} of {preset_name} does not match "
                f"its published form"
            )
    return derived


DEFAULT_GM_DEPTH = 2


def cactus_generators(cfg: Config, depth: int = DEFAULT_GM_DEPTH) -> GeneratorSet:
    """Circuit + rewrite generators for a cactus configuration.

    Requires both hypotheses of the cactus generating-set theorem: the
    configuration is a cactus, and its degree->=3 points contain no
    point-line cycle.  A 14-point cactus whose three degree->=3 points form
    a triangle witnesses that the second hypothesis cannot be dropped.
    """
    report = cactus_check(cfg)
    if not report.is_cactus:
        raise HypothesisError(
            f"not a cactus configuration: block {report.offending_block} of the "
            "degree->=2 incidence graph is neither an edge nor a cycle"
        )
    qm = q_points(cfg)
    if subset_has_cycle(cfg, qm):
        raise HypothesisError(
            "Q_M contains a cycle: the degree->=3 points admit a point-line "
            "cycle, so the circuit+rewrite generators need not cut out the "
            "matroid variety (witnessed by the 14-point triangle cactus)"
        )
    gens = gm_generators(cfg, depth)
    ncirc = len(cfg.circuits3())
    return GeneratorSet(circuit=gens[:ncirc], gc=gens[ncirc:])

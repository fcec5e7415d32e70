"""Exact arithmetic for rank-3 point-line configurations.

Generating sets of the associated determinantal ideals (circuit polynomials,
meet/join concurrency polynomials, liftability minors) together with a
verification harness that evaluates them on exact rational witnesses.
"""

from .config import (
    CactusReport,
    ChainReport,
    Config,
    ConfigError,
    Ordering,
    PRESET_NAMES,
    admissible_ordering,
    cactus_check,
    chains,
    free_glue,
    is_nilpotent,
    nilpotent_dim,
    preset,
    q_points,
    subset_has_cycle,
)
from .linalg import (
    DegenerateLineError,
    Realization,
    cross,
    det3,
    det_exact,
    kernel_basis,
    meet_lines,
    rank,
    rref,
    vec3,
)
from .poly import BracketPoly, bracket, symbolic_minor
from .gc import (
    BracketCombo,
    gm_generators,
    gm_rewrite,
    join,
    meet,
    parse_bracket_text,
)
from .lifting import (
    LiftingError,
    LiftMatrix,
    MinorDescriptor,
    QScheme,
    construct_lifting,
    lift_dim,
    lift_matrix,
    minor_count,
    trivial_lifting_dim,
)
from .ideals import (
    GeneratorSet,
    HypothesisError,
    cactus_generators,
    circuit_generators,
    gc_generators_preset,
)
from .harness import (
    Fixture,
    cactus_realization,
    collinear_realization,
    components_distinct,
    decomposition_report,
    fixtures,
    generic_q,
    in_circuit_variety,
    in_realization_space,
    pappus_realization,
    pascal_family_sample,
    qs_realization,
    quadrilateral_set_flat,
    random_cactus,
    replay_cactus_counterexample,
)

__version__ = "0.1.0"

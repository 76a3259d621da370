"""Exact Stanley depth, Koszul depth, and numeric depth bounds for squarefree I/J."""

__version__ = "0.1.0"

from .lab import (
    CheckResult,
    EmptyFamily,
    HypothesisMismatch,
    InstanceFamily,
    canonical_key,
    enumerate_all_pairs,
    enumerate_instances,
    hunt_counterexamples,
    is_canonical,
    permute_mask,
    sample_instances,
)
from .lemmas import (
    BoundCheck,
    HMap,
    LcmClass,
    LcmConfiguration,
    NotApplicable,
    NotNormalizable,
    NotNormalized,
    PathReport,
    classify_lcm_configuration,
    configuration_instances,
    extract_h_map,
    find_maximal_bad_paths,
    h_map_via_solver,
    lcm_pairs,
    normalize_partition,
    removal_pair,
    split_modules,
    subquotient_pair,
    truncation_pair,
)
from .criteria import CriterionVerdict, best_upper_bound
from .ideal_io import (
    ParseError,
    load_ideal,
    pair_to_dict,
    pair_to_text,
    parse_ideal,
    parse_ideal_json,
    parse_ideal_text,
    partition_to_dict,
)
from .koszul import DepthResult, FieldSpec, KoszulStrand, build_strand, depth, depth_profile
from .monomial import (
    IdealPair,
    Monomial,
    PosetEmpty,
    PosetLayers,
    ValidationError,
    build_poset,
)
from .partition import (
    BudgetExhausted,
    Interval,
    IntervalPartition,
    InvalidTarget,
    SdepthResult,
    hall_necessary_check,
    matching_upper_bound,
    partition_violations,
    sdepth_decision,
    sdepth_exact,
    verify_partition,
)

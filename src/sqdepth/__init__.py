"""Exact Stanley depth, Koszul depth, and numeric depth bounds for squarefree I/J."""

__version__ = "0.1.0"

from .lab import (
    CheckResult,
    EmptyFamily,
    HypothesisMismatch,
    InstanceFamily,
    enumerate_all_pairs,
    enumerate_instances,
    hunt_counterexamples,
    permute_mask,
    sample_instances,
)
from .lemmas import (
    BoundCheck,
    LcmClass,
    LcmConfiguration,
    NotApplicable,
    classify_lcm_configuration,
    lcm_pairs,
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
    matching_upper_bound,
    partition_violations,
    sdepth_decision,
    sdepth_exact,
    verify_partition,
)

"""Multiple quantum hypothesis testing at desk scale.

Block-layout constructions for discriminating r quantum states from n
copies: the optimal binary test, the square-root measurement, the
tensor-split multi-copy detector, pairwise Chernoff exponents with the
attainability condition, and exact error/bound evaluation.
"""

from .chernoff import (
    ChernoffResult,
    ConditionReport,
    PairwiseTable,
    attainability_condition,
    chernoff_curve,
    chernoff_distance,
)
from .detectors import (
    CompositionTrace,
    Detector,
    SplitReport,
    build_split_detector,
    check_detector,
    compose_with_binary,
    holevo_helstrom,
    pgm,
)
from .evaluation import (
    ErrorReport,
    ExperimentTable,
    LemmaReport,
    error_sum,
    lemma_bound_check,
    run_experiment,
)
from .states import (
    DEFAULT_DIM_CAP,
    DensityMatrix,
    Ensemble,
    classical_state,
    mix,
    pure_state,
    random_density,
    tensor_power,
)

__version__ = "0.1.0"

__all__ = [
    "ChernoffResult",
    "CompositionTrace",
    "ConditionReport",
    "DEFAULT_DIM_CAP",
    "DensityMatrix",
    "Detector",
    "Ensemble",
    "ErrorReport",
    "ExperimentTable",
    "LemmaReport",
    "PairwiseTable",
    "SplitReport",
    "attainability_condition",
    "build_split_detector",
    "check_detector",
    "chernoff_curve",
    "chernoff_distance",
    "classical_state",
    "compose_with_binary",
    "error_sum",
    "holevo_helstrom",
    "lemma_bound_check",
    "mix",
    "pgm",
    "pure_state",
    "random_density",
    "run_experiment",
    "tensor_power",
]

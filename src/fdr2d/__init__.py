"""Two-dimensional false discovery rate control via conditional resampling.

Features are tested by jointly thresholding a marginal and a
conditional association statistic; the threshold pair is calibrated by
resampling the exposure from its fitted conditional law given the
confounders.
"""

from .core import CutoffResult, Dataset, StatTensor, TruthMask, validate
from .engine import (
    METHODS,
    Grid2D,
    MonotonePath,
    ProcedureConfig,
    ResamplePlan,
    Search,
    StatisticSpec,
    apply_method,
    apply_methods,
    bh_procedure,
    build_tensor,
    default_path,
    fbar,
    fdp_tilde,
    make_grid,
    ordered_grid_procedure,
    search,
    storey_pi0,
)
from .io import load_dataset, load_matrix, save_matrix
from .preprocess import preprocess_counts
from .sim import (
    ExperimentSummary,
    SimConfig,
    gen_dataset,
    gen_signals,
    run_method_comparison,
    run_replication,
    score_rejections,
)

__version__ = "0.1.0"

__all__ = [
    "METHODS",
    "CutoffResult",
    "Dataset",
    "ExperimentSummary",
    "Grid2D",
    "MonotonePath",
    "ProcedureConfig",
    "ResamplePlan",
    "Search",
    "SimConfig",
    "StatTensor",
    "StatisticSpec",
    "TruthMask",
    "apply_method",
    "apply_methods",
    "bh_procedure",
    "build_tensor",
    "default_path",
    "fbar",
    "fdp_tilde",
    "gen_dataset",
    "gen_signals",
    "load_dataset",
    "load_matrix",
    "make_grid",
    "ordered_grid_procedure",
    "preprocess_counts",
    "run_method_comparison",
    "run_replication",
    "save_matrix",
    "score_rejections",
    "search",
    "storey_pi0",
    "validate",
]

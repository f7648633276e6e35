"""Superset-label (partial-label) learning on a similarity graph.

Disambiguates ambiguous candidate labels of training examples by solving a
graph-regularized constrained program (augmented Lagrangian outer loop,
concave-convex inner solver) and classifies unseen examples by weighted
nearest-neighbor voting over the disambiguated labels.
"""

from .dataset import (
    DataFormatError,
    Dataset,
    SplitPlan,
    load_dataset,
    load_manifest,
    make_synthetic,
    normalize_unit_length,
    plan_splits,
    save_dataset,
)
from .evaluation import (
    CvResult,
    FriedmanResult,
    SweepRow,
    cross_validate,
    friedman_test,
    sweep,
    training_accuracy,
)
from .graph import KnnGraph, auto_theta, build_knn_graph
from .inference import Predictor, baseline_ambiguous_knn, predict, predict_batch
from .labelspace import LabelCodec, encode
from .objective import (
    AlmState,
    ObjectiveParams,
    aux_m,
    cccp_gradient,
    lagrangian,
    linearized_objective,
    primal_objective,
)
from .solver import (
    SolverConfig,
    SolverDivergenceError,
    SolverReport,
    alm_fit,
    cccp_minimize,
    gd_minimize,
)

__version__ = "0.1.0"

__all__ = [
    "AlmState",
    "CvResult",
    "DataFormatError",
    "Dataset",
    "FriedmanResult",
    "KnnGraph",
    "LabelCodec",
    "ObjectiveParams",
    "Predictor",
    "SolverConfig",
    "SolverDivergenceError",
    "SolverReport",
    "SplitPlan",
    "SweepRow",
    "alm_fit",
    "auto_theta",
    "aux_m",
    "baseline_ambiguous_knn",
    "build_knn_graph",
    "cccp_gradient",
    "cccp_minimize",
    "cross_validate",
    "encode",
    "friedman_test",
    "gd_minimize",
    "lagrangian",
    "linearized_objective",
    "load_dataset",
    "load_manifest",
    "make_synthetic",
    "normalize_unit_length",
    "plan_splits",
    "predict",
    "predict_batch",
    "primal_objective",
    "save_dataset",
    "sweep",
    "training_accuracy",
]

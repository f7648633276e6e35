"""Superset-label (partial-label) learning on a similarity graph.

Disambiguates ambiguous candidate labels of training examples by solving a
graph-regularized constrained program (augmented Lagrangian outer loop,
concave-convex inner solver) and classifies unseen examples by weighted
nearest-neighbor voting over the disambiguated labels.

The stages are one module each: `dataset` (readers, synthetic sets,
splits and the rules for every setting), `graph` (kNN graph, `auto_theta`),
`labelspace` (candidate encoding), `solver` (the objective, its ALM/CCCP
solve and `SolverConfig`, its one parameter object), `inference` (the
vote), `evaluation` and `cli`.
"""

from .dataset import (
    DataFormatError,
    Dataset,
    load_manifest,
    make_synthetic,
    plan_splits,
)
from .evaluation import cross_validate, friedman_test, sweep, training_accuracy
from .graph import auto_theta, build_knn_graph
from .inference import Predictor, baseline_ambiguous_knn, predict, predict_batch
from .labelspace import encode
from .solver import (
    AlmState,
    SolverConfig,
    SolverDivergenceError,
    alm_fit,
    cccp_gradient,
    cccp_minimize,
    linearized_objective,
    primal_objective,
)

__version__ = "0.1.0"

__all__ = [
    "AlmState",
    "DataFormatError",
    "Dataset",
    "Predictor",
    "SolverConfig",
    "SolverDivergenceError",
    "alm_fit",
    "auto_theta",
    "baseline_ambiguous_knn",
    "build_knn_graph",
    "cccp_gradient",
    "cccp_minimize",
    "cross_validate",
    "encode",
    "friedman_test",
    "linearized_objective",
    "load_manifest",
    "make_synthetic",
    "plan_splits",
    "predict",
    "predict_batch",
    "primal_objective",
    "sweep",
    "training_accuracy",
]

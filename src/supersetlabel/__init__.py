"""Superset-label (partial-label) learning on a similarity graph.

Disambiguates ambiguous candidate labels of training examples by solving a
graph-regularized constrained program (augmented Lagrangian outer loop,
concave-convex inner solver) and classifies unseen examples by weighted
nearest-neighbor voting over the disambiguated labels.

The modules are `dataset` (readers, synthetic sets, splits and the rules
for every setting), `graph` (the one neighbor scan: kNN graph, `auto_theta`,
and the vote, which scores each scan block as it is ranked), `labelspace`
(candidate encoding), `solver` (the objective, its ALM/CCCP solve and
`SolverConfig`, its one parameter object), `evaluation` and `cli`. The root
exports the pipeline: data, graph, encoding, `alm_fit`, `Predictor` with
`predict_batch`, and the evaluation; the objective's pieces and the CCCP
solve stay in `supersetlabel.solver`.
"""

from .dataset import (
    DataFormatError,
    Dataset,
    load_manifest,
    make_synthetic,
    plan_splits,
)
from .evaluation import cross_validate, friedman_test, sweep, training_accuracy
from .graph import Predictor, auto_theta, build_knn_graph, predict_batch
from .labelspace import encode
from .solver import AlmState, SolverConfig, SolverDivergenceError, alm_fit

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
    "build_knn_graph",
    "cross_validate",
    "encode",
    "friedman_test",
    "load_manifest",
    "make_synthetic",
    "plan_splits",
    "predict_batch",
    "sweep",
    "training_accuracy",
]

"""Constrained objective, its augmented Lagrangian, and the solver gradient.

The primal problem over the n x c label matrix F is

    minimize  tr(F' L F) + alpha ||H . (F - Y)||_F^2 - beta ||F||_F^2
    s.t.      F 1_c = 1_n,  F >= 0

where "." is the elementwise product. The constraints enter through an
augmented Lagrangian with a clamped multiplier M = max(0, Lambda1 - sigma F)
for nonnegativity and a vector multiplier Lambda2 plus quadratic penalty for
the row-sum normalization. The nonconvex -beta ||F||_F^2 part is handled by
linearizing it at a reference point F_t, which yields the convex surrogate
minimized by gradient descent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import KnnGraph
from .labelspace import LabelCodec

SIGMA_CAP = 1e8


@dataclass
class ObjectiveParams:
    """Nonnegative trade-off weights of the fidelity and discrimination terms."""

    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError(
                f"alpha and beta must be nonnegative, got {self.alpha}, {self.beta}"
            )


@dataclass
class AlmState:
    """Mutable solver state: label matrix, multipliers, and penalty weight."""

    F: np.ndarray
    lambda1: np.ndarray  # n x c, kept nonnegative by the multiplier update
    lambda2: np.ndarray  # n-vector for the row-sum constraint
    sigma: float

    def __post_init__(self):
        if not 0 < self.sigma <= SIGMA_CAP:
            raise ValueError(f"sigma must be in (0, {SIGMA_CAP:g}], got {self.sigma}")
        if np.any(self.lambda1 < 0):
            raise ValueError("lambda1 must be elementwise nonnegative")


def _check_dims(F: np.ndarray, graph: KnnGraph, codec: LabelCodec) -> None:
    if F.shape != codec.Y.shape:
        raise ValueError(f"F has shape {F.shape}, expected {codec.Y.shape}")
    if graph.n != codec.n:
        raise ValueError(
            f"graph has {graph.n} nodes but codec encodes {codec.n} examples"
        )


def primal_objective(F: np.ndarray, graph: KnnGraph, codec: LabelCodec,
                     p: ObjectiveParams) -> float:
    """Smoothness + fidelity - discrimination, ignoring the constraints."""
    _check_dims(F, graph, codec)
    smooth = float(np.sum(F * graph.laplacian_apply(F)))
    resid = codec.H * (F - codec.Y)
    fidelity = p.alpha * float(np.sum(resid * resid))
    discrimination = p.beta * float(np.sum(F * F))
    return smooth + fidelity - discrimination


def aux_m(F: np.ndarray, lambda1: np.ndarray, sigma: float) -> np.ndarray:
    """Clamped nonnegativity multiplier max(0, lambda1 - sigma F)."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return np.maximum(0.0, lambda1 - sigma * F)


def _constraint_terms(F: np.ndarray, lambda1: np.ndarray, lambda2: np.ndarray,
                      sigma: float) -> float:
    M = aux_m(F, lambda1, sigma)
    r = F.sum(axis=1) - 1.0
    return (
        (np.sum(M * M) - np.sum(lambda1 * lambda1)) / (2.0 * sigma)
        - float(lambda2 @ r)
        + 0.5 * sigma * float(r @ r)
    )


def lagrangian(state: AlmState, graph: KnnGraph, codec: LabelCodec,
               p: ObjectiveParams) -> float:
    """Augmented Lagrangian at the state's F and multipliers."""
    _check_dims(state.F, graph, codec)
    return primal_objective(state.F, graph, codec, p) + _constraint_terms(
        state.F, state.lambda1, state.lambda2, state.sigma
    )


def convex_part(F: np.ndarray, state: AlmState, graph: KnnGraph,
                codec: LabelCodec, p: ObjectiveParams) -> float:
    """The Lagrangian without its concave -beta ||F||^2 term."""
    _check_dims(F, graph, codec)
    smooth = float(np.sum(F * graph.laplacian_apply(F)))
    resid = codec.H * (F - codec.Y)
    fidelity = p.alpha * float(np.sum(resid * resid))
    return smooth + fidelity + _constraint_terms(
        F, state.lambda1, state.lambda2, state.sigma
    )


def linearized_objective(F: np.ndarray, F_t: np.ndarray, state: AlmState,
                         graph: KnnGraph, codec: LabelCodec,
                         p: ObjectiveParams) -> float:
    """Convex surrogate: the concave term replaced by its tangent at F_t."""
    tangent = p.beta * (np.sum(F_t * F_t) + 2.0 * np.sum(F_t * (F - F_t)))
    return convex_part(F, state, graph, codec, p) - float(tangent)


def cccp_gradient(F: np.ndarray, F_t: np.ndarray, state: AlmState,
                  graph: KnnGraph, codec: LabelCodec,
                  p: ObjectiveParams) -> np.ndarray:
    """Gradient of the linearized objective at F.

    The clamped multiplier M is recomputed at the argument F, which makes
    the nonnegativity penalty differentiable almost everywhere.
    """
    _check_dims(F, graph, codec)
    g = graph.laplacian_apply(F)
    g *= 2.0
    g += 2.0 * p.alpha * codec.H * (F - codec.Y)
    g -= aux_m(F, state.lambda1, state.sigma)
    g -= state.lambda2[:, None]
    g += state.sigma * (F.sum(axis=1) - 1.0)[:, None]
    g -= 2.0 * p.beta * F_t
    return g

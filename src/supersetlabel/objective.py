"""Constrained objective, its augmented Lagrangian, and the solver gradient.

The primal problem over the n x c label matrix F is

    minimize  tr(F' L F) + alpha ||H . (F - Y)||_F^2 - beta ||F||_F^2
    s.t.      F 1_c = 1_n,  F >= 0

where "." is the elementwise product. The constraints enter through an
augmented Lagrangian with a clamped multiplier M = max(0, Lambda1 - sigma F)
for nonnegativity and a vector multiplier Lambda2 plus quadratic penalty for
the row-sum normalization. CCCP handles the concave -beta ||F||_F^2 part by
replacing it with its tangent at a reference point F_t, which turns the
Lagrangian into the convex surrogate

    linearized_objective(F, F_t) = Lagrangian(F) + beta ||F - F_t||_F^2,

an upper bound that touches the Lagrangian at F = F_t; the Lagrangian itself
is linearized_objective(F, F).

H is 0 wherever Y is nonzero, so H . (F - Y) is computed as H . F.
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
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")


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
    resid = codec.H * F
    fidelity = p.alpha * float(np.sum(resid * resid))
    discrimination = p.beta * float(np.sum(F * F))
    return smooth + fidelity - discrimination


def linearized_objective(F: np.ndarray, F_t: np.ndarray, state: AlmState,
                         graph: KnnGraph, codec: LabelCodec,
                         p: ObjectiveParams) -> float:
    """CCCP surrogate: the Lagrangian at F plus beta ||F - F_t||^2.

    The added term replaces the concave -beta ||F||^2 by its tangent at F_t,
    so the surrogate is convex, bounds the Lagrangian from above and equals
    it at F = F_t.
    """
    primal = primal_objective(F, graph, codec, p)  # checks the dimensions
    step = F - F_t
    M = np.maximum(0.0, state.lambda1 - state.sigma * F)
    r = F.sum(axis=1) - 1.0
    return (
        primal
        + p.beta * float(np.sum(step * step))
        + ((np.sum(M * M) - np.sum(state.lambda1 * state.lambda1))
           / (2.0 * state.sigma)
           - float(state.lambda2 @ r)
           + 0.5 * state.sigma * float(r @ r))
    )


def cccp_gradient(F: np.ndarray, F_t: np.ndarray, state: AlmState,
                  graph: KnnGraph, codec: LabelCodec,
                  p: ObjectiveParams,
                  LF: np.ndarray | None = None) -> np.ndarray:
    """Gradient of the linearized objective at F.

    The clamped multiplier M is recomputed at the argument F, which makes
    the nonnegativity penalty differentiable almost everywhere. LF, when
    given, stands for the product L F, which is then not recomputed.
    """
    _check_dims(F, graph, codec)
    g = graph.laplacian_apply(F) if LF is None else LF.copy()
    g *= 2.0
    g += 2.0 * p.alpha * codec.H * F
    g -= np.maximum(0.0, state.lambda1 - state.sigma * F)
    g -= state.lambda2[:, None]
    g += state.sigma * (F.sum(axis=1) - 1.0)[:, None]
    g -= 2.0 * p.beta * F_t
    return g

"""ALM outer loop with a CCCP inner solver and preconditioned descent.

Each outer loop minimizes the augmented Lagrangian over F at fixed
multipliers (CCCP replaces the concave discrimination term by its tangent at
the current iterate F_t, which turns the Lagrangian into the convex surrogate
Lagrangian + beta ||F - F_t||^2, and minimizes that by preconditioned
descent), then applies the standard multiplier updates

    Lambda1 <- max(0, Lambda1 - sigma F)
    Lambda2 <- Lambda2 - sigma (F 1_c - 1_n)
    sigma   <- min(rho sigma, 1e8)

until successive F iterates stop moving or the loop budget runs out. The
solved F is read out row-wise by argmax into hard labels.
"""

from __future__ import annotations

import warnings
from dataclasses import astuple, dataclass, fields

import numpy as np

from .graph import KnnGraph, check_theta
from .labelspace import LabelCodec
from .objective import (
    SIGMA_CAP,
    AlmState,
    ObjectiveParams,
    cccp_gradient,
    linearized_objective,
)

_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
_STEP_UNDERFLOW = 1e-16
_SIGMA_FLOOR_MARGIN = 1.01


class SolverDivergenceError(RuntimeError):
    """Raised when the objective turns non-finite during a solve."""


@dataclass
class SolverConfig:
    """Knobs of the solve; defaults follow the reference parameterization.

    A gd_grad_tol left as None is resolved at run time to 1e-6 * sqrt(n*c).
    alm_fit raises sigma0 to the floor 1.01 * 2 beta max_i |S_i|.
    The line search of the inner descent has fixed constants, not knobs
    (see gd_minimize).
    """

    alpha: float = 1000.0
    beta: float = 0.01
    K: int = 5
    theta: float | str = "auto"
    rho: float = 1.1
    sigma0: float = 1.0
    t_max: int = 20
    eps0: float = 1e-6
    loop_max: int = 40
    eps1: float = 1e-4
    gd_max_iters: int = 200
    gd_grad_tol: float | None = None

    def __post_init__(self):
        self.params()  # alpha, beta >= 0
        if self.K < 1:
            raise ValueError(f"K must be at least 1, got {self.K}")
        if self.theta != "auto":
            check_theta(self.theta)
        if self.rho <= 1:
            raise ValueError(f"rho must exceed 1, got {self.rho}")
        if not 0 < self.sigma0 <= SIGMA_CAP:
            raise ValueError(
                f"sigma0 must be in (0, {SIGMA_CAP:g}], got {self.sigma0}")
        for name in ("t_max", "loop_max", "gd_max_iters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        for name in ("eps0", "eps1"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.gd_grad_tol is not None and not 0 < self.gd_grad_tol < np.inf:
            raise ValueError("gd_grad_tol must be finite and positive")

    def params(self) -> ObjectiveParams:
        return ObjectiveParams(alpha=self.alpha, beta=self.beta)

    def resolved_grad_tol(self, n: int, c: int) -> float:
        if self.gd_grad_tol is not None:
            return self.gd_grad_tol
        return 1e-6 * np.sqrt(n * c)


@dataclass
class TraceRow:
    """One outer-loop record for the convergence trace CSV."""

    loop: int
    delta_f: float
    sigma: float
    lagrangian: float
    rowsum_resid: float
    min_entry: float


TRACE_HEADER = ",".join(f.name for f in fields(TraceRow))


@dataclass
class SolverReport:
    """Solved label matrix with its disambiguation and convergence record."""

    F_star: np.ndarray
    labels: np.ndarray       # 1-based, argmax per row (smallest index on ties)
    onehot: np.ndarray
    trace: list[TraceRow]
    rowsum_resid: float      # max_i |sum_j F*_ij - 1|
    min_entry: float
    loops_used: int
    converged: bool

    def trace_rows(self):
        """Rows for CSV emission, one per outer loop."""
        return [astuple(row) for row in self.trace]


def gd_minimize(F_init: np.ndarray, F_t: np.ndarray, state: AlmState,
                graph: KnnGraph, codec: LabelCodec,
                cfg: SolverConfig) -> np.ndarray:
    """Minimize the linearized objective by Jacobi-preconditioned descent.

    The direction is d = g / P, where P is the surrogate's Hessian diagonal
    2 deg + 2 alpha H + sigma [Lambda1 - sigma F > 0] plus sigma c for the
    row-sum penalty (the largest eigenvalue of its sigma 1 1' block). P is
    recomputed at every iterate because the clamp's active set moves. The
    surrogate is the Lagrangian plus beta ||F - F_t||^2. A step tau*d is
    accepted when it decreases the surrogate by at least _ARMIJO_C * tau *
    <g, d> (_ARMIJO_C = 1e-4); tau starts at 1, the Newton step of the
    diagonal model, and is halved (_BACKTRACK = 0.5) while the test fails,
    and after an accepted step the next trial is twice that step. Stops on a
    small gradient, the iteration budget gd_max_iters, or stepsize underflow
    below 1e-16.

    The surrogate is never evaluated for the test. Its exact change along
    -tau d is -tau <g, d> + tau^2 curv / 2 + excess, where curv is the
    curvature of the smooth quadratic part along d (one Laplacian apply per
    step) and excess >= 0 is what the nonnegativity clamp adds beyond its
    tangent, a sum of nonnegative O(nc) terms per trial. The test compares
    these small terms with (1 - _ARMIJO_C) tau <g, d> and so never subtracts
    two large surrogate values, whose rounding error can exceed the decrease
    being tested.
    """
    p = cfg.params()
    grad_tol = cfg.resolved_grad_tol(*F_init.shape)
    tau_cap = 1.0 / _STEP_UNDERFLOW
    sigma = state.sigma
    # the part of the Hessian diagonal that does not depend on F
    P_fixed = (2.0 * graph.degrees[:, None] + 2.0 * p.alpha * codec.H
               + sigma * F_init.shape[1])
    F = F_init.copy()
    trial = 1.0
    for _ in range(cfg.gd_max_iters):
        g = cccp_gradient(F, F_t, state, graph, codec, p)
        if np.sqrt(np.vdot(g, g)) <= grad_tol:
            break
        arg = state.lambda1 - sigma * F
        M = np.maximum(arg, 0.0)
        d = g / (P_fixed + sigma * (arg > 0.0))
        slope = np.vdot(g, d)
        row_sums = d.sum(axis=1)
        curv = (2.0 * np.vdot(d, graph.laplacian_apply(d))
                + 2.0 * p.alpha * np.vdot(codec.H * d, d)
                + sigma * np.vdot(row_sums, row_sums))
        sigma_d = sigma * d
        tau = trial
        while True:
            # the clamp argument moves from arg to b = arg + tau sigma d;
            # with B = max(b, 0),
            # excess = sum((B - M)^2 + 2 M max(-b, 0)) / (2 sigma)
            b = arg + tau * sigma_d
            B = np.maximum(b, 0.0)
            B -= M
            np.minimum(b, 0.0, out=b)
            excess = (np.vdot(B, B) - 2.0 * np.vdot(M, b)) / (2.0 * sigma)
            if 0.5 * tau * tau * curv + excess <= (
                    1.0 - _ARMIJO_C) * tau * slope:
                break
            tau *= _BACKTRACK
            if tau < _STEP_UNDERFLOW:
                warnings.warn("gradient step underflow; returning current "
                              "iterate", stacklevel=2)
                return F
        F -= tau * d
        # optimistic restart: look a bit further than the accepted step
        trial = min(tau / _BACKTRACK, tau_cap)
    return F


def cccp_minimize(state: AlmState, graph: KnnGraph, codec: LabelCodec,
                  cfg: SolverConfig,
                  history: list[float] | None = None) -> np.ndarray:
    """Minimize the Lagrangian at fixed multipliers, starting from state.F.

    Each iteration re-linearizes the concave term at the current iterate and
    descends the convex surrogate. Because the surrogate upper-bounds the
    Lagrangian and touches it at the linearization point, the Lagrangian is
    non-increasing across iterations. When history is given, its value at
    every iterate (including the start) is appended.
    """
    p = cfg.params()
    F = state.F.copy()
    if history is not None:
        history.append(linearized_objective(F, F, state, graph, codec, p))
    for _ in range(cfg.t_max):
        F_t = F
        F = gd_minimize(F_t, F_t, state, graph, codec, cfg)
        if history is not None:
            history.append(linearized_objective(F, F, state, graph, codec, p))
        if np.linalg.norm(F - F_t) <= cfg.eps0:
            break
    return F


def alm_fit(graph: KnnGraph, codec: LabelCodec, cfg: SolverConfig,
            cccp_histories: list[list[float]] | None = None) -> SolverReport:
    """Run the full outer loop and disambiguate the result.

    Starts from the feasible, unbiased F = Y with zero multipliers and sigma
    at max(sigma0, 1.01 * 2 beta max_i |S_i|), a floor that must not exceed
    SIGMA_CAP. Below 2 beta |S_i| the reward -beta ||F||^2 outgrows the
    clamp penalty as mass moves between the candidates of row i, and the
    Lagrangian has no lower bound. At the floor, if alpha >= 101 beta c, it
    is bounded below along every direction that keeps every row sum, but a
    direction that changes a row sum can still lower it without bound; once
    sigma >= 1.01 * 2 beta (c + 1) it is bounded below for every alpha and
    graph. Stops when the Frobenius change between outer iterates drops to
    eps1 or after loop_max loops. cccp_histories, when given, collects the
    per-loop inner Lagrangian sequences (used to audit descent).
    """
    if graph.n == 0 or codec.n == 0:
        raise ValueError("cannot fit an empty graph")
    if graph.n != codec.n:
        raise ValueError(
            f"graph has {graph.n} nodes but codec encodes {codec.n} examples"
        )
    max_set = int((codec.Y > 0).sum(axis=1).max())
    floor = _SIGMA_FLOOR_MARGIN * 2.0 * cfg.beta * max_set
    if floor > SIGMA_CAP:
        raise ValueError(f"sigma floor {floor:g} from beta={cfg.beta} and max "
                         f"|S_i|={max_set} exceeds the cap {SIGMA_CAP:g}")
    p = cfg.params()
    state = AlmState(
        F=codec.Y.copy(),
        lambda1=np.zeros_like(codec.Y),
        lambda2=np.zeros(codec.n),
        sigma=max(cfg.sigma0, floor),
    )
    trace: list[TraceRow] = []
    converged = False
    for loop in range(1, cfg.loop_max + 1):
        F_prev = state.F
        history: list[float] | None = [] if cccp_histories is not None else None
        F = cccp_minimize(state, graph, codec, cfg, history=history)
        if cccp_histories is not None:
            cccp_histories.append(history)
        if not np.all(np.isfinite(F)):
            raise SolverDivergenceError(f"non-finite iterate at loop {loop}")
        sigma_used = state.sigma
        value = linearized_objective(F, F, state, graph, codec, p)
        if not np.isfinite(value):
            raise SolverDivergenceError(f"non-finite objective at loop {loop}")

        state.lambda1 = np.maximum(0.0, state.lambda1 - state.sigma * F)
        r = F.sum(axis=1) - 1.0
        state.lambda2 = state.lambda2 - state.sigma * r
        state.sigma = min(cfg.rho * state.sigma, SIGMA_CAP)
        state.F = F

        delta = float(np.linalg.norm(F - F_prev))
        trace.append(TraceRow(
            loop=loop,
            delta_f=delta,
            sigma=sigma_used,
            lagrangian=value,
            rowsum_resid=float(np.max(np.abs(r))),
            min_entry=float(F.min()),
        ))
        if delta <= cfg.eps1:
            converged = True
            break

    F_star = state.F
    labels = np.argmax(F_star, axis=1) + 1
    onehot = np.zeros_like(F_star)
    onehot[np.arange(F_star.shape[0]), labels - 1] = 1.0
    return SolverReport(
        F_star=F_star,
        labels=labels,
        onehot=onehot,
        trace=trace,
        rowsum_resid=float(np.max(np.abs(F_star.sum(axis=1) - 1.0))),
        min_entry=float(F_star.min()),
        loops_used=len(trace),
        converged=converged,
    )

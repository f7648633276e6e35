"""The RegISL program over the n x c label matrix F, and its solve.

The primal problem is

    minimize  tr(F' L F) + alpha ||H . (F - Y)||_F^2 - beta ||F||_F^2
    s.t.      F 1_c = 1_n,  F >= 0

where "." is the elementwise product. Y and H encode the candidate sets S_i
(encode builds them as a LabelCodec): Y_ij = 1/|S_i| when label j is in S_i
and 0 otherwise, so each row of Y sums to 1, and H is the binary mask of the
non-candidates, H_ij = 1 iff Y_ij = 0. So H . (F - Y) is computed as H . F.
alpha, beta and the solve's other knobs come from SolverConfig.

The constraints enter through an augmented Lagrangian with a clamped
multiplier M = max(0, Lambda1 - sigma F) for nonnegativity and a vector
multiplier Lambda2 plus quadratic penalty for the row sums. Each outer loop
minimizes it over F at fixed multipliers by CCCP, which replaces the concave
-beta ||F||_F^2 by its tangent at the current iterate F_t. That turns the
Lagrangian into the convex surrogate

    linearized_objective(F, F_t) = Lagrangian(F) + beta ||F - F_t||_F^2,

an upper bound that touches the Lagrangian at F = F_t; the Lagrangian itself
is linearized_objective(F, F). gd_minimize descends the surrogate by
nonlinear conjugate gradients preconditioned with the exact inverse of each
row's Hessian block. The outer loop then applies the standard multiplier
updates

    Lambda1 <- max(0, Lambda1 - sigma F)
    Lambda2 <- Lambda2 - sigma (F 1_c - 1_n)
    sigma   <- min(rho sigma, SIGMA_CAP)

until successive F iterates stop moving or the loop budget runs out. The
solved F is read out row-wise by argmax into hard labels.
"""

from __future__ import annotations

import warnings
from dataclasses import astuple, dataclass, fields
from itertools import chain

import numpy as np

from .dataset import Dataset, check_count, check_positive, check_real
from .graph import KnnGraph

SIGMA_CAP = 1e8
_ARMIJO_C = 1e-4
_Q_FLOOR = 1e-4
_BACKTRACK = 0.5
_STEP_UNDERFLOW = 1e-16
_SIGMA_FLOOR_MARGIN = 1.01


class SolverDivergenceError(RuntimeError):
    """Raised when the objective turns non-finite during a solve."""


@dataclass
class LabelCodec:
    """Y and H of the module docstring, one row per example."""

    Y: np.ndarray
    H: np.ndarray

    @property
    def n(self) -> int:
        return self.Y.shape[0]

    @property
    def c(self) -> int:
        return self.Y.shape[1]


def encode(ds: Dataset) -> LabelCodec:
    """Build the LabelCodec for a validated Dataset."""
    sizes = np.array([len(s) for s in ds.candidates], dtype=int)
    rows = np.repeat(np.arange(ds.n), sizes)
    cols = np.fromiter(chain.from_iterable(ds.candidates), dtype=int) - 1
    Y = np.zeros((ds.n, ds.c))
    Y[rows, cols] = np.repeat(1.0 / sizes, sizes)
    return LabelCodec(Y=Y, H=(Y == 0.0).astype(float))


@dataclass
class SolverConfig:
    """Knobs of the solve; defaults follow the reference parameterization.

    Each field is checked by a rule of dataset.py: check_count for K and the
    loop budgets, check_positive for theta, eps0, eps1 and gd_grad_tol (unless
    "auto" or None), and check_real for alpha and beta (finite, nonnegative),
    rho (finite, above 1) and sigma0 (in (0, SIGMA_CAP]; alm_fit raises it to
    1.01 * 2 beta max_i |S_i|). A gd_grad_tol of None means 1e-6 * sqrt(n*c).
    The inner descent's preconditioner floor, first-step cap and line search
    are fixed constants, not knobs (see gd_minimize).
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
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if not 0 <= check_real(value, name) < np.inf:
                rule = "nonnegative" if value < 0 else "finite"
                raise ValueError(f"{name} must be {rule}, got {value}")
        if not 1 < check_real(self.rho, "rho") < np.inf:
            raise ValueError(f"rho must be finite and above 1, got {self.rho}")
        if not 0 < check_real(self.sigma0, "sigma0") <= SIGMA_CAP:
            raise ValueError(
                f"sigma0 must be in (0, {SIGMA_CAP:g}], got {self.sigma0}")
        for name in ("K", "t_max", "loop_max", "gd_max_iters"):
            check_count(getattr(self, name), name)
        for name in ("theta", "eps0", "eps1", "gd_grad_tol"):
            value = getattr(self, name)
            if (name, value) not in (("theta", "auto"), ("gd_grad_tol", None)):
                check_positive(value, name)

    def resolved_grad_tol(self, n: int, c: int) -> float:
        if self.gd_grad_tol is not None:
            return self.gd_grad_tol
        return 1e-6 * np.sqrt(n * c)


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
                     cfg: SolverConfig) -> float:
    """Smoothness + fidelity - discrimination, ignoring the constraints."""
    _check_dims(F, graph, codec)
    smooth = float(np.sum(F * graph.laplacian_apply(F)))
    resid = codec.H * F
    fidelity = cfg.alpha * float(np.sum(resid * resid))
    discrimination = cfg.beta * float(np.sum(F * F))
    return smooth + fidelity - discrimination


def linearized_objective(F: np.ndarray, F_t: np.ndarray, state: AlmState,
                         graph: KnnGraph, codec: LabelCodec,
                         cfg: SolverConfig) -> float:
    """CCCP surrogate: the Lagrangian at F plus beta ||F - F_t||^2."""
    primal = primal_objective(F, graph, codec, cfg)  # checks the dimensions
    step = F - F_t
    M = np.maximum(0.0, state.lambda1 - state.sigma * F)
    r = F.sum(axis=1) - 1.0
    return (
        primal
        + cfg.beta * float(np.sum(step * step))
        + ((np.sum(M * M) - np.sum(state.lambda1 * state.lambda1))
           / (2.0 * state.sigma)
           - float(state.lambda2 @ r)
           + 0.5 * state.sigma * float(r @ r))
    )


def cccp_gradient(F: np.ndarray, F_t: np.ndarray, state: AlmState,
                  graph: KnnGraph, codec: LabelCodec, cfg: SolverConfig,
                  LF: np.ndarray | None = None,
                  M: np.ndarray | None = None) -> np.ndarray:
    """Gradient of the linearized objective at F.

    The clamped multiplier M = max(0, Lambda1 - sigma F) is taken at the
    argument F, which makes the nonnegativity penalty differentiable almost
    everywhere. LF and M, when given, stand for the product L F and for that
    multiplier, which are then not recomputed.
    """
    _check_dims(F, graph, codec)
    g = 2.0 * (graph.laplacian_apply(F) if LF is None else LF)
    g += 2.0 * cfg.alpha * codec.H * F
    g -= np.maximum(0.0, state.lambda1 - state.sigma * F) if M is None else M
    g -= state.lambda2[:, None]
    g += state.sigma * (F @ np.ones(F.shape[1]) - 1.0)[:, None]
    g -= 2.0 * cfg.beta * F_t
    return g


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


def gd_minimize(F_init: np.ndarray, state: AlmState, graph: KnnGraph,
                codec: LabelCodec, cfg: SolverConfig) -> np.ndarray:
    """Minimize the linearized objective by block-preconditioned nonlinear CG.

    The preconditioner is the surrogate's Hessian with the Laplacian's
    off-diagonal coupling dropped: per row i the block diag(q_i) + sigma 1 1',
    where q = max(2 deg + 2 alpha H, _Q_FLOOR sigma) + sigma [Lambda1 - sigma
    F > 0] and sigma 1 1' is the row-sum penalty. q is recomputed at every
    iterate because the clamp's active set moves. Each block is inverted
    exactly by the Sherman-Morrison formula, so z = P^-1 g costs O(nc) and
    keeps the full step along moves that keep a row sum, the moves that
    disambiguate. The floor _Q_FLOOR sigma (_Q_FLOOR = 1e-4) keeps a block
    well conditioned on a row of near-zero degree, where rounding in g would
    otherwise set the sign of the row's direction. Directions are conjugate by
    Polak-Ribiere+ in the P^-1 metric, reset to z when the conjugate direction
    is not a descent direction.

    The surrogate is the Lagrangian plus beta ||F - F_init||^2: the concave
    term is linearized at the start F_init, which is not modified. A step
    tau*d is accepted when it decreases the surrogate by at least _ARMIJO_C *
    tau * <g, d> (_ARMIJO_C = 1e-4). The first trial is 1, or after an
    accepted step twice that step, but never beyond slope / curv, the
    minimizer of the smooth quadratic part along d; a rejected trial is
    halved (_BACKTRACK = 0.5). Stops on a small gradient, the iteration
    budget gd_max_iters, or stepsize underflow below 1e-16.

    The surrogate is never evaluated for the test. Its exact change along
    -tau d is -tau <g, d> + tau^2 curv / 2 + excess, where curv is the
    curvature of the smooth quadratic part along d and excess >= 0 is what
    the nonnegativity clamp adds beyond its tangent, a sum of nonnegative
    O(nc) terms per trial. The test compares these small terms with
    (1 - _ARMIJO_C) tau <g, d> and so never subtracts two large surrogate
    values, whose rounding error can exceed the decrease being tested.
    L F is carried along the steps (L F -= tau L d, with L d the product
    the curvature needs), so an iteration makes one Laplacian apply. So are
    the clamp argument Lambda1 - sigma F and M = max(0, Lambda1 - sigma F):
    the accepted trial's b and max(b, 0) are their values at the new iterate,
    and M is handed to cccp_gradient. Row sums are products with a ones
    vector, and the two values 1 / q can take per entry are computed once
    per call.
    """
    grad_tol = cfg.resolved_grad_tol(*F_init.shape)
    tau_cap = 1.0 / _STEP_UNDERFLOW
    sigma = state.sigma
    ones = np.ones(F_init.shape[1])
    # the part of q that does not depend on F, and the two values of 1 / q
    P_fixed = np.maximum(
        2.0 * graph.degrees[:, None] + 2.0 * cfg.alpha * codec.H,
        _Q_FLOOR * sigma)
    w_clamped, w_free = 1.0 / (P_fixed + sigma), 1.0 / P_fixed
    del P_fixed
    F = F_init.copy()
    LF = graph.laplacian_apply(F)
    arg = state.lambda1 - sigma * F  # the clamp argument
    M = np.maximum(arg, 0.0)
    trial = 1.0
    z_prev = d_prev = gz_prev = None
    for _ in range(cfg.gd_max_iters):
        g = cccp_gradient(F, F_init, state, graph, codec, cfg, LF=LF, M=M)
        if np.sqrt(np.vdot(g, g)) <= grad_tol:
            break
        # z = (diag(q_i) + sigma 1 1')^-1 g_i per row, by Sherman-Morrison
        w = np.where(arg > 0.0, w_clamped, w_free)
        z = w * g
        s = sigma * (z @ ones) / (1.0 + sigma * (w @ ones))
        w *= s[:, None]
        z -= w
        del w  # so that the line search holds one n x c array fewer
        gz = np.vdot(g, z)
        d, slope = z, gz
        if z_prev is not None:
            pr = np.vdot(g, z - z_prev) / gz_prev
            if pr > 0.0:
                d = z + pr * d_prev
                slope = np.vdot(g, d)
                if slope <= 0.0:
                    d, slope = z, gz
        z_prev, gz_prev = z, gz
        Ld = graph.laplacian_apply(d)
        row_sums = d @ ones
        curv = (2.0 * np.vdot(d, Ld)
                + 2.0 * cfg.alpha * np.vdot(codec.H * d, d)
                + sigma * np.vdot(row_sums, row_sums))
        sigma_d = sigma * d
        tau = min(trial, slope / curv) if curv > 0.0 else trial
        while True:
            # the clamp argument moves from arg to b = arg + tau sigma d;
            # excess = sum((max(b, 0) - M)^2 - 2 M min(b, 0)) / (2 sigma)
            b = arg + tau * sigma_d
            bp = np.maximum(b, 0.0)
            B = bp - M
            B_sq = np.vdot(B, B)
            np.subtract(b, bp, out=B)  # B is now min(b, 0), exactly
            excess = (B_sq - 2.0 * np.vdot(M, B)) / (2.0 * sigma)
            if 0.5 * tau * tau * curv + excess <= (
                    1.0 - _ARMIJO_C) * tau * slope:
                break
            tau *= _BACKTRACK
            if tau < _STEP_UNDERFLOW:
                warnings.warn("gradient step underflow; returning current "
                              "iterate", stacklevel=2)
                return F
        F -= tau * d
        LF -= tau * Ld
        arg, M = b, bp
        d_prev = d
        # optimistic restart: look a bit further than the accepted step
        trial = min(tau / _BACKTRACK, tau_cap)
    return F


def cccp_minimize(state: AlmState, graph: KnnGraph, codec: LabelCodec,
                  cfg: SolverConfig) -> np.ndarray:
    """Minimize the Lagrangian at fixed multipliers, starting from state.F.

    Each iteration re-linearizes the concave term at the current iterate and
    descends the convex surrogate. Because the surrogate upper-bounds the
    Lagrangian and touches it at the linearization point, the Lagrangian is
    non-increasing across iterations. state.F is not modified.
    """
    F = state.F
    for _ in range(cfg.t_max):
        F_t, F = F, gd_minimize(F, state, graph, codec, cfg)
        if np.linalg.norm(F - F_t) <= cfg.eps0:
            break
    return F


def alm_fit(graph: KnnGraph, codec: LabelCodec,
            cfg: SolverConfig) -> SolverReport:
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
    eps1 or after loop_max loops.
    """
    if graph.n == 0 or codec.n == 0:
        raise ValueError("cannot fit an empty graph")
    _check_dims(codec.Y, graph, codec)  # Y is the start F
    max_set = int((codec.Y > 0).sum(axis=1).max())
    floor = _SIGMA_FLOOR_MARGIN * 2.0 * cfg.beta * max_set
    if floor > SIGMA_CAP:
        raise ValueError(f"sigma floor {floor:g} from beta={cfg.beta} and max "
                         f"|S_i|={max_set} exceeds the cap {SIGMA_CAP:g}")
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
        F = cccp_minimize(state, graph, codec, cfg)
        if not np.all(np.isfinite(F)):
            raise SolverDivergenceError(f"non-finite iterate at loop {loop}")
        sigma_used = state.sigma
        value = linearized_objective(F, F, state, graph, codec, cfg)
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
        rowsum_resid=trace[-1].rowsum_resid,
        min_entry=trace[-1].min_entry,
        loops_used=len(trace),
        converged=converged,
    )

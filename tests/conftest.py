"""Shared builders for small random problem instances, and a recorder of
the inner solves."""

from dataclasses import dataclass

import numpy as np
import pytest
import scipy.sparse as sp

from supersetlabel import (
    AlmState,
    Dataset,
    SolverConfig,
    alm_fit,
    encode,
)
from supersetlabel import solver as solver_module
from supersetlabel.graph import KnnGraph, _nearest
from supersetlabel.solver import linearized_objective


def random_symmetric_graph(rng, n, edge_prob=0.6, w_lo=0.1, w_hi=1.0):
    """Random weighted graph with exact symmetry and zero diagonal."""
    W = np.zeros((n, n))
    for i in range(n):
        for k in range(i + 1, n):
            if rng.random() < edge_prob:
                W[i, k] = W[k, i] = rng.uniform(w_lo, w_hi)
    return KnnGraph(W=sp.csr_matrix(W), theta=1.0)


def lattice(side):
    """The side x side integer grid, one point per row."""
    return np.array([(x, y) for x in range(side) for y in range(side)],
                    dtype=float)


def brute_knn(base, query, K, skip_self=False,
              sq_dist=lambda rows, x: np.sum((rows - x) ** 2, axis=1)):
    """Each query row's K nearest base rows, ordered by (squared distance,
    index), and those squared distances; with skip_self, row i of query is
    row i of base and is never its own neighbour. sq_dist(rows, x) gives the
    squared distances of the rows to x."""
    idx = np.empty((len(query), K), dtype=int)
    d2 = np.empty((len(query), K))
    for i, x in enumerate(query):
        dist2 = sq_dist(base, x)
        if skip_self:
            dist2[i] = np.inf
        order = np.lexsort((np.arange(len(base)), dist2))[:K]
        idx[i], d2[i] = order, dist2[order]
    return idx, d2


def scan_knn(base, query, K, skip_self):
    """graph._nearest's blocks over a _ScanBase gathered into (len(query), K)
    arrays of indices and squared distances; the blocks must cover query's
    rows once each, in order."""
    idx = np.empty((len(query), K), dtype=np.intp)
    d2 = np.empty((len(query), K))
    stop = 0
    for rows, block_idx, block_d2 in _nearest(base, query, K, skip_self):
        assert rows.start == stop and rows.stop > stop
        idx[rows], d2[rows], stop = block_idx, block_d2, rows.stop
    assert stop == len(query)
    return idx, d2


def random_candidates(rng, n, c, ensure_singleton=False):
    """Non-empty random candidate sets over 1..c."""
    cands = [
        tuple(sorted(rng.choice(np.arange(1, c + 1),
                                size=int(rng.integers(1, c + 1)),
                                replace=False).tolist()))
        for _ in range(n)
    ]
    if ensure_singleton and all(len(s) > 1 for s in cands):
        cands[int(rng.integers(0, n))] = (int(rng.integers(1, c + 1)),)
    return tuple(cands)


def random_instance(rng, n=None, c=None, ensure_singleton=False):
    """(graph, codec, cfg) triple on a random small problem; cfg draws
    alpha and beta and keeps the other knobs at their defaults."""
    n = n or int(rng.integers(2, 11))
    c = c or int(rng.integers(2, 5))
    ds = Dataset(
        features=rng.normal(size=(n, 2)),
        candidates=random_candidates(rng, n, c, ensure_singleton),
        c=c,
    )
    graph = random_symmetric_graph(rng, n)
    cfg = SolverConfig(alpha=float(rng.uniform(0.5, 20.0)),
                       beta=float(rng.uniform(0.0, 1.0)))
    return graph, encode(ds), cfg


def random_state(rng, n, c):
    return AlmState(
        F=rng.normal(size=(n, c)),
        lambda1=np.abs(rng.normal(size=(n, c))),
        lambda2=rng.normal(size=n),
        sigma=float(rng.uniform(0.5, 10.0)),
    )


def fit_random_instances(rng, alpha_hi):
    """Twenty short fits on small dense random graphs, drawn as criterion 6
    draws them (criterion 6 uses alpha_hi=50)."""
    for _ in range(20):
        n, c = int(rng.integers(2, 7)), int(rng.integers(2, 4))
        graph = random_symmetric_graph(rng, n)
        ds = Dataset(features=rng.normal(size=(n, 2)),
                     candidates=random_candidates(rng, n, c,
                                                  ensure_singleton=True),
                     c=c)
        alm_fit(graph, encode(ds),
                SolverConfig(alpha=float(rng.uniform(1.0, alpha_hi)),
                             beta=float(rng.uniform(0.0, 0.5)),
                             loop_max=4, gd_max_iters=80))


@dataclass
class InnerCall:
    """One gd_minimize call, which is one CCCP iteration of the solve."""

    grads: int = 0            # gradients computed
    grad_norm: float = np.nan  # norm of the last one
    hit: bool | None = None   # set on return: stopped at the cap, norm above tol
    before: float = np.nan    # augmented Lagrangian at the start F_init
    after: float = np.nan     # and at the result


@pytest.fixture
def inner_calls(monkeypatch):
    """The InnerCall of every gd_minimize call, in call order.

    hit is true when the call computed gd_max_iters gradients and the last
    gradient norm is still above the tolerance. before and after are
    linearized_objective(F, F), the augmented Lagrangian at fixed
    multipliers, which each CCCP iteration must not increase.
    """
    calls = []
    gd, grad = solver_module.gd_minimize, solver_module.cccp_gradient

    def counted_gd(F_init, state, graph, codec, cfg):
        def lagrangian(F):
            return linearized_objective(F, F, state, graph, codec, cfg)

        call = InnerCall(before=lagrangian(F_init))
        calls.append(call)
        out = gd(F_init, state, graph, codec, cfg)
        call.hit = bool(call.grads >= cfg.gd_max_iters and
                        call.grad_norm > cfg.resolved_grad_tol(*F_init.shape))
        call.after = lagrangian(out)
        return out

    def counted_grad(*args, **kwargs):
        g = grad(*args, **kwargs)
        calls[-1].grads += 1
        calls[-1].grad_norm = float(np.sqrt(np.sum(g * g)))
        return g

    monkeypatch.setattr(solver_module, "gd_minimize", counted_gd)
    monkeypatch.setattr(solver_module, "cccp_gradient", counted_grad)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20240814)

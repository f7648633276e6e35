"""Shared builders for small random problem instances."""

import numpy as np
import pytest
import scipy.sparse as sp

from supersetlabel import Dataset, encode
from supersetlabel.graph import KnnGraph
from supersetlabel.objective import AlmState, ObjectiveParams


def random_symmetric_graph(rng, n, edge_prob=0.6, w_lo=0.1, w_hi=1.0):
    """Random weighted graph with exact symmetry and zero diagonal."""
    W = np.zeros((n, n))
    for i in range(n):
        for k in range(i + 1, n):
            if rng.random() < edge_prob:
                W[i, k] = W[k, i] = rng.uniform(w_lo, w_hi)
    return KnnGraph(W=sp.csr_matrix(W), K=0, theta=1.0)


def lattice(side):
    """The side x side integer grid, one point per row."""
    return np.array([(x, y) for x in range(side) for y in range(side)],
                    dtype=float)


def brute_knn(base, query, K, skip_self=False):
    """Each query row's K nearest base rows, ordered by (squared distance,
    index), and those squared distances; with skip_self, row i of query is
    row i of base and is never its own neighbour."""
    idx = np.empty((len(query), K), dtype=int)
    d2 = np.empty((len(query), K))
    for i, x in enumerate(query):
        dist2 = np.sum((base - x) ** 2, axis=1)
        if skip_self:
            dist2[i] = np.inf
        order = np.lexsort((np.arange(len(base)), dist2))[:K]
        idx[i], d2[i] = order, dist2[order]
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
    """(graph, codec, params) triple on a random small problem."""
    n = n or int(rng.integers(2, 11))
    c = c or int(rng.integers(2, 5))
    ds = Dataset(
        features=rng.normal(size=(n, 2)),
        candidates=random_candidates(rng, n, c, ensure_singleton),
        c=c,
    )
    graph = random_symmetric_graph(rng, n)
    params = ObjectiveParams(alpha=float(rng.uniform(0.5, 20.0)),
                             beta=float(rng.uniform(0.0, 1.0)))
    return graph, encode(ds), params


def random_state(rng, n, c):
    return AlmState(
        F=rng.normal(size=(n, c)),
        lambda1=np.abs(rng.normal(size=(n, c))),
        lambda2=rng.normal(size=n),
        sigma=float(rng.uniform(0.5, 10.0)),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240814)

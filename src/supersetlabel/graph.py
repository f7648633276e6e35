"""K-nearest-neighbor similarity graph and its Laplacian.

Two examples are linked when either belongs to the K nearest neighbors of
the other; edge weights come from a Gaussian kernel on Euclidean distance.
The adjacency is kept sparse and the Laplacian is applied as D@F - W@F.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .dataset import Dataset

# rows per block when scanning pairwise distances, bounds memory at block*n
_BLOCK = 512


def gaussian_weight(x_i, x_k, theta: float) -> float:
    """exp(-||x_i - x_k||^2 / (2 theta^2)), in (0, 1]."""
    if theta <= 0:
        raise ValueError(f"kernel width must be positive, got {theta}")
    diff = np.asarray(x_i, dtype=float) - np.asarray(x_k, dtype=float)
    return float(np.exp(-np.dot(diff, diff) / (2.0 * theta * theta)))


@dataclass
class KnnGraph:
    """Symmetric weighted adjacency W with degrees and Laplacian L = D - W."""

    W: sp.csr_matrix
    K: int
    theta: float
    degrees: np.ndarray = field(init=False)

    def __post_init__(self):
        self.W = sp.csr_matrix(self.W)
        self.degrees = np.asarray(self.W.sum(axis=1)).ravel()

    @property
    def n(self) -> int:
        return self.W.shape[0]

    @property
    def L(self) -> sp.csr_matrix:
        return sp.csr_matrix(sp.diags(self.degrees) - self.W)

    def laplacian_apply(self, F: np.ndarray) -> np.ndarray:
        """L @ F without materializing L."""
        return self.degrees[:, None] * F - self.W @ F


def _knn_indices(features: np.ndarray, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances of each row's K nearest other rows.

    Exact blockwise scan; ties broken by ascending index (stable sort).
    """
    n = features.shape[0]
    sq = np.sum(features**2, axis=1)
    nbr_idx = np.empty((n, K), dtype=int)
    nbr_dist = np.empty((n, K), dtype=float)
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        block = features[start:stop]
        d2 = sq[start:stop, None] - 2.0 * block @ features.T + sq[None, :]
        np.maximum(d2, 0.0, out=d2)
        for r in range(stop - start):
            d2[r, start + r] = np.inf
        order = np.argsort(d2, axis=1, kind="stable")[:, :K]
        nbr_idx[start:stop] = order
        nbr_dist[start:stop] = np.sqrt(
            np.take_along_axis(d2, order, axis=1)
        )
    return nbr_idx, nbr_dist


def auto_theta(ds: Dataset, K: int) -> float:
    """Mean distance from each example to its K nearest neighbors.

    Falls back to 1.0 when every such distance is zero (coincident points).
    """
    if ds.n < 2:
        raise ValueError("auto_theta needs at least 2 examples")
    K = min(K, ds.n - 1)
    _, dist = _knn_indices(ds.features, K)
    mean = float(dist.mean())
    return mean if mean > 0.0 else 1.0


def build_knn_graph(ds: Dataset, K: int, theta: float | str = "auto") -> KnnGraph:
    """Build the OR-symmetrized K-nearest-neighbor graph over ds.

    An edge (i, k) exists iff i is among k's K nearest neighbors or vice
    versa; both directions carry the same Gaussian weight, so W is exactly
    symmetric by construction. Coincident examples get weight 1.
    """
    n = ds.n
    if not 1 <= K <= n - 1:
        raise ValueError(f"K must be in 1..{n - 1}, got {K}")
    if theta == "auto":
        theta = auto_theta(ds, K)
    theta = float(theta)
    if theta <= 0:
        raise ValueError(f"kernel width must be positive, got {theta}")

    nbr_idx, nbr_dist = _knn_indices(ds.features, K)
    rows = np.repeat(np.arange(n), K)
    cols = nbr_idx.ravel()
    d2 = nbr_dist.ravel() ** 2

    # keep one weight per undirected pair, then mirror it
    lo = np.minimum(rows, cols)
    hi = np.maximum(rows, cols)
    pairs = {}
    for a, b, dd in zip(lo, hi, d2):
        pairs[(int(a), int(b))] = dd
    if pairs:
        pa = np.array([p[0] for p in pairs], dtype=int)
        pb = np.array([p[1] for p in pairs], dtype=int)
        pw = np.exp(-np.fromiter(pairs.values(), dtype=float)
                    / (2.0 * theta * theta))
        W = sp.coo_matrix(
            (np.concatenate([pw, pw]),
             (np.concatenate([pa, pb]), np.concatenate([pb, pa]))),
            shape=(n, n),
        ).tocsr()
    else:
        W = sp.csr_matrix((n, n))
    return KnnGraph(W=W, K=K, theta=theta)


def write_edge_list(graph: KnnGraph, path) -> None:
    """Debug dump: one undirected edge per line as "i<TAB>k<TAB>w", 1-based."""
    coo = graph.W.tocoo()
    with open(path, "w") as f:
        for i, k, w in zip(coo.row, coo.col, coo.data):
            if i < k:
                f.write(f"{i + 1}\t{k + 1}\t{w:.17g}\n")

"""K-nearest-neighbor similarity graph and its Laplacian.

Two examples are linked when either belongs to the K nearest neighbors of
the other; edge weights come from a Gaussian kernel on Euclidean distance.
The adjacency is kept sparse and the Laplacian is applied as D@F - W@F.

`_nearest` is the one neighbor search of the package; the graph, `theta`
and the test-time vote (inference.py) all rank rows through it. The vote
also shares the graph's kernel, `gaussian_weight`, and its rule for a
kernel width, `check_theta`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .dataset import Dataset

if TYPE_CHECKING:  # imported where a graph is built, so predict never loads it
    import scipy.sparse as sp

# a scanned block holds about this many pairwise distances (512 KiB)
_BLOCK_ENTRIES = 65536


@dataclass
class KnnGraph:
    """Symmetric weighted adjacency W with degrees and Laplacian L = D - W."""

    W: sp.csr_matrix
    theta: float
    degrees: np.ndarray = field(init=False)

    def __post_init__(self):
        import scipy.sparse as sp
        self.W = sp.csr_matrix(self.W)
        self.degrees = np.asarray(self.W.sum(axis=1)).ravel()

    @property
    def n(self) -> int:
        return self.W.shape[0]

    def laplacian_apply(self, F: np.ndarray) -> np.ndarray:
        """L @ F without materializing L."""
        return self.degrees[:, None] * F - self.W @ F


def check_theta(theta: float) -> float:
    """theta, if it is a finite positive kernel width; else a ValueError."""
    if not 0 < theta < np.inf:
        raise ValueError(f"theta must be finite and positive, got {theta}")
    return theta


def gaussian_weight(d2: np.ndarray, theta: float) -> np.ndarray:
    """The kernel on squared distances: exp(-d2 / (2 theta^2))."""
    return np.exp(-d2 / (2.0 * theta * theta))


def _sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum((a - b)^2) over the last axis, in the same order for every row."""
    diff = a - b
    return np.einsum("...d,...d->...", diff, diff)


def _nearest(base: np.ndarray, query: np.ndarray, K: int,
             skip_self: bool) -> tuple[np.ndarray, np.ndarray]:
    """Indices and squared distances of the K nearest base rows of each query row.

    Rows rank by squared Euclidean distance with ties to the lower index, and
    each output row is ordered by (distance, index). With skip_self, query is
    base and row i never lists itself, even when other rows coincide with it.
    Candidates come from a blockwise scan of |q|^2 - 2 q.x + |x|^2; rows that
    the scan cannot tell from the K-th nearest within its rounding error are
    ranked by the direct sum((q - x)^2), and so are the distances returned, so
    coincident points are exactly 0 apart and d2(i, k) == d2(k, i) bit for bit.
    """
    n, m = base.shape[0], query.shape[0]
    block = max(16, _BLOCK_ENTRIES // n)
    base_sq = np.einsum("ij,ij->i", base, base)
    query_sq = np.einsum("ij,ij->i", query, query)
    # at least twice the rounding error of one scanned distance
    slack = 4.0 * (base.shape[1] + 4) * np.finfo(float).eps * (
        query_sq + base_sq.max())
    idx = np.empty((m, K), dtype=np.intp)
    d2 = np.empty((m, K))
    for start in range(0, m, block):
        stop = min(start + block, m)
        q = query[start:stop]
        rows = np.arange(stop - start)
        scan = q @ base.T
        scan *= -2.0
        scan += query_sq[start:stop, None]
        scan += base_sq
        if skip_self:
            scan[rows, start + rows] = np.inf
        near = np.argpartition(scan, K - 1, axis=1)[:, :K]
        band = scan <= (scan[rows, near[:, K - 1]] + slack[start:stop])[:, None]
        for r in np.flatnonzero(np.count_nonzero(band, axis=1) > K):
            cand = np.flatnonzero(band[r])
            near[r] = cand[np.argsort(_sq_dist(base[cand], q[r]),
                                      kind="stable")[:K]]
        exact = _sq_dist(base[near], q[:, None, :])
        order = np.lexsort((near, exact), axis=1)
        idx[start:stop] = np.take_along_axis(near, order, axis=1)
        d2[start:stop] = np.take_along_axis(exact, order, axis=1)
    return idx, d2


def _mean_distance(d2: np.ndarray) -> float:
    """Mean of the distances, or 1.0 when all are zero (coincident points)."""
    mean = float(np.sqrt(d2).mean())
    return mean if mean > 0.0 else 1.0


def auto_theta(ds: Dataset, K: int) -> float:
    """Mean distance from each example to its K nearest neighbors.

    Falls back to 1.0 when every such distance is zero (coincident points).
    """
    if ds.n < 2:
        raise ValueError("auto_theta needs at least 2 examples")
    _, d2 = _nearest(ds.features, ds.features, min(K, ds.n - 1), skip_self=True)
    return _mean_distance(d2)


def build_knn_graph(ds: Dataset, K: int, theta: float | str = "auto") -> KnnGraph:
    """Build the OR-symmetrized K-nearest-neighbor graph over ds.

    An edge (i, k) exists iff i is among k's K nearest neighbors or vice
    versa. Both directions carry the same Gaussian weight, because the kernel
    returns bit-identical distances for (i, k) and (k, i), so W is exactly
    symmetric. Coincident examples get weight 1. theta="auto" takes the mean
    neighbor distance from the same scan.
    """
    import scipy.sparse as sp
    n = ds.n
    if not 1 <= K <= n - 1:
        raise ValueError(f"K must be in 1..{n - 1}, got {K}")
    nbr_idx, nbr_d2 = _nearest(ds.features, ds.features, K, skip_self=True)
    theta = check_theta(
        _mean_distance(nbr_d2) if theta == "auto" else float(theta))
    w = gaussian_weight(nbr_d2, theta)
    W = sp.csr_matrix((w.ravel(), nbr_idx.ravel(), np.arange(0, n * K + 1, K)),
                      shape=(n, n))
    return KnnGraph(W=W.maximum(W.T), theta=theta)

"""K-nearest-neighbor similarity graph and its Laplacian.

Two examples are linked when either belongs to the K nearest neighbors of
the other; edge weights come from a Gaussian kernel on Euclidean distance.
The adjacency is kept sparse and the Laplacian is applied as D@F - W@F.

`_nearest` is the one neighbor search of the package; the graph, `theta`
and the test-time vote (inference.py) all rank rows through it. It is an
exact blockwise scan: a per-row threshold from the minima of column groups
leaves a few candidates per row, which are ranked by their direct distance.
The vote also shares the graph's kernel, `gaussian_weight`. K and theta are
checked by the package's rules in dataset.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt
from typing import TYPE_CHECKING

import numpy as np

from .dataset import Dataset, check_count, check_positive

if TYPE_CHECKING:  # imported where a graph is built, so predict never loads it
    import scipy.sparse as sp

# a scanned block holds about this many half-distances (512 KiB), plus the
# padding that fills its last column group
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
    Every value must be finite.

    A blockwise scan computes |x|^2/2 - q.x, which is half the squared
    distance less the row constant |q|^2/2, up to rounding. The columns fall
    into groups of fixed width. At least K columns scan at or below the K-th
    smallest group minimum, so that minimum plus twice the rounding error is a
    per-row threshold t at or below which every base row that can be among
    the K nearest scans. The candidates are the entries at or below t in the
    groups whose minimum is at or below t; one lexsort ranks them by the
    direct sum((q - x)^2), then by index. The distances returned are these
    direct sums, so coincident points are exactly 0 apart and
    d2(i, k) == d2(k, i) bit for bit.
    """
    n, m = base.shape[0], query.shape[0]
    block = max(16, _BLOCK_ENTRIES // n)
    # about sqrt(n) columns per group, and at least K + 1 groups, so that K
    # groups have a finite minimum even where one holds only the skipped self
    width = max(1, min(isqrt(n), n // (K + 1)))
    groups = -(-n // width)
    half_sq = 0.5 * np.einsum("ij,ij->i", base, base)
    query_sq = np.einsum("ij,ij->i", query, query)
    # at least twice the rounding error of one scanned half-distance
    slack = 2.0 * (base.shape[1] + 4) * np.finfo(float).eps * (
        query_sq + 2.0 * half_sq.max())
    idx = np.empty((m, K), dtype=np.intp)
    d2 = np.empty((m, K))
    # columns past n fill the last group and scan as inf
    buf = np.full((min(block, m), groups * width), np.inf)
    group_starts = np.arange(0, groups * width, width)
    for start in range(0, m, block):
        stop = min(start + block, m)
        q = query[start:stop]
        scan = buf[:stop - start]
        real = scan[:, :n]
        np.matmul(q, base.T, out=real)
        np.subtract(half_sq, real, out=real)
        if skip_self:
            i = np.arange(stop - start)
            real[i, start + i] = np.inf
        group_min = np.minimum.reduceat(scan, group_starts, axis=1)
        t = np.partition(group_min, K - 1, axis=1)[:, K - 1]
        t += slack[start:stop]
        r, g = np.nonzero(group_min <= t[:, None])
        hit, k = np.nonzero(
            scan.reshape(len(q), groups, width)[r, g] <= t[r, None])
        rows, cols = r[hit], g[hit] * width + k
        counts = np.bincount(rows, minlength=len(q))
        exact = _sq_dist(base.take(cols, axis=0), np.repeat(q, counts, axis=0))
        # rows ascend, and cols within a row; lexsort is stable, so this orders
        # each row's candidates by (distance, index)
        order = np.lexsort((exact, rows))
        top = order[(np.cumsum(counts) - counts)[:, None] + np.arange(K)]
        idx[start:stop] = cols[top]
        d2[start:stop] = exact[top]
    return idx, d2


def _mean_distance(d2: np.ndarray) -> float:
    """Mean of the distances, or 1.0 when all are zero (coincident points)."""
    mean = float(np.sqrt(d2).mean())
    return mean if mean > 0.0 else 1.0


def auto_theta(ds: Dataset, K: int) -> float:
    """Mean distance from each example to its K nearest neighbors.

    Falls back to 1.0 when every such distance is zero (coincident points).
    """
    check_count(K, "K")
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
    if check_count(K, "K") > n - 1:
        raise ValueError(f"K must be in 1..{n - 1}, got {K}")
    nbr_idx, nbr_d2 = _nearest(ds.features, ds.features, K, skip_self=True)
    theta = float(check_positive(
        _mean_distance(nbr_d2) if theta == "auto" else theta, "theta"))
    w = gaussian_weight(nbr_d2, theta)
    W = sp.csr_matrix((w.ravel(), nbr_idx.ravel(), np.arange(0, n * K + 1, K)),
                      shape=(n, n))
    return KnnGraph(W=W.maximum(W.T), theta=theta)

"""K-nearest-neighbor similarity graph, its Laplacian, and the test-time vote.

Two examples are linked when either belongs to the K nearest neighbors of
the other; edge weights come from a Gaussian kernel on Euclidean distance.
The adjacency is kept sparse, and the Laplacian L = D - W is stored as a
sparse matrix on first use, so applying it is one product.

A test point takes the argmax of the one-hot disambiguated label vectors of
its K nearest training examples, weighted by the same kernel,
`gaussian_weight`; `predict_batch` scores each block of test points as the
scan ranks it. The no-disambiguation control is the same vote over the raw
candidate vectors: `Predictor(ds.features, encode(ds).Y, K, theta)`.

`_nearest` is the one neighbor search of the package; the graph, `theta`
and the vote all rank rows through it, under one rule (ties to the lower
index). It is an exact blockwise scan: a float32 product against a base
prepared once as a `_ScanBase` (centred on its midrange and scaled by a
power of two, so that every entry is at most 1) gives each row its
half-distances, a per-row threshold from the minima of column groups leaves
a few candidates per row, and those are ranked by their direct float64
distance. The threshold's slack bounds the float32 error term by term
(input rounding, the (d + 1)-term product, centring and direct-sum
underflow; see `_nearest`), so the result is the exact float64 ranking. K
and theta are checked by the package's rules in dataset.py.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field
from math import isqrt, ldexp
from typing import TYPE_CHECKING

import numpy as np

from .dataset import Dataset, check_count, check_finite_rows, check_positive

if TYPE_CHECKING:  # imported where a graph is built, so predict never loads it
    import scipy.sparse as sp

# a scanned block of float32 half-distances takes about this many bytes, plus
# the padding that fills its last column group
_BLOCK_BYTES = 1 << 19
# a query row with a larger centred, scaled entry is not scanned; below it, a
# block's products and their sums stay far inside float32's range (2**128)
_SCAN_RANGE = 2.0 ** 60
_EPS32 = 2.0 ** -23  # float32 machine epsilon
_FOLD = 64  # rows folded side by side by _column_extremes


@dataclass
class KnnGraph:
    """Symmetric weighted adjacency W with degrees and Laplacian L = D - W."""

    W: sp.csr_matrix
    theta: float
    degrees: np.ndarray = field(init=False)
    _L: sp.csr_matrix | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        import scipy.sparse as sp
        self.W = sp.csr_matrix(self.W)
        self.degrees = np.asarray(self.W.sum(axis=1)).ravel()

    @property
    def n(self) -> int:
        return self.W.shape[0]

    @property
    def L(self) -> sp.csr_matrix:
        """The Laplacian D - W, stored on first use, so that a graph that is
        only voted over never holds a second sparse matrix."""
        if self._L is None:
            import scipy.sparse as sp
            self._L = sp.csr_matrix(sp.diags(self.degrees) - self.W)
        return self._L

    def laplacian_apply(self, F: np.ndarray) -> np.ndarray:
        """L @ F, one sparse product."""
        return self.L @ F


def gaussian_weight(d2: np.ndarray, theta: float) -> np.ndarray:
    """The kernel on squared distances: exp(-d2 / (2 theta^2))."""
    return np.exp(-d2 / (2.0 * theta * theta))


def _sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum((a - b)^2) over the last axis, in the same order for every row."""
    diff = a - b
    return np.einsum("...d,...d->...", diff, diff)


def _column_extremes(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's max and min of a 2-D array with at least one row.

    numpy reduces a C-ordered array down its columns one row at a time, which
    is slow for a narrow row, so the rows are first folded in groups of
    _FOLD side by side: one reduction then runs over rows _FOLD times wider.
    """
    n, d = x.shape
    whole = n - n % _FOLD
    folded = x[:whole].reshape(whole // _FOLD, _FOLD * d)
    top = np.vstack([folded.max(axis=0, initial=-np.inf).reshape(_FOLD, d),
                     x[whole:]])
    bottom = np.vstack([folded.min(axis=0, initial=np.inf).reshape(_FOLD, d),
                        x[whole:]])
    return top.max(axis=0), bottom.min(axis=0)


class _ScanBase:
    """Base rows prepared once for any number of `_nearest` scans.

    x' = (x - centre) * 2**-exponent is a row centred on the base's midrange
    (0.5 max + 0.5 min per column, which cannot overflow where a mean's sum
    can) and scaled by a power of two, so that every entry is at most 1 in
    magnitude. The float32 operand, (d + 1) x n and C-contiguous, holds -x'
    and then |x'|^2/2 in each column. Every value of features must be finite.
    """

    def __init__(self, features: np.ndarray):
        n, d = features.shape
        self.features = features
        top, bottom = _column_extremes(features)
        self.centre = 0.5 * top + 0.5 * bottom
        # x - centre rounds monotonically in x, so each column's largest
        # |x - centre| is at its max or its min
        reach = np.maximum(top - self.centre, self.centre - bottom)
        self.exponent = int(np.frexp(reach.max(initial=0.0))[1])
        scaled = features - self.centre
        np.ldexp(scaled, -self.exponent, out=scaled)
        half_sq = 0.5 * np.einsum("ij,ij->i", scaled, scaled)
        self.half_sq_max = float(half_sq.max(initial=0.0))
        self.operand = np.empty((d + 1, n), dtype=np.float32)
        np.negative(scaled.T, out=self.operand[:d])
        self.operand[d] = half_sq


def _nearest(base: _ScanBase, query: np.ndarray, K: int,
             skip_self: bool) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """Indices and squared distances of the K nearest base rows of each query row.

    Yields (rows, idx, d2) for each block of the scan as it is ranked: rows
    is the slice of query it covers, idx and d2 are (len(rows), K). Rows rank
    by squared Euclidean distance with ties to the lower index, and each
    output row is ordered by (distance, index). With skip_self, query is
    base.features and row i never lists itself, even when other rows
    coincide with it. Every value must be finite.

    A blockwise float32 scan multiplies each query row [q', 1], centred and
    scaled as the base is (`_ScanBase`, with e its exponent), by the operand.
    That gives s(x) = |x'|^2/2 - q'.x' = 2**-2e |q - x|^2/2 - |q'|^2/2:
    within a query row, half the squared distance in scan units plus a row
    constant. The columns fall into groups of fixed width. At least K columns
    scan at or below the K-th smallest group minimum m, so a per-row
    threshold t = m + slack, with slack at least twice the error E of one
    scanned value plus the error of comparing two direct distances, leaves
    every base row that can be among the K nearest at or below t. The
    candidates are the entries at or below t in the groups whose minimum is
    at or below t; one lexsort ranks them by the direct float64
    sum((q - x)^2), then by index. The distances returned are these direct
    sums, so coincident points are exactly 0 apart and d2(i, k) == d2(k, i)
    bit for bit.

    The slack, term by term, with u = eps32/2 and h = max |x'|^2/2 <= d/2:
      - input rounding: q', x' and |x'|^2/2 are rounded to float32, which
        moves each of the d + 1 products by at most 2u of itself;
      - the (d + 1)-term product: a float32 dot product of d + 1 terms errs
        by at most (d + 1)u(1 + O(du)) times the sum of the terms'
        magnitudes, sum|q'_j x'_j| + |x'|^2/2 <= (|q'|^2 + 4h)/2. With the
        input rounding, E <= (d + 4)u (|q'|^2 + 4h)/2, so
        2E <= (d + 4) eps32 (|q'|^2 + 4h)/2;
      - centring: q - centre and x - centre are rounded in float64, and the
        direct sums carry a float64 relative error of about (d + 2) eps64.
        Both move a scaled distance, at most |q'|^2 + 2h, by a few d eps64
        of it, far below eps32 of it;
      - direct-sum underflow: where (q_j - x_j)^2 is subnormal, each square
        errs by up to 2**-1075, so two direct sums compared may differ from
        the distances by d 2**-1074, which is d 2**(-1075 - 2e) in scan
        units.
    slack = (d + 6) eps32 (|q'|^2 + 4h) + (d + 1) 2**(-1074 - 2e) covers all
    four, with a factor of two to spare on the first two. It is finite, so
    the +inf padding is never a candidate. A query row with an entry of q'
    beyond _SCAN_RANGE, which could carry the scan out of float32's range,
    is scanned as 0, so that every base row is its candidate.
    """
    features = base.features
    n, d = features.shape
    m = query.shape[0]
    block = max(32, _BLOCK_BYTES // (4 * n))
    # about sqrt(n) columns per group, and at least K + 1 groups, so that K
    # groups have a finite minimum even where one holds only the skipped self
    width = max(1, min(isqrt(n), n // (K + 1)))
    groups = -(-n // width)
    # the direct-sum underflow term, capped where it already exceeds every
    # scanned value
    underflow = ldexp(d + 1, min(-1074 - 2 * base.exponent, 256))
    # columns past n fill the last group and scan as inf
    buf = np.full((min(block, m), groups * width), np.inf, dtype=np.float32)
    group_starts = np.arange(0, groups * width, width)
    for start in range(0, m, block):
        stop = min(start + block, m)
        q = query[start:stop]
        with np.errstate(over="ignore"):
            scaled = np.ldexp(q - base.centre, -base.exponent)
        in_range = np.all(np.abs(scaled) <= _SCAN_RANGE, axis=1)
        scaled[~in_range] = 0.0
        aug = np.empty((len(q), d + 1), dtype=np.float32)
        aug[:, :d] = scaled
        aug[:, d] = in_range
        scan = buf[:stop - start]
        real = scan[:, :n]
        np.matmul(aug, base.operand, out=real)
        if skip_self:
            i = np.arange(stop - start)
            real[i, start + i] = np.inf
        group_min = np.minimum.reduceat(scan, group_starts, axis=1)
        t = np.partition(group_min, K - 1, axis=1)[:, K - 1].astype(float)
        t += (d + 6) * _EPS32 * (np.einsum("ij,ij->i", scaled, scaled)
                                 + 4.0 * base.half_sq_max) + underflow
        r, g = np.nonzero(group_min <= t[:, None])
        hit, k = np.nonzero(
            scan.reshape(len(q), groups, width)[r, g] <= t[r, None])
        rows, cols = r[hit], g[hit] * width + k
        counts = np.bincount(rows, minlength=len(q))
        if counts.min() < K:
            row = start + int(np.argmin(counts))
            raise RuntimeError(f"the neighbor scan kept {counts.min()} "
                               f"candidates for query row {row}, fewer than "
                               f"K={K}")
        exact = _sq_dist(features.take(cols, axis=0),
                         np.repeat(q, counts, axis=0))
        # rows ascend, and cols within a row; lexsort is stable, so this orders
        # each row's candidates by (distance, index)
        order = np.lexsort((exact, rows))
        top = order[(np.cumsum(counts) - counts)[:, None] + np.arange(K)]
        yield slice(start, stop), cols[top], exact[top]


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
    return _mean_distance(np.concatenate([d2 for _, _, d2 in _nearest(
        _ScanBase(ds.features), ds.features, min(K, ds.n - 1),
        skip_self=True)]))


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
    nbr_idx, nbr_d2 = np.empty((n, K), dtype=np.intp), np.empty((n, K))
    for rows, idx, d2 in _nearest(_ScanBase(ds.features), ds.features, K,
                                  skip_self=True):
        nbr_idx[rows], nbr_d2[rows] = idx, d2
    theta = float(check_positive(
        _mean_distance(nbr_d2) if theta == "auto" else theta, "theta"))
    w = gaussian_weight(nbr_d2, theta)
    W = sp.csr_matrix((w.ravel(), nbr_idx.ravel(), np.arange(0, n * K + 1, K)),
                      shape=(n, n))
    return KnnGraph(W=W.maximum(W.T), theta=theta)


@dataclass
class Predictor:
    """Frozen training features with their disambiguated one-hot labels."""

    train_features: np.ndarray
    onehot: np.ndarray
    K: int
    theta: float

    def __post_init__(self):
        check_count(self.K, "K")
        check_positive(self.theta, "theta")
        if len(self.onehot) != len(self.train_features):
            raise ValueError(f"{len(self.onehot)} onehot rows but "
                             f"{len(self.train_features)} train_features rows")
        self.train_features = check_finite_rows(self.train_features, "train_features")
        check_count(len(self.train_features), "train_features rows")


def predict_batch(p: Predictor, X_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Labels and score matrix for a batch of test points.

    X_t must be 2-D, one row per point, as wide as the training features. A
    row with a NaN or infinite value is a ValueError naming the row."""
    X_t = check_finite_rows(X_t, "test feature")
    n, d = p.train_features.shape
    if X_t.shape[1] != d:
        raise ValueError(f"test features have {X_t.shape[1]} dims, "
                         f"model expects {d}")
    if p.K > n:
        warnings.warn(f"K={p.K} exceeds {n} training examples; clamping",
                      stacklevel=2)
    scores = np.empty((X_t.shape[0], p.onehot.shape[1]))
    for rows, idx, d2 in _nearest(_ScanBase(p.train_features), X_t,
                                  min(p.K, n), skip_self=False):
        # each score row is its neighbors' label rows, summed by kernel weight
        scores[rows] = np.einsum("mk,mkc->mc", gaussian_weight(d2, p.theta),
                                 p.onehot[idx])
    return np.argmax(scores, axis=1) + 1, scores

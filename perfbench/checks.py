"""Output checks, computed with plain NumPy apart from the program.

Each check returns a list of failure messages; an empty list means the
output passed. The brute-force references order neighbours by squared
distance with ties to the lower index, the tie rule the method specifies.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

RTOL = 1e-8          # relative tolerance on recomputed weights, theta and scores
ROWSUM_TOL = 1e-3    # acceptance criterion 3: max_i |sum_j F*_ij - 1|
MIN_ENTRY_TOL = -1e-4  # acceptance criterion 3: min F*_ij
MIN_TRAIN_ACC = 0.90


def knn_of_rows(features: np.ndarray, rows, K: int):
    """K nearest other rows (ties to the lower index) and their squared distances."""
    idx = np.empty((len(rows), K), dtype=int)
    d2 = np.empty((len(rows), K))
    for r, i in enumerate(rows):
        diff = features - features[i]
        dist2 = np.einsum("ij,ij->i", diff, diff)
        dist2[i] = np.inf
        order = np.lexsort((np.arange(len(dist2)), dist2))[:K]
        idx[r], d2[r] = order, dist2[order]
    return idx, d2


def mean_knn_distance(features: np.ndarray, K: int, block: int = 256) -> float:
    """Mean distance from each row to its K nearest other rows, over all rows."""
    n = features.shape[0]
    sq = np.einsum("ij,ij->i", features, features)
    total = 0.0
    for start in range(0, n, block):
        stop = min(start + block, n)
        d2 = sq[start:stop, None] - 2.0 * features[start:stop] @ features.T + sq
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        part = np.partition(d2, K - 1, axis=1)[:, :K]
        total += float(np.sqrt(np.maximum(part, 0.0)).sum())
    mean = total / (n * K)
    return mean if mean > 0.0 else 1.0


def check_graph(features: np.ndarray, K: int, W, theta: float, sample_rows) -> list[str]:
    """W symmetric, zero diagonal, weights in (0, 1], theta the mean K-NN
    distance, and each sampled row linked exactly to its K nearest neighbours
    and to the rows that have it among theirs, with Gaussian weights."""
    fails = []
    W = sp.csr_matrix(W)
    asym = abs(W - W.T)
    if asym.nnz and asym.max() > 0.0:
        fails.append(f"graph: W is not symmetric (max |W - W'| = {asym.max():.3g})")
    if np.any(W.diagonal() != 0.0):
        fails.append("graph: W has a nonzero diagonal entry")
    if W.nnz and not (W.data.min() > 0.0 and W.data.max() <= 1.0):
        fails.append(f"graph: weights outside (0, 1]: "
                     f"[{W.data.min():.3g}, {W.data.max():.3g}]")
    want_theta = mean_knn_distance(features, K)
    if not abs(theta - want_theta) <= RTOL * want_theta:
        fails.append(f"graph: theta {theta!r} is not the mean {K}-NN distance "
                     f"{want_theta!r}")

    sample_rows = list(sample_rows)
    nbr, nbr_d2 = knn_of_rows(features, sample_rows, K)
    for r, i in enumerate(sample_rows):
        row = W.getrow(i)
        got = dict(zip(row.indices.tolist(), row.data.tolist()))
        want = dict(zip(nbr[r].tolist(),
                        np.exp(-nbr_d2[r] / (2.0 * want_theta ** 2)).tolist()))
        # edges i gets only from the symmetrization must have i among their K-NN
        extra = [k for k in got if k not in want]
        if extra:
            back, back_d2 = knn_of_rows(features, extra, K)
            for k, ks_nbrs, ks_d2 in zip(extra, back, back_d2):
                hit = np.flatnonzero(ks_nbrs == i)
                if hit.size:
                    want[k] = float(np.exp(-ks_d2[hit[0]] / (2.0 * want_theta ** 2)))
        for k, w in want.items():
            if k not in got:
                fails.append(f"graph: row {i}: nearest neighbour {k} is not an edge")
            elif not abs(got[k] - w) <= RTOL * w:
                fails.append(f"graph: edge ({i}, {k}) has weight {got[k]!r}, "
                             f"expected {w!r}")
        for k in got:
            if k not in want:
                fails.append(f"graph: edge ({i}, {k}) joins rows that are not "
                             f"among each other's {K} nearest neighbours")
    return fails


def expected_Y(candidates, c: int) -> np.ndarray:
    """Candidate matrix: 1/|S_i| on the candidates of example i, else 0."""
    Y = np.zeros((len(candidates), c))
    for i, s in enumerate(candidates):
        Y[i, np.asarray(s) - 1] = 1.0 / len(s)
    return Y


def check_codec(candidates, c: int, Y: np.ndarray, H: np.ndarray) -> list[str]:
    """Rows of Y sum to 1, spread evenly over the candidate set, and
    H == (Y == 0)."""
    fails = []
    n = len(candidates)
    if Y.shape != (n, c) or H.shape != (n, c):
        return [f"codec: Y {Y.shape} / H {H.shape}, expected {(n, c)}"]
    resid = np.abs(Y.sum(axis=1) - 1.0)
    if resid.max() > 1e-12:
        fails.append(f"codec: a row of Y sums to 1 +- {resid.max():.3g}")
    if np.abs(Y - expected_Y(candidates, c)).max() > 1e-15:
        fails.append("codec: Y is not 1/|S_i| on each candidate set")
    if not np.array_equal(H, (Y == 0).astype(H.dtype)):
        fails.append("codec: H differs from (Y == 0)")
    return fails


def check_solve(F_star: np.ndarray, labels: np.ndarray, converged: bool,
                truth: np.ndarray) -> list[str]:
    """Converged, feasible within criterion 3, labels the row argmax of F*,
    and training accuracy at least 0.90."""
    fails = []
    if not converged:
        fails.append("solve: converged is false")
    resid = float(np.max(np.abs(F_star.sum(axis=1) - 1.0)))
    if not resid <= ROWSUM_TOL:
        fails.append(f"solve: row-sum residual {resid:.3g} > {ROWSUM_TOL}")
    if not F_star.min() >= MIN_ENTRY_TOL:
        fails.append(f"solve: min entry {F_star.min():.3g} < {MIN_ENTRY_TOL}")
    if not np.array_equal(np.asarray(labels), np.argmax(F_star, axis=1) + 1):
        fails.append("solve: labels differ from the row argmax of F*")
    acc = float(np.mean(np.asarray(labels) == truth))
    if not acc >= MIN_TRAIN_ACC:
        fails.append(f"solve: training accuracy {acc:.4f} < {MIN_TRAIN_ACC}")
    return fails


def vote(train_features: np.ndarray, onehot: np.ndarray, K: int, theta: float,
         x: np.ndarray) -> np.ndarray:
    """Gaussian-weighted K-NN vote scores of one point."""
    diff = train_features - x
    d2 = np.einsum("ij,ij->i", diff, diff)
    order = np.lexsort((np.arange(len(d2)), d2))[:K]
    return np.exp(-d2[order] / (2.0 * theta * theta)) @ onehot[order]


def check_prediction(train_features: np.ndarray, onehot: np.ndarray, K: int,
                     theta: float, X: np.ndarray, labels: np.ndarray,
                     sample_rows) -> list[str]:
    """Predicted labels of sampled points equal a brute-force vote (a label
    whose score ties the best within RTOL is accepted)."""
    fails = []
    for i in sample_rows:
        scores = vote(train_features, onehot, K, theta, X[i])
        j = int(labels[i]) - 1
        if not (0 <= j < len(scores)) or scores[j] < scores.max() * (1.0 - RTOL):
            fails.append(f"predict: point {i} labelled {labels[i]}, brute-force "
                         f"vote gives {int(np.argmax(scores)) + 1}")
    return fails


def check_beats_control(test_acc: float, control_acc: float) -> list[str]:
    if not test_acc > control_acc:
        return [f"predict: test accuracy {test_acc:.4f} is not above the "
                f"ambiguous-kNN control's {control_acc:.4f}"]
    return []

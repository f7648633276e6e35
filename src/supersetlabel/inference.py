"""Test-stage prediction by Gaussian-weighted nearest-neighbor voting.

A test point collects the one-hot disambiguated label vectors of its K
nearest training examples, weighted by the same Gaussian kernel used on the
training graph, and takes the argmax. The neighbors come from the graph's
search kernel under the same rule (ties to the lower index), and
`predict_batch` scores the test points in fixed-size chunks; `predict` is
the batch vote on one row. The ambiguous-kNN baseline is `predict` over the
raw candidate vectors instead, serving as the no-disambiguation control.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .graph import _nearest, check_theta, gaussian_weight
from .labelspace import encode

_CHUNK = 256  # test points scored together; bounds the scan's working set


@dataclass
class Predictor:
    """Frozen training features with their disambiguated one-hot labels."""

    train_features: np.ndarray
    onehot: np.ndarray
    K: int
    theta: float

    def __post_init__(self):
        if self.K < 1:
            raise ValueError(f"K must be at least 1, got {self.K}")
        check_theta(self.theta)
        if len(self.onehot) != len(self.train_features):
            raise ValueError(f"{len(self.onehot)} onehot rows but "
                             f"{len(self.train_features)} train_features rows")
        _check_finite(self.train_features, "train_features")


def _check_finite(X: np.ndarray, what: str) -> None:
    """Raise a ValueError naming the first row of X with a NaN or infinite
    value; the neighbor search ranks finite rows only."""
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise ValueError(f"non-finite {what} value in row {bad[0] + 1}")


def predict(p: Predictor, x_t) -> tuple[int, np.ndarray]:
    """Label and unnormalized score vector for one test point."""
    labels, scores = predict_batch(p, [x_t])
    return int(labels[0]), scores[0]


def predict_batch(p: Predictor, X_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Labels and score matrix for a batch of test points.

    A row with a NaN or infinite value is a ValueError naming the row."""
    X_t = np.asarray(X_t, dtype=float)
    _check_finite(X_t, "test feature")
    scores = np.empty((X_t.shape[0], p.onehot.shape[1]))
    K, n = p.K, p.train_features.shape[0]
    if K > n:
        warnings.warn(f"K={K} exceeds {n} training examples; clamping",
                      stacklevel=2)
        K = n
    for start in range(0, X_t.shape[0], _CHUNK):
        idx, d2 = _nearest(p.train_features, X_t[start:start + _CHUNK], K,
                           skip_self=False)
        # each score row is its neighbors' label rows, summed by kernel weight
        scores[start:start + _CHUNK] = np.einsum(
            "mk,mkc->mc", gaussian_weight(d2, p.theta), p.onehot[idx])
    return np.argmax(scores, axis=1) + 1, scores


def baseline_ambiguous_knn(ds_train: Dataset, x_t, K: int, theta: float) -> int:
    """Weighted kNN vote over the raw (undisambiguated) candidate vectors."""
    return predict(Predictor(ds_train.features, encode(ds_train).Y, K, theta),
                   x_t)[0]

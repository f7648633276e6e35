"""Test-stage prediction by Gaussian-weighted nearest-neighbor voting.

A test point collects the one-hot disambiguated label vectors of its K
nearest training examples, weighted by the same Gaussian kernel used on the
training graph, and takes the argmax. The ambiguous-kNN baseline does the
same with the raw candidate vectors instead, serving as the
no-disambiguation control.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset


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
        if self.theta <= 0:
            raise ValueError(f"kernel width must be positive, got {self.theta}")


def _neighbor_weights(train_features: np.ndarray, x_t: np.ndarray, K: int,
                      theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Indices and Gaussian weights of x_t's K nearest training rows."""
    n = train_features.shape[0]
    if K > n:
        warnings.warn(f"K={K} exceeds {n} training examples; clamping",
                      stacklevel=3)
        K = n
    diff = train_features - np.asarray(x_t, dtype=float)[None, :]
    d2 = np.sum(diff * diff, axis=1)
    order = np.argsort(d2, kind="stable")[:K]
    return order, np.exp(-d2[order] / (2.0 * theta * theta))


def predict(p: Predictor, x_t) -> tuple[int, np.ndarray]:
    """Label and unnormalized score vector for one test point."""
    idx, w = _neighbor_weights(p.train_features, x_t, p.K, p.theta)
    scores = w @ p.onehot[idx]
    return int(np.argmax(scores)) + 1, scores


def predict_batch(p: Predictor, X_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Labels and score matrix for a batch of test points."""
    X_t = np.asarray(X_t, dtype=float)
    labels = np.empty(X_t.shape[0], dtype=int)
    scores = np.empty((X_t.shape[0], p.onehot.shape[1]))
    for i, x in enumerate(X_t):
        labels[i], scores[i] = predict(p, x)
    return labels, scores


def baseline_ambiguous_knn(ds_train: Dataset, x_t, K: int, theta: float) -> int:
    """Weighted kNN vote over the raw (undisambiguated) candidate vectors."""
    if theta <= 0:
        raise ValueError(f"kernel width must be positive, got {theta}")
    idx, w = _neighbor_weights(ds_train.features, x_t, K, theta)
    # only the neighbours' rows of Y: 1/|S_i| on each candidate set
    Y = np.zeros((len(idx), ds_train.c))
    for r, i in enumerate(idx):
        s = ds_train.candidates[i]
        Y[r, np.asarray(s) - 1] = 1.0 / len(s)
    return int(np.argmax(w @ Y)) + 1

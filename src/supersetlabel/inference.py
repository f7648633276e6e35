"""Test-stage prediction by Gaussian-weighted nearest-neighbor voting.

A test point collects the one-hot disambiguated label vectors of its K
nearest training examples, weighted by the same Gaussian kernel used on the
training graph, and takes the argmax. The neighbors come from the graph's
search kernel under the same rule (ties to the lower index), and
`predict_batch` scores the test points in fixed-size chunks. The
no-disambiguation control is the same vote over the raw candidate vectors:
`Predictor(ds.features, encode(ds).Y, K, theta)`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import check_count, check_finite_rows, check_positive
from .graph import _nearest, gaussian_weight

# test points voted together: bounds the vote's idx, d2 and onehot[idx] arrays
# (graph._BLOCK_ENTRIES bounds the scan). One call for all points scores the
# same but took ref's peak RSS from 57.9 to 61.5 MiB, past the 5% bound.
_CHUNK = 256


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


def predict_batch(p: Predictor, X_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Labels and score matrix for a batch of test points.

    X_t must be 2-D, one row per point, as wide as the training features. A
    row with a NaN or infinite value is a ValueError naming the row."""
    X_t = check_finite_rows(X_t, "test feature")
    d = p.train_features.shape[1]
    if X_t.shape[1] != d:
        raise ValueError(f"test features have {X_t.shape[1]} dims, "
                         f"model expects {d}")
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


"""Encoding of candidate label sets into the matrices used by the objective."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset


@dataclass
class LabelCodec:
    """Candidate matrix Y and its complement mask H.

    Y_ij = 1/|S_i| when label j is a candidate of example i, else 0; each
    row sums to 1. H is the binary complement (H_ij = 1 iff Y_ij = 0), so
    the 1-based labels outside S_i are np.flatnonzero(H[i]) + 1.
    """

    Y: np.ndarray
    H: np.ndarray

    @property
    def n(self) -> int:
        return self.Y.shape[0]

    @property
    def c(self) -> int:
        return self.Y.shape[1]


def encode(ds: Dataset) -> LabelCodec:
    """Build the LabelCodec for a validated Dataset."""
    n, c = ds.n, ds.c
    Y = np.zeros((n, c))
    H = np.ones((n, c))
    for i, s in enumerate(ds.candidates):
        cols = np.asarray(s, dtype=int) - 1
        Y[i, cols] = 1.0 / len(s)
        H[i, cols] = 0.0
    return LabelCodec(Y=Y, H=H)

"""Encoding of candidate label sets into the matrices used by the objective."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

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
    sizes = np.array([len(s) for s in ds.candidates], dtype=int)
    rows = np.repeat(np.arange(ds.n), sizes)
    cols = np.fromiter(chain.from_iterable(ds.candidates), dtype=int) - 1
    Y = np.zeros((ds.n, ds.c))
    Y[rows, cols] = np.repeat(1.0 / sizes, sizes)
    return LabelCodec(Y=Y, H=(Y == 0.0).astype(float))

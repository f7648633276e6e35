"""Encoding of candidate label sets into the matrices used by the objective."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset


@dataclass
class LabelCodec:
    """Candidate matrix Y, complement mask H, and zero-index sets omega.

    Y_ij = 1/|S_i| when label j is a candidate of example i, else 0; each
    row sums to 1. H is the binary complement (H_ij = 1 iff Y_ij = 0), and
    omega[i] lists the 1-based labels outside S_i.
    """

    Y: np.ndarray
    H: np.ndarray
    omega: tuple[tuple[int, ...], ...]

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
    omega = []
    for i, s in enumerate(ds.candidates):
        cols = np.asarray(s, dtype=int) - 1
        Y[i, cols] = 1.0 / len(s)
        H[i, cols] = 0.0
        omega.append(tuple(j for j in range(1, c + 1) if j not in s))
    return LabelCodec(Y=Y, H=H, omega=tuple(omega))

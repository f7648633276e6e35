"""Workload definitions and input generation for the benchmark.

The inputs are made here with NumPy alone, so the program under test only
ever sees the generated files. The training generator follows the recipe of
`supersetlabel.make_synthetic` (Gaussian class blobs whose means are scaled
to a minimum pairwise distance `sep`, candidate sets corrupted with
probability `p` by `r` extra false labels); `ref` must stay the acceptance
reference set, which the benchmark tests check. The other workloads draw
their class means from a fixed seed and only the points and candidate sets
from --seed, so that seeds vary the sample and not the class geometry.
Held-out points are unambiguous draws around the same class means, from a
stream of their own.

Run as a script to write one workload's inputs:

    python3 perfbench/inputs.py --workload ref --seed 1 --out DIR

which writes DIR/train/ and DIR/test/, each with a `manifest.txt` that
`supersetlabel.load_manifest` reads.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    """Sizes and generator settings of one workload."""

    n: int            # training examples
    c: int            # classes
    d: int            # feature dimension
    sep: float        # minimum distance between class means
    p: float          # probability that an example's candidate set is corrupted
    r: int            # extra false candidates on a corrupted example
    n_test: int       # held-out points
    solve: bool       # run alm_fit; otherwise predict from the candidate matrix Y
    train_seed: int | None = None  # fixed training seed; None means --seed
    means_seed: int | None = None  # fixed seed of the class means; None means
                                   # the training stream draws them first


K = 5  # neighbours in the graph and in the vote (the package default)

WORKLOADS = {
    # the acceptance reference set; the held-out set is sized so that
    # labelling it takes about a second
    "ref": Workload(n=300, c=3, d=2, sep=4.0, p=0.7, r=1, n_test=20000,
                    solve=True, train_seed=42),
    # two all-pairs scans and per-point argsorts at n = 10k, d = 10
    "knn_10k": Workload(n=10000, c=10, d=10, sep=5.0, p=0.9, r=3,
                        n_test=1000, solve=False, means_seed=0),
    # a few thousand points at d = 200, where parsing and the scans'
    # matrix products weigh more than at d = 10
    "knn_hd": Workload(n=2000, c=10, d=200, sep=12.0, p=0.9, r=3,
                       n_test=800, solve=False, means_seed=0),
}

# scaled-down versions for the benchmark's own tests
TINY = {
    "ref": Workload(n=60, c=3, d=2, sep=3.0, p=0.7, r=1, n_test=400,
                    solve=True, train_seed=42),
    "knn_10k": Workload(n=400, c=10, d=10, sep=5.0, p=0.9, r=3, n_test=100,
                        solve=False, means_seed=0),
    "knn_hd": Workload(n=200, c=10, d=200, sep=12.0, p=0.9, r=3, n_test=100,
                       solve=False, means_seed=0),
}


def workload(name: str, scale: str = "full") -> Workload:
    return (TINY if scale == "tiny" else WORKLOADS)[name]


def class_means(rng: np.random.Generator, c: int, d: int, sep: float) -> np.ndarray:
    """Class means with minimum pairwise distance sep."""
    means = rng.standard_normal((c, d))
    dist = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=2)
    min_dist = dist[~np.eye(c, dtype=bool)].min()
    if min_dist > 0:
        return means * (sep / min_dist)
    means = np.zeros((c, d))
    means[:, 0] = sep * np.arange(c)
    return means


def make_train(w: Workload, seed: int):
    """Features, candidate sets, truth and class means of the training set."""
    rng = np.random.default_rng(seed)
    means = class_means(rng if w.means_seed is None
                        else np.random.default_rng(w.means_seed), w.c, w.d, w.sep)
    truth = rng.permutation(np.arange(w.n) % w.c) + 1
    features = means[truth - 1] + rng.standard_normal((w.n, w.d))
    corrupt = rng.random(w.n) < w.p
    candidates = []
    for i in range(w.n):
        s = {int(truth[i])}
        if corrupt[i] and w.r > 0:
            others = [j for j in range(1, w.c + 1) if j != truth[i]]
            s.update(int(j) for j in rng.choice(others, size=w.r, replace=False))
        candidates.append(tuple(sorted(s)))
    return features, candidates, truth, means


def make_test(w: Workload, means: np.ndarray, seed: int):
    """Unambiguous held-out points around the training class means."""
    rng = np.random.default_rng([seed, 1])
    truth = rng.permutation(np.arange(w.n_test) % w.c) + 1
    features = means[truth - 1] + rng.standard_normal((w.n_test, w.d))
    return features, truth


def write_set(out: Path, features, candidates, truth, c: int) -> None:
    """Write one set in the package's text formats, with its manifest."""
    out.mkdir(parents=True, exist_ok=True)
    np.savetxt(out / "features.tsv", features, fmt="%.17g", delimiter="\t")
    (out / "candidates.txt").write_text(
        "".join(",".join(map(str, s)) + "\n" for s in candidates))
    (out / "truth.txt").write_text("".join(f"{y}\n" for y in truth))
    (out / "manifest.txt").write_text(
        f"n={len(truth)}\nd={features.shape[1]}\nc={c}\n"
        "features=features.tsv\ncandidates=candidates.txt\ntruth=truth.txt\n")


def write_inputs(name: str, seed: int, out: Path, scale: str = "full") -> None:
    w = workload(name, scale)
    train_seed = seed if w.train_seed is None else w.train_seed
    features, candidates, truth, means = make_train(w, train_seed)
    write_set(out / "train", features, candidates, truth, w.c)
    test_x, test_y = make_test(w, means, seed)
    write_set(out / "test", test_x, [(int(y),) for y in test_y], test_y, w.c)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    write_inputs(args.workload, args.seed, args.out, args.scale)


if __name__ == "__main__":
    main()

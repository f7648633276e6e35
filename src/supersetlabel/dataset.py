"""The package's data model, file IO, synthetic data, splits and input rules.

A superset-label dataset holds n feature rows, one candidate label set per
row, and (optionally) the ground-truth label of every row. Labels are 1-based
everywhere they appear in files, reports, and this module's API.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_FOLDS = 5


class DataFormatError(ValueError):
    """Raised when an input file or constructed dataset is inconsistent."""


def check_count(value: int, name: str, least: int = 1) -> int:
    """value, if an integer (NumPy's too) >= least; else a ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


def check_real(value: float, name: str) -> float:
    """value, if a real number (NumPy's too) and not a bool; else a ValueError."""
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


def check_positive(value: float, name: str) -> float:
    """value, if a finite and positive real number; else a ValueError."""
    if not 0 < check_real(value, name) < np.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return value


def check_finite_rows(X, what: str) -> np.ndarray:
    """X as a float array if 2-D and finite; else a DataFormatError naming why."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DataFormatError(f"{what} rows must be a 2-D array, got {X.ndim}-D")
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise DataFormatError(f"non-finite {what} value in row {bad[0] + 1}")
    return X


def check_declared(path, declared: dict, keys: str, source: str, shape) -> None:
    """A DataFormatError if path declares keys[i] other than source's shape[i]."""
    for key, value in zip(keys, shape):
        if key in declared and declared[key] != value:
            raise DataFormatError(f"{path}: declared {key}={declared[key]} "
                                  f"but {source} has {value}")


@dataclass
class Dataset:
    """Ambiguously labeled training data.

    features   (n, d) float array, one example per row
    candidates n sorted tuples of 1-based candidate labels
    truth      optional n-tuple of 1-based ground-truth labels
    c          number of classes (labels live in {1..c})
    """

    features: np.ndarray
    candidates: tuple[tuple[int, ...], ...]
    c: int
    truth: tuple[int, ...] | None = None

    def __post_init__(self):
        """Normalize the containers, then check every invariant: c by
        check_count, the rest by a DataFormatError on a violation."""
        self.features = check_finite_rows(self.features, "feature")
        self.candidates = tuple(tuple(sorted(set(s))) for s in self.candidates)
        check_count(self.c, "c")
        if len(self.candidates) != self.n:
            raise DataFormatError(
                f"{self.n} feature rows but {len(self.candidates)} candidate sets")
        for i, s in enumerate(self.candidates):
            if len(s) == 0:
                raise DataFormatError(f"empty candidate set at row {i + 1}")
            if s[0] < 1 or s[-1] > self.c:
                raise DataFormatError(f"candidate label out of range "
                                      f"1..{self.c} at row {i + 1}: {s}")
        if self.truth is None:
            return
        self.truth = tuple(int(y) for y in self.truth)
        if len(self.truth) != self.n:
            raise DataFormatError(
                f"{self.n} feature rows but {len(self.truth)} truth labels")
        for i, (y, s) in enumerate(zip(self.truth, self.candidates)):
            if y not in s:
                raise DataFormatError(
                    f"truth label {y} not among candidates {s} at row {i + 1}")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        """New Dataset restricted to the given row indices (same c)."""
        idx = np.asarray(indices, dtype=int)
        truth = tuple(self.truth[i] for i in idx) if self.truth is not None else None
        return Dataset(
            features=self.features[idx].copy(),
            candidates=tuple(self.candidates[i] for i in idx),
            c=self.c,
            truth=truth,
        )


def read_features(path, delimiter="\t", what="feature") -> np.ndarray:
    """Read a feature table: one row per non-blank line, floats separated by
    delimiter (a tab by default; onehot.csv is read with commas).

    A ragged row, a non-numeric token (a '#' comment, space-separated
    columns) or a NaN or infinite value is an error naming the file and its
    1-based line.
    """
    lines = Path(path).read_text().splitlines()
    rows = [line for line in lines if line.strip()]
    if not rows:
        raise DataFormatError(f"{path}: no {what} rows")
    try:
        X = np.loadtxt(rows, delimiter=delimiter, comments=None, ndmin=2)
    except ValueError:
        # find the line here: np.loadtxt's row numbers skip blank lines
        width = len(rows[0].split(delimiter))
        for line_no, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            token = _unreadable_token(line, delimiter)
            if token is not None:
                raise DataFormatError(f"{path}: non-numeric {what} token "
                                      f"{token!r} on line {line_no}")
            tokens = line.split(delimiter)
            if len(tokens) != width:
                raise DataFormatError(
                    f"{path}: inconsistent row lengths: {len(tokens)} values "
                    f"on line {line_no}, {width} on the first row")
        raise
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        line_no = [k for k, line in enumerate(lines, start=1)
                   if line.strip()][bad[0]]
        raise DataFormatError(
            f"{path}: non-finite {what} value on line {line_no}")
    return X


def _unreadable_token(line: str, delimiter: str) -> str | None:
    """The first token of a delimited line that np.loadtxt does not read as a
    float (Python's float accepts more, such as '1_000'), or None."""
    try:  # one call for the whole line, then one per column
        np.loadtxt([line], delimiter=delimiter, comments=None)
    except ValueError:
        for k, token in enumerate(line.split(delimiter)):
            try:
                np.loadtxt([line], delimiter=delimiter, comments=None,
                           usecols=k)
            except ValueError:
                return token
    return None


def write_features(path, X) -> None:
    """Write a feature table that read_features returns bit for bit."""
    np.savetxt(path, X, fmt="%.17g", delimiter="\t")


def read_kv_file(path, readers, required=()) -> dict:
    """Read key=value lines ('#' comments and blank lines skipped), each value
    by its key's reader. A line without '=', a key not in readers, a repeated
    key, a value its reader rejects (ValueError) and a missing required key
    are each a DataFormatError naming the file and the key."""
    kv = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataFormatError(f"{path}: expected key=value, got {line!r}")
        k, v = (part.strip() for part in line.split("=", 1))
        if k in kv:
            raise DataFormatError(f"{path}: repeated key {k!r}")
        if k not in readers:
            raise DataFormatError(f"{path}: unknown key {k!r}, expected one "
                                  f"of {', '.join(readers)}")
        try:
            kv[k] = readers[k](v)
        except ValueError as e:
            raise DataFormatError(
                f"{path}: bad value for key {k!r}: {e}") from None
    for k in required:
        if k not in kv:
            raise DataFormatError(f"{path}: missing key {k!r}")
    return kv


def read_lines(path, what: str, parse) -> list:
    """parse(line) for every non-blank line of a file. A line that parse
    rejects (ValueError) is an error naming the file and its 1-based line."""
    rows = []
    for n, line in enumerate(Path(path).read_text().splitlines(), start=1):
        try:
            if line.strip():
                rows.append(parse(line))
        except ValueError:
            raise DataFormatError(
                f"{path}: bad {what} on line {n}: {line!r}") from None
    return rows


def write_kv_file(path, items) -> None:
    """Write (key, value) pairs as key=value lines, each value by str and a
    bool as true or false."""
    with open(path, "w") as f:
        f.writelines(f"{k}={str(v).lower() if isinstance(v, bool) else v}\n"
                     for k, v in items)


def _candidate_list(line: str) -> tuple[int, ...]:
    """The labels of a candidate line; a ValueError if one is below 1."""
    labels = tuple(map(int, line.replace(" ", "").split(",")))
    check_count(min(labels), "candidate label")
    return labels


def load_dataset(features_path, candidates_path, truth_path=None,
                 c: int | None = None) -> Dataset:
    """Load a Dataset from the plain-text file formats.

    features_path   one example per line, tab-separated floats
    candidates_path one line per example, comma-separated 1-based labels;
                    a label below 1 is an error naming the file and line
    truth_path      optional, one 1-based label per line; a label below 1 is
                    an error naming the file and line
    c               optional declared class count; the effective count is
                    max(declared, largest index seen), and an index beyond
                    the declared count is an error
    """
    features = read_features(features_path)
    candidates = read_lines(candidates_path, "candidate list", _candidate_list)
    if len(candidates) != len(features):
        raise DataFormatError(f"{candidates_path}: {len(features)} feature rows "
                              f"but {len(candidates)} candidate lines")

    max_seen = max(max(s) for s in candidates)
    if c is not None and max_seen > c:
        raise DataFormatError(
            f"candidate label {max_seen} exceeds declared class count {c}"
        )
    c_eff = max(c or 0, max_seen)

    truth = None
    if truth_path is not None:
        truth = tuple(read_lines(
            truth_path, "truth label",
            lambda line: check_count(int(line), "truth label")))
        if len(truth) != len(features):
            raise DataFormatError(f"{truth_path}: {len(features)} feature rows "
                                  f"but {len(truth)} truth labels")

    return Dataset(features=features, candidates=tuple(candidates), c=c_eff,
                   truth=truth)


def save_dataset(ds: Dataset, out_dir) -> dict[str, Path]:
    """Write features/candidates/truth plus a manifest into out_dir.

    Returns the written paths keyed by role. Round-trips through
    load_dataset to a structurally identical Dataset.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "features": out / "features.tsv",
        "candidates": out / "candidates.txt",
        "manifest": out / "manifest.txt",
    }
    write_features(paths["features"], ds.features)
    paths["candidates"].write_text(
        "".join(",".join(map(str, s)) + "\n" for s in ds.candidates))
    manifest = {
        "n": ds.n, "d": ds.d, "c": ds.c,
        "features": paths["features"].name,
        "candidates": paths["candidates"].name,
    }
    if ds.truth is not None:
        paths["truth"] = out / "truth.txt"
        paths["truth"].write_text("\n".join(map(str, ds.truth)) + "\n")
        manifest["truth"] = paths["truth"].name
    write_kv_file(paths["manifest"], manifest.items())
    return paths


def _file_name(raw: str) -> str:
    if not raw:
        raise ValueError("empty file name")
    return raw


MANIFEST_KEYS = {"n": int, "d": int, "c": int, "features": _file_name,
                 "candidates": _file_name, "truth": _file_name}


def load_manifest(manifest_path) -> Dataset:
    """Load a Dataset via a key=value manifest (paths relative to it)."""
    manifest_path = Path(manifest_path)
    kv = read_kv_file(manifest_path, MANIFEST_KEYS,
                      required=("features", "candidates"))
    base = manifest_path.parent
    ds = load_dataset(base / kv["features"], base / kv["candidates"],
                      base / kv["truth"] if "truth" in kv else None,
                      kv.get("c"))
    check_declared(manifest_path, kv, "nd", "data", ds.features.shape)
    return ds


def normalize_unit_length(X: np.ndarray, source) -> np.ndarray:
    """X with every row scaled to Euclidean norm 1; source names its file."""
    norms = np.linalg.norm(X, axis=1)
    zero = np.where(norms == 0.0)[0]
    if zero.size:
        raise DataFormatError(f"{source}: zero-norm feature row {zero[0] + 1}")
    return X / norms[:, None]


def make_synthetic(n: int, c: int, d: int, sep: float, p_coocc: float,
                   r_extra: int, seed: int) -> Dataset:
    """Gaussian class blobs with uniformly corrupted candidate sets.

    Class means are pairwise at least sep apart (spread of each blob is the
    unit Gaussian). Every example carries its true label; with probability
    p_coocc it also receives r_extra distinct false labels drawn uniformly
    from the remaining classes. n, c and d are counts (check_count), c >= 2.
    """
    for name, size, least in (("n", n, 1), ("c", c, 2), ("d", d, 1)):
        check_count(size, name, least)
    if not 0 <= r_extra <= c - 1:
        raise ValueError(f"r_extra must be in 0..{c - 1}, got {r_extra}")
    if not 0.0 <= p_coocc <= 1.0:
        raise ValueError(f"p_coocc must be a probability, got {p_coocc}")

    rng = np.random.default_rng(seed)
    means = rng.standard_normal((c, d))
    dist = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=2)
    means *= sep / dist[~np.eye(c, dtype=bool)].min()

    truth = rng.permutation(np.arange(n) % c) + 1
    features = means[truth - 1] + rng.standard_normal((n, d))

    corrupt = rng.random(n) < p_coocc
    candidates = []
    for i in range(n):
        s = {int(truth[i])}
        if corrupt[i] and r_extra > 0:
            others = [j for j in range(1, c + 1) if j != truth[i]]
            s.update(int(j) for j in rng.choice(others, size=r_extra,
                                                replace=False))
        candidates.append(tuple(sorted(s)))
    return Dataset(features=features, candidates=tuple(candidates), c=c,
                   truth=tuple(int(y) for y in truth))


@dataclass
class SplitPlan:
    """Assignment of every example to one of five cross-validation folds."""

    folds: np.ndarray  # n integers in {1..N_FOLDS}

    def test_indices(self, fold: int) -> np.ndarray:
        return np.where(self.folds == fold)[0]

    def train_indices(self, fold: int) -> np.ndarray:
        return np.where(self.folds != fold)[0]


def plan_splits(ds: Dataset, seed: int) -> SplitPlan:
    """Stratified five-fold assignment, deterministic given the seed.

    Each class's examples are shuffled and dealt round-robin, starting from
    a rotating fold offset so remainders spread evenly. Per-fold class
    counts land within one example of n_class / 5.
    """
    if ds.truth is None:
        raise DataFormatError("plan_splits requires ground-truth labels")
    if ds.n < N_FOLDS:  # with fewer, a fold would have no test example
        raise DataFormatError(f"cross validation needs at least {N_FOLDS} "
                              f"examples, got {ds.n}")
    rng = np.random.default_rng(seed)
    folds = np.zeros(ds.n, dtype=int)
    truth = np.asarray(ds.truth)
    offset = 0
    for cls in sorted(set(ds.truth)):
        idx = np.where(truth == cls)[0]
        if idx.size < N_FOLDS:
            warnings.warn(
                f"class {cls} has only {idx.size} examples; "
                f"some folds will miss it", stacklevel=2,
            )
        rng.shuffle(idx)
        for pos, i in enumerate(idx):
            folds[i] = (offset + pos) % N_FOLDS + 1
        offset = (offset + idx.size) % N_FOLDS
    return SplitPlan(folds=folds)

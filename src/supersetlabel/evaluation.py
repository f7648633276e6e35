"""Accuracy metrics, five-fold cross validation, parameter sweeps, and the
Friedman rank test against the exact chi-square critical value.

A fold's ValueError or SolverDivergenceError is re-raised as the same class,
with the fold number at the front of its message.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import N_FOLDS, Dataset, plan_splits
from .graph import build_knn_graph
from .inference import Predictor, predict_batch
from .labelspace import encode
from .solver import SolverConfig, SolverDivergenceError, SolverReport, alm_fit


def training_accuracy(report: SolverReport, truth) -> float:
    """Fraction of training examples whose disambiguated label is correct."""
    if truth is None:
        raise ValueError("training accuracy requires ground-truth labels")
    truth = np.asarray(truth, dtype=int)
    if truth.shape[0] != report.labels.shape[0]:
        raise ValueError(
            f"{report.labels.shape[0]} labels but {truth.shape[0]} truths"
        )
    return float(np.mean(report.labels == truth))


@dataclass
class CvResult:
    """Per-fold accuracies with their mean and population std."""

    fold_train_acc: tuple[float, ...]
    fold_test_acc: tuple[float, ...]
    mean_train: float
    std_train: float
    mean_test: float
    std_test: float


def cross_validate(ds: Dataset, cfg: SolverConfig, seed: int) -> CvResult:
    """Five-fold stratified cross validation of the full pipeline.

    Each fold trains the disambiguation on the remaining 80% and scores both
    the disambiguated training labels and the kNN predictions on the held-out
    20% against ground truth.
    """
    return _cross_validate(ds, cfg, seed, graphs={})


def _cross_validate(ds: Dataset, cfg: SolverConfig, seed: int,
                    graphs: dict) -> CvResult:
    """cross_validate, taking each fold's graph from graphs[fold, cfg.K] and
    building and storing it there when it is missing. The key leaves out
    ds, seed and theta, so graphs must only be shared between calls that
    agree on those."""
    if ds.truth is None:
        raise ValueError("cross validation requires ground-truth labels")
    plan = plan_splits(ds, seed)
    truth = np.asarray(ds.truth)
    train_accs, test_accs = [], []
    for fold in range(1, N_FOLDS + 1):
        tr, te = plan.train_indices(fold), plan.test_indices(fold)
        ds_tr = ds.subset(tr)
        try:
            key = fold, cfg.K
            if key not in graphs:
                graphs[key] = build_knn_graph(ds_tr, cfg.K, cfg.theta)
            graph = graphs[key]
            report = alm_fit(graph, encode(ds_tr), cfg)
        except (ValueError, SolverDivergenceError) as e:
            raise type(e)(f"fold {fold}: {e}") from e
        train_accs.append(training_accuracy(report, ds_tr.truth))
        predictor = Predictor(train_features=ds_tr.features,
                              onehot=report.onehot, K=cfg.K, theta=graph.theta)
        pred, _ = predict_batch(predictor, ds.features[te])
        test_accs.append(float(np.mean(pred == truth[te])))
    return CvResult(
        fold_train_acc=tuple(train_accs),
        fold_test_acc=tuple(test_accs),
        mean_train=float(np.mean(train_accs)),
        std_train=float(np.std(train_accs)),
        mean_test=float(np.mean(test_accs)),
        std_test=float(np.std(test_accs)),
    )


def chi2_critical(confidence: float, df: int) -> float:
    """Upper-tail chi-square critical value at the given confidence."""
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if df < 1:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    # imported here: at module level, scipy.special would add tens of
    # milliseconds to every `import supersetlabel`, for this one call
    from scipy.special import chdtri
    return float(chdtri(df, 1.0 - confidence))


@dataclass
class FriedmanResult:
    statistic: float
    critical_value: float
    reject: bool                       # methods differ at the confidence level
    mean_ranks: np.ndarray             # 1 = best, per method
    reject_per_method: tuple[bool, ...]


def friedman_test(accuracy_table, confidence: float = 0.90) -> FriedmanResult:
    """Friedman rank test over a methods x datasets accuracy table.

    Methods are ranked within each dataset (rank 1 = highest accuracy,
    average ranks on ties) and compared through

        chi2 = 12 N / (k (k+1)) * (sum_j R_j^2 - k (k+1)^2 / 4)

    with k methods, N datasets, and R_j the mean rank of method j, against
    the chi-square critical value at k-1 degrees of freedom. A method's flag
    is set when the test rejects and its mean rank trails the best one.
    """
    table = np.asarray(accuracy_table, dtype=float)
    if table.ndim != 2 or table.shape[0] < 2 or table.shape[1] < 2:
        raise ValueError("need at least 2 methods and 2 datasets")
    if not np.all(np.isfinite(table)):
        raise ValueError("accuracy table has a non-finite value")
    k, n_datasets = table.shape
    # per column: 1 + the values above, plus half of the other tied values
    above = (table[None] > table[:, None]).sum(axis=1)
    tied = (table[None] == table[:, None]).sum(axis=1)
    mean_ranks = (above + (tied + 1) / 2.0).mean(axis=1)
    statistic = (12.0 * n_datasets / (k * (k + 1))
                 * (float(np.sum(mean_ranks**2)) - k * (k + 1) ** 2 / 4.0))
    critical = chi2_critical(confidence, k - 1)
    reject = bool(statistic > critical)
    best = mean_ranks.min()
    per_method = tuple(bool(reject and mean_ranks[j] > best) for j in range(k))
    return FriedmanResult(
        statistic=float(statistic),
        critical_value=critical,
        reject=reject,
        mean_ranks=mean_ranks,
        reject_per_method=per_method,
    )


@dataclass
class SweepRow:
    alpha: float
    beta: float
    K: int
    mean_train: float
    std_train: float
    mean_test: float
    std_test: float


def sweep(ds: Dataset, alphas, betas, Ks, cfg: SolverConfig,
          seed: int) -> list[SweepRow]:
    """Cross-validate over the full alpha x beta x K grid.

    The graph depends on the fold and K only, so each is built once and
    shared by every (alpha, beta).
    """
    graphs: dict = {}
    rows = []
    for alpha in alphas:
        for beta in betas:
            for K in Ks:
                cv = _cross_validate(
                    ds, replace(cfg, alpha=float(alpha), beta=float(beta),
                                K=int(K)), seed, graphs,
                )
                rows.append(SweepRow(
                    alpha=float(alpha), beta=float(beta), K=int(K),
                    mean_train=cv.mean_train, std_train=cv.std_train,
                    mean_test=cv.mean_test, std_test=cv.std_test,
                ))
    return rows

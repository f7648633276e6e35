"""Accuracy metrics, five-fold cross validation over a parameter grid, and
the Friedman rank test against the exact chi-square critical value.

sweep is the one fold loop, and cross_validate is sweep at one grid point. A
fold's ValueError or SolverDivergenceError is re-raised as the same class,
with the fold number at the front of its message.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import N_FOLDS, Dataset, check_count, check_finite_rows, plan_splits
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
    """One grid point: per-fold accuracies, their means and population stds."""

    alpha: float
    beta: float
    K: int
    fold_train_acc: tuple[float, ...]
    fold_test_acc: tuple[float, ...]
    mean_train: float
    std_train: float
    mean_test: float
    std_test: float


def cross_validate(ds: Dataset, cfg: SolverConfig, seed: int) -> CvResult:
    """Five-fold stratified cross validation of the full pipeline: sweep at
    the single point (cfg.alpha, cfg.beta, cfg.K)."""
    return sweep(ds, [cfg.alpha], [cfg.beta], [cfg.K], cfg, seed)[0]


def sweep(ds: Dataset, alphas, betas, Ks, cfg: SolverConfig,
          seed: int) -> list[CvResult]:
    """Five-fold stratified cross validation at every point of the
    alpha x beta x K grid, the other knobs from cfg: one CvResult per point,
    in that order, and a repeated value gets its own row.

    Each fold trains the disambiguation on the remaining 80% and scores both
    the disambiguated training labels and the kNN predictions on the held-out
    20% against ground truth. Every point's config is checked before any fit;
    each fold encodes its training subset once and builds one graph per K.
    """
    points = [replace(cfg, alpha=float(alpha), beta=float(beta), K=K)
              for alpha in alphas for beta in betas for K in Ks]
    plan = plan_splits(ds, seed)
    accs = [([], []) for _ in points]  # per point: train and test, by fold
    for fold in range(1, N_FOLDS + 1):
        te = plan.test_indices(fold)
        X_te, y_te = ds.features[te], np.asarray(ds.truth)[te]
        ds_tr = ds.subset(plan.train_indices(fold))
        try:
            graphs = {K: build_knn_graph(ds_tr, K, cfg.theta)
                      for K in dict.fromkeys(p.K for p in points)}
            codec = encode(ds_tr)
            for p, (train_accs, test_accs) in zip(points, accs):
                report = alm_fit(graphs[p.K], codec, p)
                train_accs.append(training_accuracy(report, ds_tr.truth))
                pred, _ = predict_batch(Predictor(
                    ds_tr.features, report.onehot, p.K, graphs[p.K].theta),
                    X_te)
                test_accs.append(float(np.mean(pred == y_te)))
        except (ValueError, SolverDivergenceError) as e:
            raise type(e)(f"fold {fold}: {e}") from e
    return [CvResult(p.alpha, p.beta, p.K, tuple(train), tuple(test),
                     float(np.mean(train)), float(np.std(train)),
                     float(np.mean(test)), float(np.std(test)))
            for p, (train, test) in zip(points, accs)]


def chi2_critical(confidence: float, df: int) -> float:
    """Upper-tail chi-square critical value at the given confidence."""
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    check_count(df, "degrees of freedom")
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
    table = check_finite_rows(accuracy_table, "accuracy")
    if table.shape[0] < 2 or table.shape[1] < 2:
        raise ValueError("need at least 2 methods and 2 datasets")
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

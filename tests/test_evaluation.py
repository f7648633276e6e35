from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from supersetlabel import (
    SolverConfig,
    SolverDivergenceError,
    cross_validate,
    friedman_test,
    make_synthetic,
    sweep,
    training_accuracy,
)
from supersetlabel import evaluation
from supersetlabel.dataset import N_FOLDS
from supersetlabel.evaluation import chi2_critical
from supersetlabel.solver import SolverReport


def report_with_labels(labels, c=3):
    labels = np.asarray(labels, dtype=int)
    onehot = np.zeros((len(labels), c))
    onehot[np.arange(len(labels)), labels - 1] = 1.0
    return SolverReport(F_star=onehot.copy(), labels=labels, onehot=onehot,
                        trace=[], rowsum_resid=0.0, min_entry=0.0,
                        loops_used=0, converged=True)


class TestTrainingAccuracy:
    def test_all_correct(self):
        rep = report_with_labels([1, 2, 3])
        assert training_accuracy(rep, (1, 2, 3)) == 1.0

    def test_all_wrong(self):
        rep = report_with_labels([1, 1, 1])
        assert training_accuracy(rep, (2, 2, 2)) == 0.0

    def test_seven_of_ten(self):
        rep = report_with_labels([1] * 10)
        truth = [1] * 7 + [2] * 3
        assert training_accuracy(rep, truth) == pytest.approx(0.7)

    def test_missing_truth(self):
        with pytest.raises(ValueError):
            training_accuracy(report_with_labels([1]), None)


# one small dataset reused across the cv tests (they are solver-heavy)
CV_DS = make_synthetic(n=40, c=2, d=2, sep=6.0, p_coocc=0.0, r_extra=0,
                       seed=13)
CV_CFG = SolverConfig(alpha=100.0, K=3, loop_max=10)


class TestCrossValidate:
    def test_separable_unambiguous_is_perfect(self):
        result = cross_validate(CV_DS, CV_CFG, seed=5)
        assert result.mean_train == 1.0
        assert result.mean_test == 1.0

    def test_deterministic(self):
        a = cross_validate(CV_DS, CV_CFG, seed=5)
        b = cross_validate(CV_DS, CV_CFG, seed=5)
        assert a.fold_train_acc == b.fold_train_acc
        assert a.fold_test_acc == b.fold_test_acc

    def test_means_match_folds(self):
        ds = make_synthetic(n=40, c=2, d=2, sep=3.0, p_coocc=0.6, r_extra=1,
                            seed=17)
        result = cross_validate(ds, CV_CFG, seed=2)
        assert result.mean_train == pytest.approx(
            np.mean(result.fold_train_acc), abs=1e-12)
        assert result.std_test == pytest.approx(
            np.std(result.fold_test_acc), abs=1e-12)
        assert all(0.0 <= a <= 1.0
                   for a in result.fold_train_acc + result.fold_test_acc)

    def test_missing_truth(self):
        ds = make_synthetic(n=20, c=2, d=2, sep=3.0, p_coocc=0.0, r_extra=0,
                            seed=1)
        stripped = type(ds)(features=ds.features, candidates=ds.candidates,
                            c=ds.c, truth=None)
        with pytest.raises(ValueError):
            cross_validate(stripped, CV_CFG, seed=0)

    def test_fold_error_annotated(self):
        with pytest.raises(ValueError, match="fold 1"):
            cross_validate(CV_DS, SolverConfig(K=39), seed=0)

    def test_fold_error_keeps_solver_class(self, monkeypatch):
        def diverge(*args):
            raise SolverDivergenceError("objective became non-finite")

        monkeypatch.setattr(evaluation, "alm_fit", diverge)
        with pytest.raises(SolverDivergenceError,
                           match="^fold 1: objective became non-finite$"):
            cross_validate(CV_DS, CV_CFG, seed=0)

    def test_accuracy_beats_candidate_guessing_floor(self):
        ds = make_synthetic(n=45, c=3, d=2, sep=5.0, p_coocc=0.8, r_extra=1,
                            seed=23)
        result = cross_validate(ds, SolverConfig(alpha=100.0, K=4,
                                                 loop_max=10), seed=3)
        floor = np.mean([1.0 / len(s) for s in ds.candidates])
        assert result.mean_train >= floor


class TestRanking:
    """friedman_test's per-dataset ranks, seen through mean_ranks."""

    def test_average_ranks_on_ties(self):
        # every column alike, so the mean ranks are that column's ranks
        column = np.array([0.3, 0.9, 0.3, 0.1])
        result = friedman_test(np.column_stack([column, column, column]))
        np.testing.assert_array_equal(result.mean_ranks, [2.5, 1.0, 2.5, 4.0])

    def test_matches_scipy(self, rng):
        for _ in range(10):
            table = rng.choice(np.linspace(0, 1, 7), size=(6, 5))
            got = friedman_test(table).mean_ranks
            want = scipy.stats.rankdata(-table, method="average",
                                        axis=0).mean(axis=1)
            np.testing.assert_allclose(got, want)

    def test_non_finite_accuracy(self):
        with pytest.raises(ValueError, match="non-finite"):
            friedman_test([[0.9, np.nan], [0.8, 0.7]])


class TestChi2Critical:
    def test_matches_scipy_exactly(self):
        for conf in (0.8, 0.9, 0.95, 0.99):
            for df in range(1, 60):
                assert chi2_critical(conf, df) == pytest.approx(
                    scipy.stats.chi2.ppf(conf, df), rel=1e-12)

    def test_table_matches_scipy(self):
        # 90% critical values for df 1-20, the range most Friedman tests use
        for df in range(1, 21):
            assert chi2_critical(0.90, df) == pytest.approx(
                scipy.stats.chi2.ppf(0.90, df), rel=1e-12)

    def test_wilson_hilferty_fallback(self):
        # points where a Wilson-Hilferty approximation is off by up to 0.5%;
        # the exact value must not be
        for conf, df in ((0.90, 25), (0.95, 6), (0.99, 12)):
            assert chi2_critical(conf, df) == pytest.approx(
                scipy.stats.chi2.ppf(conf, df), rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            chi2_critical(1.5, 3)
        with pytest.raises(ValueError):
            chi2_critical(0.9, 0)


HAND_TABLE = np.array([
    [0.90, 0.80, 0.85, 0.70],
    [0.85, 0.82, 0.70, 0.60],
    [0.70, 0.60, 0.65, 0.65],
])
# per-dataset ranks: (1,2,3), (2,1,3), (1,2,3), (1,3,2)
HAND_MEAN_RANKS = np.array([5.0 / 4, 8.0 / 4, 11.0 / 4])
HAND_STATISTIC = (12.0 * 4 / (3 * 4)) * (float(np.sum(HAND_MEAN_RANKS**2))
                                         - 3 * 16 / 4.0)


class TestFriedman:
    def test_all_tied_statistic_zero(self):
        result = friedman_test(np.full((4, 5), 0.5))
        assert result.statistic == 0.0
        assert not result.reject
        assert result.reject_per_method == (False,) * 4

    def test_hand_ranked_table(self):
        result = friedman_test(HAND_TABLE)
        np.testing.assert_allclose(result.mean_ranks, HAND_MEAN_RANKS)
        assert result.statistic == pytest.approx(HAND_STATISTIC, abs=1e-10)

    def test_two_method_sign_test_form(self):
        # 3 datasets, method 1 better on all: ranks (1,2) everywhere,
        # R = (1, 2), statistic = 12*3/(2*3) * (1 + 4 - 2*9/4) = 3
        table = np.array([[0.9, 0.8, 0.7], [0.5, 0.6, 0.4]])
        result = friedman_test(table)
        assert result.statistic == pytest.approx(3.0, abs=1e-12)

    def test_one_method_dominant(self):
        # k=3, N=4, strict ordering everywhere: ranks (1, 2, 3) per dataset,
        # statistic = 12*4/12 * (1 + 4 + 9 - 12) = 8 > 4.605 -> reject
        table = np.array([[0.9] * 4, [0.5] * 4, [0.1] * 4])
        table = table + np.arange(4) * 1e-3  # break column constancy, keep order
        result = friedman_test(table, confidence=0.90)
        assert result.statistic == pytest.approx(8.0, abs=1e-10)
        assert result.reject
        assert result.reject_per_method == (False, True, True)

    def test_monotone_transform_invariance(self, rng):
        table = rng.uniform(0.2, 0.9, size=(4, 6))
        base = friedman_test(table).statistic
        assert friedman_test(np.exp(table)).statistic == pytest.approx(base)
        assert friedman_test(table**3).statistic == pytest.approx(base)

    def test_matches_scipy_without_ties(self, rng):
        for _ in range(5):
            table = rng.normal(size=(4, 8))
            got = friedman_test(table).statistic
            want, _ = scipy.stats.friedmanchisquare(*table)
            assert got == pytest.approx(want, rel=1e-10)

    def test_degenerate_constant_columns(self):
        result = friedman_test(np.tile(np.array([[0.3], [0.3], [0.3]]),
                                       (1, 4)))
        assert result.statistic == 0.0
        assert not result.reject

    def test_exact_critical_value_near_the_boundary(self):
        # statistic 7.8 against 7.8147 at df 3: p = 0.0503, so no rejection
        # at 95% (a cube-root approximation gives 7.775 and rejects)
        table = [[.9, .9, .9, .8], [.8, .7, .7, .9], [.7, .8, .8, .6],
                 [.6, .6, .6, .7]]
        result = friedman_test(table, confidence=0.95)
        assert result.statistic == pytest.approx(7.8, abs=1e-12)
        assert result.critical_value == pytest.approx(7.8147279, abs=1e-6)
        assert not result.reject
        assert result.reject_per_method == (False,) * 4
        _, p = scipy.stats.friedmanchisquare(*np.asarray(table))
        assert p > 0.05

    def test_too_small(self):
        with pytest.raises(ValueError):
            friedman_test(np.ones((1, 4)))


class TestSweep:
    def test_singleton_grid_matches_cross_validate(self):
        rows = sweep(CV_DS, [CV_CFG.alpha], [CV_CFG.beta], [CV_CFG.K],
                     CV_CFG, seed=5)
        assert len(rows) == 1
        cv = cross_validate(CV_DS, CV_CFG, seed=5)
        assert rows[0].mean_train == cv.mean_train
        assert rows[0].mean_test == cv.mean_test

    def test_graph_built_once_per_fold_and_K(self, monkeypatch):
        built, encoded = [], []
        build, encode = evaluation.build_knn_graph, evaluation.encode

        def counted(ds, K, theta):
            built.append(K)
            return build(ds, K, theta)

        def counted_encode(ds):
            encoded.append(ds.n)
            return encode(ds)

        monkeypatch.setattr(evaluation, "build_knn_graph", counted)
        monkeypatch.setattr(evaluation, "encode", counted_encode)
        rows = sweep(CV_DS, [10.0, 100.0], [0.0, 0.01], [3, 4], CV_CFG, seed=5)
        assert sorted(built) == [3] * N_FOLDS + [4] * N_FOLDS
        assert len(encoded) == N_FOLDS
        for row in rows:
            cv = cross_validate(CV_DS, replace(CV_CFG, alpha=row.alpha,
                                               beta=row.beta, K=row.K), seed=5)
            assert (row.mean_train, row.std_train, row.mean_test,
                    row.std_test) == (cv.mean_train, cv.std_train,
                                      cv.mean_test, cv.std_test)

    def test_grid_size(self):
        rows = sweep(CV_DS, [1000.0], [0.0, 0.01, 0.1], [3], CV_CFG, seed=5)
        assert len(rows) == 3
        assert [r.beta for r in rows] == [0.0, 0.01, 0.1]

    def test_bad_grid_value_fails_before_any_fit(self, monkeypatch):
        fits = []
        fit = evaluation.alm_fit
        monkeypatch.setattr(evaluation, "alm_fit",
                            lambda *args: fits.append(1) or fit(*args))
        with pytest.raises(ValueError, match="nonnegative"):
            sweep(CV_DS, [10.0, -1.0], [0.01], [3], CV_CFG, seed=5)
        with pytest.raises(ValueError, match="K must be an integer, got 2.5"):
            sweep(CV_DS, [10.0], [0.01], [3, 2.5], CV_CFG, seed=5)
        assert fits == []

    def test_repeated_value_gets_its_own_row(self):
        rows = sweep(CV_DS, [10.0, 100.0], [0.01, 0.0, 0.01], [3], CV_CFG,
                     seed=5)
        assert [(r.alpha, r.beta, r.K) for r in rows] == [
            (alpha, beta, 3) for alpha in (10.0, 100.0)
            for beta in (0.01, 0.0, 0.01)]
        for first, repeat in ((rows[0], rows[2]), (rows[3], rows[5])):
            assert first == repeat

    def test_beta_ablation_on_ambiguous_data(self):
        # the discrimination term never hurts the disambiguation here; at
        # desk scale the argmax labels usually coincide, so >= with frequent
        # equality is the expected picture
        ds = make_synthetic(n=60, c=3, d=2, sep=2.0, p_coocc=0.9, r_extra=1,
                            seed=5)
        rows = sweep(ds, [100.0], [0.0, 0.01], [4],
                     SolverConfig(alpha=100.0, K=4, loop_max=12), seed=2)
        by_beta = {r.beta: r for r in rows}
        assert by_beta[0.01].mean_train >= by_beta[0.0].mean_train

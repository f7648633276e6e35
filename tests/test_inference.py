import math

import numpy as np
import pytest

from supersetlabel import (
    DataFormatError,
    Dataset,
    Predictor,
    encode,
    predict_batch,
)
from supersetlabel.inference import _CHUNK

from conftest import brute_knn, lattice


def onehot(labels, c):
    out = np.zeros((len(labels), c))
    out[np.arange(len(labels)), np.asarray(labels) - 1] = 1.0
    return out


class TestPredict:
    def test_unanimous_neighbors(self, rng):
        feats = rng.normal(size=(8, 2))
        p = Predictor(train_features=feats, onehot=onehot([2] * 8, 3), K=4,
                      theta=1.0)
        (label,), _ = predict_batch(p, [rng.normal(size=2)])
        assert label == 2

    def test_hand_computed_weighted_sum(self):
        # theta = 1/sqrt(2) turns exp(-d^2/(2 theta^2)) into exp(-d^2);
        # distances are chosen so the two weights are exactly 0.8 and 0.2
        theta = 1.0 / math.sqrt(2.0)
        d1 = math.sqrt(-math.log(0.8))
        d2 = math.sqrt(-math.log(0.2))
        feats = np.array([[d1, 0.0], [0.0, d2]])
        p = Predictor(train_features=feats, onehot=onehot([1, 2], 2), K=2,
                      theta=theta)
        (label,), (scores,) = predict_batch(p, [np.zeros(2)])
        np.testing.assert_allclose(scores, [0.8, 0.2], atol=1e-12)
        assert label == 1

    def test_exact_training_point(self, rng):
        feats = rng.normal(size=(5, 3))
        labels = [3, 1, 2, 3, 1]
        p = Predictor(train_features=feats, onehot=onehot(labels, 3), K=1,
                      theta=0.7)
        (label,), (scores,) = predict_batch(p, [feats[2]])
        assert label == 2
        assert scores[1] == 1.0  # zero distance, weight exactly 1

    def test_k_clamped_with_warning(self, rng):
        feats = rng.normal(size=(3, 2))
        p = Predictor(train_features=feats, onehot=onehot([1, 2, 1], 2), K=9,
                      theta=1.0)
        with pytest.warns(UserWarning, match="clamp"):
            (label,), _ = predict_batch(p, [np.zeros(2)])
        assert label in (1, 2)

    def test_score_mass_is_weight_sum(self, rng):
        feats = rng.normal(size=(10, 2))
        p = Predictor(train_features=feats, onehot=onehot([1, 2] * 5, 2), K=4,
                      theta=0.9)
        x = rng.normal(size=2)
        _, (scores,) = predict_batch(p, [x])
        d2 = np.sum((feats - x) ** 2, axis=1)
        w = np.exp(-np.sort(d2)[:4] / (2 * 0.9**2))
        assert scores.sum() == pytest.approx(w.sum(), rel=1e-12)
        assert np.all(scores >= 0)

    def test_zero_dimension_invariance(self, rng):
        feats = rng.normal(size=(12, 3))
        labels = rng.integers(1, 4, size=12)
        xs = rng.normal(size=(6, 3))
        p1 = Predictor(train_features=feats, onehot=onehot(labels, 3), K=3,
                       theta=1.1)
        p2 = Predictor(train_features=np.hstack([feats, np.zeros((12, 1))]),
                       onehot=onehot(labels, 3), K=3, theta=1.1)
        l1, s1 = predict_batch(p1, xs)
        l2, s2 = predict_batch(p2, np.hstack([xs, np.zeros((6, 1))]))
        np.testing.assert_array_equal(l1, l2)
        np.testing.assert_allclose(s1, s2, atol=1e-14)

    def test_deterministic_tie_breaks(self):
        # two training points equidistant from the query: stable sort keeps
        # the lower index, and equal scores resolve to the smaller label
        feats = np.array([[1.0, 0.0], [-1.0, 0.0]])
        p = Predictor(train_features=feats, onehot=onehot([2, 1], 2), K=1,
                      theta=1.0)
        (label,), _ = predict_batch(p, [np.zeros(2)])
        assert label == 2  # index 0 wins the neighbor tie
        p2 = Predictor(train_features=feats, onehot=onehot([2, 1], 2), K=2,
                       theta=1.0)
        (label2,), (scores2,) = predict_batch(p2, [np.zeros(2)])
        assert scores2[0] == scores2[1]
        assert label2 == 1  # score tie resolves to the smallest class index

    @pytest.mark.parametrize("theta", [math.nan, math.inf])
    def test_non_finite_theta(self, theta):
        # a NaN width would score every point NaN and label it 1
        with pytest.raises(ValueError, match="theta"):
            Predictor(np.zeros((2, 1)), np.eye(2), K=1, theta=theta)

    @pytest.mark.parametrize("bad", [[0.5, math.nan], [math.inf, 0.0]])
    def test_non_finite_test_row(self, bad):
        # a NaN row scans below no threshold, so it would find no neighbours
        p = Predictor(np.zeros((3, 2)), np.eye(3), K=2, theta=1.0)
        with pytest.raises(ValueError, match="non-finite test feature value "
                                             "in row 2$"):
            predict_batch(p, [[0.0, 1.0], bad, bad])

    def test_wrong_width_names_both_widths(self):
        p = Predictor(np.zeros((3, 2)), np.eye(3), K=2, theta=1.0)
        with pytest.raises(ValueError, match="^test features have 3 dims, "
                                             "model expects 2$"):
            predict_batch(p, np.zeros((4, 3)))

    @pytest.mark.parametrize("X", [[0.0, 1.0], 0.0, np.zeros((1, 1, 2))],
                             ids=["1-D", "0-D", "3-D"])
    def test_input_must_be_2d(self, X):
        p = Predictor(np.zeros((3, 2)), np.eye(3), K=2, theta=1.0)
        with pytest.raises(ValueError, match="must be a 2-D array"):
            predict_batch(p, X)

    @pytest.mark.parametrize("K", [3.5, 3.0, True])
    def test_k_must_be_an_integer(self, K):
        with pytest.raises(ValueError, match="^K must be an integer, got "):
            Predictor(np.zeros((3, 2)), np.eye(3), K=K, theta=1.0)

    def test_non_finite_train_row(self):
        with pytest.raises(DataFormatError, match="^non-finite train_features "
                                                  "value in row 2$"):
            Predictor(np.array([[0.0], [math.inf], [math.nan]]), np.eye(3),
                      K=1, theta=1.0)

    def test_empty_training_set_rejected(self):
        # it used to construct, and predict_batch then divided by zero
        with pytest.raises(ValueError, match="^train_features rows must be "
                                             "at least 1, got 0$"):
            Predictor(np.zeros((0, 2)), np.zeros((0, 3)), K=1, theta=1.0)

    @pytest.mark.parametrize("theta", [True, np.True_])
    def test_theta_must_not_be_a_bool(self, theta):
        with pytest.raises(ValueError, match="^theta must be a real number, "
                                             "got "):
            Predictor(np.zeros((2, 1)), np.eye(2), K=1, theta=theta)


class TestNeighborRule:
    @pytest.mark.parametrize("K", [3, 4, 8])
    def test_lattice_vote_matches_brute_force(self, rng, K):
        # queries on training points, at cell centres and on edge midpoints
        # of a shuffled lattice, where neighbours tie at the K-th distance
        train = rng.permutation(lattice(7))
        labels = rng.integers(1, 4, size=len(train))
        queries = np.vstack([train, lattice(6) + 0.5, lattice(6) + [0.5, 0.0]])
        p = Predictor(train_features=train, onehot=onehot(labels, 3), K=K,
                      theta=0.8)
        got_labels, got_scores = predict_batch(p, queries)
        idx, d2 = brute_knn(train, queries, K)
        w = np.exp(-d2 / (2 * 0.8**2))
        want = sum(w[:, k, None] * p.onehot[idx[:, k]] for k in range(K))
        np.testing.assert_array_equal(got_scores, want)
        np.testing.assert_array_equal(got_labels, np.argmax(want, axis=1) + 1)

    def test_batch_over_chunks_equals_single_points(self, rng):
        feats = rng.normal(size=(50, 3))
        p = Predictor(train_features=feats,
                      onehot=onehot(rng.integers(1, 4, size=50), 3), K=4,
                      theta=0.9)
        X = rng.normal(size=(2 * _CHUNK + 7, 3))
        labels, scores = predict_batch(p, X)
        for i, x in enumerate(X):
            (label,), (s,) = predict_batch(p, [x])
            assert label == labels[i]
            np.testing.assert_array_equal(s, scores[i])

    def test_far_row_keeps_its_own_neighbours(self, rng):
        # every training row is infinitely far from [1e308, 1e308], so its
        # scores are 0; the scan used to hand it the next row's neighbours
        feats = rng.normal(size=(60, 2))
        p = Predictor(train_features=feats,
                      onehot=onehot(rng.integers(1, 4, size=60), 3), K=5,
                      theta=1.0)
        labels, scores = predict_batch(p, [[1e308, 1e308], feats[4]])
        (label,), (near,) = predict_batch(p, feats[4:5])
        np.testing.assert_array_equal(scores, [[0.0, 0.0, 0.0], near])
        np.testing.assert_array_equal(labels, [1, label])


class TestBaseline:
    """The no-disambiguation control: the vote over the raw candidate rows."""

    @staticmethod
    def control(ds, K, theta):
        return Predictor(ds.features, encode(ds).Y, K=K, theta=theta)

    def test_singleton_neighbors(self, rng):
        feats = rng.normal(size=(6, 2))
        ds = Dataset(features=feats, candidates=((3,),) * 6, c=3)
        labels, _ = predict_batch(self.control(ds, K=3, theta=1.0),
                                  rng.normal(size=(1, 2)))
        assert labels.tolist() == [3]

    def test_ambiguous_neighbor_splits_mass(self):
        # one neighbor with S = {1, 2} at distance 0 contributes 0.5 each;
        # a farther singleton {2} neighbor tips the vote to 2
        feats = np.array([[0.0, 0.0], [0.3, 0.0]])
        ds = Dataset(features=feats, candidates=((1, 2), (2,)), c=2)
        (label,), (scores,) = predict_batch(self.control(ds, K=2, theta=1.0),
                                            np.zeros((1, 2)))
        assert label == 2
        w = math.exp(-0.3**2 / 2)
        np.testing.assert_allclose(scores, [0.5, 0.5 + w], rtol=1e-12)

    def test_invalid_theta(self, rng):
        ds = Dataset(features=rng.normal(size=(3, 2)),
                     candidates=((1,), (2,), (1,)), c=2)
        with pytest.raises(ValueError):
            self.control(ds, K=1, theta=-1.0)

    def test_invalid_K(self, rng):
        ds = Dataset(features=rng.normal(size=(3, 2)),
                     candidates=((1,), (2,), (1,)), c=2)
        with pytest.raises(ValueError, match="K must be at least 1"):
            self.control(ds, K=0, theta=1.0)

import math

import numpy as np
import pytest

from supersetlabel import (
    Dataset,
    Predictor,
    auto_theta,
    build_knn_graph,
    predict_batch,
)
from supersetlabel import graph
from supersetlabel.graph import _ScanBase

from conftest import brute_knn, lattice, random_symmetric_graph, scan_knn


def point_dataset(points):
    pts = np.asarray(points, dtype=float)
    return Dataset(features=pts, candidates=((1,),) * len(pts), c=1)


class TestGaussianWeight:
    # W_ik = exp(-||x_i - x_k||^2 / (2 theta^2)), read off the built graph
    # and, at zero distance, off the test-time vote as well
    def test_zero_distance(self):
        pts = [[1.0, 2.0], [1.0, 2.0]]
        g = build_knn_graph(point_dataset(pts), K=1, theta=0.7)
        assert g.W[0, 1] == 1.0 and g.W[1, 0] == 1.0
        p = Predictor(train_features=np.asarray(pts[:1]),
                      onehot=np.ones((1, 1)), K=1, theta=0.7)
        _, scores = predict_batch(p, pts[1:])
        assert scores[0, 0] == 1.0

    def test_distance_matching_width(self):
        # squared distance 2 theta^2 gives exactly exp(-1)
        theta = 1.3
        g = build_knn_graph(point_dataset([[0.0, 0.0],
                                           [theta * math.sqrt(2.0), 0.0]]),
                            K=1, theta=theta)
        assert g.W[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_scalar_example(self):
        # ||(0,0)-(3,4)||^2 = 25, theta 5 -> exp(-25/50)
        g = build_knn_graph(point_dataset([[0.0, 0.0], [3.0, 4.0]]), K=1,
                            theta=5.0)
        assert g.W[0, 1] == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_invalid_theta(self):
        with pytest.raises(ValueError):
            build_knn_graph(point_dataset([[0.0], [1.0]]), K=1, theta=0.0)

    @pytest.mark.parametrize("theta", [math.nan, math.inf])
    def test_non_finite_theta(self, theta):
        # a NaN width would make every weight NaN, an infinite one every 1
        with pytest.raises(ValueError, match="theta"):
            build_knn_graph(point_dataset([[0.0], [1.0]]), K=1, theta=theta)

    @pytest.mark.parametrize("theta", [True, np.True_])
    def test_bool_theta(self, theta):
        with pytest.raises(ValueError, match="^theta must be a real number, "):
            build_knn_graph(point_dataset([[0.0], [1.0]]), K=1, theta=theta)


class TestBuildGraph:
    def test_collinear_or_rule(self):
        # points at 0, 1, 10 with K=1: 10's nearest is 1, so edge {1,10} exists
        ds = point_dataset([[0.0], [1.0], [10.0]])
        g = build_knn_graph(ds, K=1, theta=1.0)
        W = g.W.toarray()
        assert W[0, 1] > 0 and W[1, 2] > 0 and W[0, 2] == 0
        np.testing.assert_array_equal(W, W.T)

    def test_complete_graph(self, rng):
        ds = point_dataset(rng.normal(size=(6, 2)))
        g = build_knn_graph(ds, K=5, theta=1.0)
        W = g.W.toarray()
        assert np.all(W[~np.eye(6, dtype=bool)] > 0)
        assert np.all(np.diag(W) == 0)

    def test_k_out_of_range(self):
        ds = point_dataset([[0.0], [1.0], [2.0]])
        with pytest.raises(ValueError):
            build_knn_graph(ds, K=3, theta=1.0)
        with pytest.raises(ValueError, match="^K must be at least 1, got 0$"):
            build_knn_graph(ds, K=0, theta=1.0)

    @pytest.mark.parametrize("K", [2.5, 2.0, True, "2"])
    def test_k_must_be_an_integer(self, K):
        ds = point_dataset([[0.0], [1.0], [2.0]])
        with pytest.raises(ValueError, match="^K must be an integer, got "):
            build_knn_graph(ds, K=K, theta=1.0)

    def test_numpy_integer_k(self):
        ds = point_dataset([[0.0], [1.0], [2.0]])
        assert (build_knn_graph(ds, K=np.int64(1), theta=1.0).W
                != build_knn_graph(ds, K=1, theta=1.0).W).nnz == 0

    def test_duplicates_get_weight_one(self):
        ds = point_dataset([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0]])
        g = build_knn_graph(ds, K=1, theta=2.0)
        assert g.W[0, 1] == 1.0

    def test_exact_symmetry_and_zero_rowsums(self, rng):
        ds = point_dataset(rng.normal(size=(40, 3)))
        g = build_knn_graph(ds, K=4, theta="auto")
        diff = (g.W - g.W.T)
        assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0
        rowsums = np.asarray(g.L.sum(axis=1)).ravel()  # the stored L = D - W
        np.testing.assert_allclose(rowsums, 0.0, atol=1e-12)

    def test_positive_semidefinite(self, rng):
        ds = point_dataset(rng.normal(size=(30, 2)))
        g = build_knn_graph(ds, K=3, theta=0.5)
        for _ in range(100):
            x = rng.normal(size=30)
            assert x @ g.laplacian_apply(x[:, None]).ravel() >= -1e-9

    def test_permutation_invariance(self, rng):
        pts = rng.normal(size=(25, 3))
        perm = rng.permutation(25)
        g = build_knn_graph(point_dataset(pts), K=3, theta=1.0)
        gp = build_knn_graph(point_dataset(pts[perm]), K=3, theta=1.0)
        # undo the permutation on the permuted graph
        inv = np.argsort(perm)
        W_back = gp.W.toarray()[np.ix_(inv, inv)]
        np.testing.assert_array_equal(W_back, g.W.toarray())

    def test_smoothness_identity(self, rng):
        # tr(F' L F) == 0.5 sum_ik W_ik ||F_i - F_k||^2
        for _ in range(10):
            n, c = int(rng.integers(3, 12)), int(rng.integers(2, 5))
            g = random_symmetric_graph(rng, n)
            F = rng.normal(size=(n, c))
            lhs = float(np.sum(F * g.laplacian_apply(F)))
            W = g.W.toarray()
            rhs = 0.5 * sum(
                W[i, k] * np.sum((F[i] - F[k]) ** 2)
                for i in range(n) for k in range(n)
            )
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-12)

    def test_laplacian_matches_sparse_matrix(self, rng):
        # one product with the stored L is D F - W F up to rounding
        g = random_symmetric_graph(rng, 9)
        F = rng.normal(size=(9, 3))
        want = g.degrees[:, None] * F - g.W @ F
        err = np.linalg.norm(g.laplacian_apply(F) - want)
        assert err <= 1e-12 * np.linalg.norm(want)


class TestNeighborRule:
    @pytest.mark.parametrize("K", [3, 4, 8])
    @pytest.mark.parametrize("side", [7, 20])
    def test_lattice_ties_match_brute_force(self, rng, side, K):
        # on a shuffled lattice many rows tie at the K-th distance, and the
        # lower index must win; the 20 x 20 grid spans several scan blocks
        pts = rng.permutation(lattice(side))
        n = len(pts)
        g = build_knn_graph(point_dataset(pts), K=K, theta="auto")
        idx, d2 = brute_knn(pts, pts, K, skip_self=True)
        want = np.zeros((n, n))
        want[np.repeat(np.arange(n), K), idx.ravel()] = np.exp(
            -d2.ravel() / (2.0 * g.theta ** 2))
        np.testing.assert_array_equal(g.W.toarray(), np.maximum(want, want.T))
        assert g.theta == pytest.approx(np.sqrt(d2).mean(), rel=1e-12)

    def test_coincident_points_link_to_lowest_other_index(self):
        # copies of one point at rows 3, 150 and 298 of a cloud far from the
        # origin, where the expanded-form distances of the copies round apart
        for seed in range(5):
            pts = np.random.default_rng(seed).normal(size=(300, 30)) + 30.0
            pts[[150, 298]] = pts[3]
            W = build_knn_graph(point_dataset(pts), K=1, theta=1.0).W.toarray()
            assert W[3, 150] == 1.0 and W[3, 298] == 1.0
            assert W[150, 298] == 0.0
            assert np.all(np.diag(W) == 0.0)

    # small-integer coordinates, so every squared distance is exact and the
    # search must return brute_knn's indices and distances bit for bit
    @pytest.mark.parametrize("layout, n, K", [
        # index-sorted on a line: a row's neighbours share its column group,
        # and its two neighbours at each distance tie
        ("line", 300, 5),
        # every row ties with every other at distance 0, and at the origin
        # the scan has no rounding slack
        ("coincident", 257, 7),
        # 103 columns do not fill a whole number of groups
        ("cloud", 103, 4),
        ("cloud", 40, 39),  # K = n - 1
        ("cloud", 2, 1),  # n <= K + 2
        ("cloud", 4, 3),
        ("cloud", 5, 3),
    ])
    def test_nearest_matches_brute_force(self, rng, layout, n, K):
        if layout == "line":
            base = np.stack([np.arange(n), np.zeros(n)], axis=1)
        elif layout == "coincident":
            base = np.zeros((n, 3))
        else:
            base = rng.integers(-6, 7, size=(n, 3)).astype(float)
        queries = np.vstack([base[::7],
                             rng.integers(-8, 9, size=(20, base.shape[1]))])
        cases = [(base, True, K), (queries, False, K), (queries, False, n),
                 (queries[-1:], False, K)]  # a single query row
        for query, skip_self, k in cases:
            idx, d2 = scan_knn(_ScanBase(base), query, k, skip_self)
            want_idx, want_d2 = brute_knn(base, query, k, skip_self)
            np.testing.assert_array_equal(idx, want_idx)
            np.testing.assert_array_equal(d2, want_d2)

    # layouts where float32 rounding, underflow or overflow could cost the
    # scan a neighbour; the exact pass sums with graph._sq_dist, whose order
    # can differ from np.sum's, so the brute force sums with it too. The
    # scan's slack grows with d, so d runs up to the Soccer Player shape's
    # 279; an id names d only when it is not 4
    @pytest.mark.parametrize("K, d", [
        pytest.param(K, d, id=str(K) if d == 4 else f"{K}-d{d}")
        for d in (4, 1, 279) for K in (1, 5)])
    @pytest.mark.parametrize("skip_self", [True, False])
    @pytest.mark.parametrize("layout", [
        "offset",  # spread 1e-3 at 1e9: float64 holds about 13 bits of it
        "tiny",  # spread 1e-200: the direct sums underflow to 0 and tie
        "far_queries",  # base at 1e150, queries at 1e180: the sums overflow
        "column_scales",  # columns scaled from 1 to 1e8
        "duplicates",
        "shell",  # queries at the centre of rows at 1 + 0, 1, 2 or 3e-9
    ])
    def test_nearest_matches_direct_sums_on_hard_layouts(self, rng, layout,
                                                        skip_self, K, d):
        base = rng.normal(size=(150, d))
        query = rng.normal(size=(30, d))
        if layout == "offset":
            base, query = 1e9 + 1e-3 * base, 1e9 + 1e-3 * query
        elif layout == "tiny":
            base, query = 1e-200 * base, 1e-200 * query
        elif layout == "far_queries":
            base, query = 1e150 * base, 1e180 * query
        elif layout == "column_scales":
            scales = np.logspace(0, 8, base.shape[1])
            base, query = base * scales, query * scales
        elif layout == "duplicates":
            base = base[rng.integers(0, 40, size=len(base))]
        else:
            base *= (1.0 + 1e-9 * rng.integers(0, 4, size=(len(base), 1))
                     ) / np.linalg.norm(base, axis=1, keepdims=True)
            query = 1e-12 * query
        query = base if skip_self else np.vstack([query, base[::10]])
        idx, d2 = scan_knn(_ScanBase(base), query, K, skip_self)
        want_idx, want_d2 = brute_knn(base, query, K, skip_self,
                                      sq_dist=graph._sq_dist)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(d2, want_d2)

    def test_exact_pass_ranks_few_rows(self, monkeypatch):
        # a slack so loose that most rows pass the threshold would still be
        # exact, but the scan would have become an all-pairs direct pass
        ranked, sq_dist = [], graph._sq_dist

        def counting_sq_dist(a, b):
            ranked.append(len(a))
            return sq_dist(a, b)

        monkeypatch.setattr(graph, "_sq_dist", counting_sq_dist)
        pts = np.random.default_rng(0).normal(size=(3000, 10))
        K = 5
        scan_knn(_ScanBase(pts), pts, K, skip_self=True)
        assert sum(ranked) <= (K + 1) * len(pts)

    @pytest.mark.parametrize("n", [1, graph._FOLD - 1, graph._FOLD,
                                   3 * graph._FOLD + 5])
    def test_column_extremes(self, rng, n):
        x = rng.normal(size=(n, 6))[:, ::2]  # a strided view too
        top, bottom = graph._column_extremes(x)
        np.testing.assert_array_equal(top, x.max(axis=0))
        np.testing.assert_array_equal(bottom, x.min(axis=0))

    def test_huge_finite_column_votes(self):
        # the column's sum leaves float64's range, its midrange does not
        p = Predictor(np.array([[1e308], [1.5e308], [0.0]]), np.eye(3), K=1,
                      theta=1.0)
        labels, scores = predict_batch(p, p.train_features)
        np.testing.assert_array_equal(labels, [1, 2, 3])
        np.testing.assert_array_equal(scores, np.eye(3))

    def test_too_few_candidates_raise(self):
        # a NaN in the scan leaves a row with fewer than K candidates; this
        # used to hand the row the next row's neighbours
        pts = np.arange(8.0).reshape(4, 2)
        base = _ScanBase(pts)
        base.operand[:, 1] = np.nan
        with pytest.raises(RuntimeError, match="fewer than K=4"):
            scan_knn(base, pts, 4, skip_self=False)


class TestAutoTheta:
    def test_two_points(self):
        ds = point_dataset([[0.0], [2.0]])
        assert auto_theta(ds, K=1) == 2.0

    def test_coincident_fallback(self):
        ds = point_dataset([[1.0, 1.0]] * 4)
        assert auto_theta(ds, K=2) == 1.0

    @pytest.mark.parametrize("K, message", [
        (0, "^K must be at least 1, got 0$"),
        (-2, "^K must be at least 1, got -2$"),
        (2.5, "^K must be an integer, got 2.5$"),
    ])
    def test_invalid_k(self, K, message):
        # K = 0 used to average an empty slice, and K = -2 to reach numpy
        with pytest.raises(ValueError, match=message):
            auto_theta(point_dataset([[0.0], [2.0], [3.0]]), K)

    def test_matches_brute_force(self, rng):
        pts = rng.normal(size=(100, 4))
        ds = point_dataset(pts)
        K = 6
        total = 0.0
        for i in range(100):
            d = np.sort(np.linalg.norm(pts - pts[i], axis=1))
            total += d[1:K + 1].sum()  # d[0] is the self distance
        expected = total / (100 * K)
        assert auto_theta(ds, K) == pytest.approx(expected, abs=1e-10)

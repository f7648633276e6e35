import re
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse as sp

from supersetlabel import (
    AlmState,
    Dataset,
    SolverConfig,
    SolverDivergenceError,
    alm_fit,
    build_knn_graph,
    encode,
    make_synthetic,
)
from supersetlabel import solver as solver_module
from supersetlabel.graph import KnnGraph
from supersetlabel.solver import (
    SIGMA_CAP,
    cccp_gradient,
    cccp_minimize,
    gd_minimize,
    linearized_objective,
)

from conftest import (
    fit_random_instances,
    random_candidates,
    random_symmetric_graph,
)


def edgeless_graph(n):
    return KnnGraph(W=sp.csr_matrix((n, n)), theta=1.0)


def single_ambiguous_instance():
    ds = Dataset(features=np.zeros((1, 2)), candidates=((1, 2),), c=2)
    return edgeless_graph(1), encode(ds)


def codec_for(candidates, c):
    ds = Dataset(features=np.zeros((len(candidates), 1)),
                 candidates=candidates, c=c)
    return encode(ds)


def zero_sets(codec):
    """1-based labels outside each candidate set, read off the mask H."""
    return tuple(tuple((np.flatnonzero(row) + 1).tolist()) for row in codec.H)


class TestEncode:
    def test_singleton_set(self):
        codec = codec_for(((2,),), c=3)
        np.testing.assert_array_equal(codec.Y, [[0.0, 1.0, 0.0]])
        np.testing.assert_array_equal(codec.H, [[1.0, 0.0, 1.0]])
        assert zero_sets(codec) == ((1, 3),)

    def test_two_of_four(self):
        codec = codec_for(((1, 3),), c=4)
        np.testing.assert_array_equal(codec.Y, [[0.5, 0.0, 0.5, 0.0]])
        assert zero_sets(codec) == ((2, 4),)

    def test_fully_ambiguous_row(self):
        c = 5
        codec = codec_for((tuple(range(1, c + 1)),), c=c)
        np.testing.assert_allclose(codec.Y, 1.0 / c)
        np.testing.assert_array_equal(codec.H, np.zeros((1, c)))
        assert zero_sets(codec) == ((),)

    def test_row_sums_exact(self, rng):
        for _ in range(20):
            n, c = int(rng.integers(1, 30)), int(rng.integers(2, 9))
            codec = codec_for(random_candidates(rng, n, c), c=c)
            assert np.max(np.abs(codec.Y.sum(axis=1) - 1.0)) < 1e-15

    def test_mask_disjoint_from_candidates(self, rng):
        n, c = 12, 6
        codec = codec_for(random_candidates(rng, n, c), c=c)
        assert np.all(codec.H * codec.Y == 0.0)
        assert np.all((codec.H == 0) | (codec.H == 1))

    def test_omega_sizes(self, rng):
        n, c = 15, 5
        cands = random_candidates(rng, n, c)
        codec = codec_for(cands, c=c)
        for s, om in zip(cands, zero_sets(codec)):
            assert len(om) == c - len(s)
            assert set(om).isdisjoint(s)

    def test_matches_per_row_loop(self, rng):
        n, c = 40, 7
        cands = random_candidates(rng, n, c)
        codec = codec_for(cands, c=c)
        Y, H = np.zeros((n, c)), np.ones((n, c))
        for i, s in enumerate(cands):
            cols = np.asarray(s) - 1
            Y[i, cols] = 1.0 / len(s)
            H[i, cols] = 0.0
        assert codec.Y.tobytes() == Y.tobytes()
        assert codec.H.tobytes() == H.tobytes()


class TestAlmFit:
    def test_unambiguous_labels_kept(self, rng):
        n, c = 10, 3
        cands = tuple((int(rng.integers(1, c + 1)),) for _ in range(n))
        ds = Dataset(features=rng.normal(size=(n, 2)), candidates=cands, c=c)
        graph = build_knn_graph(ds, K=3, theta=1.0)
        report = alm_fit(graph, encode(ds), SolverConfig(loop_max=10))
        assert tuple(report.labels) == tuple(s[0] for s in cands)

    def test_two_blob_synthetic_converges(self):
        ds = make_synthetic(n=60, c=2, d=2, sep=4.0, p_coocc=0.6, r_extra=1,
                            seed=1)
        graph = build_knn_graph(ds, K=5, theta="auto")
        report = alm_fit(graph, encode(ds), SolverConfig())
        assert report.converged
        assert report.loops_used <= 40
        assert report.trace[-1].delta_f <= 1e-4
        assert report.rowsum_resid <= 1e-3
        assert report.min_entry >= -1e-4

    def test_class_column_permutation(self, rng):
        n, c = 12, 3
        feats = rng.normal(size=(n, 2))
        cands = random_candidates(rng, n, c, ensure_singleton=True)
        pi = (3, 1, 2)  # old label j becomes pi[j-1]
        cands_perm = tuple(tuple(sorted(pi[l - 1] for l in s)) for s in cands)
        ds = Dataset(features=feats, candidates=cands, c=c)
        ds_perm = Dataset(features=feats, candidates=cands_perm, c=c)
        graph = build_knn_graph(ds, K=4, theta=1.0)
        cfg = SolverConfig(alpha=200.0, loop_max=8)
        rep = alm_fit(graph, encode(ds), cfg)
        rep_perm = alm_fit(graph, encode(ds_perm), cfg)
        cols = np.asarray(pi) - 1
        np.testing.assert_allclose(rep_perm.F_star[:, cols], rep.F_star,
                                   atol=1e-8)
        np.testing.assert_array_equal(
            rep_perm.labels, np.asarray([pi[y - 1] for y in rep.labels]))

    def test_trace_accessors(self):
        ds = make_synthetic(n=20, c=2, d=2, sep=4.0, p_coocc=0.5, r_extra=1,
                            seed=3)
        graph = build_knn_graph(ds, K=3, theta="auto")
        cfg = SolverConfig()
        report = alm_fit(graph, encode(ds), cfg)
        rows = report.trace_rows()
        assert rows[0][0] == 1
        assert len(rows) == report.loops_used
        assert [r[0] for r in rows] == list(range(1, report.loops_used + 1))
        if report.converged:
            assert rows[-1][1] <= cfg.eps1

    def test_sigma_sequence(self, rng):
        # one descent step per outer loop keeps F moving, so the run lasts
        # all six loops and the cap must hold once reached
        graph = random_symmetric_graph(rng, 4)
        ds = Dataset(features=rng.normal(size=(4, 2)),
                     candidates=((1, 2), (1,), (2,), (1, 2)), c=2)
        cfg = SolverConfig(sigma0=5e7, rho=1.5, loop_max=6, eps1=1e-18,
                           t_max=1, gd_max_iters=1)
        report = alm_fit(graph, encode(ds), cfg)
        sigmas = [row.sigma for row in report.trace]
        assert sigmas == [5e7, 7.5e7] + [SIGMA_CAP] * 4

    def test_lambda1_stays_nonnegative(self, rng):
        graph = random_symmetric_graph(rng, 6)
        ds = Dataset(features=rng.normal(size=(6, 2)),
                     candidates=random_candidates(rng, 6, 3), c=3)
        codec = encode(ds)
        cfg = SolverConfig()
        state = AlmState(F=codec.Y.copy(), lambda1=np.zeros((6, 3)),
                         lambda2=np.zeros(6), sigma=cfg.sigma0)
        for _ in range(3):
            F = cccp_minimize(state, graph, codec, cfg)
            state.lambda1 = np.maximum(0.0, state.lambda1 - state.sigma * F)
            assert np.all(state.lambda1 >= 0.0)
            state.lambda2 = state.lambda2 - state.sigma * (F.sum(axis=1) - 1.0)
            state.sigma = min(cfg.rho * state.sigma, SIGMA_CAP)
            state.F = F

    @pytest.mark.parametrize("generator, ambiguous_rows", [
        (dict(n=300, c=3, d=2, sep=4.0, p_coocc=0.7, r_extra=1, seed=42), 204),
        (dict(n=1000, c=5, d=2, sep=2.0, p_coocc=0.9, r_extra=2, seed=3), 910),
    ], ids=["ref", "hard"])
    def test_discrimination_term_widens_the_label_gap(self, generator,
                                                       ambiguous_rows):
        # the paper's claim that the beta term enlarges the gap between
        # possible and unlikely labels: the mean top-1 minus top-2 of F* over
        # rows with |S_i| > 1 was 0.9387, 0.9417, 0.9497 on ref and 0.8336,
        # 0.8388, 0.8603 on hard, while training accuracy barely moved
        ds = make_synthetic(**generator)
        graph, codec = build_knn_graph(ds, K=5, theta="auto"), encode(ds)
        ambiguous = np.array([len(s) > 1 for s in ds.candidates])
        assert ambiguous.sum() == ambiguous_rows
        gaps = []
        for beta in (0.0, 0.01, 0.1):
            F = alm_fit(graph, codec, SolverConfig(beta=beta)).F_star
            top = np.sort(F[ambiguous], axis=1)
            gaps.append(float(np.mean(top[:, -1] - top[:, -2])))
        assert gaps[0] < gaps[1] < gaps[2], gaps

    def test_empty_graph_rejected(self):
        ds = Dataset(features=np.zeros((0, 2)), candidates=(), c=2)
        with pytest.raises(ValueError, match="empty"):
            alm_fit(edgeless_graph(0), encode(ds), SolverConfig())

    def test_default_fit_converges_at_n3000(self):
        # the reference generator at ten times the reference size
        ds = make_synthetic(n=3000, c=3, d=2, sep=4.0, p_coocc=0.7,
                            r_extra=1, seed=42)
        graph = build_knn_graph(ds, K=5, theta="auto")
        report = alm_fit(graph, encode(ds), SolverConfig())
        assert report.converged
        assert report.rowsum_resid <= 1e-3
        assert report.min_entry >= -1e-4

    def test_nonfinite_iterate_reported(self, monkeypatch, rng):
        graph, codec = single_ambiguous_instance()

        def broken(state, graph, codec, cfg):
            return np.full_like(state.F, np.nan)

        monkeypatch.setattr(solver_module, "cccp_minimize", broken)
        with pytest.raises(SolverDivergenceError, match="loop 1"):
            alm_fit(graph, codec, SolverConfig())


class TestSigmaFloor:
    def test_large_beta_on_the_reference_stays_on_the_simplex(self):
        # from sigma0 = 1, beta = 0.5 ran off to max|F| 1e17 without an error
        ds = make_synthetic(n=300, c=3, d=2, sep=4.0, p_coocc=0.7, r_extra=1,
                            seed=42)
        report = alm_fit(build_knn_graph(ds, K=5, theta="auto"), encode(ds),
                         SolverConfig(beta=0.5))
        assert np.all(np.isfinite(report.F_star))
        assert report.rowsum_resid <= 1e-3

    def test_lagrangian_is_bounded_below_at_the_floor(self, rng):
        # with zero multipliers, L(t D) along a ray D with zero row sums is
        # exactly quadratic in t >= 0, with t^2 coefficient D'LD + alpha
        # ||H.D||^2 - beta ||D||^2 + sigma/2 ||min(D, 0)||^2. No edges is the
        # worst graph. A ray inside one row's candidates needs sigma >= 2 beta
        # |S_i|; a ray onto non-candidates also needs alpha large next to beta
        # (alpha >= 101 beta c is enough; at alpha = beta, c = 3, the ray
        # (1, -1/2, -1/2) from a singleton {1} has coefficient -0.495 beta).
        # Only rays that keep every row sum are bounded at the floor (see the
        # next test).
        for _ in range(30):
            n, c = int(rng.integers(2, 7)), int(rng.integers(2, 5))
            beta = float(rng.uniform(0.05, 1.0))
            ds = Dataset(features=np.zeros((n, 2)),
                         candidates=random_candidates(rng, n, c), c=c)
            graph, codec = edgeless_graph(n), encode(ds)
            cfg = SolverConfig(alpha=101.0 * beta * c * rng.uniform(1.0, 3.0),
                               beta=beta, sigma0=1e-3, loop_max=1, t_max=1,
                               gd_max_iters=1)
            sigma = alm_fit(graph, codec, cfg).trace[0].sigma
            state = AlmState(F=codec.Y, lambda1=np.zeros((n, c)),
                             lambda2=np.zeros(n), sigma=sigma)
            rays = [D - D.mean(axis=1, keepdims=True)
                    for D in rng.normal(size=(10, n, c))]
            for i, s in enumerate(ds.candidates):
                D, x = np.zeros((n, c)), rng.normal(size=len(s))
                D[i, np.asarray(s) - 1] = x - x.mean()
                rays.append(D)
            for D in rays:
                L0, L1, L2 = (linearized_objective(t * D, t * D, state, graph,
                                                   codec, cfg)
                              for t in (0.0, 1.0, 2.0))
                assert L2 - 2.0 * L1 + L0 >= -1e-9 * (1.0 + abs(L2))

    @staticmethod
    def t2_coefficient(D, codec, sigma, alpha, beta):
        # t^2 coefficient of L(t D) on an edgeless graph, zero multipliers
        state = AlmState(F=codec.Y, lambda1=np.zeros_like(D),
                         lambda2=np.zeros(len(D)), sigma=sigma)
        L0, L1, L2 = (linearized_objective(
            t * D, t * D, state, edgeless_graph(len(D)), codec,
            SolverConfig(alpha=alpha, beta=beta))
            for t in (0.0, 1.0, 2.0))
        return (L2 - 2.0 * L1 + L0) / 2.0

    def test_floor_does_not_bound_rays_that_change_a_row_sum(self):
        # the row-sum penalty sigma/2 (sum D)^2 is too weak at the floor, even
        # with alpha above 101 beta c
        phi = (1.0 + np.sqrt(5.0)) / 2.0
        for S, D in [((1, 2), [phi, -1.0]), ((1, 2, 3), [1.0, -0.366, -0.366])]:
            c, beta = len(S), 0.5
            codec = encode(Dataset(features=np.zeros((1, 2)), candidates=(S,),
                                   c=c))
            floor = 1.01 * 2.0 * beta * c
            assert alm_fit(edgeless_graph(1), codec, SolverConfig(
                alpha=1000.0, beta=beta, sigma0=1e-3, loop_max=1, t_max=1,
                gd_max_iters=1)).trace[0].sigma == pytest.approx(floor)
            assert self.t2_coefficient(np.array([D]), codec, floor, 1000.0,
                                       beta) < -0.1

    def test_lagrangian_is_bounded_below_from_sigma_2_beta_c_plus_1(self, rng):
        # ||D||^2 <= (c + 1)((sum D)^2 + ||min(D, 0)||^2) by Young's inequality
        # with eps = 1/(c - 1), so at sigma = 1.01 * 2 beta (c + 1) every ray,
        # row sums kept or not, has a positive t^2 coefficient at any alpha
        for _ in range(30):
            n, c = int(rng.integers(1, 5)), int(rng.integers(2, 6))
            beta = float(rng.uniform(0.05, 1.0))
            codec = encode(Dataset(features=np.zeros((n, 2)),
                                   candidates=random_candidates(rng, n, c),
                                   c=c))
            for D in rng.normal(size=(10, n, c)):
                assert self.t2_coefficient(
                    D, codec, 1.01 * 2.0 * beta * (c + 1), 0.0, beta
                ) >= 0.009 * beta * np.vdot(D, D)

    def test_floor_above_sigma_cap_is_rejected(self):
        graph, codec = single_ambiguous_instance()  # |S_1| = 2
        with pytest.raises(ValueError, match=r"4\.04e\+08 from beta=100000000"
                                             r"\.0 and max \|S_i\|=2 exceeds "
                                             r"the cap 1e\+08"):
            alm_fit(graph, codec, SolverConfig(beta=1e8))


class TestCccp:
    def test_beta_zero_single_iteration(self, rng, inner_calls):
        # with no concave part the first surrogate is exact, so the second
        # iteration barely moves and the loop stops at t=2
        graph = random_symmetric_graph(rng, 5)
        ds = Dataset(features=rng.normal(size=(5, 2)),
                     candidates=random_candidates(rng, 5, 2,
                                                  ensure_singleton=True), c=2)
        codec = encode(ds)
        cfg = SolverConfig(alpha=10.0, beta=0.0, gd_grad_tol=1e-10)
        state = AlmState(F=codec.Y.copy(), lambda1=np.zeros((5, 2)),
                         lambda2=np.zeros(5), sigma=1.0)
        cccp_minimize(state, graph, codec, cfg)
        assert len(inner_calls) <= 2
        assert inner_calls[-1].after == pytest.approx(inner_calls[-1].before,
                                                      abs=1e-8)

    def test_vertex_attraction_with_grid_oracle(self):
        # single fully ambiguous example, no edges, fixed multipliers: the
        # primal restricted to the feasible line is minimized at a vertex,
        # and the solver's row tracks it more tightly as beta grows
        graph, codec = single_ambiguous_instance()
        grid = np.linspace(0.0, 1.0, 101)
        maxima = []
        for beta in (0.1, 1.0):
            vals = -beta * (grid**2 + (1.0 - grid) ** 2)
            assert int(np.argmin(vals)) in (0, 100)
            cfg = SolverConfig(beta=beta)
            state = AlmState(F=np.array([[0.6, 0.4]]),
                             lambda1=np.zeros((1, 2)), lambda2=np.zeros(1),
                             sigma=100.0)
            F = cccp_minimize(state, graph, codec, cfg)
            assert int(np.argmax(F[0])) == 0
            maxima.append(F[0].max())
        assert maxima[0] >= 0.99
        assert maxima[1] >= maxima[0]

    def test_monotone_descent_random_instances(self, rng, inner_calls):
        fit_random_instances(rng, alpha_hi=30.0)
        worst = max(call.after - call.before for call in inner_calls)
        assert worst <= 1e-8


class TestGd:
    def test_no_inner_call_hits_the_cap_on_the_reference_run(self,
                                                               inner_calls):
        ds = make_synthetic(n=300, c=3, d=2, sep=4.0, p_coocc=0.7, r_extra=1,
                            seed=42)
        report = alm_fit(build_knn_graph(ds, K=5, theta="auto"), encode(ds),
                         SolverConfig())
        hits = sum(call.hit for call in inner_calls)
        assert report.converged and inner_calls
        assert not hits, f"{hits} of {len(inner_calls)} inner calls hit the cap"
        # a ratchet: 542 gradients; the Jacobi direction took 1,295 and the
        # row-block direction without conjugate steps 930
        grads = sum(call.grads for call in inner_calls)
        assert grads <= 542, f"{grads} gradients in {len(inner_calls)} calls"

    def test_cap_hits_on_the_criterion_6_instances(self, inner_calls):
        # on these small dense graphs a diagonal (Jacobi) direction stopped
        # at the cap in 47 of 1,276 calls; the exact row-block direction with
        # conjugate steps stops in none of 1,285
        fit_random_instances(np.random.default_rng(29), alpha_hi=50.0)
        hits = sum(call.hit for call in inner_calls)
        assert len(inner_calls) > 1000
        assert not hits, f"{hits} of {len(inner_calls)} inner calls hit the cap"

    def test_no_inner_call_hits_the_cap_on_hard_at_beta_0(self, inner_calls):
        # the Jacobi direction stopped at the cap in 91 of 145 calls here
        ds = make_synthetic(n=1000, c=5, d=2, sep=2.0, p_coocc=0.9, r_extra=2,
                            seed=3)
        report = alm_fit(build_knn_graph(ds, K=5, theta="auto"), encode(ds),
                         SolverConfig(beta=0.0))
        hits = sum(call.hit for call in inner_calls)
        assert report.converged
        assert not hits, f"{hits} of {len(inner_calls)} inner calls hit the cap"

    def test_isolated_point_keeps_the_row_sum(self):
        # the point at (35, 35) has degree about 1e-26; without the floor on
        # q its row-sum block is so ill-conditioned that rounding in g picks
        # an ascent direction, and the fit ends "converged" with row-sum
        # residual 0.021
        X = np.vstack([np.random.default_rng(0).normal(size=(12, 2)),
                       [[35.0, 35.0]]])
        ds = Dataset(features=X,
                     candidates=((1,),) * 4 + ((2,),) * 4 + ((1, 2),) * 5,
                     c=3)
        report = alm_fit(build_knn_graph(ds, K=2, theta="auto"), encode(ds),
                         SolverConfig())
        assert report.converged
        assert report.rowsum_resid <= 1e-3

    def test_row_block_step_is_exact(self, inner_calls):
        # with no edges every row's Hessian is its block diag(q_i) + sigma 1 1'
        # (plus sigma where the clamp is active), which the preconditioner
        # inverts exactly; the Jacobi direction needed 50 gradients here
        ds = Dataset(features=np.zeros((3, 2)),
                     candidates=((1, 2), (1, 2, 3), (1,)), c=3)
        codec = encode(ds)
        F = np.full((3, 3), 0.4)
        state = AlmState(F=F, lambda1=np.zeros((3, 3)),
                         lambda2=np.array([0.1, -0.2, 0.3]), sigma=5.0)
        graph = edgeless_graph(3)
        cfg = SolverConfig(alpha=3.0, beta=0.0, gd_grad_tol=1e-10)
        out = solver_module.gd_minimize(F, state, graph, codec, cfg)
        g = cccp_gradient(out, F, state, graph, codec, cfg)
        assert np.linalg.norm(g) <= 1e-10
        assert inner_calls[0].grads <= 7

    def test_stationary_point_unchanged(self):
        graph, codec = single_ambiguous_instance()
        cfg = SolverConfig(beta=0.0)
        F = np.array([[0.5, 0.5]])
        state = AlmState(F=F, lambda1=np.zeros((1, 2)), lambda2=np.zeros(1),
                         sigma=1.0)
        out = gd_minimize(F, state, graph, codec, cfg)
        np.testing.assert_array_equal(out, F)

    def test_closed_form_quadratic(self):
        # one example, S = {1}, no edges, beta = 0: piecewise-quadratic with
        # the clamp active on the non-candidate column; stationarity gives
        # F12 = l2 / (2 alpha + sigma), F11 = 1 + l2_mult/sigma - F12
        alpha, sigma, lam2, l2 = 3.0, 2.0, 0.3, 1.0
        ds = Dataset(features=np.zeros((1, 2)), candidates=((1,),), c=2)
        codec = encode(ds)
        graph = edgeless_graph(1)
        cfg = SolverConfig(alpha=alpha, beta=0.0, gd_grad_tol=1e-12)
        state = AlmState(F=codec.Y.copy(), lambda1=np.array([[0.1, l2]]),
                         lambda2=np.array([lam2]), sigma=sigma)
        out = gd_minimize(codec.Y.copy(), state, graph, codec, cfg)
        f12 = l2 / (2.0 * alpha + sigma)
        f11 = 1.0 + lam2 / sigma - f12
        np.testing.assert_allclose(out, [[f11, f12]], atol=1e-6)

    def test_underflow_returns_current_iterate(self, rng, monkeypatch):
        # an Armijo fraction of 1 can never be satisfied on a strictly convex
        # surrogate, so backtracking shrinks to underflow and hands back the
        # iterate
        monkeypatch.setattr(solver_module, "_ARMIJO_C", 1.0)
        graph, codec = single_ambiguous_instance()
        cfg = SolverConfig(beta=0.0)
        F = np.array([[2.0, -1.0]])
        state = AlmState(F=F, lambda1=np.zeros((1, 2)), lambda2=np.zeros(1),
                         sigma=1.0)
        with pytest.warns(UserWarning, match="underflow"):
            out = gd_minimize(F, state, graph, codec, cfg)
        # only float-noise micro-steps can be accepted before the underflow
        np.testing.assert_allclose(out, F, atol=1e-6)

    def test_accepted_steps_decrease_surrogate(self, rng):
        # the descent is deterministic, so a budget of k iterations from the
        # same start replays its first k steps
        n, c = 6, 3
        graph = random_symmetric_graph(rng, n)
        ds = Dataset(features=rng.normal(size=(n, 2)),
                     candidates=random_candidates(rng, n, c), c=c)
        codec = encode(ds)
        state = AlmState(F=rng.normal(size=(n, c)),
                         lambda1=np.abs(rng.normal(size=(n, c))),
                         lambda2=rng.normal(size=n), sigma=2.0)
        cfg = SolverConfig(alpha=5.0, beta=0.2)
        F_t = state.F.copy()
        final = gd_minimize(F_t, state, graph, codec, cfg)
        iterates = [F_t]
        for k in range(1, cfg.gd_max_iters + 1):
            iterates.append(gd_minimize(F_t, state, graph, codec,
                                        replace(cfg, gd_max_iters=k)))
            if np.array_equal(iterates[-1], final):
                break
        values = [linearized_objective(F, F_t, state, graph, codec,
                                       cfg) for F in iterates]
        assert len(values) > 2
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_large_surrogate_values_do_not_stall_descent(self, rng):
        # lambda1 shifted by 1e4 makes |surrogate| about 1e8, where one ulp
        # exceeds the decreases the line search must accept near the minimum;
        # the minimizer itself stays well posed
        n, c = 6, 3
        graph = random_symmetric_graph(rng, n)
        ds = Dataset(features=rng.normal(size=(n, 2)),
                     candidates=random_candidates(rng, n, c), c=c)
        codec = encode(ds)
        state = AlmState(F=rng.normal(size=(n, c)),
                         lambda1=np.abs(rng.normal(size=(n, c))) + 1e4,
                         lambda2=rng.normal(size=n), sigma=2.0)
        cfg = SolverConfig(alpha=5.0, beta=0.2)
        out = gd_minimize(state.F.copy(), state, graph, codec, cfg)
        g = cccp_gradient(out, state.F, state, graph, codec, cfg)
        assert np.linalg.norm(g) <= cfg.resolved_grad_tol(n, c)


class TestConfig:
    def test_invalid_rho(self):
        with pytest.raises(ValueError):
            SolverConfig(rho=1.0)

    def test_invalid_sigma0(self):
        with pytest.raises(ValueError):
            SolverConfig(sigma0=0.0)
        with pytest.raises(ValueError):
            SolverConfig(sigma0=1e9)

    def test_sigma_cap_within_state_bound(self):
        # sigma0 in (0, SIGMA_CAP], the bound AlmState enforces
        for bad in (-1.0, 0.0, np.nextafter(SIGMA_CAP, np.inf)):
            with pytest.raises(ValueError, match="sigma0 must be in"):
                SolverConfig(sigma0=bad)
        SolverConfig(sigma0=SIGMA_CAP)

    @pytest.mark.parametrize("K, message", [
        (0, "^K must be at least 1, got 0$"),
        (2.5, "^K must be an integer, got 2.5$"),
        (True, "^K must be an integer, got True$"),
    ])
    def test_invalid_K(self, K, message):
        with pytest.raises(ValueError, match=message):
            SolverConfig(K=K)

    def test_numpy_integer_K(self):
        assert SolverConfig(K=np.int32(3)).K == 3

    @pytest.mark.parametrize("name", ["t_max", "loop_max", "gd_max_iters"])
    def test_loop_budgets_at_least_one(self, name):
        with pytest.raises(ValueError,
                           match=f"^{name} must be at least 1, got 0$"):
            SolverConfig(**{name: 0})
        SolverConfig(**{name: 1})
        assert getattr(SolverConfig(**{name: np.int64(3)}), name) == 3

    # a field is an integer when its default is, as the CLI reads it; every
    # other field (theta defaults to "auto", gd_grad_tol to None) is a float
    INT_FIELDS = [f.name for f in fields(SolverConfig)
                  if type(f.default) is int]
    FLOAT_FIELDS = [f.name for f in fields(SolverConfig)
                    if type(f.default) is not int]

    # a bool is not a float setting, though True compares as 1
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, True,
                                       np.True_])
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_float_field_must_be_finite(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be .*, "
                                             f"got {re.escape(repr(value))}$"):
            SolverConfig(**{name: value})

    @pytest.mark.parametrize("value", [2.5, True])
    @pytest.mark.parametrize("name", INT_FIELDS)
    def test_int_field_must_be_an_integer(self, name, value):
        with pytest.raises(ValueError,
                           match=f"^{name} must be an integer, got {value}$"):
            SolverConfig(**{name: value})

    def test_resolved_grad_tol_scaling(self):
        cfg = SolverConfig()
        assert cfg.resolved_grad_tol(100, 9) == pytest.approx(1e-6 * 30.0)
        assert SolverConfig(gd_grad_tol=0.5).resolved_grad_tol(100, 9) == 0.5

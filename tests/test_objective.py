import numpy as np
import pytest
import scipy.sparse as sp

from supersetlabel import (
    AlmState,
    Dataset,
    SolverConfig,
    encode,
)
from supersetlabel.graph import KnnGraph
from supersetlabel.solver import (
    cccp_gradient,
    linearized_objective,
    primal_objective,
)

from conftest import random_instance, random_state


def scalar_form_objective(F, graph, codec, cfg):
    """Independent summation-form oracle for the primal objective."""
    n, c = F.shape
    W = graph.W.toarray()
    smooth = 0.0
    for i in range(n):
        for k in range(n):
            smooth += 0.5 * W[i, k] * sum(
                (F[i, j] - F[k, j]) ** 2 for j in range(c)
            )
    fidelity = 0.0
    for i in range(n):
        for j in np.flatnonzero(codec.H[i]) + 1:
            fidelity += (F[i, j - 1] - codec.Y[i, j - 1]) ** 2
    disc = sum(F[i, j] ** 2 for i in range(n) for j in range(c))
    return smooth + cfg.alpha * fidelity - cfg.beta * disc


def loop_lagrangian(state, graph, codec, cfg):
    """Independent term-by-term oracle for the augmented Lagrangian."""
    F, l1, l2, sigma = state.F, state.lambda1, state.lambda2, state.sigma
    n, c = F.shape
    total = scalar_form_objective(F, graph, codec, cfg)
    for i in range(n):
        for j in range(c):
            m = max(0.0, l1[i, j] - sigma * F[i, j])
            total += (m * m - l1[i, j] ** 2) / (2.0 * sigma)
    for i in range(n):
        r = sum(F[i, j] for j in range(c)) - 1.0
        total += -l2[i] * r + 0.5 * sigma * r * r
    return total


def loop_gradient(F, F_t, state, graph, codec, cfg):
    """Dense-loop oracle for the surrogate gradient."""
    n, c = F.shape
    W = graph.W.toarray()
    D = W.sum(axis=1)
    G = np.zeros_like(F)
    for i in range(n):
        r = F[i].sum() - 1.0
        for j in range(c):
            lap = D[i] * F[i, j] - sum(W[i, k] * F[k, j] for k in range(n))
            g = 2.0 * lap
            g += 2.0 * cfg.alpha * codec.H[i, j] * (F[i, j] - codec.Y[i, j])
            g -= max(0.0, state.lambda1[i, j] - state.sigma * F[i, j])
            g -= state.lambda2[i]
            g += state.sigma * r
            g -= 2.0 * cfg.beta * F_t[i, j]
            G[i, j] = g
    return G


def clamp_change(F, lambda1, sigma, graph, codec, cfg):
    """max(0, lambda1 - sigma F) - max(0, -sigma F), read off cccp_gradient:
    the clamp is its only term that depends on lambda1, entering with a minus
    sign, so this is the gradient at lambda1 = 0 minus the one at lambda1."""
    def grad(l1):
        state = AlmState(F=F, lambda1=l1, lambda2=np.zeros(F.shape[0]),
                         sigma=sigma)
        return cccp_gradient(F, F, state, graph, codec, cfg)
    return grad(np.zeros_like(F)) - grad(lambda1)


def two_node_instance():
    ds = Dataset(features=np.array([[0.0, 0.0], [1.0, 0.0]]),
                 candidates=((1, 2), (1,)), c=2)
    graph = KnnGraph(W=sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
                     theta=1.0)
    return graph, encode(ds)


class TestPrimal:
    def test_hand_computed_two_nodes(self):
        # smoothness 0 (equal rows), fidelity 0 (F zero outside the candidates),
        # discrimination -0.01 * (1 + 1)
        graph, codec = two_node_instance()
        F = np.array([[1.0, 0.0], [1.0, 0.0]])
        cfg = SolverConfig(alpha=1.0, beta=0.01)
        assert primal_objective(F, graph, codec, cfg) == pytest.approx(-0.02,
                                                                     abs=1e-15)

    def test_edgeless_at_y(self, rng):
        n, c = 5, 3
        ds = Dataset(features=rng.normal(size=(n, 2)),
                     candidates=((1, 2), (3,), (1, 2, 3), (2,), (1, 3)), c=c)
        codec = encode(ds)
        graph = KnnGraph(W=sp.csr_matrix((n, n)), theta=1.0)
        cfg = SolverConfig(alpha=7.0, beta=0.4)
        want = -cfg.beta * float(np.sum(codec.Y**2))
        assert primal_objective(codec.Y, graph, codec, cfg) == pytest.approx(
            want, rel=1e-12)

    def test_matches_scalar_form(self, rng):
        for _ in range(10):
            graph, codec, cfg = random_instance(rng)
            F = rng.normal(size=codec.Y.shape)
            got = primal_objective(F, graph, codec, cfg)
            want = scalar_form_objective(F, graph, codec, cfg)
            assert got == pytest.approx(want, rel=1e-8, abs=1e-10)

    def test_dimension_mismatch(self, rng):
        graph, codec, cfg = random_instance(rng, n=4, c=2)
        with pytest.raises(ValueError):
            primal_objective(np.zeros((4, 3)), graph, codec, cfg)


class TestAuxM:
    """The clamped multiplier max(0, lambda1 - sigma F), seen through the
    gradient (AlmState keeps sigma in (0, SIGMA_CAP], see TestValidation)."""

    def test_zero_when_nonnegative(self, rng):
        # lambda1 <= sigma F everywhere: the clamp stays 0 and the gradient
        # does not move, bit for bit
        graph, codec, cfg = random_instance(rng, n=2, c=2)
        F = np.array([[0.2, 0.8], [1.0, 0.0]])
        np.testing.assert_array_equal(
            clamp_change(F, 0.5 * 3.0 * F, 3.0, graph, codec, cfg),
            np.zeros((2, 2)))

    def test_scalar_arithmetic(self):
        # one example, one class, no edges, beta = 0: the gradient is -M
        ds = Dataset(features=np.zeros((1, 1)), candidates=((1,),), c=1)
        graph = KnnGraph(W=sp.csr_matrix((1, 1)), theta=1.0)
        cfg = SolverConfig(alpha=1.0, beta=0.0)
        M = clamp_change(np.array([[1.0]]), np.array([[5.0]]), 2.0, graph,
                         encode(ds), cfg)
        assert M[0, 0] == 3.0

    def test_elementwise_oracle(self, rng):
        graph, codec, cfg = random_instance(rng, n=6, c=3)
        F = rng.normal(size=(6, 3))
        l1 = np.abs(rng.normal(size=(6, 3)))
        sigma = 1.7
        got = clamp_change(F, l1, sigma, graph, codec, cfg)
        want = np.zeros_like(F)
        for i in range(6):
            for j in range(3):
                want[i, j] = (max(0.0, l1[i, j] - sigma * F[i, j])
                              - max(0.0, -sigma * F[i, j]))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert np.all(got >= 0)


class TestLagrangian:
    def test_reduces_to_primal_when_feasible(self, rng):
        graph, codec, cfg = random_instance(rng, n=6, c=3)
        # feasible nonnegative F with unit row sums, zero multipliers
        F = rng.uniform(0.1, 1.0, size=(6, 3))
        F /= F.sum(axis=1, keepdims=True)
        state = AlmState(F=F, lambda1=np.zeros((6, 3)), lambda2=np.zeros(6),
                         sigma=2.5)
        value = linearized_objective(F, F, state, graph, codec, cfg)
        assert value == pytest.approx(primal_objective(F, graph, codec, cfg),
                                      rel=1e-12, abs=1e-12)

    def test_quadratic_penalty_scaling(self, rng):
        graph, codec, cfg = random_instance(rng, n=3, c=2)
        F = codec.Y.copy()
        F[0] *= 1.5  # row sum 1.5, violation 0.5
        z1, z2 = np.zeros((3, 2)), np.zeros(3)
        vals = {}
        for sigma in (10.0, 1000.0):
            state = AlmState(F=F, lambda1=z1, lambda2=z2, sigma=sigma)
            vals[sigma] = linearized_objective(F, F, state, graph, codec, cfg)
        # the sigma/2 * 0.25 term dominates the growth
        assert vals[1000.0] - vals[10.0] == pytest.approx(
            0.5 * (1000.0 - 10.0) * 0.25, rel=1e-10)

    def test_matches_independent_reimplementation(self, rng):
        for _ in range(10):
            graph, codec, cfg = random_instance(rng)
            state = random_state(rng, codec.n, codec.c)
            F = state.F
            got = linearized_objective(F, F, state, graph, codec, cfg)
            want = loop_lagrangian(state, graph, codec, cfg)
            assert got == pytest.approx(want, rel=1e-8, abs=1e-10)

    def test_convex_concave_split(self, rng):
        # J1(F) - J2(F) equals the Lagrangian, with J2 = beta ||F||^2 and J1
        # the surrogate linearized at F_t = 0
        for _ in range(5):
            graph, codec, cfg = random_instance(rng)
            state = random_state(rng, codec.n, codec.c)
            F = state.F
            j1 = linearized_objective(F, np.zeros_like(F), state, graph,
                                      codec, cfg)
            j2 = cfg.beta * float(np.sum(F**2))
            assert j1 - j2 == pytest.approx(
                linearized_objective(F, F, state, graph, codec, cfg),
                rel=1e-10, abs=1e-10)

    def test_surrogate_adds_proximal_term(self, rng):
        # the CCCP surrogate is the Lagrangian plus beta ||F - F_t||^2
        for _ in range(10):
            graph, codec, cfg = random_instance(rng)
            state = random_state(rng, codec.n, codec.c)
            F, F_t = state.F, rng.normal(size=state.F.shape)
            gap = (linearized_objective(F, F_t, state, graph, codec, cfg)
                   - linearized_objective(F, F, state, graph, codec, cfg))
            assert gap == pytest.approx(
                cfg.beta * float(np.sum((F - F_t) ** 2)), rel=1e-10)

    def test_surrogate_touches_lagrangian_exactly(self, rng):
        # an upper bound for every F_t that meets the Lagrangian bit for bit
        # at F_t = F
        for _ in range(10):
            graph, codec, cfg = random_instance(rng)
            state = random_state(rng, codec.n, codec.c)
            F = rng.normal(size=state.F.shape)
            value = linearized_objective(F, F, state, graph, codec, cfg)
            F_t = F + rng.normal(size=F.shape)
            upper = linearized_objective(F, F_t, state, graph, codec, cfg)
            touch = linearized_objective(F, F.copy(), state, graph, codec, cfg)
            assert upper >= value and touch == value

    def test_clamp_term_exactly_zero(self, rng):
        # F >= 0 with unit row sums and lambda1 = 0: the clamp and row-sum
        # terms add exactly 0, whatever lambda2 and sigma are
        graph, codec, cfg = random_instance(rng, n=4, c=2)
        F = np.array([[0.5, 0.5], [1.0, 0.0], [0.25, 0.75], [0.0, 1.0]])
        state = AlmState(F=F, lambda1=np.zeros((4, 2)),
                         lambda2=rng.normal(size=4), sigma=3.0)
        assert (linearized_objective(F, F, state, graph, codec, cfg)
                == primal_objective(F, graph, codec, cfg))


class TestGradient:
    def test_zero_at_symmetric_feasible_point(self, rng):
        # beta=0, zero multipliers, fully ambiguous rows, constant columns:
        # every term of the gradient vanishes
        n, c = 5, 2
        ds = Dataset(features=rng.normal(size=(n, 2)),
                     candidates=((1, 2),) * n, c=c)
        codec = encode(ds)
        graph, _, _ = random_instance(rng, n=n, c=c)
        cfg = SolverConfig(alpha=4.0, beta=0.0)
        F = np.full((n, c), 0.5)
        state = AlmState(F=F, lambda1=np.zeros((n, c)), lambda2=np.zeros(n),
                         sigma=1.0)
        g = cccp_gradient(F, F, state, graph, codec, cfg)
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_finite_differences(self, rng):
        # acceptance-grade check: central differences of the surrogate
        for _ in range(20):
            graph, codec, cfg = random_instance(rng)
            n, c = codec.n, codec.c
            state = random_state(rng, n, c)
            F = rng.normal(size=(n, c))
            F_t = rng.normal(size=(n, c))
            g = cccp_gradient(F, F_t, state, graph, codec, cfg)
            fd = np.zeros_like(F)
            for i in range(n):
                for j in range(c):
                    h = 1e-6 * (1.0 + abs(F[i, j]))
                    Fp, Fm = F.copy(), F.copy()
                    Fp[i, j] += h
                    Fm[i, j] -= h
                    fd[i, j] = (
                        linearized_objective(Fp, F_t, state, graph, codec, cfg)
                        - linearized_objective(Fm, F_t, state, graph, codec, cfg)
                    ) / (2.0 * h)
            rel = np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g))
            assert rel <= 1e-4

    def test_loop_based_oracle(self, rng):
        for _ in range(5):
            graph, codec, cfg = random_instance(rng)
            n, c = codec.n, codec.c
            state = random_state(rng, n, c)
            F = rng.normal(size=(n, c))
            F_t = rng.normal(size=(n, c))
            got = cccp_gradient(F, F_t, state, graph, codec, cfg)
            want = loop_gradient(F, F_t, state, graph, codec, cfg)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_taylor_consistency_at_linearization_point(self, rng):
        # at F = F_t the gradient is d(convex part)/dF minus 2 beta F_t, where
        # the convex part is the surrogate linearized at F_t = 0
        graph, codec, cfg = random_instance(rng, n=5, c=3)
        state = random_state(rng, 5, 3)
        F_t = rng.normal(size=(5, 3))
        g = cccp_gradient(F_t, F_t, state, graph, codec, cfg)
        fd = np.zeros_like(F_t)
        zero = np.zeros_like(F_t)
        for i in range(5):
            for j in range(3):
                h = 1e-6 * (1.0 + abs(F_t[i, j]))
                Fp, Fm = F_t.copy(), F_t.copy()
                Fp[i, j] += h
                Fm[i, j] -= h
                fd[i, j] = (
                    linearized_objective(Fp, zero, state, graph, codec, cfg)
                    - linearized_objective(Fm, zero, state, graph, codec, cfg)
                ) / (2 * h)
        np.testing.assert_allclose(g, fd - 2.0 * cfg.beta * F_t,
                                   rtol=1e-4, atol=1e-6)


class TestValidation:
    def test_negative_params_rejected(self):
        with pytest.raises(ValueError, match="^alpha must be nonnegative"):
            SolverConfig(alpha=-1.0, beta=0.0)
        with pytest.raises(ValueError, match="^beta must be nonnegative"):
            SolverConfig(alpha=0.0, beta=-0.1)

    def test_state_sigma_bounds(self):
        z = np.zeros((1, 2))
        with pytest.raises(ValueError):
            AlmState(F=z, lambda1=z, lambda2=np.zeros(1), sigma=0.0)
        with pytest.raises(ValueError):
            AlmState(F=z, lambda1=z, lambda2=np.zeros(1), sigma=1e9)

    def test_state_lambda1_nonnegative(self):
        z = np.zeros((1, 2))
        with pytest.raises(ValueError):
            AlmState(F=z, lambda1=np.array([[-0.1, 0.0]]),
                     lambda2=np.zeros(1), sigma=1.0)

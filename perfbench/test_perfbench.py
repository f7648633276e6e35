"""Tests of the benchmark itself: tiny runs of each workload, and each output
check fed a corrupted output that it must reject."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import supersetlabel as ssl

import checks
import inputs
import run
from tracing import Tracer

HERE = Path(__file__).resolve().parent


def bench(*args, cwd=HERE.parent, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_tiny_run(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", "0", "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_reports_every_layer_metric():
    proc = bench("--workload", "knn_10k", "--seed", "3", "--seconds", "1",
                 "--trace", "1", "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert result["metrics"]["inference.points"]["value"] == inputs.TINY["knn_10k"].n_test
    assert "self time by layer" in proc.stdout
    assert "solver.gd_cap_hit_ratio base: 0 of 0 GD calls" in proc.stdout


def test_fails_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "ref", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_ref_inputs_are_the_acceptance_reference():
    features, candidates, truth, _ = inputs.make_train(inputs.WORKLOADS["ref"], 42)
    ds = ssl.make_synthetic(n=300, c=3, d=2, sep=4.0, p_coocc=0.7, r_extra=1, seed=42)
    assert np.array_equal(features, ds.features)
    assert tuple(candidates) == ds.candidates
    assert tuple(int(y) for y in truth) == ds.truth


@pytest.fixture(scope="module")
def small():
    """A small training set with the program's graph, codec and predictions."""
    w = inputs.TINY["knn_10k"]
    features, candidates, truth, means = inputs.make_train(w, 5)
    ds = ssl.Dataset(features=features, candidates=candidates, c=w.c, truth=truth)
    graph = ssl.build_knn_graph(ds, K=inputs.K, theta="auto")
    codec = ssl.encode(ds)
    test_x, _ = inputs.make_test(w, means, 5)
    labels, _ = ssl.predict_batch(
        ssl.Predictor(features, codec.Y, K=inputs.K, theta=graph.theta), test_x)
    return ds, graph, codec, test_x, labels


def graph_fails(ds, W, theta):
    return checks.check_graph(ds.features, inputs.K, W, theta, range(0, ds.n, 7))


def test_graph_check_passes_and_rejects_asymmetry_and_theta(small):
    ds, graph, *_ = small
    assert graph_fails(ds, graph.W, graph.theta) == []
    W = graph.W.tolil()
    i, k = graph.W[0].indices[0], 0
    W[i, k] = W[i, k] * 0.5
    assert any("symmetric" in f for f in graph_fails(ds, W.tocsr(), graph.theta))
    assert any("theta" in f for f in graph_fails(ds, graph.W, graph.theta * 1.01))


def test_codec_check_passes_and_rejects_a_wrong_mask(small):
    ds, _, codec, *_ = small
    assert checks.check_codec(ds.candidates, ds.c, codec.Y, codec.H) == []
    H = codec.H.copy()
    H[0, ds.candidates[0][0] - 1] = 1.0
    assert checks.check_codec(ds.candidates, ds.c, codec.Y, H) != []


def test_prediction_check_passes_and_rejects_a_flipped_label(small):
    ds, graph, _, test_x, labels = small
    Y = checks.expected_Y(ds.candidates, ds.c)

    def fails(lab):
        return checks.check_prediction(ds.features, Y, inputs.K, graph.theta,
                                       test_x, lab, range(len(test_x)))

    assert fails(labels) == []
    flipped = labels.copy()
    flipped[3] = flipped[3] % ds.c + 1
    assert len(fails(flipped)) == 1


def test_solve_check_passes_and_rejects_a_row_off_the_simplex():
    truth = np.array([1, 2, 3, 1, 2, 3])
    F = 0.8 * np.eye(3)[truth - 1] + 0.2 / 3
    assert checks.check_solve(F, truth, True, truth) == []
    bad = F.copy()
    bad[2] *= 1.5
    assert any("row-sum" in f for f in checks.check_solve(bad, truth, True, truth))
    flipped = truth.copy()
    flipped[0] = 2
    assert any("argmax" in f for f in checks.check_solve(F, flipped, True, truth))
    assert checks.check_solve(F, truth, False, truth) == ["solve: converged is false"]


@pytest.mark.parametrize("cfg, cap_hits", [
    # every GD call stops at 3 gradients with the norm above tolerance
    (ssl.SolverConfig(gd_max_iters=3, t_max=2), 2),
    # the first gradient is already within tolerance: at the cap, not a hit
    (ssl.SolverConfig(gd_max_iters=1, t_max=2, gd_grad_tol=1e12), 0),
])
def test_tracer_counts_gd_calls_iterations_and_cap_hits(cfg, cap_hits):
    from supersetlabel import solver
    ds = ssl.make_synthetic(n=12, c=3, d=2, sep=4.0, p_coocc=0.7, r_extra=1, seed=1)
    graph = ssl.build_knn_graph(ds, K=3)
    codec = ssl.encode(ds)
    state = ssl.AlmState(F=codec.Y.copy(), lambda1=np.zeros_like(codec.Y),
                         lambda2=np.zeros(ds.n), sigma=1.0)
    tracer = Tracer()
    tracer.wrap_gd(solver, "gd_minimize", "solver.gd_minimize")
    tracer.wrap_gradient(solver, "cccp_gradient", "objective.cccp_gradient")
    try:
        solver.cccp_minimize(state, graph, codec, cfg)
    finally:
        tracer.restore()
    gd_calls = tracer.calls("solver.gd_minimize")
    assert tracer.counts["solver.gd_cap_hits"] == cap_hits
    assert tracer.counts["solver.gd_iters"] == tracer.calls("objective.cccp_gradient")
    assert tracer.counts["solver.gd_iters"] == gd_calls * cfg.gd_max_iters
    assert tracer.missing == []
    assert not hasattr(solver.gd_minimize, "__wrapped__")  # restored

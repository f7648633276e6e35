"""One workload's pipeline, timed and checked, in a process of its own.

    python3 perfbench/pipeline.py --workload ref --data DIR --seed 1 \
        --seconds 20 --trace 0

loads DIR/train and DIR/test with `load_manifest`, then runs the package's
public stages `build_knn_graph` -> `encode` -> `alm_fit` (only where the
workload solves) -> `predict_batch`. Training and prediction repeat for their
share of the run and report medians. Peak memory is read before the
checks run, so it is the pipeline's own. With --trace 1 the process instead
trains once untraced and once traced, predicts once traced, and reports
per-layer metrics. The last stdout line is a JSON object that run.py reads.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import inputs
from tracing import Tracer

TRAIN_SHARE = 0.5    # share of --seconds spent repeating training
PREDICT_SHARE = 0.3  # share of --seconds spent repeating prediction
GRAPH_SAMPLE = 40    # training rows whose neighbours are recomputed
PREDICT_SAMPLE = 100  # held-out points whose vote is recomputed


@dataclass
class Trained:
    predictor: object
    graph: object
    codec: object
    report: object  # SolverReport, or None where the workload runs no solve


class Ops:
    """Counts the timed operations and the ones that raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, fn, *args):
        """(result, seconds), or (None, None) when fn raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None, None
        return out, time.perf_counter() - t0

    def repeat(self, fn, budget: float):
        """Call fn until another call would overrun budget seconds (at least
        once); return the first and last results and every duration."""
        first = last = None
        times = []
        while not times or sum(times) + statistics.median(times) <= budget:
            out, dt = self.run(fn)
            if dt is None:
                break
            first = out if first is None else first
            last = out
            times.append(dt)
        return first, last, times


def train(ssl, w: inputs.Workload, ds) -> Trained:
    graph = ssl.build_knn_graph(ds, K=inputs.K, theta="auto")
    codec = ssl.encode(ds)
    report = ssl.alm_fit(graph, codec, ssl.SolverConfig()) if w.solve else None
    onehot = report.onehot if report is not None else codec.Y
    predictor = ssl.Predictor(ds.features, onehot, K=inputs.K, theta=graph.theta)
    return Trained(predictor, graph, codec, report)


def check_outputs(ssl, w: inputs.Workload, ds, test_x, test_y, t: Trained,
                  labels, seed: int) -> list[str]:
    """Every output check of the workload; returns the failures."""
    rng = np.random.default_rng([seed, 2])
    truth = np.asarray(ds.truth)
    fails = checks.check_graph(
        ds.features, inputs.K, t.graph.W, t.graph.theta,
        rng.choice(ds.n, size=min(GRAPH_SAMPLE, ds.n), replace=False))
    fails += checks.check_codec(ds.candidates, ds.c, t.codec.Y, t.codec.H)
    if w.solve:
        fails += checks.check_solve(t.report.F_star, t.report.labels,
                                    t.report.converged, truth)
        vote_matrix = np.eye(ds.c)[np.asarray(t.report.labels) - 1]
        control = ssl.Predictor(ds.features, checks.expected_Y(ds.candidates, ds.c),
                                K=inputs.K, theta=t.graph.theta)
        control_labels, _ = ssl.predict_batch(control, test_x)
        fails += checks.check_beats_control(float(np.mean(labels == test_y)),
                                            float(np.mean(control_labels == test_y)))
    else:
        vote_matrix = checks.expected_Y(ds.candidates, ds.c)
    fails += checks.check_prediction(
        ds.features, vote_matrix, inputs.K, t.graph.theta, test_x, labels,
        rng.choice(len(test_x), size=min(PREDICT_SAMPLE, len(test_x)), replace=False))
    return fails


def same_model(a: Trained, b: Trained) -> bool:
    return (a.graph.theta == b.graph.theta
            and np.array_equal(a.predictor.onehot, b.predictor.onehot))


def run_untraced(ssl, w, ds, test_x, budget_train, budget_predict, ops):
    """Time repeated training and prediction; return outputs and metrics."""
    trained, last_trained, train_times = ops.repeat(
        lambda: train(ssl, w, ds), budget_train)
    if trained is None:
        return None, None, {}, [], {}
    result, last_result, predict_times = ops.repeat(
        lambda: ssl.predict_batch(trained.predictor, test_x), budget_predict)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if result is None:
        return trained, None, {}, [], {}
    metrics = {
        "train_s": (statistics.median(train_times), "s"),
        "predict_rate": (len(test_x) / statistics.median(predict_times), "points/s"),
        "peak_rss_mb": (peak_mb, "MiB"),
    }
    samples = {"train_s": train_times, "predict_rate": predict_times}
    fails = []
    if not same_model(trained, last_trained):
        fails.append("repeat: the last training gave a different model")
    if not np.array_equal(result[0], last_result[0]):
        fails.append("repeat: the last prediction gave different labels")
    return trained, result[0], metrics, fails, samples


def install(tracer: Tracer, ssl) -> None:
    """Wrap the public functions of each layer, under the names callers use."""
    from supersetlabel import graph, solver
    tracer.wrap(ssl, "build_knn_graph", "graph.build_knn_graph")
    tracer.wrap(graph, "auto_theta", "graph.auto_theta")
    tracer.count(graph.KnnGraph, "laplacian_apply", "graph.lap_applies")
    tracer.wrap(ssl, "encode", "labelspace.encode")
    tracer.wrap(ssl, "alm_fit", "solver.alm_fit")
    tracer.wrap(solver, "cccp_minimize", "solver.cccp_minimize")
    tracer.wrap_gd(solver, "gd_minimize", "solver.gd_minimize")
    tracer.wrap(solver, "linearized_objective", "objective.linearized_objective")
    tracer.wrap_gradient(solver, "cccp_gradient", "objective.cccp_gradient")
    tracer.wrap(ssl, "predict_batch", "inference.predict_batch")


def run_traced(ssl, w, ds, test_x, ops, spans_path):
    """Train untraced once, then train and predict traced; per-layer metrics."""
    _, plain_s = ops.run(lambda: train(ssl, w, ds))
    tracer = Tracer()
    install(tracer, ssl)
    try:
        trained, traced_s = ops.run(
            lambda: tracer.call("pipeline.train", train, ssl, w, ds))
        result, _ = (None, None) if trained is None else ops.run(
            lambda: tracer.call("pipeline.predict", ssl.predict_batch,
                                trained.predictor, test_x))
    finally:
        tracer.restore()
    if spans_path:
        tracer.write(spans_path)
    if trained is None or result is None or plain_s is None:
        return trained, None, {}, [], {}
    report = trained.report
    gd_calls = tracer.calls("solver.gd_minimize")
    cap_hits = tracer.counts["solver.gd_cap_hits"]
    truth = np.asarray(ds.truth)
    metrics = {
        "graph.build_s": (tracer.total("graph.build_knn_graph"), "s"),
        "graph.auto_theta_s": (tracer.total("graph.auto_theta"), "s"),
        "graph.edges": (trained.graph.W.nnz // 2, "count"),
        "graph.lap_applies": (tracer.counts["graph.lap_applies"], "count"),
        "labelspace.encode_s": (tracer.total("labelspace.encode"), "s"),
        "objective.value_evals": (tracer.calls("objective.linearized_objective"), "count"),
        "objective.grad_evals": (tracer.calls("objective.cccp_gradient"), "count"),
        "objective.value_s": (tracer.total("objective.linearized_objective"), "s"),
        "objective.grad_s": (tracer.total("objective.cccp_gradient"), "s"),
        "solver.alm_fit_s": (tracer.total("solver.alm_fit"), "s"),
        "solver.outer_loops": (tracer.calls("solver.cccp_minimize"), "count"),
        "solver.cccp_iters": (tracer.calls("solver.gd_minimize",
                                           parent="solver.cccp_minimize"), "count"),
        "solver.gd_calls": (gd_calls, "count"),
        "solver.gd_iters": (tracer.counts["solver.gd_iters"], "count"),
        "solver.gd_cap_hits": (cap_hits, "count"),
        "solver.gd_cap_hit_ratio": (cap_hits / gd_calls if gd_calls else 0.0, "fraction"),
        "solver.train_acc": (
            float(np.mean(np.asarray(report.labels) == truth)) if report else 0.0,
            "fraction"),
        "solver.rowsum_resid": (
            float(np.max(np.abs(report.F_star.sum(axis=1) - 1.0))) if report else 0.0,
            "abs"),
        "inference.predict_s": (tracer.total("inference.predict_batch"), "s"),
        "inference.points": (len(test_x), "count"),
        "trace.overhead_s": (traced_s - plain_s, "s"),
    }
    notes = {
        "self_s": tracer.self_times(),
        "cap_hit_base": f"{cap_hits} of {gd_calls} GD calls",
        "unwrapped": tracer.missing,
    }
    return trained, result[0], metrics, [], notes


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--data", type=Path, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()

    import supersetlabel as ssl

    w = inputs.workload(args.workload, args.scale)
    ds = ssl.load_manifest(args.data / "train" / "manifest.txt")
    test = ssl.load_manifest(args.data / "test" / "manifest.txt")
    test_x, test_y = test.features, np.asarray(test.truth)

    ops = Ops()
    if args.trace:
        trained, labels, metrics, fails, notes = run_traced(
            ssl, w, ds, test_x, ops, args.spans)
    else:
        trained, labels, metrics, fails, samples = run_untraced(
            ssl, w, ds, test_x, TRAIN_SHARE * args.seconds,
            PREDICT_SHARE * args.seconds, ops)
        notes = {"samples_s": samples}
    if labels is None:
        fails.append("no training and prediction completed")
    else:
        if not args.trace:
            metrics["test_acc"] = (float(np.mean(labels == test_y)), "fraction")
        fails += check_outputs(ssl, w, ds, test_x, test_y, trained, labels, args.seed)
    print(json.dumps({"attempted": ops.attempted, "failed": ops.failed,
                      "fails": fails, "metrics": metrics, "notes": notes}))


if __name__ == "__main__":
    sys.exit(main())

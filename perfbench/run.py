"""Benchmark of the supersetlabel pipeline: one workload per run.

    python3 perfbench/run.py --workload ref --seed 1 --seconds 20 --trace 0

run from the root of a source checkout (the package is imported from its
src/). One run:

1. writes the workload's inputs for --seed in a process of its own;
2. times set-up in SETUP_PROBES fresh interpreters (import the package,
   load the training and held-out sets) and takes the median;
3. runs the pipeline in one more process (see pipeline.py), which times
   training and prediction, checks every output, and reports its peak
   memory.

Every child runs with BLAS pinned to BLAS_THREADS threads. With --trace 0
the result carries the end-to-end metrics, with --trace 1 the per-layer
ones; the traced run also writes its spans to
.perfbench_work/spans-<workload>-<seed>.csv. The last stdout line is the
JSON result. A run exits 2 when the checkout has no package source.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

SETUP_PROBES = 7
BLAS_THREADS = 1
DEADLINE_S = 170.0  # a run ends well inside the 180 s a caller waits

END_TO_END = ("setup_s", "train_s", "predict_rate", "test_acc", "peak_rss_mb")
PER_LAYER = (
    "setup.import_s", "dataset.load_s",
    "graph.build_s", "graph.auto_theta_s", "graph.edges", "graph.lap_applies",
    "labelspace.encode_s",
    "objective.value_evals", "objective.grad_evals", "objective.value_s",
    "objective.grad_s",
    "solver.alm_fit_s", "solver.outer_loops", "solver.cccp_iters",
    "solver.gd_calls", "solver.gd_iters", "solver.gd_cap_hits",
    "solver.gd_cap_hit_ratio", "solver.train_acc", "solver.rowsum_resid",
    "inference.predict_s", "inference.points",
    "trace.overhead_s",
)


class RunError(RuntimeError):
    """A child process failed; the run prints no result."""


def child(args: list[str], env: dict, deadline: float) -> dict:
    """Run a benchmark script to completion; parse its last stdout line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError(f"out of time before {args[0]}")
    try:
        proc = subprocess.run([sys.executable, *args], env=env, text=True,
                              stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError(f"{args[0]} did not finish in time") from None
    if proc.returncode != 0:
        raise RunError(f"{args[0]} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        raise RunError(f"{args[0]} printed no JSON result") from None


def measure(root: Path, workload: str, seed: int, seconds: int, trace: int,
            scale: str) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    work = root / ".perfbench_work"
    data = work / f"{workload}-{seed}-{os.getpid()}"
    try:
        child([str(HERE / "inputs.py"), "--workload", workload, "--seed", str(seed),
               "--scale", scale, "--out", str(data)], env, deadline)
        probes = [child([str(HERE / "setup_probe.py"), str(data)], env, deadline)
                  for _ in range(SETUP_PROBES)]
        src = str(root / "src")
        if not all(p.get("package", "").startswith(src) for p in probes):
            raise RunError(f"the package was not imported from {src}")
        result = child(
            [str(HERE / "pipeline.py"), "--workload", workload, "--data", str(data),
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
             "--scale", scale,
             "--spans", str(work / f"spans-{workload}-{seed}.csv")],
            env, deadline)
    finally:
        shutil.rmtree(data, ignore_errors=True)
    if "metrics" not in result:
        raise RunError("the pipeline printed no metrics")

    metrics = result["metrics"]
    result.setdefault("notes", {}).setdefault("samples_s", {})["setup_s"] = [
        p["import_s"] + p["load_s"] for p in probes]
    if trace:
        metrics["setup.import_s"] = (
            statistics.median(p["import_s"] for p in probes), "s")
        metrics["dataset.load_s"] = (
            statistics.median(p["load_s"] for p in probes), "s")
    else:
        metrics["setup_s"] = (
            statistics.median(p["import_s"] + p["load_s"] for p in probes), "s")
    result["attempted"] += len(probes)
    return result


def report(workload: str, seed: int, trace: int, result: dict) -> dict:
    """Print the metrics by name and unit; return the JSON result."""
    names = PER_LAYER if trace else END_TO_END
    metrics = result["metrics"]
    fails = result["fails"]
    print(f"workload {workload}  seed {seed}  trace {trace}")
    notes = result["notes"]
    for name in names:
        if name in metrics:
            value, unit = metrics[name]
            times = notes["samples_s"].get(name)
            spread = (f"   (median of {len(times)} timings, {min(times):.4g}"
                      f" to {max(times):.4g} s)") if times and not trace else ""
            print(f"  {name:26s} {value:.6g} {unit}{spread}")
        else:
            fails.append(f"metric {name} was not measured")
    if trace and "self_s" in notes:
        print(f"  solver.gd_cap_hit_ratio base: {notes['cap_hit_base']}")
        print("  self time by layer:")
        for layer, s in sorted(notes["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"    {layer:24s} {s:.4f} s")
        for name in notes["unwrapped"]:
            print(f"  not traced (not found): {name}")
    for msg in fails:
        print(f"  CHECK FAILED: {msg}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {str(not fails).lower()}")
    return {
        "correct": not fails,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in names if name in metrics},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny runs scaled-down inputs, for the benchmark's tests")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    root = HERE.parent
    if not (root / "src" / "supersetlabel" / "__init__.py").is_file():
        print(f"no package source at {root / 'src' / 'supersetlabel'}; run the "
              "benchmark from a source checkout", file=sys.stderr)
        return 2
    try:
        result = measure(root, args.workload, args.seed, args.seconds,
                         args.trace, args.scale)
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(args.workload, args.seed, args.trace, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

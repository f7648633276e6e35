"""Command-line entry point.

Commands: fit, predict, cv, sweep, synth, friedman. Every flag can also be
given in a flat key=value config file (--config); explicit flags win. The
effective configuration is echoed into the output directory so runs are
auditable. Exit codes: 0 success, 2 usage, 3 bad input data, 4 solver
failure, 1 unexpected error.
"""

from __future__ import annotations

import sys

import argparse
import dataclasses
from pathlib import Path

import numpy as np

from .dataset import (
    DataFormatError,
    Dataset,
    check_count,
    check_declared,
    check_positive,
    load_dataset,
    load_manifest,
    make_synthetic,
    normalize_unit_length,
    read_features,
    read_kv_file,
    save_dataset,
    write_features,
    write_kv_file,
)
from .evaluation import cross_validate, friedman_test, sweep
from .graph import Predictor, build_knn_graph, predict_batch
from .labelspace import encode
from .solver import TRACE_HEADER, SolverConfig, SolverDivergenceError, alm_fit

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_SOLVER = 4


def auto_or_float(raw: str):
    return raw if raw == "auto" else float(raw)


def _truthy(raw: str) -> bool:
    """A switch word: 1/true/yes/on or 0/false/no/off, in any case."""
    word = raw.strip().lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"{raw!r} is not true/false, 1/0, yes/no or on/off")
    return word in ("1", "true", "yes", "on")


# every setting of a fit, cv or sweep run: the reader of its flag, --config
# and --grid values, and its default. A solver knob is read by the type of
# its default (gd_grad_tol defaults to None and is a float).
_SETTINGS = {
    **{f.name: (auto_or_float if f.name == "theta"
                else int if type(f.default) is int else float, f.default)
       for f in dataclasses.fields(SolverConfig)},
    "seed": (int, 0),
    "normalize": (_truthy, False),
    **{path: (str, None) for path in ("features", "candidates", "truth",
                                      "manifest")},
}
_HELP = {
    "theta": "kernel width, or 'auto' for the mean kNN distance",
    "normalize": "scale feature rows to unit length",
    "truth": "ground-truth labels; cv and sweep require them",
    "manifest": "dataset manifest; replaces the three file flags",
}
_GRID_KEYS = ("alpha", "beta", "K")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """--out, --config and one flag per setting, for fit, cv and sweep."""
    p.add_argument("--out", required=True)
    p.add_argument("--config",
                   help="flat key=value file; explicit flags override it")
    for key, (read, _) in _SETTINGS.items():
        kind = ({"action": "store_const", "const": True} if read is _truthy
                else {"type": read})
        p.add_argument("--" + key.replace("_", "-"), dest=key,
                       help=_HELP.get(key), **kind)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supersetlabel",
        description="Disambiguate superset-labeled data on a kNN graph and "
                    "classify by weighted nearest-neighbor voting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_run_flags(sub.add_parser("fit", help="disambiguate a training set"))

    p_pred = sub.add_parser("predict", help="label new examples from a fit")
    p_pred.add_argument("--model", required=True, help="output dir of a fit run")
    p_pred.add_argument("--features", required=True)
    p_pred.add_argument("--out", required=True, help="prediction CSV path")

    _add_run_flags(sub.add_parser("cv", help="five-fold cross validation"))

    p_sweep = sub.add_parser("sweep", help="cross-validate over a parameter grid")
    p_sweep.add_argument("--grid", required=True,
                         help="key=value file with comma lists for alpha, beta, K")
    _add_run_flags(p_sweep)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument("--c", type=int, required=True)
    p_synth.add_argument("--d", type=int, required=True)
    p_synth.add_argument("--sep", type=float, default=4.0)
    p_synth.add_argument("--p", type=float, default=0.7,
                         help="probability an example gets extra labels")
    p_synth.add_argument("--r", type=int, default=1,
                         help="number of extra labels when corrupted")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True)

    p_fr = sub.add_parser("friedman", help="rank test over an accuracy table")
    p_fr.add_argument("--table", required=True,
                      help="CSV, one method per row: name,acc_1,...,acc_N")
    p_fr.add_argument("--confidence", type=float, default=0.90)
    p_fr.add_argument("--out", default=None, help="optional result CSV")

    return parser


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge defaults, config file, and explicit flags (flags win)."""
    merged = {key: default for key, (_, default) in _SETTINGS.items()}
    if args.config:
        merged.update(read_kv_file(args.config, {
            key: read for key, (read, _) in _SETTINGS.items()}))
    merged.update({k: getattr(args, k) for k in merged
                   if getattr(args, k) is not None})
    return merged


def _start(args, command: str) -> tuple[Dataset, SolverConfig, dict]:
    """Check every input of a fit, cv or sweep run and return its data, its
    solver config and the merged settings."""
    merged = resolve_config(args)
    out = Path(args.out)
    if out.exists() and not out.is_dir():
        raise DataFormatError(f"--out {out} exists and is not a directory")
    if merged["manifest"]:
        ds = load_manifest(merged["manifest"])
    elif merged["features"] and merged["candidates"]:
        ds = load_dataset(merged["features"], merged["candidates"],
                          truth_path=merged["truth"])
    else:
        raise DataFormatError(
            "need --manifest or both --features and --candidates")
    if merged["normalize"]:
        ds = dataclasses.replace(ds, features=normalize_unit_length(
            ds.features, merged["manifest"] or merged["features"]))
    if command != "fit" and ds.truth is None:
        raise DataFormatError(f"{command} requires ground-truth labels (--truth)")
    try:
        cfg = SolverConfig(**{f.name: merged[f.name]
                              for f in dataclasses.fields(SolverConfig)})
    except ValueError as e:  # a knob out of range is a usage error
        raise argparse.ArgumentTypeError(e) from None
    return ds, cfg, merged


def _open_out(args, command: str, run: dict) -> Path:
    """Make --out once the run has succeeded, and echo its settings there."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_kv_file(out / "effective_config.txt", [("command", command)] + [
        (k, v) for k, v in sorted(run.items()) if v is not None])
    return out


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _write_csv(path, header: str, rows) -> None:
    """The header line, then one line per row: floats as _fmt, others by str."""
    with open(path, "w") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) if isinstance(v, float) else str(v)
                             for v in row) + "\n")


def cmd_fit(args) -> int:
    ds, cfg, run = _start(args, "fit")
    graph = build_knn_graph(ds, cfg.K, cfg.theta)
    report = alm_fit(graph, encode(ds), cfg)
    out = _open_out(args, "fit", run)
    _write_csv(out / "labels.csv", "index,label",
               enumerate(report.labels, start=1))
    np.savetxt(out / "onehot.csv", report.onehot, fmt="%d", delimiter=",")
    np.savetxt(out / "fstar.csv", report.F_star, fmt="%.12g", delimiter=",")
    _write_csv(out / "trace.csv", TRACE_HEADER, report.trace_rows())
    write_kv_file(out / "model_meta.txt", [
        ("n", ds.n), ("d", ds.d), ("c", ds.c), ("K", cfg.K),
        ("theta", f"{graph.theta:.17g}"), ("normalize", run["normalize"])])
    write_features(out / "model_features.tsv", ds.features)
    print(f"fit: {ds.n} examples, converged={report.converged} "
          f"in {report.loops_used} loops, "
          f"rowsum_resid={report.rowsum_resid:.3g}, "
          f"min_entry={report.min_entry:.3g}")
    return EXIT_OK


MODEL_META_KEYS = {"n": int, "d": int, "c": int,
                   "K": lambda raw: check_count(int(raw), "K"),
                   "theta": lambda raw: check_positive(float(raw), "theta"),
                   "normalize": _truthy}


def cmd_predict(args) -> int:
    model_dir = Path(args.model)
    meta_path = model_dir / "model_meta.txt"
    meta = read_kv_file(meta_path, MODEL_META_KEYS, required=("K", "theta"))
    onehot = read_features(model_dir / "onehot.csv", ",", "onehot")
    train_features = read_features(model_dir / "model_features.tsv")
    predictor = Predictor(train_features, onehot, meta["K"], meta["theta"])
    check_declared(meta_path, meta, "nd", "model_features.tsv",
                   train_features.shape)
    check_declared(meta_path, meta, "c", "onehot.csv", onehot.shape[1:])
    X = read_features(args.features)
    if meta.get("normalize"):  # test rows live where the model's rows do
        X = normalize_unit_length(X, args.features)
    try:
        labels, scores = predict_batch(predictor, X)
    except ValueError as e:  # its messages name no file
        raise DataFormatError(f"{args.features}: {e}") from None
    _write_csv(args.out, "index,predicted_label," + ",".join(
        f"score_{j}" for j in range(1, scores.shape[1] + 1)),
        ((i, y, *s) for i, (y, s) in enumerate(zip(labels, scores), start=1)))
    print(f"predict: wrote {len(labels)} predictions to {args.out}")
    return EXIT_OK


def cmd_cv(args) -> int:
    ds, cfg, run = _start(args, "cv")
    result = cross_validate(ds, cfg, run["seed"])
    out = _open_out(args, "cv", run)
    _write_csv(out / "results.csv", "fold,train_acc,test_acc",
               ((fold, *accs) for fold, accs in enumerate(
                   zip(result.fold_train_acc, result.fold_test_acc), start=1)))
    print(f"cv: train {result.mean_train:.3f} +/- {result.std_train:.3f}, "
          f"test {result.mean_test:.3f} +/- {result.std_test:.3f}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    # each item of a grid's comma list is read and checked as its setting
    grid = read_kv_file(args.grid, {
        k: lambda raw, k=k, read=_SETTINGS[k][0]: [
            getattr(SolverConfig(**{k: read(v)}), k) for v in raw.split(",")]
        for k in _GRID_KEYS})
    ds, cfg, run = _start(args, "sweep")
    rows = sweep(ds, *(grid.get(k, [getattr(cfg, k)]) for k in _GRID_KEYS),
                 cfg, run["seed"])
    out = _open_out(args, "sweep", run)
    _write_csv(out / "sweep.csv",
               "alpha,beta,K,mean_train,std_train,mean_test,std_test",
               ((r.alpha, r.beta, r.K, r.mean_train, r.std_train, r.mean_test,
                 r.std_test) for r in rows))
    print(f"sweep: {len(rows)} grid points written to {out / 'sweep.csv'}")
    return EXIT_OK


def cmd_synth(args) -> int:
    try:
        ds = make_synthetic(n=args.n, c=args.c, d=args.d, sep=args.sep,
                            p_coocc=args.p, r_extra=args.r, seed=args.seed)
    except ValueError as e:  # a flag out of range is a usage error
        raise argparse.ArgumentTypeError(e) from None
    paths = save_dataset(ds, args.out)
    print(f"synth: wrote {ds.n} examples to {paths['manifest'].parent}")
    return EXIT_OK


def _parse_accuracy_table(path) -> tuple[list[str], list[list[float]]]:
    """Rows are methods: either all numbers or a leading name column."""
    names, rows = [], []
    for line_no, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        parts = [p.strip() for p in line.split(",")]
        try:
            rows.append([float(p) for p in parts])
            names.append(f"method_{len(rows)}")
            continue
        except ValueError:
            pass
        try:
            vals = [float(p) for p in parts[1:]]
        except ValueError:
            if line_no == 1:
                continue  # header row
            raise DataFormatError(
                f"{path}: non-numeric accuracy on line {line_no}"
            ) from None
        names.append(parts[0])
        rows.append(vals)
    if not rows:
        raise DataFormatError(f"{path}: no accuracy rows")
    if len({len(r) for r in rows}) != 1:
        raise DataFormatError(f"{path}: ragged accuracy rows")
    return names, rows


def cmd_friedman(args) -> int:
    if not 0 < args.confidence < 1:
        raise argparse.ArgumentTypeError(
            f"--confidence must be in (0, 1), got {args.confidence}")
    names, rows = _parse_accuracy_table(args.table)
    result = friedman_test(np.asarray(rows), confidence=args.confidence)
    print(f"friedman: statistic={_fmt(result.statistic)} "
          f"critical={_fmt(result.critical_value)} reject={result.reject}")
    for name, rank, rej in zip(names, result.mean_ranks,
                               result.reject_per_method):
        print(f"  {name}: mean_rank={_fmt(rank)} "
              f"differs_from_best={rej}")
    if args.out:
        _write_csv(args.out, "method,mean_rank,differs_from_best",
                   ((name, rank, str(rej).lower())
                    for name, rank, rej in zip(names, result.mean_ranks,
                                               result.reject_per_method)))
    return EXIT_OK


_COMMANDS = {
    "fit": cmd_fit,
    "predict": cmd_predict,
    "cv": cmd_cv,
    "sweep": cmd_sweep,
    "synth": cmd_synth,
    "friedman": cmd_friedman,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except argparse.ArgumentTypeError as e:
        print(f"error: code=USAGE msg={e}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, OSError, ValueError) as e:
        print(f"error: code=DATA msg={e}", file=sys.stderr)
        return EXIT_DATA
    except SolverDivergenceError as e:
        print(f"error: code=SOLVER msg={e}", file=sys.stderr)
        return EXIT_SOLVER
    except Exception as e:  # pragma: no cover
        print(f"error: code=UNEXPECTED msg={e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

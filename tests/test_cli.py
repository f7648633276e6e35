import argparse
import dataclasses
import hashlib
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import supersetlabel
from supersetlabel import (Predictor, SolverDivergenceError, alm_fit,
                           build_knn_graph, encode, load_manifest,
                           predict_batch)
from supersetlabel import cli
from supersetlabel.cli import (EXIT_DATA, EXIT_OK, EXIT_SOLVER, EXIT_USAGE,
                               MODEL_META_KEYS, _truthy, build_parser, main,
                               read_kv_file)
from supersetlabel.dataset import (MANIFEST_KEYS, normalize_unit_length,
                                   write_features)
from supersetlabel.solver import SolverConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*argv):
    return main(list(argv))


def subparsers():
    """The parser of each subcommand, by name."""
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert run_cli("synth", "--n", "40", "--c", "2", "--d", "2",
                   "--sep", "5", "--p", "0.5", "--r", "1", "--seed", "7",
                   "--out", str(out)) == EXIT_OK
    return out


FAST = ["--alpha", "100", "--loop-max", "8", "--K", "3"]


@pytest.fixture(scope="module")
def fitted_model(synth_dir, tmp_path_factory):
    model = tmp_path_factory.mktemp("fitted") / "model"
    assert run_cli("fit", "--manifest", str(synth_dir / "manifest.txt"),
                   "--out", str(model), *FAST) == EXIT_OK
    return model


def assert_data_error(capsys, *parts):
    """stderr is one DATA error line that contains every part."""
    err = capsys.readouterr().err
    assert err.startswith("error: code=DATA msg=")
    assert "\n" not in err.strip()
    for part in parts:
        assert part in err


class TestFit:
    def test_smoke_outputs(self, synth_dir, tmp_path):
        out = tmp_path / "fit"
        code = run_cli("fit",
                       "--features", str(synth_dir / "features.tsv"),
                       "--candidates", str(synth_dir / "candidates.txt"),
                       "--truth", str(synth_dir / "truth.txt"),
                       "--out", str(out), *FAST)
        assert code == EXIT_OK
        labels = (out / "labels.csv").read_text().splitlines()
        assert labels[0] == "index,label"
        assert len(labels) == 1 + 40
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "loop,delta_f,sigma,lagrangian,rowsum_resid,min_entry"
        assert len(trace) >= 2
        assert (out / "effective_config.txt").exists()
        assert (out / "onehot.csv").exists()
        assert (out / "fstar.csv").exists()

    def test_manifest_input(self, synth_dir, tmp_path):
        out = tmp_path / "fit"
        code = run_cli("fit", "--manifest", str(synth_dir / "manifest.txt"),
                       "--out", str(out), *FAST)
        assert code == EXIT_OK

    @pytest.mark.parametrize("line, message", [
        ("c=x", "bad value for key 'c'"),
        ("labels=labels.txt", "unknown key 'labels'"),
        ("truth=", "bad value for key 'truth': empty file name"),
        ("features=features.tsv", "repeated key 'features'"),
    ], ids=["c_not_int", "unknown_key", "empty_truth", "repeated_features"])
    def test_bad_manifest_is_data_error(self, synth_dir, tmp_path, capsys,
                                        line, message):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("".join(
            f"{role}={synth_dir / name}\n" for role, name in [
                ("features", "features.tsv"),
                ("candidates", "candidates.txt")]) + line + "\n")
        out = tmp_path / "fit"
        assert run_cli("fit", "--manifest", str(manifest),
                       "--out", str(out), *FAST) == EXIT_DATA
        assert_data_error(capsys, f"msg={manifest}: {message}")
        assert not out.exists()

    def test_out_is_a_file_is_data_error(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "fit"
        out.write_text("not a directory\n")
        assert run_cli("fit", "--manifest", str(synth_dir / "manifest.txt"),
                       "--out", str(out), *FAST) == EXIT_DATA
        assert_data_error(capsys, f"msg=--out {out} exists and is not a "
                                  "directory")

    @pytest.mark.parametrize("command", ["fit", "cv", "sweep"])
    def test_out_is_a_file_fails_before_the_fit(self, command, synth_dir,
                                                tmp_path, capsys, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("alm_fit called")

        monkeypatch.setattr(cli, "alm_fit", no_fit)
        monkeypatch.setattr(supersetlabel.evaluation, "alm_fit", no_fit)
        out = tmp_path / "out"
        out.write_text("not a directory\n")
        grid = tmp_path / "grid.txt"
        grid.write_text("alpha=10\n")
        extra = ["--grid", str(grid)] if command == "sweep" else []
        assert run_cli(command, "--manifest", str(synth_dir / "manifest.txt"),
                       "--out", str(out), *extra, *FAST) == EXIT_DATA
        assert_data_error(capsys, f"msg=--out {out} exists")
        assert out.read_text() == "not a directory\n"

    def test_no_input_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "fit"
        assert run_cli("fit", "--out", str(out)) == EXIT_DATA
        assert_data_error(capsys, "need --manifest or both --features and "
                                  "--candidates")
        assert not out.exists()

    def test_empty_features_is_data_error(self, synth_dir, tmp_path, capsys):
        features = tmp_path / "features.tsv"
        features.write_text("\n\n")
        assert run_cli("fit", "--features", str(features), "--candidates",
                       str(synth_dir / "candidates.txt"),
                       "--out", str(tmp_path / "fit")) == EXIT_DATA
        assert_data_error(capsys, f"msg={features}: no feature rows")

    def test_solver_divergence_is_solver_error(self, synth_dir, tmp_path,
                                               capsys, monkeypatch):
        def diverge(graph, codec, cfg):
            raise SolverDivergenceError("non-finite iterate at loop 3")

        monkeypatch.setattr(cli, "alm_fit", diverge)
        out = tmp_path / "fit"
        assert run_cli("fit", "--manifest", str(synth_dir / "manifest.txt"),
                       "--out", str(out), *FAST) == EXIT_SOLVER
        assert capsys.readouterr().err == (
            "error: code=SOLVER msg=non-finite iterate at loop 3\n")
        assert not out.exists()

    def test_K_at_least_n_is_data_error(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "fit"
        assert run_cli("fit", "--manifest", str(synth_dir / "manifest.txt"),
                       "--K", "40", "--out", str(out)) == EXIT_DATA
        assert_data_error(capsys, "K must be in 1..39, got 40")
        assert not out.exists()

    @pytest.mark.parametrize("via", ["features", "manifest"])
    def test_zero_row_names_its_input(self, synth_dir, tmp_path, capsys, via):
        features = tmp_path / "features.tsv"
        X = np.loadtxt(synth_dir / "features.tsv", ndmin=2)
        X[4] = 0.0
        write_features(features, X)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"features={features}\ncandidates="
                            f"{synth_dir / 'candidates.txt'}\n")
        inputs = (["--manifest", str(manifest)] if via == "manifest" else
                  ["--features", str(features), "--candidates",
                   str(synth_dir / "candidates.txt")])
        out = tmp_path / "fit"
        assert run_cli("fit", *inputs, "--normalize",
                       "--out", str(out)) == EXIT_DATA
        named = manifest if via == "manifest" else features
        assert_data_error(capsys, f"msg={named}: zero-norm feature row 5")
        assert not out.exists()

    def test_trace_csv(self, synth_dir, tmp_path):
        out = tmp_path / "fit"
        assert run_cli("fit", "--manifest", str(synth_dir / "manifest.txt"),
                       "--out", str(out), *FAST) == EXIT_OK
        ds = load_manifest(synth_dir / "manifest.txt")
        report = alm_fit(build_knn_graph(ds, K=3, theta="auto"), encode(ds),
                         SolverConfig(alpha=100.0, loop_max=8, K=3))
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "loop,delta_f,sigma,lagrangian,rowsum_resid,min_entry"
        assert len(lines) == 1 + report.loops_used
        assert lines[1:] == [",".join([str(loop), *(f"{v:.12g}" for v in rest)])
                             for loop, *rest in report.trace_rows()]

    def test_does_not_modify_inputs(self, synth_dir, tmp_path):
        digest = lambda p: hashlib.sha256(p.read_bytes()).hexdigest()
        before = {p.name: digest(p) for p in synth_dir.iterdir()}
        run_cli("fit", "--manifest", str(synth_dir / "manifest.txt"),
                "--out", str(tmp_path / "fit"), *FAST)
        after = {p.name: digest(p) for p in synth_dir.iterdir()}
        assert before == after


class TestPredict:
    def test_round_trip(self, synth_dir, tmp_path):
        model = tmp_path / "model"
        run_cli("fit", "--manifest", str(synth_dir / "manifest.txt"),
                "--out", str(model), *FAST)
        pred_path = tmp_path / "pred.csv"
        code = run_cli("predict", "--model", str(model),
                       "--features", str(synth_dir / "features.tsv"),
                       "--out", str(pred_path))
        assert code == EXIT_OK
        lines = pred_path.read_text().splitlines()
        assert lines[0] == "index,predicted_label,score_1,score_2"
        assert len(lines) == 1 + 40
        # predicting the training points reproduces the disambiguated labels
        fit_labels = [int(line.split(",")[1]) for line in
                      (model / "labels.csv").read_text().splitlines()[1:]]
        pred_labels = [int(line.split(",")[1]) for line in lines[1:]]
        agree = np.mean(np.asarray(fit_labels) == np.asarray(pred_labels))
        assert agree >= 0.9

    def test_model_round_trip_is_exact(self, synth_dir, tmp_path):
        model = tmp_path / "model"
        assert run_cli("fit", "--manifest", str(synth_dir / "manifest.txt"),
                       "--out", str(model), "--theta", "auto",
                       *FAST) == EXIT_OK
        ds = load_manifest(synth_dir / "manifest.txt")
        graph = build_knn_graph(ds, K=3, theta="auto")
        meta = read_kv_file(model / "model_meta.txt", MODEL_META_KEYS)
        assert meta["theta"] == graph.theta

        X = np.random.default_rng(3).normal(scale=3.0, size=(25, 2))
        np.savetxt(tmp_path / "test.tsv", X, fmt="%.17g", delimiter="\t")
        pred_path = tmp_path / "pred.csv"
        assert run_cli("predict", "--model", str(model),
                       "--features", str(tmp_path / "test.tsv"),
                       "--out", str(pred_path)) == EXIT_OK
        got = [int(line.split(",")[1]) for line in
               pred_path.read_text().splitlines()[1:]]
        onehot = np.loadtxt(model / "onehot.csv", delimiter=",", ndmin=2)
        want, _ = predict_batch(
            Predictor(ds.features, onehot, K=3, theta=graph.theta), X)
        np.testing.assert_array_equal(got, want)

    def test_dimension_mismatch(self, synth_dir, tmp_path, capsys):
        model = tmp_path / "model"
        run_cli("fit", "--manifest", str(synth_dir / "manifest.txt"),
                "--out", str(model), *FAST)
        bad = tmp_path / "bad.tsv"
        bad.write_text("1\t2\t3\n")
        code = run_cli("predict", "--model", str(model),
                       "--features", str(bad), "--out",
                       str(tmp_path / "p.csv"))
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: code=DATA")
        assert "\n" not in err.strip()

    def test_nan_theta_in_model_is_data_error(self, synth_dir, tmp_path,
                                              capsys):
        model = tmp_path / "model"
        run_cli("fit", "--manifest", str(synth_dir / "manifest.txt"),
                "--out", str(model), *FAST)
        meta = model / "model_meta.txt"
        theta = read_kv_file(meta, dict.fromkeys(MODEL_META_KEYS, str))["theta"]
        meta.write_text(meta.read_text().replace(f"theta={theta}",
                                                 "theta=nan"))
        pred_path = tmp_path / "pred.csv"
        code = run_cli("predict", "--model", str(model),
                       "--features", str(synth_dir / "features.tsv"),
                       "--out", str(pred_path))
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: code=DATA") and "theta" in err
        assert not pred_path.exists()

    @pytest.mark.parametrize("name, edit, message", [
        ("model_meta.txt", lambda t: re.sub(r"(?m)^K=.*\n", "", t),
         "{model}/model_meta.txt: missing key 'K'"),
        ("model_meta.txt", lambda t: re.sub(r"(?m)^theta=.*\n", "", t),
         "{model}/model_meta.txt: missing key 'theta'"),
        ("onehot.csv", lambda t: "".join(t.splitlines(True)[:25]),
         "25 onehot rows but 40 train_features rows"),
        ("model_features.tsv", lambda t: "".join(t.splitlines(True)[:25]),
         "40 onehot rows but 25 train_features rows"),
        ("onehot.csv", lambda t: "x" + t[1:],
         "{model}/onehot.csv: non-numeric onehot token 'x' on line 1"),
        ("onehot.csv", lambda t: re.sub(r"(?m)\A(.*\n.*\n).*", r"\1x,0", t),
         "{model}/onehot.csv: non-numeric onehot token 'x' on line 3"),
        ("model_meta.txt", lambda t: re.sub(r"(?m)^n=.*$", "n=999", t),
         "{model}/model_meta.txt: declared n=999 but model_features.tsv has 40"),
        ("model_meta.txt", lambda t: re.sub(r"(?m)^d=.*$", "d=5", t),
         "{model}/model_meta.txt: declared d=5 but model_features.tsv has 2"),
        ("model_meta.txt", lambda t: re.sub(r"(?m)^c=.*$", "c=7", t),
         "{model}/model_meta.txt: declared c=7 but onehot.csv has 2"),
        ("model_meta.txt", lambda t: re.sub(r"(?m)^K=.*$", "K=0", t),
         "{model}/model_meta.txt: bad value for key 'K': "
         "K must be at least 1, got 0"),
        ("model_meta.txt", lambda t: re.sub(r"(?m)^theta=.*$", "theta=-1", t),
         "{model}/model_meta.txt: bad value for key 'theta': "
         "theta must be finite and positive, got -1.0"),
    ], ids=["no_K", "no_theta", "short_onehot", "short_features",
            "onehot_token", "onehot_token_line_3", "meta_n", "meta_d",
            "meta_c", "meta_K_zero", "meta_theta_negative"])
    def test_bad_model_is_data_error(self, fitted_model, synth_dir, tmp_path,
                                     capsys, name, edit, message):
        model = tmp_path / "model"
        shutil.copytree(fitted_model, model)
        (model / name).write_text(edit((model / name).read_text()))
        pred_path = tmp_path / "pred.csv"
        assert run_cli("predict", "--model", str(model),
                       "--features", str(synth_dir / "features.tsv"),
                       "--out", str(pred_path)) == EXIT_DATA
        assert_data_error(capsys, message.format(model=model))
        assert not pred_path.exists()

    def test_model_without_shape_keys_predicts(self, fitted_model, synth_dir,
                                               tmp_path):
        # a model written before n, d and c were checked may lack them
        model = tmp_path / "model"
        shutil.copytree(fitted_model, model)
        meta = model / "model_meta.txt"
        meta.write_text(re.sub(r"(?m)^[ndc]=.*\n", "", meta.read_text()))
        assert run_cli("predict", "--model", str(model),
                       "--features", str(synth_dir / "features.tsv"),
                       "--out", str(tmp_path / "pred.csv")) == EXIT_OK

    def test_normalized_model_scales_the_test_rows(self, synth_dir,
                                                   tmp_path):
        # a --normalize model votes in the unit-length space its graph was
        # built in, so rescaling a test row changes neither label nor score
        model = tmp_path / "model"
        assert run_cli("fit", "--manifest", str(synth_dir / "manifest.txt"),
                       "--normalize", "--out", str(model), *FAST) == EXIT_OK
        meta = read_kv_file(model / "model_meta.txt", MODEL_META_KEYS)
        assert meta["normalize"] is True
        X = np.loadtxt(synth_dir / "features.tsv", ndmin=2)
        preds = []
        for scale in (1.0, 7.0):
            write_features(tmp_path / "test.tsv", scale * X)
            assert run_cli("predict", "--model", str(model),
                           "--features", str(tmp_path / "test.tsv"),
                           "--out", str(tmp_path / "pred.csv")) == EXIT_OK
            preds.append(np.loadtxt(tmp_path / "pred.csv", delimiter=",",
                                    skiprows=1))
        np.testing.assert_array_equal(preds[1][:, 1], preds[0][:, 1])
        # scores are written to 12 significant digits
        np.testing.assert_allclose(preds[1][:, 2:], preds[0][:, 2:],
                                   rtol=1e-11, atol=1e-12)
        predictor = Predictor(np.loadtxt(model / "model_features.tsv", ndmin=2),
                              np.loadtxt(model / "onehot.csv", delimiter=",",
                                         ndmin=2), meta["K"], meta["theta"])
        want, _ = predict_batch(predictor,
                                normalize_unit_length(X, "test.tsv"))
        np.testing.assert_array_equal(preds[0][:, 1], want)

    def test_zero_test_row_names_the_features_file(self, synth_dir, tmp_path,
                                                   capsys):
        model = tmp_path / "model"
        assert run_cli("fit", "--manifest", str(synth_dir / "manifest.txt"),
                       "--normalize", "--out", str(model), *FAST) == EXIT_OK
        test = tmp_path / "test.tsv"
        test.write_text("1\t2\n0\t0\n")
        pred = tmp_path / "pred.csv"
        assert run_cli("predict", "--model", str(model), "--features",
                       str(test), "--out", str(pred)) == EXIT_DATA
        assert_data_error(capsys, f"msg={test}: zero-norm feature row 2")
        assert not pred.exists()

    @pytest.mark.parametrize("row", ["0.5\tnan", "inf\t0"])
    def test_non_finite_test_row_names_its_line(self, fitted_model, tmp_path,
                                                capsys, row):
        test = tmp_path / "test.tsv"
        test.write_text(f"1\t2\n\n{row}\n")
        pred = tmp_path / "pred.csv"
        assert run_cli("predict", "--model", str(fitted_model), "--features",
                       str(test), "--out", str(pred)) == EXIT_DATA
        assert_data_error(capsys,
                          f"msg={test}: non-finite feature value on line 3")
        assert not pred.exists()

    def test_wrong_width_names_the_features_file(self, fitted_model,
                                                 tmp_path, capsys):
        test = tmp_path / "test.tsv"
        test.write_text("1\t2\t3\n")
        pred = tmp_path / "pred.csv"
        assert run_cli("predict", "--model", str(fitted_model), "--features",
                       str(test), "--out", str(pred)) == EXIT_DATA
        assert_data_error(
            capsys, f"msg={test}: test features have 3 dims, model expects 2")
        assert not pred.exists()

    def test_model_without_normalize_key_is_unscaled(self, fitted_model,
                                                     synth_dir, tmp_path):
        # a model directory written before fit recorded the key predicts as
        # it did then
        model = tmp_path / "model"
        shutil.copytree(fitted_model, model)
        meta = model / "model_meta.txt"
        assert "normalize=false\n" in meta.read_text()
        meta.write_text(meta.read_text().replace("normalize=false\n", ""))
        preds = []
        for name, m in (("with", fitted_model), ("without", model)):
            assert run_cli("predict", "--model", str(m),
                           "--features", str(synth_dir / "features.tsv"),
                           "--out", str(tmp_path / name)) == EXIT_OK
            preds.append((tmp_path / name).read_bytes())
        assert preds[0] == preds[1]

    @pytest.mark.parametrize("text", ["# x\ty\n1\t2\n", "1 2\n3 4\n"],
                             ids=["comment", "spaces"])
    def test_features_read_by_the_fit_rule(self, synth_dir, tmp_path, capsys,
                                           text):
        model = tmp_path / "model"
        run_cli("fit", "--manifest", str(synth_dir / "manifest.txt"),
                "--out", str(model), *FAST)
        bad = tmp_path / "bad.tsv"
        bad.write_text(text)
        code = run_cli("predict", "--model", str(model),
                       "--features", str(bad), "--out",
                       str(tmp_path / "p.csv"))
        assert code == EXIT_DATA
        assert "non-numeric feature token" in capsys.readouterr().err


class TestCv:
    def test_deterministic_byte_identical(self, synth_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = run_cli("cv", "--manifest", str(synth_dir / "manifest.txt"),
                           "--seed", "3",
                           "--out", str(out), *FAST)
            assert code == EXIT_OK
            outs.append((out / "results.csv").read_bytes())
        assert outs[0] == outs[1]
        lines = outs[0].decode().splitlines()
        assert lines[0] == "fold,train_acc,test_acc"
        assert len(lines) == 6


class TestFoldErrors:
    """cv and sweep keep the exit code of a fold's error and name the fold."""

    def test_cv_K_too_large_is_data_error(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "cv"
        code = run_cli("cv", "--manifest", str(synth_dir / "manifest.txt"),
                       "--K", "100", "--out", str(out))
        assert code == EXIT_DATA
        assert capsys.readouterr().err.startswith(
            "error: code=DATA msg=fold 1: K must be in 1..")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["cv", "sweep"])
    def test_fewer_examples_than_folds_is_data_error(self, tmp_path, capsys,
                                                      command):
        data, out, grid = tmp_path / "data", tmp_path / "out", tmp_path / "g"
        assert run_cli("synth", "--n", "4", "--c", "2", "--d", "2",
                       "--out", str(data)) == EXIT_OK
        grid.write_text("K=1\n")
        extra = ("--grid", str(grid)) if command == "sweep" else ()
        code = run_cli(command, "--manifest", str(data / "manifest.txt"),
                       "--K", "1", *extra, "--out", str(out))
        assert code == EXIT_DATA
        assert_data_error(capsys, "at least 5 examples, got 4")
        assert not out.exists()

    def test_sweep_K_too_large_is_data_error(self, synth_dir, tmp_path,
                                             capsys):
        grid = tmp_path / "grid.txt"
        grid.write_text("K=3,100\n")
        out = tmp_path / "sweep"
        code = run_cli("sweep", "--manifest", str(synth_dir / "manifest.txt"),
                       "--grid", str(grid), "--out", str(out),
                       "--loop-max", "2")
        assert code == EXIT_DATA
        assert capsys.readouterr().err.startswith(
            "error: code=DATA msg=fold 1: K must be in 1..")
        assert not out.exists()


def run_cli_process(threads, *argv):
    """Run the CLI in a fresh interpreter with BLAS limited to threads."""
    src = str(Path(supersetlabel.__file__).resolve().parents[1])
    env = {**os.environ, "OMP_NUM_THREADS": threads,
           "OPENBLAS_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "supersetlabel.cli", *argv],
                          env=env, capture_output=True, timeout=300).returncode


class TestThreadCounts:
    def test_outputs_independent_of_blas_threads(self, tmp_path):
        # at d = 10 every neighbour-scan block is a product large enough for
        # the BLAS to split across threads
        data = tmp_path / "data"
        assert run_cli("synth", "--n", "300", "--c", "5", "--d", "10",
                       "--sep", "4", "--p", "0.7", "--r", "1", "--seed", "11",
                       "--out", str(data)) == EXIT_OK
        outputs = []
        for threads in ("1", "2"):
            fit, cv = tmp_path / f"fit{threads}", tmp_path / f"cv{threads}"
            assert run_cli_process(threads, "fit", "--manifest",
                                   str(data / "manifest.txt"),
                                   "--out", str(fit)) == EXIT_OK
            assert run_cli_process(threads, "cv", "--manifest",
                                   str(data / "manifest.txt"), "--seed", "3",
                                   "--out", str(cv)) == EXIT_OK
            outputs.append([(fit / "labels.csv").read_bytes(),
                            (fit / "fstar.csv").read_bytes(),
                            (cv / "results.csv").read_bytes()])
        assert outputs[0] == outputs[1]


class TestSweep:
    def test_grid_rows(self, synth_dir, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text("alpha=100\nbeta=0,0.01\nK=3\n")
        out = tmp_path / "sweep"
        code = run_cli("sweep", "--manifest", str(synth_dir / "manifest.txt"),
                       "--grid", str(grid), "--out", str(out),
                       "--loop-max", "6")
        assert code == EXIT_OK
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "alpha,beta,K,mean_train,std_train,mean_test,std_test"
        assert len(lines) == 3

    @pytest.mark.parametrize("line, key", [
        pytest.param("k=3,4", "k", id="lowercase_k"),
        pytest.param("theta=1", "theta", id="theta"),
        pytest.param("K=3.5", "K", id="K_not_int"),
        pytest.param("alpha=a", "alpha", id="alpha_not_float"),
        pytest.param("alpha=-1", "alpha", id="alpha_negative"),
        pytest.param("K=0", "K", id="K_zero"),
        pytest.param("K=3\nK=4,5", "K", id="repeated_K"),
    ])
    def test_bad_grid_is_data_error(self, synth_dir, tmp_path, capsys, line,
                                    key):
        # a grid sets only alpha, beta and K, each read as its --config value
        grid = tmp_path / "grid.txt"
        grid.write_text(line + "\n")
        out = tmp_path / "sweep"
        code = run_cli("sweep", "--manifest", str(synth_dir / "manifest.txt"),
                       "--grid", str(grid), "--out", str(out))
        assert code == EXIT_DATA
        assert_data_error(capsys, f"msg={grid}: ", f"key {key!r}")
        assert not out.exists()  # rejected before any work

    @pytest.mark.parametrize("flags, line, message", [
        (["--beta", "0.2"], "alpha=-1",
         "key 'alpha': alpha must be nonnegative, got -1.0"),
        (["--alpha", "5"], "beta=-2",
         "key 'beta': beta must be nonnegative, got -2.0"),
        (["--alpha", "5"], "beta=nan",
         "key 'beta': beta must be finite, got nan"),
    ], ids=["alpha", "beta", "beta_nan"])
    def test_grid_error_names_only_the_bad_value(self, synth_dir, tmp_path,
                                                 capsys, flags, line, message):
        grid = tmp_path / "grid.txt"
        grid.write_text(line + "\n")
        assert run_cli("sweep", "--manifest", str(synth_dir / "manifest.txt"),
                       "--grid", str(grid), *flags,
                       "--out", str(tmp_path / "sweep")) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: code=DATA msg={grid}: ")
        assert err.endswith(message + "\n")
        assert not (tmp_path / "sweep").exists()  # rejected before any work

    @pytest.mark.parametrize("command", ["cv", "sweep"])
    def test_needs_truth(self, synth_dir, tmp_path, capsys, command):
        grid = tmp_path / "grid.txt"
        grid.write_text("K=3\n")
        out = tmp_path / "out"
        code = run_cli(command, "--features", str(synth_dir / "features.tsv"),
                       "--candidates", str(synth_dir / "candidates.txt"),
                       *(["--grid", str(grid)] if command == "sweep" else []),
                       "--out", str(out))
        assert code == EXIT_DATA
        assert_data_error(capsys, f"{command} requires ground-truth labels")
        assert not out.exists()  # rejected before any work


class TestFriedman:
    def test_hand_table(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text(
            "method,d1,d2,d3,d4\n"
            "m1,0.90,0.80,0.85,0.70\n"
            "m2,0.85,0.82,0.70,0.60\n"
            "m3,0.70,0.60,0.65,0.65\n"
        )
        out = tmp_path / "friedman.csv"
        code = run_cli("friedman", "--table", str(table),
                       "--confidence", "0.90", "--out", str(out))
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "statistic=4.5" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "method,mean_rank,differs_from_best"
        assert len(lines) == 4

    @pytest.mark.parametrize("confidence", ["1.5", "0", "nan"])
    def test_confidence_out_of_range_is_usage_error(self, tmp_path, capsys,
                                                    confidence):
        table = tmp_path / "table.csv"
        table.write_text("0.9,0.8\n0.5,0.6\n")
        code = run_cli("friedman", "--table", str(table),
                       "--confidence", confidence)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: code=USAGE") and "confidence" in err
        assert "\n" not in err.strip()

    @pytest.mark.parametrize("text, message", [
        ("method,d1\nm1,0.9\nm2,x\n", "non-numeric accuracy on line 3"),
        ("method,d1,d2\n", "no accuracy rows"),
        ("0.9,0.8\n0.5\n", "ragged accuracy rows"),
        # a data row with a bad cell on line 1 is not a header
        ("m1,0.9,,0.8\nm2,0.5,0.6,0.7\nm3,0.4,0.3,0.2\n",
         "non-numeric accuracy on line 1"),
        ("0.9,,0.8\n0.5,0.6,0.7\n0.4,0.3,0.2\n",
         "non-numeric accuracy on line 1"),
    ], ids=["non_numeric", "header_only", "ragged", "named_first_row",
            "unnamed_first_row"])
    def test_bad_table_is_data_error(self, tmp_path, capsys, text, message):
        table = tmp_path / "table.csv"
        table.write_text(text)
        assert run_cli("friedman", "--table", str(table)) == EXIT_DATA
        assert_data_error(capsys, f"msg={table}: {message}")

    def test_unnamed_rows(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text("0.9,0.8\n0.5,0.6\n")
        assert run_cli("friedman", "--table", str(table)) == EXIT_OK
        assert "method_1" in capsys.readouterr().out


class TestSynth:
    @pytest.mark.parametrize("flag, value, name", [
        ("--n", "0", "n"), ("--c", "1", "c"), ("--d", "0", "d"),
        ("--p", "1.5", "p_coocc"), ("--r", "5", "r_extra")])
    def test_flag_out_of_range_is_usage_error(self, tmp_path, capsys, flag,
                                              value, name):
        flags = {"--n": "20", "--c": "3", "--d": "2", "--p": "0.5",
                 "--r": "1", flag: value}
        out = tmp_path / "data"
        code = run_cli("synth", *(x for kv in flags.items() for x in kv),
                       "--out", str(out))
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: code=USAGE") and name in err
        assert "\n" not in err.strip()
        assert not out.exists()


class TestFlags:
    def test_normalize_scales_model_features(self, synth_dir, tmp_path):
        out = tmp_path / "fit"
        code = run_cli("fit", "--manifest", str(synth_dir / "manifest.txt"),
                       "--normalize", "--out", str(out), *FAST)
        assert code == EXIT_OK
        feats = np.loadtxt(out / "model_features.tsv", ndmin=2)
        np.testing.assert_allclose(np.linalg.norm(feats, axis=1), 1.0,
                                   atol=1e-12)

    def test_numeric_theta_flag(self, synth_dir, tmp_path):
        out = tmp_path / "fit"
        code = run_cli("fit", "--manifest", str(synth_dir / "manifest.txt"),
                       "--theta", "0.5", "--out", str(out), *FAST)
        assert code == EXIT_OK
        meta = dict(line.split("=", 1) for line in
                    (out / "model_meta.txt").read_text().splitlines())
        assert float(meta["theta"]) == 0.5


class TestConfigHandling:
    def test_flag_overrides_file(self, synth_dir, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("alpha=5\nloop_max=4\nK=3\n")
        out = tmp_path / "fit"
        code = run_cli("fit", "--manifest", str(synth_dir / "manifest.txt"),
                       "--config", str(cfgfile), "--alpha", "7",
                       "--out", str(out))
        assert code == EXIT_OK
        echo = dict(line.split("=", 1) for line in
                    (out / "effective_config.txt").read_text().splitlines())
        assert echo["alpha"] == "7.0"
        assert echo["loop_max"] == "4"

    def test_unknown_config_key(self, synth_dir, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("frobnicate=1\n")
        code = run_cli("fit", "--manifest", str(synth_dir / "manifest.txt"),
                       "--config", str(cfgfile), "--out", str(tmp_path / "x"))
        assert code == EXIT_DATA
        assert "frobnicate" in capsys.readouterr().err

    def test_sigma_cap_is_not_a_config_key(self, synth_dir, tmp_path, capsys):
        # the penalty cap is fixed at 1e8, not a setting
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("sigma_cap=1e6\n")
        out = tmp_path / "fit"
        assert run_cli("fit", "--manifest", str(synth_dir / "manifest.txt"),
                       "--config", str(cfgfile), "--out", str(out)) == EXIT_DATA
        assert_data_error(capsys, f"msg={cfgfile}: unknown key 'sigma_cap'")
        assert not out.exists()

    # a value that does not read as its key's type is a data error, even
    # where the same text as a flag is a usage error (--t-max 2.5)
    @pytest.mark.parametrize("line, key", [
        ("alpha=x", "alpha"), ("normalize=ture", "normalize"),
        ("t_max=2.5", "t_max"), ("K=2.5", "K")])
    def test_bad_config_value_is_data_error(self, synth_dir, tmp_path, capsys,
                                            line, key):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(line + "\n")
        out = tmp_path / "fit"
        code = run_cli("fit", "--manifest", str(synth_dir / "manifest.txt"),
                       "--config", str(cfgfile), "--out", str(out))
        assert code == EXIT_DATA
        assert_data_error(capsys, f"msg={cfgfile}: bad value for key {key!r}")
        assert not out.exists()

    def test_repeated_config_key_is_data_error(self, synth_dir, tmp_path,
                                               capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("K=3\nK=4\n")
        out = tmp_path / "fit"
        assert run_cli("fit", "--manifest", str(synth_dir / "manifest.txt"),
                       "--config", str(cfgfile), "--out", str(out)) == EXIT_DATA
        assert_data_error(capsys, f"msg={cfgfile}: repeated key 'K'")
        assert not out.exists()

    def test_switch_words(self):
        assert [_truthy(w) for w in ("1", "TRUE", "Yes", " on ")] == [True] * 4
        assert [_truthy(w) for w in ("0", "False", "NO", "off")] == [False] * 4

    @pytest.mark.parametrize("bad, name", [
        pytest.param(["--t-max", "0"], "t_max", id="flag"),
        pytest.param("sigma0=1e9", "sigma0", id="config"),
        pytest.param(["--alpha", "-1"], "alpha", id="alpha"),
        pytest.param(["--beta", "-1"], "beta", id="beta"),
        pytest.param(["--K", "0"], "K", id="K"),
        pytest.param(["--theta", "0"], "theta", id="theta"),
        pytest.param("theta=inf", "theta", id="theta_config"),
        pytest.param(["--alpha", "nan"], "alpha", id="alpha_nan"),
        pytest.param(["--rho", "nan"], "rho", id="rho_nan"),
        pytest.param(["--eps1", "inf"], "eps1", id="eps1_inf"),
    ])
    def test_invalid_solver_value_is_usage_error(self, synth_dir, tmp_path,
                                                 capsys, bad, name):
        if isinstance(bad, str):  # a config file line
            (tmp_path / "run.cfg").write_text(bad + "\n")
            bad = ["--config", str(tmp_path / "run.cfg")]
        code = run_cli("fit", "--manifest", str(synth_dir / "manifest.txt"),
                       *bad, "--out", str(tmp_path / "x"))
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: code=USAGE")
        assert name in err
        assert "\n" not in err.strip()
        assert not (tmp_path / "x").exists()  # rejected before any work

    def test_missing_file(self, tmp_path, capsys):
        code = run_cli("fit", "--features", str(tmp_path / "nope.tsv"),
                       "--candidates", str(tmp_path / "nope.txt"),
                       "--out", str(tmp_path / "out"))
        assert code == EXIT_DATA
        assert capsys.readouterr().err.startswith("error: code=DATA")

    @pytest.mark.parametrize("command", ["fit", "cv", "sweep"])
    def test_solver_flags_match_config_fields(self, command):
        # the solver knobs are listed both in SolverConfig and in the CLI;
        # every field needs a flag, and a flag that is not a field is ignored
        dests = {a.dest for a in subparsers()[command]._actions}
        other = {"help", "config", "seed", "normalize",
                 "features", "candidates", "truth", "manifest", "out", "grid"}
        fields = {f.name for f in dataclasses.fields(SolverConfig)}
        assert dests - other == fields

    def test_unknown_flag_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("fit", "--bogus", "1")
        assert exc.value.code == 2

    # a value off the default for every setting but the data paths; the
    # switch is set by a bare flag and by "true" in a config file
    SETTING_VALUES = {
        "alpha": "50", "beta": "0.02", "K": "4", "theta": "0.7", "rho": "1.2",
        "sigma0": "2", "t_max": "5", "eps0": "1e-5",
        "loop_max": "3", "eps1": "1e-3", "gd_max_iters": "50",
        "gd_grad_tol": "1e-4", "seed": "5", "normalize": "true",
    }

    @pytest.mark.parametrize("key", sorted(
        {a.dest for a in subparsers()["fit"]._actions}
        - {"help", "out", "config", "features", "candidates", "truth",
           "manifest"}))
    def test_flag_and_config_read_alike(self, synth_dir, tmp_path, key):
        value = self.SETTING_VALUES[key]
        base = {"alpha": "100", "loop_max": "2", "K": "3"}
        base.pop(key, None)
        flag = "--" + key.replace("_", "-")
        runs = {"flag": ([flag] if value == "true" else [flag, value], {}),
                "config": ([], {key: value})}
        echoes = []
        for name, (flags, lines) in runs.items():
            cfgfile = tmp_path / f"{name}.cfg"
            cfgfile.write_text("".join(f"{k}={v}\n"
                                       for k, v in {**base, **lines}.items()))
            out = tmp_path / name
            assert run_cli("fit", "--manifest", str(synth_dir / "manifest.txt"),
                           "--config", str(cfgfile), *flags,
                           "--out", str(out)) == EXIT_OK
            echoes.append((out / "effective_config.txt").read_text())
        assert echoes[0] == echoes[1]
        assert f"{key}=" in echoes[0]


@pytest.mark.parametrize("name, table", [
    ("manifest", MANIFEST_KEYS), ("`model_meta.txt`", MODEL_META_KEYS)])
def test_readme_lists_the_key_tables(name, table):
    listed = re.search(rf"- {re.escape(name)} keys: ([^.]*)\.",
                       README.read_text())
    assert listed is not None
    assert re.findall(r"`(\w+)`", listed.group(1)) == list(table)


def test_readme_lists_the_solver_defaults():
    # the defaults paragraph gives every SolverConfig field, and no other
    # knob, as `name=value`
    paragraph = README.read_text().split("Solver defaults", 1)[1]
    assert set(re.findall(r"`(\w+)=", paragraph.split("\n\n", 1)[0])) == {
        f.name for f in dataclasses.fields(SolverConfig)}


def test_readme_cli_examples_parse():
    # the README's CLI block names every command, with flags the parser takes
    block = README.read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1]
    lines = [line for line in block.split("```", 1)[0].splitlines()
             if line.startswith("supersetlabel ")]
    assert {line.split()[1] for line in lines} == set(subparsers())
    for line in lines:
        try:
            build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README CLI line does not parse: {line}")

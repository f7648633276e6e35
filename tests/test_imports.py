"""The package's import surface: the root names, and no unused imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import supersetlabel
from supersetlabel.cli import main

PACKAGE = Path(supersetlabel.__file__).parent

# what the acceptance suite, the benchmark and the README's library example
# import from the package root, plus the two errors those functions raise
ROOT_API = {
    "AlmState", "DataFormatError", "Dataset", "Predictor", "SolverConfig",
    "SolverDivergenceError", "alm_fit", "auto_theta",
    "baseline_ambiguous_knn", "build_knn_graph", "cccp_gradient",
    "cccp_minimize", "cross_validate", "encode", "friedman_test",
    "linearized_objective", "load_manifest", "make_synthetic", "plan_splits",
    "predict", "predict_batch", "primal_objective", "sweep",
    "training_accuracy",
}


def test_root_exports_exactly_the_api():
    assert sorted(supersetlabel.__all__) == sorted(ROOT_API)
    for name in supersetlabel.__all__:
        getattr(supersetlabel, name)  # resolves


def imported_names(tree: ast.Module) -> set[str]:
    """The names that the module's import statements bind."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, plus those listed in __all__."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    unused = imported_names(tree) - used_names(tree)
    assert not unused, f"{path.name} imports {sorted(unused)} and never uses them"


def test_import_leaves_scipy_special_and_stats_unloaded(tmp_path):
    # chi2_critical imports scipy.special itself, and the graph code
    # scipy.sparse: at module level they would add tens of milliseconds to
    # every import of the package, and to every predict run, which builds no
    # graph
    model = tmp_path / "model"
    assert main(["synth", "--n", "30", "--c", "2", "--d", "2",
                 "--out", str(tmp_path)]) == 0
    assert main(["fit", "--manifest", str(tmp_path / "manifest.txt"),
                 "--K", "3", "--loop-max", "2", "--out", str(model)]) == 0
    predict = (f"from supersetlabel.cli import main; main(['predict', "
               f"'--model', {str(model)!r}, '--features', "
               f"{str(tmp_path / 'features.tsv')!r}, '--out', "
               f"{str(tmp_path / 'pred.csv')!r}])")
    src = str(PACKAGE.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for code in ("import supersetlabel", predict):
        loaded = subprocess.run(
            [sys.executable, "-c", f"import sys; {code}; print(sorted("
             "{'scipy.sparse', 'scipy.special', 'scipy.stats'} & "
             "set(sys.modules)))"],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        assert loaded.stdout.splitlines()[-1] == "[]", code
    assert (tmp_path / "pred.csv").exists()

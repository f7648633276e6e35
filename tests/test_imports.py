"""The package's import surface: the root names, the README's use of
them, the package docstring's module map, and no unused imports."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import supersetlabel
from supersetlabel.cli import main

PACKAGE = Path(supersetlabel.__file__).parent
README = PACKAGE.parents[1] / "README.md"

# the pipeline (data, graph, encoding, solve, vote, evaluation) and the two
# errors its functions raise, plus AlmState, which the benchmark's own test
# reads from the root; the solver's internals stay in supersetlabel.solver
ROOT_API = {
    "AlmState", "DataFormatError", "Dataset", "Predictor", "SolverConfig",
    "SolverDivergenceError", "alm_fit", "auto_theta", "build_knn_graph",
    "cross_validate", "encode", "friedman_test", "load_manifest",
    "make_synthetic", "plan_splits", "predict_batch", "sweep",
    "training_accuracy",
}


def test_root_exports_exactly_the_api():
    assert sorted(supersetlabel.__all__) == sorted(ROOT_API)
    for name in supersetlabel.__all__:
        getattr(supersetlabel, name)  # resolves


def test_readme_library_example_runs():
    block = README.read_text().split("## Library use", 1)[1]
    code = block.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    assert scope["labels"].shape == (1,)
    assert scope["scores"].shape == (1, scope["ds"].c)


def test_readme_names_only_root_exports():
    text = README.read_text()
    assert set(re.findall(r"\bssl\.(\w+)", text)) <= set(supersetlabel.__all__)
    listed = text.split("The package root exports these names", 1)[1]
    listed = listed.split("\n\n", 1)[1].split("\n\n", 1)[0]
    assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(
        supersetlabel.__all__)


def test_package_docstring_maps_the_modules():
    # a module deleted or added without its line in the map fails here
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    named = {name.removeprefix("supersetlabel.")
             for name in re.findall(r"`([\w.]+)`", supersetlabel.__doc__)}
    assert modules <= named, f"not in the docstring: {sorted(modules - named)}"
    scopes = [supersetlabel] + [importlib.import_module(f"supersetlabel.{m}")
                                for m in sorted(modules)]
    for name in named - modules:
        assert any(hasattr(scope, name) for scope in scopes), name


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


def test_every_name_the_benchmark_traces_resolves(monkeypatch):
    # the benchmark's tracer patches package names from outside; one it
    # cannot find goes to `missing` without an error, and the per-layer
    # metrics that read it drop to 0
    monkeypatch.syspath_prepend(str(PACKAGE.parents[1] / "perfbench"))
    from pipeline import install
    from tracing import Tracer
    tracer = Tracer()
    install(tracer, supersetlabel)
    try:
        assert tracer.missing == []
    finally:
        tracer.restore()

"""The package's internal import graph: acyclic, with graphs, models and
trace at its leaves."""

import ast
import graphlib
from pathlib import Path

import declangevin

PACKAGE = Path(declangevin.__file__).parent
MODULES = {path.stem: path for path in PACKAGE.glob("*.py")}


def sibling_imports(path: Path) -> set:
    """The package modules that ``path`` imports anywhere in its body."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("declangevin"):
                continue
            parts = (node.module or "").split(".")
            if node.level == 0:
                parts = parts[1:]  # drop the package name
            if parts and parts[0]:
                found.add(parts[0])
            else:  # from . import a, b
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("declangevin."))
    return found & MODULES.keys()


GRAPH = {name: sibling_imports(path) for name, path in MODULES.items()}


def test_the_package_reads_its_modules():
    assert {"cli", "graphs", "langevin", "metrics", "models", "trace"} <= GRAPH.keys()
    assert GRAPH["langevin"] >= {"graphs", "models", "trace"}


def test_the_internal_imports_form_no_cycle():
    # raises graphlib.CycleError, naming the cycle, if there is one
    order = list(graphlib.TopologicalSorter(GRAPH).static_order())
    assert sorted(order) == sorted(GRAPH)


def test_graphs_models_and_trace_import_no_sibling():
    assert {name: GRAPH[name] for name in ("graphs", "models", "trace")} == {
        "graphs": set(), "models": set(), "trace": set()}


def test_module_level_function_level_and_absolute_imports_are_seen(tmp_path):
    # the checks above would pass on an empty graph; this one shows the
    # parser finds module-level, function-level and absolute imports
    path = tmp_path / "m.py"
    path.write_text("from .models import Potential\n"
                    "def f():\n    from . import trace, graphs\n"
                    "import declangevin.metrics\n")
    assert sibling_imports(path) == {"models", "trace", "graphs", "metrics"}


def called_names(path: Path) -> list:
    """(function, the names it calls) for every function in ``path``,
    nested ones too; a function's calls include its nested functions', and
    ``f(...)`` and ``obj.f(...)`` both count as a call of f."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.name, {getattr(call.func, "attr", getattr(call.func, "id", None))
                         for call in ast.walk(node) if isinstance(call, ast.Call)})
            for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]


def test_both_drivers_take_their_blocks_from_one_source():
    # the mixing matrices and push-sum weights of a block are formed in one
    # place, which run and run_gaussian_ensemble both iterate
    pairs = called_names(MODULES["langevin"])
    assert [name for name, called in pairs if "fill_mixing" in called] == ["_blocks"]
    calls = dict(pairs)
    for driver in ("run", "run_gaussian_ensemble"):
        assert "_blocks" in calls[driver]
        assert not {"fill_mixing", "_weights"} & calls[driver], driver

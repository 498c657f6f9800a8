"""The benchmark under ``bench/`` drives the package by name: the traced
``<module>.<function>`` targets of ``bench/run.py``, the top-level names the
bench scripts import, the dense solver's candidate table and the Nash sweep
cap.  These checks read the scripts without running them."""

import ast
import importlib
import inspect
from pathlib import Path

import hetnet_ee
from hetnet_ee import EfficiencyModel, sample_instance, solve_dense, solve_nash

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tree(name):
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def test_traced_targets_resolve():
    traced = None
    for node in _tree("run.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            traced = ast.literal_eval(node.value)
    assert traced
    for target in traced:
        module, function = target.split(".")
        assert callable(getattr(importlib.import_module(f"hetnet_ee.{module}"), function)), target


def test_imported_names_resolve():
    names = set()
    for script in sorted(BENCH.glob("*.py")):
        for node in ast.walk(_tree(script.name)):
            if isinstance(node, ast.ImportFrom) and node.module == "hetnet_ee":
                names.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "hetnet_ee"):
                names.add(node.attr)
    assert {"cli", "harness", "solve_dense", "optimal_sinr"} <= names
    for name in names:
        if not hasattr(hetnet_ee, name):
            importlib.import_module(f"hetnet_ee.{name}")  # a submodule, such as cli


def test_dense_candidate_table_has_stay_limits():
    res = solve_dense(sample_instance(5, 4, seed=3), EfficiencyModel(m=2))
    table = res.diagnostics["candidate_table"]
    assert len(table) == 5
    assert all(isinstance(cc.stay_limit, int) for cc in table)


def test_nash_sweep_cap_is_an_int_default():
    # bench/tracing.py reads it to count the Nash runs that hit the cap
    cap = inspect.signature(solve_nash).parameters["max_iter"].default
    assert isinstance(cap, int) and cap >= 1

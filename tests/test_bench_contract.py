"""The benchmark under ``bench/`` drives the package by name: the traced
``<module>.<function>`` targets of ``bench/run.py``, the top-level names the
bench scripts import, the γ call of its set-up probe, the dense solver's
candidate table, the Nash sweep cap, the iteration-report fields, the
best-channel ``(result, report)`` pair, the scenario keywords of its sweeps
and the last line of ``verify`` that it parses.  These checks read the
scripts without running them."""

import ast
import contextlib
import dataclasses
import importlib
import inspect
import io
import re
from pathlib import Path

import hetnet_ee
from hetnet_ee import (
    EfficiencyModel,
    IterationReport,
    ScenarioConfig,
    cli,
    run_sweep,
    sample_instance,
    solve_best_channel,
    solve_dense,
    solve_nash,
    write_records,
)

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
    # bench/tracing.py reports dense.candidates_per_solve as the sum of
    # stay_limit + 1 over the table: the slots 0..stay_limit each carrier
    # scored, slot 0 being the cleared carrier
    res = solve_dense(sample_instance(5, 4, seed=3), EfficiencyModel(m=2))
    table = res.diagnostics["candidate_table"]
    assert len(table) == 5
    assert all(isinstance(cc.stay_limit, int) for cc in table)
    scored = [len(cc.slot_values) for cc in table]
    assert scored == [len(cc.slot_powers) for cc in table] == [len(cc.replacements) for cc in table]
    assert sum(cc.stay_limit + 1 for cc in table) == sum(scored) == 7
    assert res.diagnostics["winner_slots"] < scored[res.active_carriers[0]]


def test_nash_sweep_cap_is_an_int_default():
    # bench/tracing.py reads it to count the Nash runs that hit the cap
    cap = inspect.signature(solve_nash).parameters["max_iter"].default
    assert isinstance(cap, int) and cap >= 1


def test_iteration_report_keeps_the_traced_fields():
    # bench/tracing.py counts sweeps and capped runs from these two fields
    names = {f.name for f in dataclasses.fields(IterationReport)}
    assert {"converged", "iterations"} <= names


def test_best_channel_reports_an_infeasible_run():
    # bench/tracing.py unpacks (result, report) and counts runs with
    # report.converged False as diverged
    inst = sample_instance(5, 4, mean_cross=0.5, snr_db=-5.0, seed=189)
    result, report = solve_best_channel(inst, EfficiencyModel(m=2), "dense")
    assert isinstance(report, IterationReport) and report.converged is False


def test_setup_probe_gamma_call_runs():
    # bench/run.py times a cold import up to this one call in a child process
    code = None
    for node in _tree("run.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SETUP_CODE" for t in node.targets
        ):
            code = ast.literal_eval(node.value)
    assert code
    calls = [
        node.value for node in ast.parse(code.format(modules=())).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["gamma"]
    ]
    assert len(calls) == 1
    expr = compile(ast.Expression(calls[0]), "SETUP_CODE", "eval")
    assert eval(expr, {"hetnet_ee": hetnet_ee}) == EfficiencyModel(m=2).gamma


def _scenario_keywords():
    # keywords of bench/workloads.py's ScenarioConfig(...) calls, with the
    # dict(...) they unpack
    calls = [node for node in ast.walk(_tree("workloads.py")) if isinstance(node, ast.Call)]
    names = set()
    for call in calls:
        if isinstance(call.func, ast.Attribute) and call.func.attr == "ScenarioConfig":
            names.update(kw.arg for kw in call.keywords if kw.arg)
        elif isinstance(call.func, ast.Name) and call.func.id == "dict":
            names.update(kw.arg for kw in call.keywords)
    return names


def test_sweep_scenario_keywords_build_a_config(tmp_path):
    keywords = dict(
        carriers=(5,), followers=4, snr_db=(-5.0, 25.0), regime="dense", mean_cross=0.5,
        m_exponent=2, trials=1, seed=3, schemes=("stackelberg",), verify_fraction=0.0,
        output_path=str(tmp_path / "certify.csv"),
    )
    assert _scenario_keywords() == set(keywords)
    config = ScenarioConfig(**keywords)
    assert write_records(run_sweep(config), config.output_path) == 2 * 5


def test_verify_prints_the_parsed_summary(tmp_path):
    pattern = None
    for node in _tree("workloads.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "VERIFY_SUMMARY" for t in node.targets
        ):
            pattern = re.compile(ast.literal_eval(node.value.args[0]))
    assert pattern
    config = ScenarioConfig(carriers=(5,), snr_db=(10.0,), trials=2, seed=3,
                            schemes=("stackelberg",), verify_fraction=0.0)
    path = tmp_path / "certify.csv"
    write_records(run_sweep(config), path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", "--input", str(path)]) == 0
    match = pattern.search(out.getvalue().splitlines()[-1])
    assert match and match.groups() == ("10", "0", "0")


def test_check_samples_rebuilds_the_sweep_instances():
    # bench/workloads.py check_samples rebuilds each sampled trial with
    # sample_instance and fails the run unless its digest() equals the
    # record's instance_digest
    source = (BENCH / "workloads.py").read_text(encoding="utf-8")
    assert "sample_instance(" in source and ".digest() != first.instance_digest" in source
    for regime, carriers, followers, rates in (("dense", 5, 4, 1.0),
                                               ("sparse", 6, 3, (1, 2, 3, 4))):
        config = ScenarioConfig(carriers=(carriers,), followers=followers, regime=regime,
                                snr_db=(-5.0, 25.0), trials=3, seed=5, mean_signal=2.0,
                                mean_cross=0.25, rates=rates, verify_fraction=0.5)
        records = list(run_sweep(config))
        assert len(records) == 2 * 3 * len(config.schemes) * (followers + 1)
        for r in records:
            instance = sample_instance(
                r.carriers, r.followers, mean_signal=config.mean_signal,
                mean_cross=config.mean_cross, snr_db=r.snr_db, rates=config.rates, seed=r.seed,
            )
            assert instance.digest() == r.instance_digest

"""The benchmark's own tests, on tiny versions of every workload.

Run from the repository root (the file name keeps it out of the default
test collection):

    python3 -m pytest -q perfbench/selfcheck.py
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

import layers
import run
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY_REALIZATIONS = 3


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Small grids and Monte-Carlo budgets, outputs under tmp_path."""
    monkeypatch.setattr(run, "ROOT", ROOT)
    monkeypatch.setattr(run, "SRC", os.path.join(ROOT, "src"))
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "MIN_CLI_RUNS", 2)
    monkeypatch.setattr(wl, "GRID_GAMMA_COUNT", 2)
    monkeypatch.setattr(wl, "GRID_D_TILDE_COUNT", 2)
    monkeypatch.setattr(wl, "FIG2_BUDGET", wl.FIG2_BUDGET | {"realizations": str(TINY_REALIZATIONS)})
    for name, workload in wl.WORKLOADS.items():
        if workload.mc_trials:
            tiny_trials = TINY_REALIZATIONS * int(wl.FIG2_MODEL["library_size"])
            tiny_workload = dataclasses.replace(workload, mc_trials=tiny_trials)
            monkeypatch.setitem(wl.WORKLOADS, name, tiny_workload)
    monkeypatch.setattr(layers, "IMPORT_REPEATS", 1)
    monkeypatch.setattr(layers, "ATTRIBUTION_PAIRS", 1)
    monkeypatch.setattr(layers, "POOL_REALIZATIONS", TINY_REALIZATIONS)


def _run(capsys, *args: str) -> tuple[int, dict]:
    code = run.main(list(args))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]) if lines else {}


def _assert_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert isinstance(printed["value"], (int, float)), metric["name"]


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_every_end_to_end_metric_is_printed_with_its_unit(tiny, capsys, workload):
    code, result = _run(capsys, "--workload", workload, "--seed", "5", "--seconds", "0", "--trace", "0")
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    _assert_metrics(result, _benchmark_json()["end_to_end"])


def test_every_per_layer_metric_is_printed_with_its_unit(tiny, capsys):
    args = ("--workload", "mc-sparse-pool", "--seed", "5", "--seconds", "0", "--trace", "1")
    code, result = _run(capsys, *args)
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    _assert_metrics(result, _benchmark_json()["per_layer"])
    assert result["metrics"]["analytic.kernel_calls_per_row.pcp"]["value"] == 9


def _shift_grid(expected: dict, delta: float) -> None:
    values = expected["values"]
    for variant, rows in values.items():
        values[variant] = [[x + delta for x in row] for row in rows]


@pytest.mark.parametrize(
    "workload, corrupt",
    [
        ("analytic-grid", lambda e: _shift_grid(e, 1e-8)),  # 10x the analytic tolerance
        ("mc-dense-pcp", lambda e: e.update(value=e["value"] + 5.0)),  # beyond 4 SE at any budget
    ],
)
def test_a_wrong_expected_value_fails_the_runs(tiny, capsys, monkeypatch, workload, corrupt):
    expected = wl.load_expected()
    corrupt(expected[workload])
    monkeypatch.setattr(wl, "load_expected", lambda: expected)
    code, result = _run(capsys, "--workload", workload, "--seed", "5", "--seconds", "0", "--trace", "0")
    assert code == 0
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_strip_wall_ms_ignores_only_that_column():
    text = "gamma,policy,engine,avg_outage,std_error,wall_ms\n1,pcp,analytic,0.5,,3.25\n"
    assert wl.strip_wall_ms(text) == "gamma,policy,engine,avg_outage,std_error\n1,pcp,analytic,0.5,"
    assert wl.strip_wall_ms("a,b\n1,2") == "a,b\n1,2"


def test_same_seed_same_inputs_other_seed_other_inputs():
    for workload in wl.WORKLOADS.values():
        assert workload.input_text(7) == workload.input_text(7)
        assert workload.input_text(7) != workload.input_text(8)


def test_without_the_source_tree_it_exits_nonzero_and_prints_no_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    code = run.main(["--workload", "mc-dense-pcp", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_lists_what_the_benchmark_prints():
    bench = _benchmark_json()
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == layers.PER_LAYER
    assert {w["name"] for w in bench["workloads"]} <= set(wl.WORKLOADS)


def test_each_sample_is_scaled_by_the_calibrations_beside_it(monkeypatch):
    loop_times = iter([0.04, 0.08, 0.02])
    monkeypatch.setattr(run, "calibrate", lambda: next(loop_times))
    results, scales = run.timed_with_calibration(lambda: "x", lambda done: done < 2)
    assert results == ["x", "x"]
    reference = run.REFERENCE_CALIBRATION_S
    assert scales == [pytest.approx(reference / 0.06), pytest.approx(reference / 0.05)]

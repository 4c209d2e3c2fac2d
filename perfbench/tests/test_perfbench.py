"""Tests of the benchmark itself: tiny runs, span arithmetic, checks.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench.bench import END_TO_END_UNITS, PER_LAYER_UNITS, run_benchmark
from perfbench.spans import (
    ROOT as ROOT_SPAN,
    LayerTracer,
    SpanRecorder,
    layer_split,
    self_times,
)
from perfbench.workloads import WORKLOADS, make_workload

ROOT = Path(__file__).resolve().parents[2]
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(name, tmp_path, seed=3):
    return make_workload(name, seed, tiny=True, workdir=str(tmp_path))


def test_benchmark_json_names_every_metric_the_run_reports():
    assert [w["name"] for w in CONFIG["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in CONFIG["end_to_end"]] == list(
        END_TO_END_UNITS
    )
    assert [m["name"] for m in CONFIG["per_layer"]] == list(PER_LAYER_UNITS)
    for metric in CONFIG["end_to_end"]:
        assert metric["unit"] == END_TO_END_UNITS[metric["name"]]
    for metric in CONFIG["per_layer"]:
        assert metric["unit"] == PER_LAYER_UNITS[metric["name"]]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_workload_runs_clean(name, tmp_path):
    result = run_benchmark(
        _tiny(name, tmp_path), seconds=0, trace=False, root=ROOT,
        setup_repeats=0,
    )
    assert result["correct"], result["report"]["problems"]
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(END_TO_END_UNITS)
    assert result["metrics"]["wall_s"]["value"] > 0
    assert result["metrics"]["flits_per_s"]["value"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_traced_run_reports_every_layer(name, tmp_path):
    result = run_benchmark(
        _tiny(name, tmp_path), seconds=0, trace=True, root=ROOT,
        setup_repeats=0,
    )
    # Every traced call's outputs were compared with the untraced ones.
    assert result["correct"], result["report"]["problems"]
    assert set(result["metrics"]) == set(PER_LAYER_UNITS)
    assert result["report"]["untraced_targets"] == []
    split = {key: metric["value"] for key, metric in result["metrics"].items()}
    shares = [value for key, value in split.items() if key.endswith("share")]
    assert sum(shares) == pytest.approx(1.0)


def test_fleet_task_fraction(tmp_path):
    replicate = run_benchmark(
        _tiny("replicate", tmp_path), seconds=0, trace=True, root=ROOT,
        setup_repeats=0,
    )
    assert replicate["metrics"]["harness.fleet_task_frac"]["value"] == 1.0
    sweep = run_benchmark(
        _tiny("sweep", tmp_path), seconds=0, trace=True, root=ROOT,
        setup_repeats=0,
    )
    # clrg and l2l_lrg points batch through the fleet; islip runs scalar.
    assert sweep["metrics"]["harness.fleet_task_frac"]["value"] == (
        pytest.approx(2 / 3)
    )


def test_setup_probe_times_a_fresh_process(tmp_path):
    result = run_benchmark(
        _tiny("simulate", tmp_path), seconds=0, trace=False, root=ROOT,
        setup_repeats=1,
    )
    assert result["failed"] == 0
    assert result["metrics"]["setup_s"]["value"] > 0


def test_self_time_subtracts_direct_children_only():
    spans = [
        (ROOT_SPAN, 0, 100, -1, 0),
        ("network.run", 10, 60, 0, 0),
        ("traffic.packets_for_cycle", 15, 25, 1, 3),
        ("hirise.step", 30, 50, 1, 1),
        ("bench.resume", 70, 95, 0, 0),
        ("harness.run_sweep", 72, 90, 4, 0),
    ]
    assert self_times(spans) == [25, 20, 10, 20, 7, 18]
    split = layer_split(spans, calls=1)
    assert split["network.account_s"] == pytest.approx(20e-9)
    assert split["traffic.share"] == pytest.approx(0.10)
    assert split["traffic.ns_per_packet"] == pytest.approx(10 / 3)
    assert split["hirise.us_per_cycle"] == pytest.approx(0.02)
    assert split["harness.resume_s"] == pytest.approx(25e-9)
    # root self (25) plus the marker's own (7) is unattributed
    assert split["unattributed.share"] == pytest.approx(0.32)


def test_recorder_nests_and_tracer_restores_originals():
    from repro.network.engine import Simulation

    original = Simulation.__dict__["run"]
    recorder = SpanRecorder()
    with LayerTracer(recorder):
        assert Simulation.__dict__["run"] is not original
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
    assert Simulation.__dict__["run"] is original
    rows = recorder.rows()
    assert [row[0] for row in rows] == ["outer", "inner"]
    assert rows[1][3] == 0 and rows[0][3] == -1


def test_broken_output_check_raises_failed_frac(tmp_path, monkeypatch):
    import repro.core.reference as reference

    honest = reference.ReferenceHiRiseSwitch

    def wrong_reference(config):
        return honest(replace(config, channel_multiplicity=1))

    monkeypatch.setattr(reference, "ReferenceHiRiseSwitch", wrong_reference)
    result = run_benchmark(
        _tiny("simulate", tmp_path), seconds=0, trace=False, root=ROOT,
        setup_repeats=0,
    )
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["report"]["failed_frac"] == pytest.approx(
        1 / result["attempted"]
    )
    assert "reference_parity" in result["report"]["checks"]


def test_outputs_that_change_between_calls_are_failures(tmp_path):
    workload = _tiny("simulate", tmp_path)
    calls = []
    real_call = workload.call

    def drifting_call(span=None):
        outcome = real_call()
        calls.append(outcome)
        outputs = dict(outcome.outputs, packets_delivered=len(calls))
        return outcome._replace(outputs=outputs)

    workload.call = drifting_call
    result = run_benchmark(
        workload, seconds=0, trace=False, root=ROOT, setup_repeats=0,
    )
    assert result["failed"] == len(calls) - 1  # all but the warm-up
    assert result["report"]["failed_frac"] > 0


def test_run_fails_without_simulator_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

"""Tests of the benchmark itself: span accounting, repeatable counts, and
agreement between BENCHMARK.json and the workloads.

Run from the root of a checkout:

    python3 -m pytest -q bench/tests
"""
from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3
#: items per test run: enough to reach every layer the workload loads
ITEMS = {"desk-2x2x2": 1, "session-50x4x4": 1, "certify-300x20x20": 1}
EXACT_COUNTS = ("bellman.rvi_iterations", "nash.rounds", "nash.brute.pairs",
                "nash.brute.survivors", "sim.path_steps")
LAYERS = ("cli", "game_model", "transforms", "bellman", "spectral", "nash", "sim")


@pytest.fixture(scope="module")
def scratch():
    path = BENCH / "_work" / "tests"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def traced(scratch):
    """Two traced runs of each workload with the same seed."""
    runs = {}
    for name, items in ITEMS.items():
        runs[name] = []
        for k in range(2):
            workdir = scratch / f"{name}-{k}"
            workdir.mkdir()
            runs[name].append(workloads.run_workload(
                name, SEED, seconds=0, trace=True, workdir=workdir, max_items=items))
    return runs


@pytest.mark.parametrize("name", ITEMS)
def test_busy_time_nests_within_wall_time(traced, name):
    result = traced[name][0]
    wall = sum(result["run"].raw_items)
    busy, self_time, _ = result["tracer"].busy_and_self()
    assert busy
    for span, seconds in busy.items():
        assert 0.0 <= seconds <= wall, span
    for span, seconds in self_time.items():
        assert seconds >= -1e-9, span
    top = sum(end - start for _, start, end, parent in result["tracer"].spans
              if parent is None)
    assert top <= wall
    for metric, m in result["per_layer"].items():
        if m["unit"] == "s":
            assert -1e-9 <= m["value"] <= wall, metric


def test_calibration_divides_by_the_mean_probe_slowness():
    probes = iter([0.5, 1.5])
    result, seconds, raw = workloads.calibrated(lambda: sum(range(100_000)),
                                                lambda: next(probes))
    assert result == sum(range(100_000))
    assert seconds == raw  # mean slowness 1: the probe took its reference time
    _, seconds, raw = workloads.calibrated(lambda: None, lambda: 2.0)
    assert seconds == pytest.approx(raw / 2)


@pytest.mark.parametrize("probe", [workloads.interpreter_probe, workloads.memory_probe])
def test_probes_are_near_their_reference_time(probe):
    assert 0.1 < statistics.median(probe() for _ in range(5)) < 10


@pytest.mark.parametrize("name", ITEMS)
def test_counts_repeat_with_the_same_seed(traced, name):
    first, second = (r["per_layer"] for r in traced[name])
    for metric in EXACT_COUNTS:
        assert first[metric]["value"] == second[metric]["value"], metric


@pytest.mark.parametrize("name", ITEMS)
def test_spans_record_parent_and_run(traced, name, scratch):
    tracer = traced[name][0]["tracer"]
    path = scratch / f"{name}.spans.jsonl"
    tracer.write_spans(path)
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(spans) == len(tracer.spans)
    for span in spans:
        assert span["run"] == tracer.run_id
        assert span["start"] <= span["end"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["id"] < span["id"]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]


@pytest.mark.parametrize("name", ITEMS)
def test_workload_loads_and_bypasses_the_layers_it_declares(traced, name):
    workload = workloads.WORKLOADS[name]
    assert sorted(workload.loads + workload.bypasses) == sorted(LAYERS)
    _, _, calls = traced[name][0]["tracer"].busy_and_self()
    for layer in LAYERS:
        n = sum(c for span, c in calls.items() if span.startswith(layer + "."))
        assert (n > 0) == (layer in workload.loads), layer


def test_benchmark_json_records_its_workloads():
    assert SPEC["workloads"]
    for entry in SPEC["workloads"]:
        workload = workloads.WORKLOADS[entry["name"]]
        assert entry["why"] == workload.why
        assert f"Loads {','.join(workload.loads)}" in entry["why"]
        assert f"bypasses {','.join(workload.bypasses) or 'none'}." in entry["why"]


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_runs_report_every_metric_of_benchmark_json(traced, name):
    result = traced[name][0]
    for mode in ("end_to_end", "per_layer"):
        for spec in SPEC[mode]:
            m = result[mode][spec["name"]]
            assert m["unit"] == spec["unit"], spec["name"]
            assert isinstance(m["value"], (int, float)), spec["name"]
    for spec in SPEC["end_to_end"]:
        assert result["end_to_end"][spec["name"]]["value"] > 0, spec["name"]
    for spec in SPEC["per_layer"]:
        if spec["unit"] == "s":
            assert result["per_layer"][spec["name"]]["value"] > 0, spec["name"]


def test_run_fails_without_the_program(scratch):
    bare = scratch / "bare"
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("_work", "out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk-2x2x2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

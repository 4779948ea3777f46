"""Tests of the benchmark itself: catalogue, output checks, smoke runs.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_catalogues():
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(entry) for entry in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _, _ in tracing.LAYER_METRICS
    ]


def test_metric_names_units_and_mappings():
    end_to_end = {name for name, *_ in run.END_TO_END}
    names = [name for name, *_ in run.END_TO_END] + [name for name, *_ in tracing.LAYER_METRICS]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for name, unit, better, moves, flat_on in tracing.LAYER_METRICS:
        assert unit and better in ("lower", "higher"), name
        if moves == "all":
            continue
        metrics, _, workloads = moves.partition("@")
        assert metrics and set(metrics.split(",")) <= end_to_end, name
        assert workloads and set(workloads.split(",")) <= set(run.WORKLOADS), name
        assert set(flat_on) <= set(run.WORKLOADS) - set(workloads.split(",")), name


def test_layer_metrics_cover_every_per_layer_metric():
    derived = tracing.layer_metrics({}, {})
    assert set(derived) | {"trace.overhead_ratio"} == {name for name, *_ in tracing.LAYER_METRICS}


def test_self_time_excludes_child_spans():
    spans = [
        {"name": "outer", "id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"name": "inner", "id": 1, "parent": 0, "start": 2.0, "end": 5.0, "slots": 7},
        {"name": "inner", "id": 2, "parent": 0, "start": 6.0, "end": 7.0, "slots": 1},
    ]
    summary = tracing.summarize(spans)
    assert summary["outer"]["self_s"] == pytest.approx(6.0)
    assert summary["outer"]["total_s"] == pytest.approx(10.0)
    assert summary["inner"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0, "slots": 8}


def _sweep_rows(payload: dict, cached: bool, trials: int = 3):
    return [("point", payload, cached, trials)]


def _payload() -> dict:
    return {"runs": 3, "completed": 3, "times": [4, 5, 6], "min_time": 4, "radius": 4}


def test_sweep_check_accepts_pinned_payload():
    payload = _payload()
    pinned = {"point": worker.digest(worker.canonical(payload))}
    assert worker.check_sweep(_sweep_rows(payload, False), _sweep_rows(payload, True), pinned) == (3, 0, [])


def test_corrupted_sweep_payload_is_caught():
    payload = _payload()
    pinned = {"point": worker.digest(worker.canonical(payload))}
    corrupted = dict(payload, times=[4, 5, 7])
    attempted, failed, problems = worker.check_sweep(
        _sweep_rows(corrupted, False), _sweep_rows(corrupted, True), pinned
    )
    assert (attempted, failed) == (3, 3) and "digest" in problems[0]
    # A warm pass that re-executes or returns other bytes is caught too.
    _, failed, problems = worker.check_sweep(
        _sweep_rows(payload, False), _sweep_rows(corrupted, False), None
    )
    assert failed == 3 and "warm pass executed" in problems[0] and "differs" in problems[0]


def test_incomplete_sweep_trials_are_caught():
    payload = dict(_payload(), completed=2)
    _, failed, _ = worker.check_sweep(_sweep_rows(payload, False), _sweep_rows(payload, True), None)
    assert failed == 3


def test_flipped_verdict_is_caught():
    pinned = {"e1": [True, True], "e2": [True]}
    assert worker.check_verdicts({"e1": [True, True], "e2": [True]}, pinned) == (3, 0, [])
    attempted, failed, problems = worker.check_verdicts({"e1": [True, False], "e2": [True]}, pinned)
    assert (attempted, failed) == (3, 1) and problems[0].startswith("e1")
    _, failed, _ = worker.check_verdicts({"e1": [True, True]}, pinned)
    assert failed == 1


def _document(wake: list[int]) -> dict:
    return {
        "completed": True, "informed": len(wake), "time": max(wake) + 1,
        "wake_times": {str(v): w for v, w in enumerate(wake)},
    }


def test_broadcast_check_catches_wrong_or_impossible_wake_times():
    depths = [0, 1, 2]
    good = _document([-1, 0, 3])
    assert worker.check_broadcast(good, depths, None) == (1, 0, [])
    _, failed, problems = worker.check_broadcast(_document([-1, 0, 0]), depths, None)
    assert failed == 1 and "BFS depth" in problems[0]
    pinned = {"slots": 4, "wake_sha256": "0" * 64}
    _, failed, problems = worker.check_broadcast(good, depths, pinned)
    assert failed == 1 and "pinned" in problems[0]
    _, failed, _ = worker.check_broadcast(dict(good, informed=2), depths, None)
    assert failed == 1


def _run(args: list[str], cwd: pathlib.Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_smoke_at_toy_size(workload):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1", "--toy"], ROOT)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, *_ in tracing.LAYER_METRICS}
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_sweep", "--seed", "1",
         "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == ""

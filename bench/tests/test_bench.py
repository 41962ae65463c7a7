"""Tests of the benchmark itself; they run the real workloads, so they are
slow (a few minutes) and live outside the package's test suite.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
from layers import LAYER_METRICS  # noqa: E402

COUNT_UNITS = ("count", "bytes", "ratio")


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=600, stdin=subprocess.DEVNULL,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_layer_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [
        (name, unit) for name, unit, _ in LAYER_METRICS
    ]
    assert [m["name"] for m in doc["end_to_end"]] == [
        "setup_s", "setup_rss_mb", "run_s", "pass_ratio", "peak_rss_mb",
    ]
    assert [w["name"] for w in doc["workloads"]] == ["cli-defaults", "kernel", "getoor"]


@pytest.mark.parametrize("workload", ["cli-defaults", "kernel", "getoor"])
def test_traced_runs_repeat_their_counts(workload):
    args = ("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
    first, second = _result(_run(*args)), _result(_run(*args))
    for result in (first, second):
        assert result["correct"] is True
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            name: unit for name, unit, _ in LAYER_METRICS
        }
    for name, unit, _ in LAYER_METRICS:
        if unit in COUNT_UNITS:
            assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    # known refusals lower pass_ratio but are no failure of the run
    assert first["failed"] == 0

    fail_ratio = first["metrics"]["fail_ratio"]["value"]
    ledger = json.loads(
        (BENCH / "out" / workload / "run-seed3-trace1.json").read_text())["ledger"]
    if workload == "getoor":
        assert fail_ratio > 0.0
        assert ledger and all(entry["known"] for entry in ledger)
    else:
        assert fail_ratio == 0.0
        assert ledger == []


def test_untraced_run_reports_end_to_end_metrics():
    result = _result(_run("--workload", "kernel", "--seed", "5", "--seconds", "1"))
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {
        "setup_s", "setup_rss_mb", "run_s", "pass_ratio", "peak_rss_mb",
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "kernel", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_clock_scales_each_stretch_by_its_bracketing_references(monkeypatch):
    ref = calibrate.REFERENCE_S
    times = iter([ref, 2 * ref, 2 * ref])
    monkeypatch.setattr(calibrate, "reference", lambda: next(times))
    clock = calibrate.Clock()
    clock.start()
    clock.add(0.4)
    clock.split(1.0)  # not enough work yet: no reference run
    clock.add(0.8)
    clock.split(1.0)
    clock.add(3.0)
    clock.split()
    assert clock.reference_s == [ref, 2 * ref, 2 * ref]
    assert clock.stretches == [(pytest.approx(1.2), pytest.approx(0.8)), (3.0, 1.5)]
    assert clock.wall_s() == pytest.approx(4.2)
    assert clock.scaled_s() == pytest.approx(2.3)

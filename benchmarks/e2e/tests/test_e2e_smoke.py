"""``--scale smoke``: all four workloads end to end, and the two forms the driver runs."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import e2e_env
import e2e_spec as spec

RUN = os.path.join(e2e_env.HERE, "run.py")


def _run(*args, cwd):
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=120
    )


def _result(finished):
    result = json.loads(finished.stdout.rstrip("\n").rsplit("\n", 1)[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    return result


def test_smoke_runs_all_four_workloads(tmp_path):
    out = tmp_path / "set"
    finished = _run("--scale", "smoke", "--seed", "21", "--out", str(out), cwd=tmp_path)
    assert finished.returncode == 0, finished.stdout + finished.stderr
    with open(out / "results.json") as handle:
        (run,) = json.load(handle)["runs"]
    assert list(run) == spec.WORKLOAD_NAMES
    for workload, record in run.items():
        assert record["correct"] and record["failed"] == 0 and record["attempted"] > 0
        metrics = record["metrics"]
        assert list(metrics) == [m.name for m in spec.END_TO_END if workload in m.workloads]
        assert metrics.pop("fail_ratio")["value"] == 0
        assert all(metric["value"] > 0 for metric in metrics.values()), workload
    assert not os.path.exists(e2e_env.WORK_ROOT) or not any(
        name.startswith("run-") for name in os.listdir(e2e_env.WORK_ROOT)
    )


def test_untraced_driver_form_reports_the_end_to_end_metrics_of_benchmark_json(tmp_path):
    finished = _run(
        "--workload", "khop_batch", "--scale", "smoke", "--seed", "21", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert finished.returncode == 0, finished.stdout + finished.stderr
    metrics = _result(finished)["metrics"]
    assert list(metrics) == list(spec.DRIVER_BOUNDS)
    assert all(metric["value"] > 0 for metric in metrics.values())


def test_traced_driver_form_reports_every_per_layer_metric(tmp_path):
    finished = _run(
        "--workload", "update_mixed", "--scale", "smoke", "--seed", "21", "--seconds", "1",
        "--trace", "1", "--out", str(tmp_path), cwd=tmp_path,
    )
    assert finished.returncode == 0, finished.stdout + finished.stderr
    metrics = _result(finished)["metrics"]
    assert list(metrics) == [m.name for m in spec.PER_LAYER]
    for metric in spec.PER_LAYER:
        assert metrics[metric.name]["unit"] == metric.unit
    assert metrics["durability.bytes_per_update"]["value"] > 0
    assert metrics["engine.python.khop3_ms"]["value"] > 0
    # The benchmark's own record leaves out what the pass did not observe;
    # only the driver's line carries it, as 0, and never for a time.
    with open(tmp_path / "per_layer-update_mixed.json") as handle:
        observed = json.load(handle)["metrics"]
    idle = [m for m in spec.PER_LAYER if m.name not in observed]
    assert "net.bytes_per_request" in {m.name for m in idle}
    for metric in idle:
        assert metric.source == "pass" and metric.unit in ("count", "bytes", "ratio")
        assert metrics[metric.name]["value"] == 0
    with open(tmp_path / "spans-update_mixed.json") as handle:
        spans = json.load(handle)
    names = {span[0] for span in spans["spans"]}
    assert {"core.apply_updates", "core.recover"} <= names
    assert all(span[2] >= span[1] for span in spans["spans"])

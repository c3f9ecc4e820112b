"""Unit tests of the benchmark harness: its arithmetic, inputs and spec."""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import time

from types import SimpleNamespace

import pytest

import e2e_env
import e2e_inputs as inputs
import e2e_spec as spec
import e2e_stats as stats
import e2e_wire as wire
import run
from e2e_workloads import Checker, PassResult, khop_batch_pass, make_inputs


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    values = [15, 20, 35, 40, 50]
    assert stats.percentile(values, 30) == 20
    assert stats.percentile(values, 40) == 20
    assert stats.percentile(values, 50) == 35
    assert stats.percentile(values, 100) == 50
    assert stats.percentile(list(range(1, 1001)), 99) == 990
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_p99_needs_a_thousand_ops_per_pass():
    assert stats.pass_p99([1.0] * 999) is None
    assert stats.pass_p99([1.0] * 999 + [7.0]) == 1.0
    assert stats.pass_p99([1.0, 2.0, 3.0], allow_small=True) == 3.0
    for name in spec.PERCENTILE_OPS:
        assert spec.op_counts("full", 1.0)[name] >= spec.MIN_PERCENTILE_OPS


# ----------------------------------------------------------------------
# Open loop: latency is measured from the due time
# ----------------------------------------------------------------------
def test_open_loop_times_from_due_time_when_the_server_stalls():
    service = 0.002
    stall = 0.15

    async def scenario():
        gate = asyncio.Lock()  # a server that answers one request at a time
        first = True

        async def send(request):
            nonlocal first
            async with gate:
                if first:
                    first = False
                    await asyncio.sleep(stall)
                await asyncio.sleep(service)
            return {"type": "result"}, time.perf_counter()

        return await wire.open_loop(
            [send], [{}] * 20, rate=200.0, timeout=5.0, max_outstanding=64
        )

    result = asyncio.run(scenario())
    assert result.count("result") == 20
    # Request 10 was due 50 ms in, but the stalled server only reached it
    # after the stall: timing from the send would hide that wait.
    assert result.latencies[10] > stall - 10 * (1 / 200.0)
    assert result.latencies[10] > 10 * service
    # The generator itself kept to its schedule.
    assert stats.percentile(result.lags, 50) < 0.02
    assert 0.09 < result.seconds < 1.0


def test_open_loop_never_exceeds_its_outstanding_cap():
    in_flight = peak = 0

    async def scenario():
        async def send(request):
            nonlocal in_flight, peak
            in_flight += 1
            peak = max(peak, in_flight)
            await asyncio.sleep(0.05)
            in_flight -= 1
            return {"type": "result"}, time.perf_counter()

        return await wire.open_loop([send], [{}] * 30, rate=2000.0, timeout=5.0, max_outstanding=4)

    result = asyncio.run(scenario())
    assert result.count("result") == 30 and peak == 4
    # The wait for a free slot is part of the latency: it is timed from the due time.
    assert result.latencies[-1] > 0.3


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_self_time_is_duration_minus_what_children_cover():
    spans = [
        ["op", 0, 100, None, 0],
        ["core.a", 10, 40, 0, 0],
        ["core.b", 30, 60, 0, 0],    # overlaps core.a: the union is 10..60
        ["net.c", 90, 130, 0, 0],    # sticks out of the parent: clipped at 100
        ["core.leaf", 12, 20, 1, 0],
    ]
    assert stats.self_times_ns(spans) == [100 - 50 - 10, 30 - 8, 30, 40, 8]
    by_name = stats.self_seconds_by_name(spans)
    assert by_name["core.a"] == pytest.approx(22e-9)


def test_layer_share_merges_overlapping_calls():
    spans = [
        ["net.client.roundtrip", 0, 60, None, 0],
        ["net.client.roundtrip", 20, 80, None, 1],
        ["core.batch_khop", 100, 150, None, 2],
    ]
    shares = stats.layer_shares(spans, pass_seconds=200e-9)
    assert shares["net"] == pytest.approx(0.4)
    assert shares["core"] == pytest.approx(0.25)


def test_tracer_nests_synchronous_spans_and_is_silent_when_disabled():
    tracer = stats.Tracer()
    with tracer.span("outer", 7):
        with tracer.span("inner", 7):
            pass
    (outer, inner) = tracer.spans
    assert outer[3] is None and inner[3] == 0 and inner[4] == 7
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]
    off = stats.Tracer(enabled=False)
    with off.span("outer", 0):
        off.add("x", 0, 1, 0)
    assert off.spans == []


# ----------------------------------------------------------------------
# Spec and BENCHMARK.json
# ----------------------------------------------------------------------
def test_spec_matches_benchmark_json():
    with open(os.path.join(e2e_env.REPO_ROOT, "BENCHMARK.json")) as handle:
        committed = json.load(handle)
    assert committed == spec.benchmark_json()
    assert set(committed) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert committed["paths"] == ["benchmarks/e2e"]
    assert len(committed["workloads"]) == 4
    assert 1 <= len(committed["end_to_end"]) <= 16
    assert 1 <= len(committed["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in committed[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert spec.NAME_PATTERN.match(name), name
    for entry in committed["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
        assert entry["better"] in ("lower", "higher")
    setup = next(e for e in committed["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in committed["end_to_end"])
    for entry in committed["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_end_to_end_metrics_carry_the_issue_bounds():
    by_name = {m.name: m for m in spec.END_TO_END}
    assert len(by_name) == len(spec.END_TO_END) <= 16
    for metric in spec.END_TO_END:
        assert spec.NAME_PATTERN.match(metric.name)
        assert metric.workloads and set(metric.workloads) <= set(spec.WORKLOAD_NAMES)
        assert 0.0 <= metric.bound <= 0.15
    assert by_name["sim_time_ms"].bound == 0.0 and by_name["fail_ratio"].bound == 0.0
    # What the driver reads is what every workload reports.
    for name in spec.DRIVER_BOUNDS:
        assert by_name[name].workloads == tuple(spec.WORKLOAD_NAMES)
    # A pass metric may go to the driver as 0 on a workload that never enters
    # its layer; a time may not, so times observed in a pass exist everywhere.
    everywhere = {
        "graph.generate_s", "core.load_graph_s", "engine.us_per_result", "bench.cpu_s",
        "bench.throughput_ops_s", "bench.latency_p50_ms", "bench.latency_p99_ms",
        "pim.sim_host_ms", "pim.sim_cpc_ms", "pim.sim_ipc_ms",
        "pim.sim_pim_ms",
    }
    for metric in spec.PER_LAYER:
        assert metric.source in ("probe", "pass")
        if metric.source == "pass" and metric.unit not in ("count", "bytes", "ratio"):
            assert metric.name in everywhere, metric.name


# ----------------------------------------------------------------------
# Deterministic inputs
# ----------------------------------------------------------------------
def _hashes(workload: str, seed: int):
    return make_inputs(workload, seed, "smoke", 1.0, work_dir="unused").hashes


@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = _hashes(workload, 5)
    assert first == _hashes(workload, 5)
    other = _hashes(workload, 6)
    assert first["graph"] != other["graph"] and first["ops"] != other["ops"]


def test_default_seed_graph_hash_is_the_recorded_one():
    graph = inputs.build_graph(spec.DEFAULT_SEED, "full")
    assert inputs.graph_sha256(graph) == spec.DEFAULT_GRAPH_SHA256


def test_update_script_only_deletes_live_edges_and_inserts_new_ones():
    graph = inputs.build_graph(3, "smoke")
    script, final_edges = inputs.update_script(graph, 3, 6)
    live = set(graph.edges())
    for ops in script:
        assert len(ops) == spec.UPDATE_BATCH_OPS
        for op in ops:
            if op.kind.value == "insert":
                assert op.edge not in live
                live.add(op.edge)
            else:
                live.remove(op.edge)
    assert live == final_edges


def test_heavy_expression_sits_only_at_its_ranks():
    for rank in range(spec.RPQ_DISTINCT):
        heavy = inputs.rpq_expression_at(rank) == spec.RPQ_HEAVY_EXPRESSION
        assert heavy == (rank in spec.RPQ_HEAVY_RANKS)


# ----------------------------------------------------------------------
# The answer check catches a wrong answer
# ----------------------------------------------------------------------
def test_a_corrupted_answer_is_caught():
    ctx = make_inputs("khop_batch", 5, "smoke", 1.0, work_dir="unused")
    clean = Checker()
    khop_batch_pass(ctx, stats.Tracer(enabled=False), clean)
    assert clean.failed == 0 and clean.attempted > 0

    ctx.corrupt = lambda answer: set(answer) | {-1}
    caught = Checker()
    khop_batch_pass(ctx, stats.Tracer(enabled=False), caught)
    assert caught.failed > 0
    assert "wrong answer" in caught.reasons[0]


# ----------------------------------------------------------------------
# Comparing result sets
# ----------------------------------------------------------------------
def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert stats.verdict(steady, [100.0, 102.0, 101.0], "lower", 0.10) == "same"
    assert stats.verdict(steady, [120.0, 121.0, 119.0], "lower", 0.10) == "worse"
    assert stats.verdict(steady, [80.0, 81.0, 79.0], "lower", 0.10) == "better"
    assert stats.verdict(steady, [80.0, 81.0, 79.0], "higher", 0.10) == "worse"
    noisy = [100.0, 140.0, 70.0, 120.0]
    assert stats.verdict(noisy, [105.0, 110.0, 100.0], "lower", 0.10) == "unresolved"
    # Wider than the bound, but every changed run beats every base run.
    assert stats.verdict(noisy, [50.0, 52.0, 51.0], "lower", 0.10) == "better"


def _result_set(throughput, failed=0, sim=7.0):
    def run(value):
        records = {}
        for workload in spec.WORKLOAD_NAMES:
            metrics = {
                m.name: {"value": 1.0, "unit": m.unit}
                for m in spec.END_TO_END if workload in m.workloads
            }
            metrics["throughput_ops_s"]["value"] = value
            if "sim_time_ms" in metrics:
                metrics["sim_time_ms"]["value"] = sim
            records[workload] = {"metrics": metrics, "failed": failed, "attempted": 100}
        return records
    return {"runs": [run(value) for value in throughput]}


def test_compare_flags_regressions_and_any_new_failure():
    base = _result_set([100.0, 101.0, 99.0])
    rows, regressed = stats.compare(base, _result_set([100.0, 100.0, 100.0]))
    assert not regressed
    assert len(rows) == sum(len(m.workloads) for m in spec.END_TO_END)
    rows, regressed = stats.compare(base, _result_set([60.0, 61.0, 59.0]))
    assert regressed
    worse = [row for row in rows if row["verdict"] == "worse"]
    assert {row["metric"] for row in worse} == {"throughput_ops_s"}
    assert worse[0]["ratio"] == pytest.approx(0.6)
    _, regressed = stats.compare(base, _result_set([100.0, 101.0, 99.0], failed=1))
    assert regressed


def test_simulated_time_must_repeat_exactly():
    base = _result_set([100.0, 100.0])
    rows, regressed = stats.compare(base, _result_set([100.0, 100.0], sim=7.0001))
    assert regressed
    assert {row["metric"] for row in rows if row["verdict"] == "worse"} == {"sim_time_ms"}
    assert not any(row["metric"] == "sim_time_ms" and row["workload"] == "wire_serve"
                   for row in rows)


# ----------------------------------------------------------------------
# What a run reports
# ----------------------------------------------------------------------
def _pass(ops, seconds, latencies, setup_s, **e2e):
    return PassResult(
        setup_s=setup_s, load_graph_s=0.0, ops=ops, seconds=seconds, latencies=latencies,
        digest="", sim_ms=5.0, e2e=e2e,
    )


def test_the_best_pass_is_reported_as_measured():
    ctx = SimpleNamespace(script_s=0.5)
    passes = [
        _pass(1000, 2.0, [0.002, 0.004, 0.003], 1.0, recover_s=0.4),
        _pass(1000, 1.6, [0.003, 0.005, 0.004], 3.0, recover_s=0.3),
        _pass(1000, 2.5, [0.001, 0.002, 0.009], 2.0, recover_s=0.5),
    ]
    measured = run.end_to_end(ctx, passes)
    values, per_pass = measured["values"], measured["per_pass"]
    # Every reported number is a number some pass measured.
    assert values["throughput_ops_s"] == 1000 / 1.6 == max(per_pass["throughput_ops_s"])
    assert values["latency_p50_ms"] == 2.0 == min(per_pass["latency_p50_ms"])
    assert values["recover_s"] == 0.3
    assert values["setup_s"] == 0.5 + 2.0  # the median pass, plus the script generated once
    assert values["sim_time_ms"] == 5.0
    assert "fresh_read_p50_ms" not in values


def test_the_driver_gets_every_listed_metric_and_zero_only_for_idle_layers():
    untraced = {m.name: {"value": 1.0, "unit": m.unit} for m in spec.END_TO_END}
    assert list(run.driver_metrics(untraced, trace=0)) == list(spec.DRIVER_BOUNDS)
    observed = {
        m.name: {"value": 1.0, "unit": m.unit} for m in spec.PER_LAYER
        if m.name not in ("net.busy", "rpq.compile_us")
    }
    out = run.driver_metrics(observed, trace=1)
    assert out["net.busy"] == {"value": 0.0, "unit": "count"}  # no call into the layer
    assert "rpq.compile_us" not in out  # a probe that could not run stays absent
    assert len(out) == len(spec.PER_LAYER) - 1


# ----------------------------------------------------------------------
# No process outlives a run
# ----------------------------------------------------------------------
_LEAVES_CHILDREN = """
import json, os, subprocess, sys
from multiprocessing import resource_tracker
import e2e_env

resource_tracker.ensure_running()      # ends once its pipe is closed
tracker = resource_tracker._resource_tracker._pid
quick = subprocess.Popen(["sleep", "0.2"])   # ends by itself within the grace
stuck = subprocess.Popen(["sleep", "60"])    # has to be killed
killed = e2e_env.stop_child_processes(grace=1.0)
alive = [pid for pid in (tracker, quick.pid, stuck.pid) if os.path.exists(f"/proc/{pid}")]
print(json.dumps({"killed": killed, "alive": alive}))
"""


def test_a_process_ends_its_children_and_names_the_ones_it_had_to_kill():
    # In an interpreter of its own: the call ends every child of its process.
    finished = subprocess.run(
        [sys.executable, "-c", _LEAVES_CHILDREN], cwd=e2e_env.HERE,
        capture_output=True, text=True, timeout=60,
    )
    assert finished.returncode == 0, finished.stderr
    assert json.loads(finished.stdout) == {"killed": ["sleep 60"], "alive": []}

"""Tests for the evaluation's support code (workloads, runner, reports)."""

from __future__ import annotations

import pytest

from repro.graph import load_dataset
from repro.paper import (
    DEFAULT_NUM_MODULES,
    build_systems,
    format_table,
    geometric_mean,
    khop_workload,
    load_trace,
    run_ipc_experiment,
    run_khop_experiment,
    run_update_experiment,
    update_workload,
)
from repro.pim import scaled_cost_model


SMALL_SCALE = 0.15


def test_scaled_cost_model_defaults():
    model = scaled_cost_model()
    assert model.num_modules == DEFAULT_NUM_MODULES
    assert model.host_llc_bytes == 32 * 1024
    assert model.cpc_transfer_latency < 1e-6


def test_khop_workload_sources_come_from_graph():
    graph = load_dataset(6, scale=SMALL_SCALE)
    query = khop_workload(graph, hops=2, batch_size=32, seed=1)
    assert query.batch_size == 32
    assert all(graph.has_node(source) for source in query.sources)


def test_update_workload_batches():
    graph = load_dataset(7, scale=SMALL_SCALE)
    workload = update_workload(graph, batch_size=16, seed=2)
    assert workload.batch_size == 16
    assert len(workload.delete_edges) == 16
    for src, dst in workload.insert_edges:
        assert not graph.has_edge(src, dst)
    for src, dst in workload.delete_edges:
        assert graph.has_edge(src, dst)


def test_build_systems_loads_all_three_engines():
    graph = load_dataset(6, scale=SMALL_SCALE)
    cost_model = scaled_cost_model(num_modules=8)
    systems = build_systems(graph, cost_model=cost_model, warmup_rounds=1)
    assert systems.moctopus.num_edges == graph.num_edges
    assert systems.redisgraph.num_edges == graph.num_edges
    assert set(systems.by_name()) == {"moctopus", "pim-hash", "redisgraph"}


def _systems(trace_id):
    return build_systems(
        load_trace(trace_id, scale=SMALL_SCALE),
        cost_model=scaled_cost_model(num_modules=8),
        warmup_rounds=1,
    )


def test_run_khop_experiment_rows_have_expected_fields():
    for trace_id in (1, 6):
        row = run_khop_experiment(_systems(trace_id), hops=2, batch_size=32)
        assert row["moctopus_ms"] > 0
        assert row["redisgraph_ms"] > 0
        assert row["speedup_vs_redisgraph"] == pytest.approx(
            row["redisgraph_ms"] / row["moctopus_ms"]
        )
        assert row["moctopus_cpc_bytes"] > 0
        assert row["redisgraph_ipc_bytes"] == 0


def test_run_ipc_experiment_reports_reduction():
    row = run_ipc_experiment(_systems(7), hops=2, batch_size=32)
    assert row["pim_hash_ipc_ms"] >= 0
    assert row["ipc_reduction"] <= 1.0


def test_run_update_experiment_reports_speedups():
    row = run_update_experiment(
        load_trace(6, scale=SMALL_SCALE), batch_size=32,
        cost_model=scaled_cost_model(num_modules=8),
    )
    assert row["insert_speedup"] > 1.0
    assert row["delete_speedup"] > 1.0


def test_format_table_alignment_and_dicts():
    headers = ["trace", "latency_ms"]
    rows = [["#1", 12.5], ["#2", 0.0001]]
    text = format_table(headers, rows)
    assert "trace" in text and "#2" in text


def test_geometric_mean_and_summary():
    assert geometric_mean([1, 100]) == pytest.approx(10.0)
    assert geometric_mean([]) == 0.0

"""Tests for the Moctopus system facade: partitioning, queries, updates."""

from __future__ import annotations

import dataclasses
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Moctopus, MoctopusConfig
from repro.graph import DiGraph, random_graph
from repro.net.server import MoctopusServer
from repro.partition.base import HOST_PARTITION
from repro.partition.radical_greedy import RadicalGreedyPartitioner
from repro.pim import CostModel
from repro.rpq import KHopQuery, RPQuery, evaluate_khop, evaluate_rpq, random_source_batch
from repro.serve.scheduler import BatchScheduler


def small_system(graph, **config_kwargs) -> Moctopus:
    config = MoctopusConfig(cost_model=CostModel(num_modules=8), **config_kwargs)
    return Moctopus.from_graph(graph, config)


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
def test_config_validation():
    with pytest.raises(ValueError):
        MoctopusConfig(pim_placement="round-robin")
    with pytest.raises(ValueError):
        MoctopusConfig(misplacement_threshold=0.0)
    with pytest.raises(ValueError):
        MoctopusConfig(capacity_factor=0.5)
    with pytest.raises(ValueError):
        MoctopusConfig(high_degree_threshold=0)
    with pytest.raises(ValueError):
        MoctopusConfig(migration_capacity_factor=0.2)


NAN = float("nan")


@pytest.mark.parametrize(
    "field",
    ["capacity_factor", "migration_capacity_factor", "serve_linger", "net_request_timeout"],
)
def test_config_rejects_nan(field):
    """``nan`` fails every comparison, so a bound written as ``x < low``
    would let it through (a nan capacity factor turns every greedy
    placement into a fallback and switches migration off)."""
    with pytest.raises(ValueError, match=field):
        MoctopusConfig(**{field: NAN})


@pytest.mark.parametrize(
    "build",
    [
        lambda system: BatchScheduler(system, linger=NAN, autostart=False),
        lambda system: MoctopusServer(system, port=0, request_timeout=NAN),
        lambda system: RadicalGreedyPartitioner(4, capacity_factor=NAN),
    ],
    ids=["scheduler_linger", "server_request_timeout", "greedy_capacity_factor"],
)
def test_component_arguments_reject_nan(build):
    system = Moctopus()
    try:
        with pytest.raises(ValueError):
            build(system)
    finally:
        system.close()


def test_knob_census():
    """Every ``MoctopusConfig`` field is read by the code it configures,
    and the number of fields only moves on purpose."""
    import repro

    package = pathlib.Path(repro.__file__).parent
    source = "\n".join(
        path.read_text()
        for path in sorted(package.rglob("*.py"))
        if path != package / "core" / "config.py"
    )
    names = [field.name for field in dataclasses.fields(MoctopusConfig)]
    unread = [
        name for name in names if not re.search(rf"config\.{name}\b", source)
    ]
    assert unread == [], f"knobs nothing under src/repro/ reads: {unread}"
    # The Options rule (simplicity review): a knob is justified when two
    # callers or workloads that are neither tests nor examples need
    # different values; with one value in use it is a constant, and a
    # value the code can work out is not an option.  Adding a field
    # means editing this count and naming those two callers in the PR.
    assert len(names) == 23


def test_pim_hash_config_disables_moctopus_features():
    config = MoctopusConfig.pim_hash_config()
    assert config.pim_placement == "hash"
    assert not config.labor_division_enabled
    assert not config.enable_migration


# ----------------------------------------------------------------------
# Loading and partitioning
# ----------------------------------------------------------------------
def test_load_graph_places_every_node(small_community):
    system = small_system(small_community)
    assert system.num_nodes == small_community.num_nodes
    assert system.num_edges == small_community.num_edges
    for node in small_community.nodes():
        assert system.partition_of(node) is not None
    counts = system.module_node_counts()
    assert sum(counts) + system.host_node_count() == system.num_nodes


def test_high_degree_nodes_live_on_host(small_power_law):
    system = small_system(small_power_law)
    hubs = small_power_law.high_degree_nodes(system.config.high_degree_threshold)
    assert hubs, "fixture should contain hubs"
    for hub in hubs:
        assert system.partition_of(hub) == HOST_PARTITION
    assert system.host_node_count() >= len(hubs)
    assert system.partition_statistics()["promotions"] > 0


def test_no_host_nodes_without_labor_division(small_power_law):
    system = small_system(small_power_law, high_degree_threshold=None)
    assert system.host_node_count() == 0


def test_partition_quality_balance(small_community):
    system = small_system(small_community)
    quality = system.partition_quality()
    assert quality.balance_factor <= 2.0
    assert 0.0 <= quality.locality_fraction <= 1.0


def test_isolated_nodes_are_assigned():
    graph = DiGraph(num_nodes=5)
    graph.add_edge(0, 1)
    system = small_system(graph)
    for node in range(5):
        assert system.partition_of(node) is not None


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------
def test_batch_khop_matches_reference(tiny_graph):
    system = small_system(tiny_graph)
    sources = [2, 3]
    result, stats = system.batch_khop(sources, hops=2)
    reference = evaluate_khop(tiny_graph, KHopQuery(hops=2, sources=sources))
    assert result == reference
    assert stats.total_time > 0
    # The paper's Figure 2 example: 2-hop from node 2 reaches 6, 8, 9 (and 1).
    assert {6, 8, 9} <= result.destinations_of(0)


def test_batch_khop_on_road_graph(small_road):
    system = small_system(small_road)
    sources = random_source_batch(list(small_road.nodes()), 16, seed=5)
    for hops in (1, 2, 4):
        result, stats = system.batch_khop(sources, hops)
        reference = evaluate_khop(small_road, KHopQuery(hops=hops, sources=sources))
        assert result == reference
        assert stats.pim_time > 0


def test_unknown_source_yields_empty_result(tiny_graph):
    system = small_system(tiny_graph)
    result, _ = system.batch_khop([12345], hops=2)
    assert result.destinations == [set()]


def test_execute_dispatches_rpq_and_khop(tiny_graph):
    system = small_system(tiny_graph)
    khop_result, _ = system.execute(KHopQuery(hops=1, sources=[1]))
    assert khop_result.destinations_of(0) == set(tiny_graph.successors(1))
    rpq_result, _ = system.execute(RPQuery(".{2}", [1]))
    reference = evaluate_rpq(tiny_graph, RPQuery(".{2}", [1]))
    assert rpq_result == reference
    with pytest.raises(TypeError):
        system.execute(42)


def test_general_rpq_with_kleene_matches_reference(small_community):
    system = small_system(small_community)
    sources = random_source_batch(list(small_community.nodes()), 4, seed=2)
    query = RPQuery(".+", sources)
    result, stats = system.execute(query)
    reference = evaluate_rpq(small_community, query)
    assert result == reference
    assert stats.total_time > 0


def test_labeled_rpq_matches_reference():
    graph = DiGraph()
    graph.add_edge(0, 1, label=1)
    graph.add_edge(1, 2, label=2)
    graph.add_edge(0, 2, label=2)
    graph.add_edge(2, 3, label=1)
    labels = {1: "a", 2: "b"}
    system = Moctopus.from_graph(
        graph, MoctopusConfig(cost_model=CostModel(num_modules=4)), label_names=labels
    )
    query = RPQuery("a/b", [0])
    result, _ = system.execute(query)
    assert result == evaluate_rpq(graph, query, label_names=labels)


def test_migration_reduces_pending_reports(small_community):
    system = small_system(small_community)
    sources = random_source_batch(list(small_community.nodes()), 32, seed=1)
    system.batch_khop(sources, hops=2, auto_migrate=False)
    moved, stats = system.run_maintenance()
    assert stats.counters["migrations"] == moved
    assert system.partition_statistics()["locality_migrations"] == moved


def test_disabling_migration_keeps_placement_static(small_community):
    system = small_system(small_community, enable_migration=False)
    before = dict(system._partitioner.partition_map.items())
    sources = random_source_batch(list(small_community.nodes()), 16, seed=3)
    system.batch_khop(sources, hops=2)
    after = dict(system._partitioner.partition_map.items())
    assert before == after


# ----------------------------------------------------------------------
# Updates
# ----------------------------------------------------------------------
def test_insert_and_delete_edges_update_state(tiny_graph):
    system = small_system(tiny_graph)
    stats = system.insert_edges([(9, 0), (7, 1)])
    assert system.has_edge(9, 0) and system.has_edge(7, 1)
    assert stats.counters["updates"] == 2
    result, _ = system.batch_khop([9], hops=1)
    assert result.destinations_of(0) == {0}
    delete_stats = system.delete_edges([(9, 0)])
    assert not system.has_edge(9, 0)
    assert delete_stats.total_time > 0


def test_insert_new_node_uses_first_neighbor_partition(tiny_graph):
    system = small_system(tiny_graph)
    target_partition = system.partition_of(5)
    system.insert_edges([(777, 5)])
    assert system.partition_of(777) is not None
    result, _ = system.batch_khop([777], hops=1)
    assert result.destinations_of(0) == {5}


def test_updates_promote_nodes_crossing_threshold():
    graph = DiGraph.from_edges([(0, 1), (1, 2)])
    system = Moctopus.from_graph(
        graph,
        MoctopusConfig(cost_model=CostModel(num_modules=4), high_degree_threshold=4),
    )
    assert system.partition_of(0) != HOST_PARTITION
    system.insert_edges([(0, dst) for dst in range(10, 16)])
    assert system.partition_of(0) == HOST_PARTITION
    # The promoted row answers queries from the host storage.
    result, _ = system.batch_khop([0], hops=1)
    assert result.destinations_of(0) == set(system.graph.successors(0))


def test_query_after_many_updates_matches_reference(small_road):
    system = small_system(small_road)
    from repro.graph import UpdateStream

    stream = UpdateStream(small_road, seed=9)
    inserts = [op.edge for op in stream.insertion_batch(64)]
    deletes = [op.edge for op in stream.deletion_batch(64)]
    system.insert_edges(inserts)
    system.delete_edges(deletes)
    sources = random_source_batch(list(small_road.nodes()), 16, seed=4)
    result, _ = system.batch_khop(sources, hops=2)
    reference = evaluate_khop(system.graph, KHopQuery(hops=2, sources=sources))
    assert result == reference


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=1000), st.integers(min_value=1, max_value=3))
def test_property_khop_matches_reference_on_random_graphs(seed, hops):
    graph = random_graph(60, 220, seed=seed)
    system = Moctopus.from_graph(
        graph, MoctopusConfig(cost_model=CostModel(num_modules=4))
    )
    sources = random_source_batch(list(graph.nodes()), 8, seed=seed)
    result, stats = system.batch_khop(sources, hops)
    reference = evaluate_khop(graph, KHopQuery(hops=hops, sources=sources))
    assert result == reference
    assert stats.total_time >= 0

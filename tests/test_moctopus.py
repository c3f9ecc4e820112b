"""Tests for the Moctopus system facade: partitioning, queries, updates."""

from __future__ import annotations

import dataclasses
import inspect
import pathlib
import re
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from model import placement
from repro.core import Moctopus, MoctopusConfig
from repro.graph import DiGraph, random_graph
from repro.durability.recovery import recover
from repro.net.server import MoctopusServer
from repro.paper import PIMHashSystem, placed_at
from repro.parallel import WorkerPool
from repro.partition.base import HOST_PARTITION
from repro.partition.hash_partition import stable_node_hash
from repro.partition.labor_division import (
    DEFAULT_HIGH_DEGREE_THRESHOLD,
    LaborDivisionPartitioner,
)
from repro.partition.radical_greedy import RadicalGreedyPartitioner
from repro.pim import CostModel
from repro.rpq import KHopQuery, RPQuery, evaluate_khop, evaluate_rpq, random_source_batch
from repro.serve.scheduler import BatchScheduler


def small_system(graph, system_class=Moctopus) -> Moctopus:
    return system_class.from_graph(graph, MoctopusConfig(cost_model=CostModel(num_modules=8)))


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
def test_config_validation():
    with pytest.raises(ValueError, match="wal_segment_bytes"):
        MoctopusConfig(wal_segment_bytes=512)
    with pytest.raises(ValueError, match="checkpoint_interval_batches"):
        MoctopusConfig(checkpoint_interval_batches=-1)
    # The placement's parameters are the placement's, not the config's.
    for name, value in (("capacity_factor", 1.05), ("high_degree_threshold", 16)):
        with pytest.raises(TypeError, match=name):
            MoctopusConfig(**{name: value})


NAN = float("nan")


@pytest.mark.parametrize(
    "build",
    [
        lambda system: MoctopusServer(system, port=0, request_timeout=NAN),
        lambda system: RadicalGreedyPartitioner(4, capacity_factor=NAN),
    ],
    ids=["server_request_timeout", "greedy_capacity_factor"],
)
def test_component_arguments_reject_nan(build):
    system = Moctopus()
    try:
        with pytest.raises(ValueError):
            build(system)
    finally:
        system.close()


INT_FIELDS = [
    "wal_segment_bytes",
    "checkpoint_interval_batches",
]


@pytest.mark.parametrize("value", [NAN, 4.0], ids=["nan", "float"])
@pytest.mark.parametrize("field", INT_FIELDS)
def test_config_int_fields_reject_nan_and_floats(field, value):
    """An integer field takes integers only: ``nan`` passed every
    ``x < low`` bound (a nan queue depth built an unbounded queue), and
    so did ``4.0``."""
    with pytest.raises(ValueError, match=field):
        MoctopusConfig(**{field: value})
    with pytest.raises(ValueError, match=field):
        MoctopusConfig(**{field: True})


def test_config_int_fields_cover_every_int_default():
    defaults = MoctopusConfig()
    ints = [
        field.name
        for field in dataclasses.fields(MoctopusConfig)
        if type(getattr(defaults, field.name)) is int
    ]
    assert ints == INT_FIELDS


@pytest.mark.parametrize("value", [NAN, 4.0], ids=["nan", "float"])
@pytest.mark.parametrize(
    "name, build",
    [
        ("queue_depth", lambda system, value: BatchScheduler(
            system, queue_depth=value, autostart=False)),
        ("max_inflight_per_client", lambda system, value: MoctopusServer(
            system, port=0, max_inflight_per_client=value)),
        ("port", lambda system, value: MoctopusServer(system, port=value)),
        ("parallel", lambda system, value: system.serve(parallel=value)),
        ("workers", lambda system, value: WorkerPool(system, workers=value)),
        ("high_degree_threshold", lambda system, value: LaborDivisionPartitioner(
            RadicalGreedyPartitioner(4), high_degree_threshold=value)),
    ],
    ids=["scheduler", "server", "server_port", "serve", "pool", "labor_division"],
)
def test_component_int_arguments_reject_nan_and_floats(name, build, value):
    """The integer arguments of components and front doors are checked
    like config fields, before any thread starts or process forks."""
    system = Moctopus()
    try:
        with pytest.raises(ValueError, match=name):
            build(system, value)
    finally:
        system.close()


def test_kernel_is_chosen_in_one_place():
    """No serving entry point and no config field takes a kernel:
    ``use_engine`` chooses it, and what is started keeps its kernel."""
    entry_points = [
        Moctopus.begin,
        Moctopus.serve,
        Moctopus.listen,
        Moctopus.recover,
        MoctopusServer,
        BatchScheduler,
        WorkerPool,
        WorkerPool.submit,
        WorkerPool.execute,
        recover,
    ]
    for entry_point in entry_points:
        assert "engine" not in inspect.signature(entry_point).parameters, entry_point
    assert "engine" not in {field.name for field in dataclasses.fields(MoctopusConfig)}
    system = Moctopus.from_graph(random_graph(40, 120, seed=3))
    assert system.engine_name == "auto"
    system.use_engine("python")
    with system.begin() as session, system.serve() as scheduler:
        system.use_engine("vectorized")
        assert session._engine == scheduler._engine == "python"
        with system.begin() as later:
            assert later._engine == "vectorized"
            expected, _ = later.batch_khop([0, 1], 2)
        assert session.batch_khop([0, 1], 2)[0] == expected
        assert scheduler.query(1, 2) == expected.destinations_of(1)
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
    assert len(names) == 5


def test_the_placement_is_the_papers():
    """A system places as Sections 3.2.2 and 3.3 do, whatever its config:
    radical greedy at 1.05x capacity under labor division above
    out-degree 16, repaired by the node migrator."""
    for config in (MoctopusConfig(), MoctopusConfig(cost_model=CostModel(num_modules=4))):
        system = Moctopus(config)
        try:
            assert system._partitioner.record() == {
                "pim_placement": "radical_greedy",
                "enable_migration": True,
                "capacity_factor": 1.05,
                "high_degree_threshold": 16,
            }
        finally:
            system.close()


@pytest.mark.parametrize(
    "port", [True, 1.5, NAN, -1, 65536], ids=["bool", "float", "nan", "neg", "big"]
)
def test_bad_port_refused_before_any_thread(port):
    """``port=True`` and ``port=1.5`` used to bind port 1, and a port
    past 65535 failed with ``OverflowError`` on the server's loop
    thread; each is now refused at construction, before the scheduler
    or the loop thread starts."""
    import threading

    system = Moctopus()
    try:
        threads = set(threading.enumerate())
        with pytest.raises(ValueError, match="port"):
            MoctopusServer(system, port=port)
        with pytest.raises(ValueError, match="port"):
            system.listen(port=port)
        assert set(threading.enumerate()) == threads
    finally:
        system.close()


def test_pim_hash_system_disables_moctopus_features(small_power_law):
    """Hash placement, no labor division, no misplacement detection and
    no migration."""
    system = small_system(small_power_law, PIMHashSystem)
    for node in small_power_law.nodes():
        assert system.partition_of(node) == stable_node_hash(node) % 8
    assert system.host_node_count() == 0
    before = placement(system._partitioner.partition_map)
    sources = random_source_batch(list(small_power_law.nodes()), 16, seed=3)
    system.batch_khop(sources, hops=2)
    assert system._migrator.pending_reports == 0
    assert placement(system._partitioner.partition_map) == before


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
    hubs = small_power_law.high_degree_nodes(DEFAULT_HIGH_DEGREE_THRESHOLD)
    assert hubs, "fixture should contain hubs"
    for hub in hubs:
        assert system.partition_of(hub) == HOST_PARTITION
    assert system.host_node_count() >= len(hubs)
    assert system.partition_statistics()["promotions"] > 0


def test_no_host_nodes_without_labor_division(small_power_law):
    system = small_system(small_power_law, placed_at(high_degree_threshold=None))
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
    system = small_system(small_community)
    before = placement(system._partitioner.partition_map)
    sources = random_source_batch(list(small_community.nodes()), 16, seed=3)
    system.batch_khop(sources, hops=2, auto_migrate=False)
    after = placement(system._partitioner.partition_map)
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
    system = placed_at(high_degree_threshold=4).from_graph(
        graph, MoctopusConfig(cost_model=CostModel(num_modules=4))
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

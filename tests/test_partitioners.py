"""Tests for the partitioning algorithms and quality metrics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from model import edge_counts, placement
from repro.graph import DiGraph, community_graph, random_graph
from repro.paper import AdaptivePartitioner, LDGPartitioner
from repro.partition import (
    HOST_PARTITION,
    HashPartitioner,
    LaborDivisionPartitioner,
    PartitionMap,
    RadicalGreedyPartitioner,
    evaluate_partition,
    load_imbalance,
    partition_static_graph,
    stable_node_hash,
)


# ----------------------------------------------------------------------
# PartitionMap
# ----------------------------------------------------------------------
def test_partition_map_assign_and_move():
    pmap = PartitionMap(4)
    pmap.assign(1, 2)
    pmap.assign(2, 2)
    assert pmap.size(2) == 2
    pmap.assign(1, 0)
    assert pmap.size(2) == 1 and pmap.size(0) == 1
    assert pmap.partition_of(1) == 0
    assert pmap.partition_of(99) is None
    assert len(pmap) == 2


def test_partition_map_host_partition_and_validation():
    pmap = PartitionMap(2)
    pmap.assign(5, HOST_PARTITION)
    assert pmap.host_size() == 1
    assert pmap.partition_of(5) == HOST_PARTITION
    assert [column.tolist() for column in pmap.freeze().table()] == [[5], [HOST_PARTITION]]
    with pytest.raises(ValueError):
        pmap.assign(1, 7)
    with pytest.raises(ValueError):
        PartitionMap(0)


def test_partition_map_refuses_counts_the_owner_vector_cannot_hold():
    """Partition ids are stored as int16: a larger count would wrap."""
    assert PartitionMap(2**15).num_partitions == 2**15
    with pytest.raises(ValueError, match="int16"):
        PartitionMap(2**15 + 1)


# ----------------------------------------------------------------------
# Hash partitioner
# ----------------------------------------------------------------------
def test_stable_hash_spreads_consecutive_ids():
    partitions = {stable_node_hash(node) % 16 for node in range(64)}
    assert len(partitions) > 8


def test_hash_partitioner_is_deterministic_and_balanced():
    graph = random_graph(400, 1600, seed=1)
    pmap = partition_static_graph(HashPartitioner(8), graph)
    again = partition_static_graph(HashPartitioner(8), graph)
    assert placement(pmap) == placement(again)
    quality = evaluate_partition(graph, pmap)
    assert quality.balance_factor < 1.4
    # Hash ignores locality: the cut should be close to (P-1)/P.
    assert quality.edge_cut_fraction > 0.7


# ----------------------------------------------------------------------
# LDG
# ----------------------------------------------------------------------
def test_ldg_beats_hash_on_community_graph():
    graph = community_graph(num_communities=8, community_size=24, seed=2)
    hash_quality = evaluate_partition(
        graph, partition_static_graph(HashPartitioner(4), graph)
    )
    ldg = LDGPartitioner(4, expected_nodes=graph.num_nodes)
    ldg_quality = evaluate_partition(graph, partition_static_graph(ldg, graph))
    assert ldg_quality.edge_cut_fraction < hash_quality.edge_cut_fraction
    assert ldg.partitions_scanned >= graph.num_nodes * 4  # scans every partition
    with pytest.raises(ValueError):
        LDGPartitioner(4, expected_nodes=0)


# ----------------------------------------------------------------------
# Adaptive
# ----------------------------------------------------------------------
def test_adaptive_migration_improves_locality():
    graph = community_graph(num_communities=6, community_size=20, seed=4)
    partitioner = AdaptivePartitioner(4, imbalance_tolerance=1.3)
    for src, dst in graph.edges():
        partitioner.ingest_edge(src, dst)
    before = evaluate_partition(graph, partitioner.partition_map)
    moved = partitioner.converge(max_rounds=5)
    after = evaluate_partition(graph, partitioner.partition_map)
    assert moved > 0
    assert after.edge_cut_fraction < before.edge_cut_fraction
    assert partitioner.migrations == moved
    with pytest.raises(ValueError):
        AdaptivePartitioner(4, imbalance_tolerance=0.5)


# ----------------------------------------------------------------------
# Radical greedy
# ----------------------------------------------------------------------
def test_radical_greedy_follows_first_neighbor():
    partitioner = RadicalGreedyPartitioner(4)
    partitioner.ingest_edge(0, 1)   # both new: 0 by hash, 1 joins 0
    assert partitioner.partition_of(1) == partitioner.partition_of(0)
    partitioner.ingest_edge(2, 1)   # 2 joins 1's partition
    assert partitioner.partition_of(2) == partitioner.partition_of(1)
    assert partitioner.greedy_placements >= 2


def test_radical_greedy_capacity_constraint_limits_partition_growth():
    partitioner = RadicalGreedyPartitioner(4, capacity_factor=1.05)
    # A star insertion order that tries to put everything on one partition.
    for node in range(1, 200):
        partitioner.ingest_edge(node, 0)
    sizes = partitioner.partition_map.pim_sizes()
    assert load_imbalance(sizes) <= 1.6
    assert partitioner.fallback_placements > 0
    with pytest.raises(ValueError):
        RadicalGreedyPartitioner(4, capacity_factor=0.9)


def test_radical_greedy_preserves_locality_better_than_hash():
    graph = community_graph(num_communities=4, community_size=64, seed=6)
    greedy = RadicalGreedyPartitioner(4, capacity_factor=1.05)
    greedy_quality = evaluate_partition(graph, partition_static_graph(greedy, graph))
    hash_quality = evaluate_partition(
        graph, partition_static_graph(HashPartitioner(4), graph)
    )
    assert greedy_quality.locality_fraction > hash_quality.locality_fraction


def test_radical_greedy_migrate_moves_node():
    """A migration rewrites the placed node's entry in the map (the node
    migrator's move), sizes included."""
    partitioner = RadicalGreedyPartitioner(2)
    partitioner.assign_node(1)
    original = partitioner.partition_of(1)
    target = 1 - original
    partitioner.partition_map.assign(1, target)
    assert partitioner.partition_of(1) == target
    assert partitioner.partition_map.size(target) == 1
    assert partitioner.partition_map.size(original) == 0
    assert len(partitioner.partition_map) == 1


# ----------------------------------------------------------------------
# Labor division
# ----------------------------------------------------------------------
def test_labor_division_routes_hubs_to_host():
    inner = RadicalGreedyPartitioner(4)
    partitioner = LaborDivisionPartitioner(inner, high_degree_threshold=4)
    for dst in range(1, 10):
        partitioner.ingest_edge(0, dst)
    assert partitioner.partition_of(0) == HOST_PARTITION
    assert partitioner.promotions >= 1
    assert partitioner.is_high_degree(0)
    # Low-degree nodes stay on PIM modules.
    assert partitioner.partition_of(5) != HOST_PARTITION
    assert partitioner.pending_promotions() == 0


@settings(max_examples=80, deadline=None)
@given(
    placed=st.lists(st.integers(0, 30), max_size=20, unique=True),
    run=st.lists(st.integers(31, 70), max_size=40, unique=True),
    policy=st.sampled_from(["radical_greedy", "hash", "labor"]),
    data=st.data(),
)
def test_a_placement_run_places_like_one_assign_node_each(placed, run, policy, data):
    """A run sees the partitions, sizes and limits its earlier nodes left
    behind — on a map with host nodes and, under labor division, with
    high-degree nodes in the run."""
    targets = st.sampled_from(placed + run) if placed + run else st.none()
    neighbors = data.draw(
        st.lists(st.none() | targets, min_size=len(run), max_size=len(run))
    )

    def build():
        if policy == "hash":
            return HashPartitioner(3)
        partitioner = RadicalGreedyPartitioner(3, capacity_factor=1.0, min_capacity=2)
        if policy == "labor":
            partitioner = LaborDivisionPartitioner(partitioner, high_degree_threshold=2)
        for node in placed:
            partitioner.assign_node(node)
        if policy == "labor" and placed:
            partitioner.promote(placed[0])
            partitioner.observe(run[::3], [3] * len(run[::3]))
        return partitioner

    def state(partitioner):
        pmap = partitioner.partition_map
        inner = getattr(partitioner, "pim_partitioner", partitioner)
        return (
            [column.tolist() for column in pmap.freeze().table()],
            (pmap.pim_sizes(), pmap.host_size()),
            getattr(inner, "greedy_placements", None),
            getattr(inner, "fallback_placements", None),
        )

    bulk, single = build(), build()
    assert bulk.assign_nodes(run, neighbors) == [
        single.assign_node(node, neighbor) for node, neighbor in zip(run, neighbors)
    ]
    assert state(bulk) == state(single)


def test_labor_division_threshold_validation():
    with pytest.raises(ValueError):
        LaborDivisionPartitioner(RadicalGreedyPartitioner(2), high_degree_threshold=0)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def test_evaluate_partition_requires_full_assignment():
    graph = DiGraph.from_edges([(0, 1)])
    with pytest.raises(ValueError):
        evaluate_partition(graph, PartitionMap(2))


def test_evaluate_partition_simple_example():
    graph = DiGraph.from_edges([(0, 1), (1, 2), (2, 3)])
    pmap = PartitionMap(2)
    pmap.assign(0, 0)
    pmap.assign(1, 0)
    pmap.assign(2, 1)
    pmap.assign(3, HOST_PARTITION)
    quality = evaluate_partition(graph, pmap)
    assert quality.edge_cut_fraction == pytest.approx(1 / 3)
    assert quality.host_edge_fraction == pytest.approx(1 / 3)
    assert quality.host_nodes == 1


def test_load_imbalance_edge_cases():
    assert load_imbalance([]) == 1.0
    assert load_imbalance([0, 0]) == 1.0
    assert load_imbalance([10, 10, 10]) == pytest.approx(1.0)
    assert load_imbalance([30, 0, 0]) == pytest.approx(3.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=200))
def test_every_streaming_partitioner_assigns_every_node(num_partitions, seed):
    """Every node placed, and ``evaluate_partition`` counting the edges
    as the per-edge loop does."""
    graph = random_graph(80, 240, seed=seed)
    for partitioner in (
        HashPartitioner(num_partitions),
        RadicalGreedyPartitioner(num_partitions),
        LDGPartitioner(num_partitions, expected_nodes=graph.num_nodes or 1),
        LaborDivisionPartitioner(RadicalGreedyPartitioner(num_partitions), 4),
    ):
        pmap = partition_static_graph(partitioner, graph)
        assert len(pmap) == graph.num_nodes
        for node in graph.nodes():
            partition = pmap.partition_of(node)
            assert partition is not None
            assert partition == HOST_PARTITION or 0 <= partition < num_partitions
        total, cut, local, host = edge_counts(graph, placement(pmap))
        quality = evaluate_partition(graph, pmap)
        assert quality.edge_cut_fraction == cut / total
        assert quality.locality_fraction == local / total
        assert quality.host_edge_fraction == host / total
        assert quality.host_nodes == pmap.host_size()

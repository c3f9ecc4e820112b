"""Tests for the RedisGraph-like baseline and the PIM-hash contrast system."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Moctopus, MoctopusConfig
from repro.graph import DiGraph, random_graph
from repro.paper import PIMHashSystem, RedisGraphEngine
from repro.partition.base import HOST_PARTITION
from repro.pim import CostModel
from repro.rpq import KHopQuery, RPQuery, evaluate_khop, evaluate_rpq, random_source_batch


# ----------------------------------------------------------------------
# RedisGraph-like engine
# ----------------------------------------------------------------------
def test_redisgraph_loads_and_answers_khop(tiny_graph):
    engine = RedisGraphEngine.from_graph(tiny_graph)
    assert engine.num_nodes == tiny_graph.num_nodes
    assert engine.num_edges == tiny_graph.num_edges
    sources = [2, 3]
    result, stats = engine.batch_khop(sources, hops=2)
    reference = evaluate_khop(tiny_graph, KHopQuery(hops=2, sources=sources))
    assert result == reference
    assert stats.host_time > 0
    assert stats.pim_time == 0 and stats.ipc_time == 0 and stats.cpc_time == 0


def test_redisgraph_rpq_matches_reference(small_community):
    engine = RedisGraphEngine.from_graph(small_community)
    sources = random_source_batch(list(small_community.nodes()), 4, seed=6)
    query = RPQuery(".{2}", sources)
    result, _ = engine.execute(query)
    assert result == evaluate_rpq(small_community, query)
    kleene = RPQuery(".+", sources[:2])
    result, _ = engine.execute(kleene)
    assert result == evaluate_rpq(small_community, kleene)
    with pytest.raises(TypeError):
        engine.execute("nope")


def test_redisgraph_labeled_rpq():
    graph = DiGraph()
    graph.add_edge(0, 1, label=1)
    graph.add_edge(1, 2, label=2)
    graph.add_edge(0, 2, label=2)
    labels = {1: "a", 2: "b"}
    engine = RedisGraphEngine.from_graph(graph, label_names=labels)
    result, _ = engine.execute(RPQuery("a/b", [0]))
    assert result.destinations == [{2}]


def test_redisgraph_updates_change_data_and_charge_host_only(tiny_graph):
    engine = RedisGraphEngine.from_graph(tiny_graph)
    stats = engine.insert_edges([(9, 0), (9, 1), (9, 0)])
    assert engine.has_edge(9, 0) and engine.has_edge(9, 1)
    assert stats.host_time > 0 and stats.cpc_time == 0
    assert stats.counters["updates"] == 3
    delete_stats = engine.delete_edges([(9, 0), (42, 42)])
    assert not engine.has_edge(9, 0)
    assert delete_stats.host_time > 0
    assert engine.next_hops(9) == [1]


def test_redisgraph_working_set_controls_access_cost():
    graph = random_graph(200, 2000, seed=3)
    sources = random_source_batch(list(graph.nodes()), 16, seed=0)
    small_cache = RedisGraphEngine.from_graph(graph, cost_model=CostModel(host_llc_bytes=1024))
    big_cache = RedisGraphEngine.from_graph(graph, cost_model=CostModel(host_llc_bytes=1 << 30))
    _, slow = small_cache.batch_khop(sources, hops=2)
    _, fast = big_cache.batch_khop(sources, hops=2)
    assert slow.total_time > fast.total_time


# ----------------------------------------------------------------------
# PIM-hash system
# ----------------------------------------------------------------------
def test_pim_hash_uses_hash_partitioning_and_no_host(small_power_law):
    system = PIMHashSystem.from_graph(
        small_power_law, MoctopusConfig(cost_model=CostModel(num_modules=8))
    )
    assert system.host_node_count() == 0
    for node in small_power_law.high_degree_nodes(16):
        assert system.partition_of(node) != HOST_PARTITION
    assert system.partition_statistics()["greedy_placements"] == 0


def test_pim_hash_results_match_reference(small_power_law):
    system = PIMHashSystem.from_graph(
        small_power_law, MoctopusConfig(cost_model=CostModel(num_modules=8))
    )
    sources = random_source_batch(list(small_power_law.nodes()), 12, seed=7)
    result, stats = system.batch_khop(sources, hops=2)
    reference = evaluate_khop(small_power_law, KHopQuery(hops=2, sources=sources))
    assert result == reference
    assert stats.pim_time > 0


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=500))
def test_all_three_engines_agree(seed):
    graph = random_graph(50, 200, seed=seed)
    sources = random_source_batch(list(graph.nodes()), 6, seed=seed)
    cost_model = CostModel(num_modules=4)
    moctopus = Moctopus.from_graph(graph, MoctopusConfig(cost_model=cost_model))
    pim_hash = PIMHashSystem.from_graph(graph, MoctopusConfig(cost_model=cost_model))
    redis = RedisGraphEngine.from_graph(graph, cost_model=cost_model)
    for hops in (1, 2):
        expected = evaluate_khop(graph, KHopQuery(hops=hops, sources=sources))
        assert moctopus.batch_khop(sources, hops)[0] == expected
        assert pim_hash.batch_khop(sources, hops)[0] == expected
        assert redis.batch_khop(sources, hops)[0] == expected

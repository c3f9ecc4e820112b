"""Integration tests: the three engines on realistic end-to-end scenarios."""

from __future__ import annotations

import pytest

from repro.core import Moctopus, MoctopusConfig
from repro.graph import DiGraph, UpdateStream, load_dataset
from repro.paper import PIMHashSystem, RedisGraphEngine
from repro.pim import CostModel
from repro.rpq import KHopQuery, RPQuery, evaluate_khop, evaluate_rpq, random_source_batch


COST_MODEL = CostModel(num_modules=8)


def test_figure2_routing_scenario_end_to_end():
    """The paper's Figure 2: batch 2-hop query over a routing graph."""
    network = DiGraph()
    node_of_ip = {}
    for node_id in range(10):
        network.add_node(node_id)
        node_of_ip[f"127.0.0.{node_id}"] = node_id
    for src, dst in [(0, 1), (1, 2), (2, 5), (5, 6), (5, 8), (2, 3), (3, 6),
                     (2, 4), (4, 9), (6, 9), (7, 8), (8, 7), (9, 0)]:
        network.add_edge(src, dst)

    system = Moctopus.from_graph(network, MoctopusConfig(cost_model=COST_MODEL))
    # UNWIND ['127.0.0.2', '127.0.0.3'] AS ip MATCH ({ip})-[2]->(t)
    sources = [node_of_ip[ip] for ip in ("127.0.0.2", "127.0.0.3")]
    result, stats = system.batch_khop(sources, hops=2)
    # The paper's stated answer: 127.0.0.2 reaches nodes 6, 8, 9 and
    # 127.0.0.3 reaches node 9 in exactly two hops.
    assert result.destinations_of(0) == {6, 8, 9}
    assert result.destinations_of(1) == {9}
    assert result == evaluate_khop(network, KHopQuery(hops=2, sources=sources))
    assert stats.total_time > 0


def test_dynamic_graph_scenario_consistency():
    """Load a dataset, interleave queries and updates, check all engines agree."""
    graph = load_dataset("com-amazon", scale=0.2)
    moctopus = Moctopus.from_graph(graph, MoctopusConfig(cost_model=COST_MODEL))
    pim_hash = PIMHashSystem.from_graph(graph, MoctopusConfig(cost_model=COST_MODEL))
    redis = RedisGraphEngine.from_graph(graph, cost_model=COST_MODEL)
    stream = UpdateStream(graph, seed=13)

    for round_index in range(3):
        inserts = [op.edge for op in stream.insertion_batch(20)]
        deletes = [op.edge for op in stream.deletion_batch(20)]
        for engine in (moctopus, pim_hash):
            engine.insert_edges(inserts)
            engine.delete_edges(deletes)
        redis.insert_edges(inserts)
        redis.delete_edges(deletes)

        sources = random_source_batch(list(moctopus.graph.nodes()), 12,
                                      seed=round_index)
        expected = evaluate_khop(
            moctopus.graph, KHopQuery(hops=2, sources=sources)
        )
        assert moctopus.batch_khop(sources, 2)[0] == expected
        assert pim_hash.batch_khop(sources, 2)[0] == expected
        assert redis.batch_khop(sources, 2)[0] == expected

    # The three stores hold the same edge set at the end.
    assert moctopus.num_edges == pim_hash.num_edges == redis.num_edges


def test_rpq_agreement_on_labeled_knowledge_graph():
    """A small labeled graph queried with several path expressions."""
    labels = {"knows": 1, "works_at": 2, "part_of": 3}
    adjacency = DiGraph()
    for index in range(8):  # people 0-3, organisations 4-7
        adjacency.add_node(index)
    edges = [
        (0, 1, "knows"), (1, 2, "knows"), (2, 3, "knows"), (3, 0, "knows"),
        (0, 4, "works_at"), (1, 4, "works_at"), (2, 5, "works_at"),
        (4, 6, "part_of"), (5, 6, "part_of"), (6, 7, "part_of"),
    ]
    for src, dst, label in edges:
        adjacency.add_edge(src, dst, labels[label])
    label_names = {label: name for name, label in labels.items()}

    moctopus = Moctopus.from_graph(
        adjacency, MoctopusConfig(cost_model=COST_MODEL), label_names=label_names
    )
    redis = RedisGraphEngine.from_graph(adjacency, label_names=label_names)

    expressions = [
        "knows",
        "knows/knows",
        "knows+",
        "knows*/works_at",
        "works_at/part_of+",
        "(knows|works_at){2}",
    ]
    for expression in expressions:
        query = RPQuery(expression, sources=[0, 1])
        expected = evaluate_rpq(adjacency, query, label_names=label_names)
        assert moctopus.execute(query)[0] == expected, expression
        assert redis.execute(query)[0] == expected, expression


def test_cost_breakdown_structure_is_consistent():
    """Latency components always add up and PIM systems actually use PIM."""
    graph = load_dataset("web-NotreDame", scale=0.2)
    moctopus = Moctopus.from_graph(graph, MoctopusConfig(cost_model=COST_MODEL))
    sources = random_source_batch(list(graph.nodes()), 32, seed=3)
    _, stats = moctopus.batch_khop(sources, hops=3)
    assert stats.total_time == pytest.approx(
        stats.host_time + stats.cpc_time + stats.ipc_time + stats.pim_time
    )
    assert stats.pim_time > 0
    assert stats.cpc.bytes_moved > 0
    assert len(stats.phase_pim_times) >= 4  # dispatch + 3 hops (+ mwait)
    assert stats.counters["results"] >= 0
    assert stats.counters["batch_size"] == 32

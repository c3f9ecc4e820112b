"""Tests for the synthetic generators and the Table 1 dataset registry."""

from __future__ import annotations

import pytest

from repro.graph import (
    DATASETS,
    HIGH_DEGREE_THRESHOLD,
    community_graph,
    dataset_spec,
    dataset_statistics,
    list_datasets,
    load_dataset,
    power_law_graph,
    random_graph,
    road_network,
    road_network_specs,
)


def test_road_network_has_no_high_degree_nodes():
    graph = road_network(rows=20, cols=20, seed=1)
    assert graph.num_nodes == 400
    assert graph.high_degree_fraction(HIGH_DEGREE_THRESHOLD) == 0.0
    # Roads are bidirectional.
    assert graph.has_edge(0, 1) and graph.has_edge(1, 0)


def test_power_law_graph_is_skewed():
    graph = power_law_graph(num_nodes=800, edges_per_node=4, skew=0.9, seed=2)
    fraction = graph.high_degree_fraction(HIGH_DEGREE_THRESHOLD)
    assert 0.0 < fraction < 0.2
    histogram = graph.degree_histogram()
    assert max(histogram) > 3 * (graph.num_edges / graph.num_nodes)


def test_power_law_rejects_bad_arguments():
    with pytest.raises(ValueError):
        power_law_graph(num_nodes=1)
    with pytest.raises(ValueError):
        power_law_graph(num_nodes=10, reciprocity=1.5)


def test_community_graph_keeps_edges_mostly_internal():
    graph = community_graph(num_communities=6, community_size=20,
                            inter_edge_fraction=0.02, seed=3)
    internal = 0
    for src, dst in graph.edges():
        if src // 20 == dst // 20:
            internal += 1
    assert internal / graph.num_edges > 0.8


def test_random_graph_is_deterministic_per_seed():
    a = random_graph(100, 300, seed=5)
    b = random_graph(100, 300, seed=5)
    c = random_graph(100, 300, seed=6)
    assert sorted(a.edges()) == sorted(b.edges())
    assert sorted(a.edges()) != sorted(c.edges())


def test_registry_matches_table1():
    specs = list_datasets()
    assert len(specs) == 15
    assert [spec.trace_id for spec in specs] == list(range(1, 16))
    assert dataset_spec("roadNet-CA").trace_id == 1
    assert dataset_spec(8).name == "wiki-Talk"
    # Road networks report 0% high-degree nodes in Table 1.
    for spec in road_network_specs():
        assert spec.paper_high_degree_pct == 0.0
        assert spec.is_road_network
    # The paper's highly skewed traces.
    assert {spec.trace_id for spec in specs if spec.is_skewed} == {5, 6, 8, 11, 12}


def test_registry_rejects_unknown_identifiers():
    with pytest.raises(KeyError):
        dataset_spec(42)
    with pytest.raises(KeyError):
        dataset_spec("not-a-dataset")


def test_load_dataset_is_deterministic_and_scalable():
    small = load_dataset(6, scale=0.25)
    again = load_dataset(6, scale=0.25)
    larger = load_dataset(6, scale=0.5)
    assert sorted(small.edges()) == sorted(again.edges())
    assert larger.num_nodes > small.num_nodes
    with pytest.raises(ValueError):
        load_dataset(6, scale=0)


def test_road_traces_have_zero_high_degree_nodes_when_generated():
    graph = load_dataset(1, scale=0.1)
    stats = dataset_statistics(graph)
    assert stats["high_degree_pct"] == 0.0


def test_skewed_traces_have_high_degree_nodes_when_generated():
    for trace_id in (6, 12):
        graph = load_dataset(trace_id, scale=0.5)
        stats = dataset_statistics(graph)
        assert stats["high_degree_pct"] > 0.5


def test_relative_sizes_follow_table1_ordering():
    sizes = {spec.trace_id: spec.base_nodes for spec in DATASETS}
    # cit-patents is the largest trace, com-DBLP class graphs the smallest.
    assert sizes[4] == max(sizes.values())
    assert sizes[4] > sizes[1] > sizes[6]

"""Unit tests for the directed graph substrate."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import DiGraph


def test_add_edge_registers_nodes_lazily():
    graph = DiGraph()
    assert graph.add_edge(1, 2) is True
    assert graph.has_node(1) and graph.has_node(2)
    assert graph.num_nodes == 2
    assert graph.num_edges == 1


def test_duplicate_edge_is_not_counted_twice():
    graph = DiGraph()
    assert graph.add_edge(1, 2) is True
    assert graph.add_edge(1, 2) is False
    assert graph.num_edges == 1


def test_duplicate_edge_refreshes_label():
    graph = DiGraph()
    graph.add_edge(1, 2, label=3)
    graph.add_edge(1, 2, label=5)
    assert graph.edge_label(1, 2) == 5


def test_remove_edge_updates_degrees():
    graph = DiGraph.from_edges([(1, 2), (1, 3), (2, 3)])
    assert graph.remove_edge(1, 2) is True
    assert graph.remove_edge(1, 2) is False
    assert graph.out_degree(1) == 1
    assert graph.num_edges == 2


def test_first_neighbor_preserves_insertion_order():
    graph = DiGraph()
    graph.add_edge(1, 9)
    graph.add_edge(1, 2)
    graph.add_edge(1, 5)
    assert graph.first_neighbor(1) == 9
    assert graph.first_neighbor(7) is None


def test_successors_in_insertion_order():
    graph = DiGraph()
    graph.add_edge(0, 3)
    graph.add_edge(0, 1)
    graph.add_edge(0, 2)
    assert graph.successors(0) == [3, 1, 2]


def test_high_degree_classification():
    graph = DiGraph()
    for dst in range(1, 20):
        graph.add_edge(0, dst)
    graph.add_edge(1, 0)
    assert graph.high_degree_nodes(16) == {0}
    assert graph.high_degree_fraction(16) == pytest.approx(1 / 20)
    assert graph.high_degree_nodes(19) == set()


def test_degree_histogram():
    graph = DiGraph.from_edges([(0, 1), (0, 2), (1, 2)])
    histogram = graph.degree_histogram()
    assert histogram == {2: 1, 1: 1, 0: 1}


def test_copy_is_independent():
    graph = DiGraph.from_edges([(0, 1), (1, 2)])
    clone = graph.copy()
    clone.add_edge(2, 0)
    assert graph.num_edges == 2
    assert clone.num_edges == 3


def test_labeled_edges_roundtrip():
    edges = [(0, 1, 2), (1, 2, 3), (2, 0, 2)]
    graph = DiGraph()
    for src, dst, label in edges:
        graph.add_edge(src, dst, label)
    assert sorted(graph.labeled_edges()) == sorted(edges)


def test_contains_and_len():
    graph = DiGraph(num_nodes=4)
    assert 3 in graph
    assert 4 not in graph
    assert len(graph) == 4


@st.composite
def edge_lists(draw):
    num_nodes = draw(st.integers(min_value=2, max_value=30))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=num_nodes - 1),
                st.integers(min_value=0, max_value=num_nodes - 1),
            ),
            max_size=120,
        )
    )
    return [(src, dst) for src, dst in edges if src != dst]


@settings(max_examples=50, deadline=None)
@given(edge_lists())
def test_edge_count_matches_distinct_edges(edges):
    graph = DiGraph.from_edges(edges)
    assert graph.num_edges == len(set(edges))


@settings(max_examples=50, deadline=None)
@given(edge_lists())
def test_degree_sums_equal_edge_count(edges):
    graph = DiGraph.from_edges(edges)
    out_total = sum(graph.out_degree(node) for node in graph.nodes())
    assert out_total == graph.num_edges

"""Tests for edge-list IO, edge tables and update streams."""

from __future__ import annotations

import dataclasses
import multiprocessing
import pickle

import numpy as np
import pytest

from repro.core import Moctopus
from repro.graph import (
    DiGraph,
    UpdateKind,
    UpdateOp,
    UpdateStream,
    community_graph,
    iter_edge_list,
    power_law_graph,
    random_graph,
    read_edge_list,
    road_network,
    write_edge_list,
)
from repro.graph.io import write_edges
from repro.graph.stream import edge_table


def test_edge_list_roundtrip(tmp_path):
    graph = DiGraph.from_edges([(0, 1), (1, 2), (2, 0), (3, 1)])
    path = tmp_path / "graph.txt"
    written = write_edge_list(graph, path, header="test graph")
    assert written == 4
    loaded = read_edge_list(path)
    assert sorted(loaded.edges()) == sorted(graph.edges())
    text = path.read_text()
    assert text.startswith("# test graph")


def test_iter_edge_list_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "snap.txt"
    path.write_text("# SNAP header\n\n0\t1\n1 2 999\n# trailing comment\n2 0\n")
    assert list(iter_edge_list(path)) == [(0, 1), (1, 2), (2, 0)]


def test_iter_edge_list_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("42\n")
    with pytest.raises(ValueError):
        list(iter_edge_list(path))


def test_write_edges_plain(tmp_path):
    path = tmp_path / "edges.txt"
    count = write_edges([(1, 2), (3, 4)], path)
    assert count == 2
    assert list(iter_edge_list(path)) == [(1, 2), (3, 4)]


def _assert_table_is_labeled_edges(graph) -> None:
    table = edge_table(graph)
    assert table.dtype == np.int64
    assert table.shape == (graph.num_edges, 3)
    assert not table.flags.writeable
    assert table.tolist() == [list(edge) for edge in graph.labeled_edges()]


def _relabelled(graph: DiGraph) -> DiGraph:
    """``graph`` with varied labels and a removed edge, order intact."""
    edges = list(graph.edges())
    for index, (src, dst) in enumerate(edges[::5]):
        graph.add_edge(src, dst, 1 + index % 3)
    graph.remove_edge(*edges[1])
    return graph


@pytest.mark.parametrize(
    "build",
    [
        lambda: road_network(6, 7, extra_edge_fraction=0.2, seed=1),
        lambda: power_law_graph(300, edges_per_node=3, skew=0.8, seed=2),
        lambda: community_graph(4, 25, hub_fraction=0.05, seed=3),
        lambda: random_graph(80, 400, seed=4),
    ],
    ids=["road_network", "power_law_graph", "community_graph", "random_graph"],
)
def test_edge_table_is_labeled_edges_row_for_row(build):
    _assert_table_is_labeled_edges(_relabelled(build()))


def test_edge_table_of_a_read_edge_list(tmp_path):
    path = tmp_path / "snap.txt"
    path.write_text("# SNAP header\n5\t1\n1 2 999\n5 0\n2 5\n1 0\n")
    graph = read_edge_list(path)
    assert edge_table(graph).tolist() == [[5, 1, 0], [5, 0, 0], [1, 2, 0], [1, 0, 0], [2, 5, 0]]
    _assert_table_is_labeled_edges(graph)
    _assert_table_is_labeled_edges(DiGraph())


def test_edge_table_of_a_loaded_system_view():
    """Any readable graph converts through its edge iterator."""
    system = Moctopus.from_graph(_relabelled(power_law_graph(200, seed=5)))
    _assert_table_is_labeled_edges(system.graph)
    _assert_table_is_labeled_edges(Moctopus().graph)


def test_insertion_batch_avoids_existing_edges():
    graph = DiGraph.from_edges([(i, (i + 1) % 50) for i in range(50)])
    stream = UpdateStream(graph, seed=1)
    batch = stream.insertion_batch(40)
    assert len(batch) == 40
    for op in batch:
        assert op.kind is UpdateKind.INSERT
        assert not graph.has_edge(op.src, op.dst)
        assert op.src != op.dst


def test_insertion_batch_requires_nonempty_graph():
    with pytest.raises(ValueError):
        UpdateStream(DiGraph()).insertion_batch(4)


def test_deletion_batch_samples_existing_edges():
    graph = DiGraph.from_edges([(i, (i + 1) % 30) for i in range(30)])
    stream = UpdateStream(graph, seed=2)
    batch = stream.deletion_batch(10)
    assert len(batch) == 10
    assert len({op.edge for op in batch}) == 10
    for op in batch:
        assert op.kind is UpdateKind.DELETE
        assert graph.has_edge(op.src, op.dst)


def test_deletion_batch_is_capped_at_edge_count():
    graph = DiGraph.from_edges([(0, 1), (1, 2)])
    batch = UpdateStream(graph, seed=3).deletion_batch(10)
    assert len(batch) == 2


def test_mixed_batch_composition():
    graph = DiGraph.from_edges([(i, (i + 1) % 40) for i in range(40)])
    stream = UpdateStream(graph, seed=4)
    batch = stream.mixed_batch(20, insert_fraction=0.5)
    kinds = [op.kind for op in batch]
    assert kinds.count(UpdateKind.INSERT) == 10
    assert kinds.count(UpdateKind.DELETE) == 10
    with pytest.raises(ValueError):
        stream.mixed_batch(10, insert_fraction=1.5)


def test_update_stream_is_deterministic():
    graph = DiGraph.from_edges([(i, (i + 1) % 40) for i in range(40)])
    a = UpdateStream(graph, seed=5).insertion_batch(8)
    b = UpdateStream(graph, seed=5).insertion_batch(8)
    assert [op.edge for op in a] == [op.edge for op in b]


def test_update_op_is_slotted_hashable_and_picklable():
    """``UpdateOp`` carries no ``__dict__`` (scripts hold 10^5 of them)
    and still behaves as a frozen value through every transport."""
    op = UpdateOp(UpdateKind.INSERT, 3, 9)
    assert not hasattr(op, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.src = 4
    with pytest.raises((AttributeError, TypeError)):
        op.extra = 1
    same, other = UpdateOp(UpdateKind.INSERT, 3, 9), UpdateOp(UpdateKind.DELETE, 3, 9)
    assert op == same and hash(op) == hash(same) and op != other
    assert len({op, same, other}) == 2 and op.edge == (3, 9)
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps([op, other], protocol=protocol))
        assert clone == [op, other] and clone[0].kind is UpdateKind.INSERT
    # The worker pool's task path: a multiprocessing queue.
    queue = multiprocessing.Queue()
    try:
        queue.put(("exec", 0, [op, other]))
        assert queue.get(timeout=10) == ("exec", 0, [op, other])
    finally:
        queue.close()
        queue.join_thread()

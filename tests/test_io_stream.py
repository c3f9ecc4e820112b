"""Tests for edge-list IO and update streams."""

from __future__ import annotations

import dataclasses
import multiprocessing
import pickle

import pytest

from repro.graph import (
    DiGraph,
    UpdateKind,
    UpdateOp,
    UpdateStream,
    iter_edge_list,
    read_edge_list,
    write_edge_list,
)
from repro.graph.io import write_edges


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

"""Tests for the batch update path: the requeue index, promotions
mid-batch, input validation and the absolute accounting record."""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro.core import Moctopus, MoctopusConfig
from repro.core.update_processor import _PendingBatch
from repro.graph import DiGraph
from repro.graph.stream import UpdateKind, UpdateOp
from repro.partition.base import HOST_PARTITION
from repro.pim import CostModel

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
sys.path.insert(0, DATA)
import make_update_golden  # noqa: E402

INSERT, DELETE = UpdateKind.INSERT, UpdateKind.DELETE


# ----------------------------------------------------------------------
# _PendingBatch (the per-source requeue index)
# ----------------------------------------------------------------------
def test_pending_batch_requeue_is_per_source():
    pending = _PendingBatch()
    pending.queue(0, (INSERT, 1, 10, 0))
    pending.queue(0, (INSERT, 2, 20, 0))
    pending.queue(0, (INSERT, 1, 11, 3))
    pending.queue(0, (DELETE, 1, 12, 0))
    pending.queue(0, (DELETE, 3, 30, 0))
    requeued = pending.requeue_source(1, module=0)
    # src 1's entries come back in batch order; others are untouched.
    assert requeued == [(INSERT, 1, 10, 0), (INSERT, 1, 11, 3), (DELETE, 1, 12, 0)]
    module_ops = pending.finalize()
    entries, has_adds, has_subs = module_ops[0]
    assert entries == [(INSERT, 2, 20, 0), (DELETE, 3, 30, 0)]
    assert has_adds and has_subs


def test_pending_batch_keeps_emptied_module_operator():
    """A module whose whole payload was requeued still gets an operator:
    the update path dispatches (and charges a kernel launch for) an
    operator to every module that had entries queued, even if a
    promotion drained them all."""
    pending = _PendingBatch()
    pending.queue(2, (INSERT, 7, 70, 0))
    pending.requeue_source(7, module=2)
    module_ops = pending.finalize()
    assert module_ops == {2: ([], True, False)}


def test_pending_batch_requeue_of_unknown_source_is_empty():
    pending = _PendingBatch()
    pending.queue(0, (INSERT, 1, 10, 0))
    assert pending.requeue_source(99, module=0) == []
    assert pending.requeue_source(1, module=5) == []


# ----------------------------------------------------------------------
# Promotions mid-batch (requeue through the real update path)
# ----------------------------------------------------------------------
def promotion_system(engine="python", threshold=4):
    """``engine`` picks the query kernel the tests read the result back
    through; the update path is the same whatever it says."""
    graph = DiGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
    config = MoctopusConfig(
        cost_model=CostModel(num_modules=4),
        high_degree_threshold=threshold,
        engine=engine,
    )
    return Moctopus.from_graph(graph, config)


@pytest.mark.parametrize("engine", ["python", "vectorized", "matrix"])
def test_multiple_promotions_in_one_batch(engine):
    """Two sources crossing the threshold in the same batch both requeue."""
    system = promotion_system(engine=engine)
    assert system.partition_of(0) != HOST_PARTITION
    assert system.partition_of(1) != HOST_PARTITION
    edges = []
    for dst in range(10, 15):
        edges.append((0, dst))
        edges.append((1, dst + 10))
    stats = system.insert_edges(edges)
    assert stats.counters["updates"] == len(edges)
    # Both sources ended up promoted, with every inserted edge applied
    # exactly once (requeued entries must not double-apply).
    assert system.partition_of(0) == HOST_PARTITION
    assert system.partition_of(1) == HOST_PARTITION
    assert system._partitioner.promotions() == 2
    for src, dst in edges:
        assert system.has_edge(src, dst)
        assert system._host_storage.has_edge(src, dst)
    result, _ = system.batch_khop([0, 1], hops=1)
    assert result.destinations_of(0) == set(system.graph.successors(0))
    assert result.destinations_of(1) == set(system.graph.successors(1))


@pytest.mark.parametrize("engine", ["python", "vectorized", "matrix"])
def test_promotion_requeues_pending_deletes_too(engine):
    system = promotion_system(engine=engine)
    ops = [UpdateOp(UpdateKind.DELETE, 0, 1)]  # queued for 0's module first
    ops += [UpdateOp(UpdateKind.INSERT, 0, dst) for dst in range(20, 25)]
    system.apply_updates(ops)
    assert system.partition_of(0) == HOST_PARTITION
    assert not system.has_edge(0, 1)  # the requeued delete was applied
    for dst in range(20, 25):
        assert system.has_edge(0, dst)
    result, _ = system.batch_khop([0], hops=1)
    assert result.destinations_of(0) == set(range(20, 25))


@pytest.mark.parametrize("engine", ["python", "vectorized", "matrix"])
def test_same_edge_delete_then_insert_in_one_batch(engine):
    """A batch replays sequentially per edge: the last op wins.

    Regression test: applying whole ``add`` operators before ``sub``
    operators used to resolve [DELETE e, DELETE e, INSERT e] to *absent*
    (the insert landed first and the deletes erased it).
    """
    graph = DiGraph.from_edges([(0, 1), (0, 2), (3, 0)])
    config = MoctopusConfig(cost_model=CostModel(num_modules=4), engine=engine)
    system = Moctopus.from_graph(graph, config)
    system.apply_updates(
        [
            UpdateOp(UpdateKind.DELETE, 0, 1),
            UpdateOp(UpdateKind.DELETE, 0, 1),
            UpdateOp(UpdateKind.INSERT, 0, 1),
        ]
    )
    assert system.has_edge(0, 1)
    result, _ = system.batch_khop([0], hops=1)
    assert result.destinations_of(0) == {1, 2}
    assert 1 in set(system.graph.successors(0))

    system.apply_updates(
        [
            UpdateOp(UpdateKind.INSERT, 0, 9),
            UpdateOp(UpdateKind.DELETE, 0, 9),
        ]
    )
    assert not system.has_edge(0, 9)


def test_mixed_batch_stats_match_insert_then_delete_state():
    """apply_updates on a mixed stream leaves the same graph as the parts."""
    system = promotion_system()
    ops = [
        UpdateOp(UpdateKind.INSERT, 2, 40),
        UpdateOp(UpdateKind.DELETE, 2, 3),
        UpdateOp(UpdateKind.INSERT, 5, 2),
        UpdateOp(UpdateKind.DELETE, 3, 0),
    ]
    system.apply_updates(ops)
    assert system.has_edge(2, 40)
    assert not system.has_edge(2, 3)
    assert system.has_edge(5, 2)
    assert not system.has_edge(3, 0)


# ----------------------------------------------------------------------
# A labels list that does not match the batch is rejected before
# anything moves
# ----------------------------------------------------------------------
SHORT_LABELS_EDGES = [(0, 100), (1, 101), (2, 102)]


@pytest.mark.parametrize("labels", [[7], [], [1, 2, 3, 4]])
def test_mismatched_labels_leave_a_memory_only_system_untouched(labels):
    system = promotion_system()
    placement = dict(system._partitioner.partition_map.items())
    num_nodes, epoch_id = system.num_nodes, system.current_epoch_id
    with pytest.raises(ValueError, match="labels"):
        system.insert_edges(SHORT_LABELS_EDGES, labels=labels)
    assert dict(system._partitioner.partition_map.items()) == placement
    assert system.num_nodes == num_nodes
    assert system.current_epoch_id == epoch_id
    assert system._update_processor.batches_applied == 0
    # The same batch with matching labels goes through.
    system.insert_edges(SHORT_LABELS_EDGES, labels=[7, 8, 9])
    assert system.graph.edge_label(1, 101) == 8


def test_mismatched_labels_are_rejected_before_the_write_ahead_point(tmp_path):
    graph = DiGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
    config = MoctopusConfig(
        cost_model=CostModel(num_modules=4),
        durability_dir=str(tmp_path / "durable"),
        checkpoint_interval_batches=0,
    )
    system = Moctopus.from_graph(graph, config)
    try:
        durable_lsn = system.durable_lsn
        for labels in ([7], []):
            with pytest.raises(ValueError, match="labels"):
                system.insert_edges(SHORT_LABELS_EDGES, labels=labels)
        assert system.durable_lsn == durable_lsn
        assert system._durability.failed is None
        assert system.num_nodes == 4
        system.insert_edges(SHORT_LABELS_EDGES, labels=[7, 8, 9])
        assert system.durable_lsn == durable_lsn + 1
    finally:
        system.close()


def test_mismatched_labels_stage_nothing_in_a_session():
    system = promotion_system()
    with system.begin() as session:
        with pytest.raises(ValueError, match="labels"):
            session.insert_edges(SHORT_LABELS_EDGES, labels=[7])
        assert session._ops == []
        assert session.commit() is None
    assert system.num_nodes == 4


# ----------------------------------------------------------------------
# A negative node id is rejected before anything moves
# ----------------------------------------------------------------------
NEGATIVE_EDGES = [(-3, 2), (7, -5)]


def test_negative_ids_are_rejected_before_the_write_ahead_point(tmp_path):
    """Accepted, they wrapped around the dense owner table: a later
    ``batch_khop`` answered differently per engine."""
    graph = DiGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (5, 6)])
    config = MoctopusConfig(
        cost_model=CostModel(num_modules=4),
        durability_dir=str(tmp_path / "durable"),
        checkpoint_interval_batches=0,
    )
    system = Moctopus.from_graph(graph, config)
    try:
        durable_lsn = system.durable_lsn
        placement = dict(system._partitioner.partition_map.items())
        for write in (
            lambda: system.insert_edges(NEGATIVE_EDGES),
            lambda: system.delete_edges([(0, -1)]),
            lambda: system.apply_updates([UpdateOp(INSERT, 1, -9)]),
        ):
            with pytest.raises(ValueError, match="non-negative"):
                write()
        assert system.durable_lsn == durable_lsn
        assert system._durability.failed is None
        assert dict(system._partitioner.partition_map.items()) == placement
        assert system._update_processor.batches_applied == 0
        result, _ = system.batch_khop([7, -3, 5], 1)
        assert [sorted(row) for row in result.destinations] == [[], [], [6]]
    finally:
        system.close()


def test_negative_ids_stage_nothing_in_a_session():
    system = promotion_system()
    with system.begin() as session:
        with pytest.raises(ValueError, match="non-negative"):
            session.insert_edges(NEGATIVE_EDGES)
        with pytest.raises(ValueError, match="non-negative"):
            session.delete_edges([(0, -1)])
        with pytest.raises(ValueError, match="non-negative"):
            session.apply_updates([UpdateOp(INSERT, 0, 1), UpdateOp(DELETE, -4, 0)])
        assert session._ops == []
        assert session.commit() is None
    assert system.num_nodes == 4


# ----------------------------------------------------------------------
# The absolute accounting record
# ----------------------------------------------------------------------
def test_update_accounting_matches_the_recorded_golden():
    """Every charge of the update path, pinned exactly.

    ``tests/data/update_golden.json`` was recorded by
    ``tests/data/make_update_golden.py`` at the last commit that had a
    second (array) partitioner, after the script was shown equal under
    both; with nothing left to compare against, the record is absolute:
    per-batch time breakdown, counters, CPC bytes and per-phase module
    times, then the final placement and row contents.
    """
    with open(os.path.join(DATA, "update_golden.json")) as handle:
        golden = json.load(handle)
    system = make_update_golden.build_system()
    recorded = make_update_golden.record(system)
    assert len(recorded["batches"]) == 40
    for index, (got, want) in enumerate(zip(recorded["batches"], golden["batches"])):
        assert got == want, f"batch {index} diverged from the record"
    assert recorded == golden
    # The script really walks the rules it was written for: both
    # crossers promote in batch 1 and the fresh hub within batch 3.
    promotions = [batch["promotions"] for batch in golden["batches"]]
    assert promotions[1] - promotions[0] == 2
    assert promotions[3] - promotions[2] == 1
    for crosser in make_update_golden.CROSSERS + (make_update_golden.FRESH_HUB,):
        assert system.partition_of(crosser) == HOST_PARTITION
    assert system.partition_of(99_999) is None

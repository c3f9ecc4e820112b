"""Tests for the scalar ``smxm`` loop and the per-module operator processor."""

from __future__ import annotations

from repro.core.local_storage import BYTES_PER_ENTRY, LocalGraphStorage
from repro.core.operator_processor import OperatorProcessor, smxm
from repro.graph.stream import UpdateKind
from repro.rpq import build_dfa


def make_storage() -> LocalGraphStorage:
    storage = LocalGraphStorage()
    storage.add_edge(1, 2)
    storage.add_edge(1, 3)
    storage.add_edge(2, 3)
    storage.add_edge(3, 4)
    return storage


def test_smxm_expands_local_rows_and_counts_work():
    produced, work = smxm({1: {0, 7}, 2: {0}}, make_storage())
    assert produced[2] == {0, 7}
    assert produced[3] == {0, 7}
    assert work.rows_touched == 2
    assert work.bytes_streamed == 3 * BYTES_PER_ENTRY
    # row 1 has 2 next hops x 2 contexts, row 2 has 1 next hop x 1 context.
    assert work.items_processed == 5


def test_smxm_missing_row_produces_nothing():
    produced, work = smxm({99: {0}}, make_storage())
    assert produced == {}
    assert work.rows_touched == 1
    assert work.items_processed == 0


def test_smxm_detects_misplaced_nodes():
    storage = LocalGraphStorage()
    # Node 1 lives here but none of its next hops do.
    storage.add_edge(1, 50)
    storage.add_edge(1, 51)
    _, work = smxm({1: {0}}, storage, misplacement_threshold=0.5)
    assert 1 in work.misplacement_reports
    local, remote = work.misplacement_reports[1]
    assert local == 0 and remote == 2
    _, quiet = smxm({1: {0}}, storage, misplacement_threshold=None)
    assert quiet.misplacement_reports == {}


def test_smxm_with_dfa_filters_by_label():
    storage = LocalGraphStorage()
    storage.add_edge(1, 2, label=1)
    storage.add_edge(1, 3, label=2)
    dfa = build_dfa("a")
    produced, _ = smxm(
        {1: {(0, dfa.start)}}, storage, dfa=dfa, label_names={1: "a", 2: "b"}
    )
    assert set(produced) == {2}
    ((row, state),) = produced[2]
    assert row == 0 and dfa.is_accepting(state)


def test_process_add_and_sub():
    storage = LocalGraphStorage()
    processor = OperatorProcessor(0, storage)
    work = processor.process_update_ops(
        [
            (UpdateKind.INSERT, 1, 2, 0),
            (UpdateKind.INSERT, 1, 3, 0),
            (UpdateKind.INSERT, 1, 2, 0),
        ]
    )
    assert work.applied == 2
    assert work.map_lookups == 3
    assert storage.num_edges == 2
    work = processor.process_update_ops(
        [(UpdateKind.DELETE, 1, 2, 0), (UpdateKind.DELETE, 1, 9, 0)]
    )
    assert work.applied == 1
    assert storage.num_edges == 1

"""Tests for the epoch heap, its segment snapshots and the publish splice."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Moctopus, MoctopusConfig
from repro.core.hetero_storage import BYTES_PER_SLOT, HeterogeneousGraphStorage
from repro.core.local_storage import BYTES_PER_ENTRY, LocalGraphStorage
from repro.core.snapshot import CSRHeap, merge_segment, row_buffer
from repro.graph import DiGraph, power_law_graph, random_graph
from repro.paper import placed_at
from repro.partition.base import HOST_PARTITION
from repro.pim import CostModel
from repro.rpq import KHopQuery

from faultinject import public_rows
from model import build_snapshot_reference, load_per_edge, publish, publisher, snapshot_of


def buffers(rows):
    """``(node, [(dst, label), ...])`` pairs as ``(node, row buffer)`` pairs."""
    return [(node, row_buffer(entries)) for node, entries in rows]


def reference_of(storage):
    """From-scratch scalar rebuild of either storage's current contents."""
    if isinstance(storage, LocalGraphStorage):
        return build_snapshot_reference(
            public_rows(storage), BYTES_PER_ENTRY, max(storage.storage_bytes, 1), True
        )
    return build_snapshot_reference(
        public_rows(storage), BYTES_PER_SLOT, max(storage.total_bytes(), 1), False
    )


def published(storage):
    """A standalone storage and the function that publishes its segment."""
    manager = publisher(storage)
    return manager, lambda: publish(manager)[0]


# ----------------------------------------------------------------------
# Rows merged into an empty segment (a storage's first publish)
# ----------------------------------------------------------------------
def test_build_snapshot_orders_rows_and_counts_locals():
    snapshot = snapshot_of(
        buffers([(5, [(1, 0), (5, 0), (9, 0)]), (1, [(5, 0)]), (9, [])]),
        bytes_per_entry=12,
        working_set_bytes=100,
        count_local=True,
    )
    assert snapshot.node_ids.tolist() == [1, 5, 9]
    assert snapshot.degrees.tolist() == [1, 3, 0]
    assert snapshot.num_rows == 3 and snapshot.num_edges == 4
    # Row 1 -> {5}: local.  Row 5 -> {1, 5, 9}: all local.  Row 9 empty.
    assert snapshot.local_counts.tolist() == [1, 3, 0]
    assert snapshot.lookup(np.array([1, 2, 5, 9, 100])).tolist() == [0, -1, 1, 2, -1]


def test_build_snapshot_empty():
    snapshot = snapshot_of([], bytes_per_entry=12, working_set_bytes=1, count_local=True)
    assert snapshot.num_rows == 0 and snapshot.num_edges == 0
    assert snapshot.lookup(np.array([3, 7])).tolist() == [-1, -1]
    assert snapshot.same_arrays(build_snapshot_reference([], 12, 1, True))


def test_build_snapshot_trailing_empty_rows():
    snapshot = snapshot_of(
        buffers([(0, [(1, 0)]), (1, []), (2, [])]),
        bytes_per_entry=12,
        working_set_bytes=1,
        count_local=True,
    )
    assert snapshot.local_counts.tolist() == [1, 0, 0]


def test_build_snapshot_matches_scalar_reference():
    """The merge into an empty segment and the per-edge reference agree
    array-for-array."""
    rows = buffers(
        [
            (5, [(1, 0), (5, 2), (9, 1)]),
            (1, [(5, 3)]),
            (9, []),
            (3, [(77, 0), (3, 1)]),
        ]
    )
    for count_local in (True, False):
        fast = snapshot_of(rows, 12, 100, count_local)
        slow = build_snapshot_reference(rows, 12, 100, count_local)
        assert fast.same_arrays(slow)


# ----------------------------------------------------------------------
# Written rows + the splice
# ----------------------------------------------------------------------
def test_overlay_empty_fast_path_returns_same_object():
    storage = LocalGraphStorage()
    manager, snapshot = published(storage)
    storage.add_edge(1, 2)
    assert storage.written == {1}
    first = snapshot()
    # Nothing written since the publish: the heap, and its view, come back.
    assert snapshot() is first
    assert manager.splices == 1
    assert not storage.written
    storage.add_edge(1, 3)
    storage.remove_edge(1, 3)
    assert storage.written == {1}


def test_overlay_delete_of_never_snapshotted_edge():
    """An edge added and deleted between publishes merges cleanly."""
    storage = LocalGraphStorage()
    _, snapshot = published(storage)
    storage.add_edge(1, 2)
    snapshot()
    storage.add_edge(3, 4)   # never in the base
    storage.remove_edge(3, 4)
    spliced = snapshot()
    assert spliced.same_arrays(reference_of(storage))
    # Row 3 exists (empty) because add_edge created it.
    assert spliced.node_ids.tolist() == [1, 3]
    assert spliced.degrees.tolist() == [1, 0]
    # Deleting an edge that never existed anywhere is a no-op merge-wise.
    storage.remove_edge(77, 78)
    assert snapshot().same_arrays(reference_of(storage))


def test_overlay_row_migrated_then_updated_in_same_batch():
    """A row moved between storages and edited before the next publish."""
    source = LocalGraphStorage()
    target = LocalGraphStorage()
    manager = publisher(source, target)
    for node in range(8):
        source.add_edge(node, node + 100)
        target.add_edge(node + 50, node + 100)
    publish(manager)
    # Migrate row 3 and update it on its new home, all within one batch.
    entries = source.remove_row(3)
    target.insert_row(3, entries)
    target.add_edge(3, 999)
    target.remove_edge(3, 103)
    source_snapshot, target_snapshot = publish(manager)
    assert manager.splices == 2
    assert source_snapshot.same_arrays(reference_of(source))
    assert target_snapshot.same_arrays(reference_of(target))
    assert 3 not in source_snapshot.node_ids.tolist()
    row = target_snapshot.lookup(np.array([3]))[0]
    start, stop = target_snapshot.indptr[row], target_snapshot.indptr[row + 1]
    assert target_snapshot.dsts[start:stop].tolist() == [999]
    # Remove + reinstall on the *same* storage also resolves to live data.
    entries = target.remove_row(3)
    target.insert_row(3, [(42, 7)])
    assert publish(manager)[1].same_arrays(reference_of(target))


def _an_edge_on_a_module(system, graph):
    """A ``(src, dst, label)`` edge of ``graph`` whose source a module holds."""
    return next(
        (src, dst, label)
        for src, dst, label in graph.labeled_edges()
        if system._partitioner.partition_of(src) != HOST_PARTITION
    )


def test_reinserting_an_edge_with_its_own_label_writes_nothing():
    """The row stays clean, so the next publish splices nothing; a
    relabel still writes."""
    graph = random_graph(200, 800, seed=1)
    system = Moctopus.from_graph(graph, MoctopusConfig())
    src, dst, label = _an_edge_on_a_module(system, graph)
    system.insert_edges([(src, dst)], labels=[label])
    system._epochs.current()
    assert system._epochs.splices == 0
    system.insert_edges([(src, dst)], labels=[label + 1])
    system._epochs.current()
    assert system._epochs.splices == 1
    system.close()


def test_a_session_staging_an_edge_it_has_keeps_its_caches():
    graph = random_graph(200, 800, seed=1)
    system = Moctopus.from_graph(graph, MoctopusConfig())
    src, dst, label = _an_edge_on_a_module(system, graph)
    query = KHopQuery(hops=2, sources=[src])
    with system.begin() as session:
        session.execute(query)
        session.insert_edges([(src, dst)], labels=[label])
        assert session._view().frozen_epoch() is session._epoch
        hits = system.cache_stats.counters.get("result_cache_hits", 0)
        session.execute(query)
        assert system.cache_stats.counters.get("result_cache_hits", 0) == hits + 1
    system.close()


def test_merge_snapshot_into_empty_base():
    rows = dict(buffers([(4, [(1, 0)]), (2, [(4, 5)])]))
    empty = CSRHeap.empty([12, 12])
    merged = merge_segment(empty.segment(1), rows, 50, True)
    reference = build_snapshot_reference(list(rows.items()), 12, 50, True)
    assert merged.same_arrays(reference)
    # Membership changes flip locality of *clean* rows too: 2 -> 4 is
    # local only because row 4 exists.
    assert merged.local_counts.tolist() == [1, 0]
    # Spliced back, the untouched segment is the old heap's own.
    heap = empty.replace({1: merged})
    assert heap.segment(1) is merged and heap.num_rows == 2
    assert heap.segment(0) is empty.segment(0)
    assert not merged.dsts.flags.writeable


def test_a_publish_shares_every_untouched_segment():
    """A splice builds only the segments whose storages wrote rows: the
    others are the previous heap's views, arrays and all."""
    first, second = LocalGraphStorage(), LocalGraphStorage()
    manager = publisher(first, second)
    first.add_edge(1, 2)
    second.add_edge(3, 4)
    before = publish(manager)
    first.add_edge(1, 5)
    after = publish(manager)
    assert manager.splices == 2
    assert after[1] is before[1]
    assert after[0].same_arrays(reference_of(first))
    assert not np.shares_memory(after[0].dsts, before[0].dsts)


def test_hetero_overlay_merges_match_rebuild():
    storage = HeterogeneousGraphStorage(num_pim_modules=4)
    manager, snapshot = published(storage)
    for node in range(6):
        for dst in range(3):
            storage.insert_edge(node, 10 * node + dst)
    snapshot()
    storage.insert_edge(2, 999)
    storage.delete_edge(3, 30)
    entries = storage.remove_row(4)
    storage.insert_row(40, entries)
    spliced = snapshot()
    assert manager.splices == 2
    assert spliced.same_arrays(reference_of(storage))


# ----------------------------------------------------------------------
# Differential: every publish of scripted storages equals the oracle
# ----------------------------------------------------------------------
NODES = 6
VALUES = 8


class StoragePair:
    """Two storages of one kind — two segments of one heap — so a row can
    move out of one and in to the other; ``apply`` runs one scripted op
    on side ``op[1]``."""

    def __init__(self, kind: str) -> None:
        self.module = kind == "module"
        self.sides = [self.fresh(), self.fresh()]
        self.manager = publisher(*self.sides)

    def fresh(self):
        return LocalGraphStorage() if self.module else HeterogeneousGraphStorage(4)

    def add(self, storage, src, dst, label) -> None:
        if self.module:
            storage.add_edge(src, dst, label)
        else:
            storage.insert_edge(src, dst, label)

    def apply(self, op) -> None:
        kind, side = op[0], op[1]
        storage, other = self.sides[side], self.sides[1 - side]
        if kind == "add":
            self.add(storage, *op[2:])
        elif kind == "sub":
            if self.module:
                storage.remove_edge(*op[2:])
            else:
                storage.delete_edge(*op[2:])
        elif kind == "move":  # move-out here, move-in on the other side
            movable = sorted(set(storage.rows()) - set(other.rows()))
            if movable:
                node = movable[op[2] % len(movable)]
                other.insert_row(node, storage.remove_row(node))
        elif kind == "touch_all":  # a batch that dirties every row
            for node in list(storage.rows()):
                self.add(storage, node, VALUES, op[2])
        elif kind == "reseed":  # continue on a checkpoint-seeded lineage
            self.manager.mark_stale()
            heap = self.manager.current().heap
            restored = [self.fresh(), self.fresh()]
            if not self.module:
                for mine, theirs in zip(restored, self.sides):
                    mine.restore_arrays(theirs.capture_arrays())
            self.sides = restored
            self.manager = publisher(*restored)
            self.manager.install(heap)
        else:
            assert kind == "refresh"
            assert publish(self.manager)[side].same_arrays(reference_of(storage))


node_values = st.integers(0, NODES - 1)
values = st.integers(0, VALUES - 1)
sides = st.integers(0, 1)
script_ops = st.one_of(
    st.tuples(st.just("add"), sides, node_values, values, values),
    st.tuples(st.just("add"), sides, node_values, values, values),
    st.tuples(st.just("sub"), sides, node_values, values),
    st.tuples(st.just("move"), sides, node_values),
    st.tuples(st.just("touch_all"), sides, values),
    st.tuples(st.just("reseed"), sides),
    st.tuples(st.just("refresh"), sides),
    st.tuples(st.just("refresh"), sides),
)
FIRST_REFRESH = [("add", 0, 1, 2, 0), ("add", 0, 3, 1, 1), ("add", 0, 2, 2, 5), ("refresh", 0)]
OVER_A_SEED = [
    ("add", 0, 1, 2, 0), ("add", 0, 2, 3, 1), ("reseed", 0), ("refresh", 0),
    ("sub", 0, 1, 2), ("add", 0, 3, 1, 0), ("refresh", 0),
]
EVERY_ROW = [("add", 0, node, node + 1, 0) for node in range(NODES)] + [
    ("refresh", 0), ("touch_all", 0, 2), ("refresh", 0),
]
MOVED_OUT = [("add", 0, 1, 2, 0), ("add", 0, 2, 1, 0), ("refresh", 0), ("move", 0, 0)]
REMOVED_AND_READDED = [
    ("add", 0, 1, 2, 0), ("add", 0, 2, 1, 0), ("refresh", 0), ("refresh", 1),
    ("move", 0, 0), ("move", 1, 0), ("add", 0, 1, 5, 3), ("refresh", 0), ("refresh", 1),
]


@pytest.mark.parametrize("kind", ["module", "host"])
@settings(max_examples=300, deadline=None)
@example(ops=FIRST_REFRESH)
@example(ops=OVER_A_SEED)
@example(ops=EVERY_ROW)
@example(ops=MOVED_OUT)
@example(ops=REMOVED_AND_READDED)
@given(ops=st.lists(script_ops, max_size=40))
def test_every_refresh_equals_the_reference_builder(kind, ops):
    pair = StoragePair(kind)
    for op in ops:
        pair.apply(op)
    for side in (0, 1):
        pair.apply(("refresh", side))


# ----------------------------------------------------------------------
# A module storage's segment
# ----------------------------------------------------------------------
def test_local_storage_snapshot_cached_until_mutation():
    storage = LocalGraphStorage()
    manager, snapshot = published(storage)
    storage.add_edge(1, 2)
    storage.add_edge(2, 3)
    first = snapshot()
    assert snapshot() is first
    assert manager.splices == 1

    storage.add_edge(1, 4)
    second = snapshot()
    assert second is not first
    assert manager.splices == 2
    # Only source rows live in the segment: rows 1 and 2.
    assert second.degrees.tolist() == [2, 1]


def test_local_storage_snapshot_invalidated_by_every_mutation():
    storage = LocalGraphStorage()
    _, snapshot = published(storage)
    storage.add_edge(1, 2, label=7)

    snapshot()
    assert storage.remove_edge(1, 2)
    assert snapshot().num_edges == 0

    storage.insert_row(10, [(11, 0), (12, 0)])
    assert snapshot().lookup(np.array([10])).tolist() == [1]

    storage.remove_row(10)
    assert snapshot().lookup(np.array([10])).tolist() == [-1]

    storage.ensure_row(99)
    assert 99 in snapshot().node_ids.tolist()

    # Relabeling an existing edge is a mutation too.
    storage.add_edge(1, 5, label=1)
    before = snapshot()
    storage.add_edge(1, 5, label=2)
    assert snapshot() is not before


def test_local_storage_snapshot_bytes_match_scalar_accounting():
    storage = LocalGraphStorage()
    _, snapshot = published(storage)
    for dst in range(5):
        storage.add_edge(0, dst)
    segment = snapshot()
    assert segment.bytes_per_entry == BYTES_PER_ENTRY
    assert int(segment.degrees[0]) * segment.bytes_per_entry == len(
        storage.next_hops_with_labels(0)
    ) * BYTES_PER_ENTRY
    assert segment.working_set_bytes == max(storage.storage_bytes, 1)


# ----------------------------------------------------------------------
# The host storage's segment
# ----------------------------------------------------------------------
def test_hetero_snapshot_matches_cols_vector_order():
    storage = HeterogeneousGraphStorage(num_pim_modules=4)
    _, snapshot = published(storage)
    storage.insert_edge(3, 10)
    storage.insert_edge(3, 11)
    storage.insert_edge(3, 12)
    storage.delete_edge(3, 11)
    segment = snapshot()
    assert segment.node_ids.tolist() == [3]
    # Occupied slots in position order — the order a host scan streams.
    expected = [dst for dst, _ in storage.next_hops_with_labels(3)]
    start, end = int(segment.indptr[0]), int(segment.indptr[1])
    assert segment.dsts[start:end].tolist() == expected
    assert segment.bytes_per_entry == BYTES_PER_SLOT
    assert segment.working_set_bytes == max(storage.total_bytes(), 1)
    # The host never detects misplacement.
    assert segment.local_counts.tolist() == [0]


def test_hetero_snapshot_invalidation():
    storage = HeterogeneousGraphStorage(num_pim_modules=4)
    manager, snapshot = published(storage)
    storage.insert_edge(1, 2)
    first = snapshot()
    assert snapshot() is first

    storage.insert_edge(1, 3)
    assert snapshot() is not first
    assert manager.splices == 2

    storage.delete_edge(1, 2)
    assert snapshot().num_edges == 1

    storage.insert_row(7, [(8, 0)])
    assert 7 in snapshot().node_ids.tolist()

    storage.remove_row(7)
    assert 7 not in snapshot().node_ids.tolist()

    # A no-op update (duplicate insert) writes nothing.
    cached = snapshot()
    outcome = storage.insert_edge(1, 3)
    assert not outcome.applied
    assert snapshot() is cached


# ----------------------------------------------------------------------
# Published snapshots are immutable (regression: handed-out bases used
# to be writable, so any in-place caller mutation silently corrupted the
# cache — and now also every pinned serving epoch sharing the arrays)
# ----------------------------------------------------------------------
def test_published_snapshot_arrays_are_read_only():
    storage = LocalGraphStorage()
    manager, snapshot = published(storage)
    storage.add_edge(1, 2)
    storage.add_edge(1, 3)
    segment = snapshot()
    for array in (
        segment.node_ids,
        segment.indptr,
        segment.dsts,
        segment.labels,
        segment.local_counts,
        segment.degrees,
    ):
        assert not array.flags.writeable
    with pytest.raises(ValueError):
        segment.dsts[0] = 999
    with pytest.raises(ValueError):
        segment.indptr[0] = 7
    # Every publish writes frozen arrays: a splice over the base...
    storage.add_edge(1, 4)
    assert not snapshot().dsts.flags.writeable
    # ...and the heap they are views of.
    heap = manager.current().heap
    assert manager.splices == 2
    for array in (*heap.arrays().values(), heap.column("degrees")):
        assert not array.flags.writeable
    hetero = HeterogeneousGraphStorage(num_pim_modules=4)
    _, hetero_snapshot = published(hetero)
    hetero.insert_edge(1, 2)
    with pytest.raises(ValueError):
        hetero_snapshot().dsts[0] = 999


def test_refresh_tolerates_frozen_base_arrays():
    """Splices of a few rows and of every row run on ``writeable=False``
    heaps.

    Published heaps are frozen and shared by reference (epochs, the
    storages' bases, a restore's installed arrays), so a splice may
    never write into one — it must copy.  The regression covers both
    storages and asserts the spliced arrays equal a from-scratch rebuild
    and are themselves fresh (not aliases of the frozen inputs).
    """
    storage = LocalGraphStorage()
    manager, snapshot = published(storage)
    for node in range(12):
        storage.add_edge(node, node + 1)
        storage.add_edge(node, node + 2)
    base = snapshot()
    assert not base.dsts.flags.writeable
    # A few written rows -> splice against the frozen base.
    storage.add_edge(0, 99)
    storage.remove_edge(1, 2)
    spliced = snapshot()
    assert spliced.same_arrays(reference_of(storage))
    assert not np.shares_memory(spliced.dsts, base.dsts)
    # Every row written -> still a splice against a frozen previous base.
    for node in range(12):
        storage.add_edge(node, node + 50)
    assert snapshot().same_arrays(reference_of(storage))
    assert manager.splices == 3

    hetero = HeterogeneousGraphStorage(num_pim_modules=4)
    _, hetero_snapshot = published(hetero)
    for node in range(8):
        hetero.insert_edge(node, node + 1)
    hetero_snapshot()
    hetero.delete_edge(0, 1)
    hetero.insert_edge(0, 7)
    assert hetero_snapshot().same_arrays(reference_of(hetero))


def test_seed_base_restores_cache_and_allows_mutation():
    """A storage that adopts a restored heap behaves like the original.

    The first publish builds nothing — the installed (frozen) heap comes
    back — and later mutations splice against that read-only heap
    without raising or diverging from a rebuild.
    """
    original = LocalGraphStorage()
    _, original_snapshot = published(original)
    for node in range(6):
        original.add_edge(node, (node + 1) % 6, label=node % 3)
    frozen = original_snapshot()

    restored = LocalGraphStorage()
    manager, snapshot = published(restored)
    manager.install(CSRHeap([frozen]))
    # Nothing to splice: the installed heap's own view comes back.
    first = snapshot()
    assert first.same_arrays(frozen) and snapshot() is first
    assert manager.splices == 0
    assert restored.num_edges == original.num_edges
    assert restored.storage_bytes == original.storage_bytes
    # Mutating after the install splices against the read-only heap.
    restored.add_edge(2, 99)
    restored.remove_edge(0, 1)
    assert snapshot().same_arrays(reference_of(restored))
    # And a batch writing every row over the installed lineage also works.
    for node in range(6):
        restored.add_edge(node, node + 40)
    assert snapshot().same_arrays(reference_of(restored))


def test_restore_rows_requires_empty_storage():
    storage = LocalGraphStorage()
    storage.add_edge(1, 2)
    donor = LocalGraphStorage()
    _, donor_snapshot = published(donor)
    donor.add_edge(3, 4)
    with pytest.raises(RuntimeError):
        storage.adopt(donor_snapshot())
    assert storage.next_hops_with_labels(1) == [(2, 0)] and not storage.has_row(3)
    hetero = HeterogeneousGraphStorage(num_pim_modules=2)
    hetero.insert_edge(1, 2)
    empty = HeterogeneousGraphStorage(num_pim_modules=2)
    with pytest.raises(RuntimeError):
        hetero.restore_arrays(empty.capture_arrays())
    assert hetero.next_hops(1) == [2] and hetero.num_rows == 1


def test_row_entries_reads_pinned_rows():
    storage = LocalGraphStorage()
    storage.add_edge(5, 9, label=2)
    storage.add_edge(5, 1, label=7)
    storage.add_edge(3, 5)
    snapshot = publish(publisher(storage))[0]
    assert snapshot.row_entries(5) == [(9, 2), (1, 7)]
    assert snapshot.row_entries(3) == [(5, 0)]
    assert snapshot.row_entries(404) == []
    assert snapshot.row_index(3) == 0 and snapshot.row_index(4) == -1


# ----------------------------------------------------------------------
# Epoch retention stress: a pinned epoch's arrays survive splices and
# hub-promotion migrations bit-for-bit
# ----------------------------------------------------------------------
def _epoch_array_fingerprint(epoch):
    """Copies of every array a pinned epoch exposes."""
    copies = []
    for snapshot in epoch.snapshots:
        copies.append(
            (
                snapshot.node_ids.copy(),
                snapshot.indptr.copy(),
                snapshot.dsts.copy(),
                snapshot.labels.copy(),
                snapshot.local_counts.copy(),
            )
        )
    return copies


def _assert_epoch_unchanged(epoch, fingerprint, context):
    for snapshot, copies in zip(epoch.snapshots, fingerprint):
        node_ids, indptr, dsts, labels, local_counts = copies
        assert np.array_equal(snapshot.node_ids, node_ids), context
        assert np.array_equal(snapshot.indptr, indptr), context
        assert np.array_equal(snapshot.dsts, dsts), context
        assert np.array_equal(snapshot.labels, labels), context
        assert np.array_equal(snapshot.local_counts, local_counts), context
        assert not snapshot.dsts.flags.writeable, context


def test_pinned_epoch_survives_compactions_and_promotions():
    """Hold a session across broad churn — every round dirties half the
    nodes' rows — and hub promotions; the pinned epoch must stay
    bit-identical throughout."""
    graph = random_graph(40, 140, seed=9)
    config = MoctopusConfig(cost_model=CostModel(num_modules=4))
    system = placed_at(high_degree_threshold=8).from_graph(graph, config)
    system.use_engine("vectorized")
    with system.begin() as session:
        epoch = session._epoch
        fingerprint = _epoch_array_fingerprint(epoch)
        baseline, _ = session.batch_khop(list(range(10)), 2)
        splices = system._epochs.splices

        for round_id in range(6):
            edges = [
                (node, 200 + round_id * 50 + node) for node in range(0, 40, 2)
            ]
            system.insert_edges(edges)
            system.delete_edges(edges[::2])
            system.batch_khop(list(range(8)), 2)  # live queries + migrations
        current = system._epochs.current()
        changed = [
            not current.snapshot_of(module).same_arrays(epoch.snapshot_of(module))
            for module in range(epoch.num_modules)
        ]
        assert system._epochs.splices > splices and all(changed), (
            "churn must splice into every module's base"
        )

        # Hub promotion: push one still-module-resident node over the
        # high-degree threshold so its whole row migrates to the host.
        hub = next(
            node
            for node in range(1, 40, 2)
            if system.partition_of(node) not in (None, -1)
        )
        system.insert_edges([(hub, 300 + offset) for offset in range(12)])
        assert system.partition_of(hub) == -1, "hub must promote to host"

        _assert_epoch_unchanged(
            epoch, fingerprint, "pinned epoch mutated under churn"
        )
        replay, _ = session.batch_khop(list(range(10)), 2)
        assert replay.destinations == baseline.destinations
        # The manager retired nothing the session still pins.
        assert system._epochs.pin_count(epoch.epoch_id) == 1
    # After close, the old epoch may retire; new pins get the live state.
    with system.begin() as fresh:
        assert fresh.epoch_id > epoch.epoch_id


def test_epoch_retention_bounds_registry():
    """The registry is {current} ∪ pinned: an epoch retires at its last
    unpin, and an unpinned one the moment it is superseded."""
    system = Moctopus.from_graph(
        random_graph(20, 60, seed=2),
        MoctopusConfig(cost_model=CostModel(num_modules=4)),
    )
    manager = system._epochs
    pinned = system.begin()
    pinned_id = pinned.epoch_id
    for round_id in range(6):
        system.insert_edges([(round_id, 100 + round_id)])
        current = system.current_epoch_id  # force a publish per round
        assert manager.retained_ids() == [pinned_id, current]
    second = system.begin()  # a second pin on the current epoch
    assert manager.retained_ids() == [pinned_id, current]
    pinned.close()
    assert manager.retained_ids() == [current], "last unpin retires at once"
    second.close()
    assert manager.retained_ids() == [current], "the current epoch stays"
    assert manager.pins() == 0


# ----------------------------------------------------------------------
# Derived views: transposed blocks, per-label blocks
# ----------------------------------------------------------------------
def test_transpose_block_groups_in_edges_by_destination():
    snapshot = snapshot_of(
        buffers([(1, [(7, 0), (3, 0)]), (5, [(3, 0)]), (9, [(9, 0)])]),
        bytes_per_entry=12,
        working_set_bytes=100,
        count_local=True,
    )
    block = snapshot.transpose_block()
    assert block.dsts.tolist() == [3, 7, 9]
    assert block.indptr.tolist() == [0, 2, 3, 4]
    assert block.num_edges == snapshot.num_edges == 4
    # src_rows are row *indices* into node_ids ([1, 5, 9] -> 0, 1, 2):
    # dst 3 <- rows {1, 5}, dst 7 <- row 1, dst 9 <- row 9.
    assert sorted(block.src_rows[0:2].tolist()) == [0, 1]
    assert block.src_rows[2:3].tolist() == [0]
    assert block.src_rows[3:4].tolist() == [2]
    assert snapshot.transpose_block() is block  # cached
    assert not block.dsts.flags.writeable


def test_transpose_block_round_trips_every_edge():
    storage = LocalGraphStorage()
    graph = random_graph(40, 200, seed=13)
    for src, dst in graph.edges():
        storage.add_edge(src, dst)
    snapshot = publish(publisher(storage))[0]
    block = snapshot.transpose_block()
    pulled = set()
    for position, dst in enumerate(block.dsts.tolist()):
        for edge in range(block.indptr[position], block.indptr[position + 1]):
            src = int(snapshot.node_ids[block.src_rows[edge]])
            pulled.add((src, dst))
    assert pulled == set(graph.edges())


def test_label_blocks_partition_edges_by_label():
    snapshot = snapshot_of(
        buffers([(0, [(1, 1), (2, 2)]), (1, [(2, 1)]), (2, [])]),
        bytes_per_entry=12,
        working_set_bytes=100,
        count_local=True,
    )
    blocks = snapshot.label_blocks()
    assert sorted(blocks) == [1, 2]
    assert blocks[1].dsts.tolist() == [1, 2]
    assert blocks[1].num_edges == 2
    assert blocks[2].dsts.tolist() == [2]
    assert blocks[2].src_rows.tolist() == [0]
    assert sum(block.num_edges for block in blocks.values()) == snapshot.num_edges
    assert snapshot.label_blocks() is blocks  # cached
    empty = snapshot_of(
        [], bytes_per_entry=12, working_set_bytes=1, count_local=True
    )
    assert empty.label_blocks() == {}


def test_derived_views_refresh_with_the_snapshot():
    """A publish builds a new heap and new views, so stale cached views
    are unreachable rather than invalidated in place."""
    storage = LocalGraphStorage()
    _, snapshot = published(storage)
    storage.add_edge(0, 1)
    before = snapshot()
    block_before = before.transpose_block()
    storage.add_edge(0, 2)
    after = snapshot()
    assert after is not before
    assert after.transpose_block() is not block_before
    assert after.transpose_block().dsts.tolist() == [1, 2]
    assert before.transpose_block().dsts.tolist() == [1]  # old view intact


# ----------------------------------------------------------------------
# A loaded or recovered system's first publish builds no module snapshot
# ----------------------------------------------------------------------
def _labelled_power_law() -> DiGraph:
    plain = power_law_graph(1200, edges_per_node=4, skew=0.8, reciprocity=0.3, seed=11)
    graph = DiGraph()
    for node in plain.nodes():
        graph.add_node(node)
    for src, dst in plain.edges():
        graph.add_edge(src, dst, label=(src + 3 * dst) % 4)
    return graph


def _assert_modules_publish_their_bases(system: Moctopus, oracle: Moctopus) -> None:
    """The first publish builds nothing, each module snapshot is the
    per-edge reference of the oracle's rows, and no module row is a
    buffer."""
    modules = system._module_storages
    epoch = system._epochs.current()
    assert system._epochs.splices == 0
    for storage, snapshot, expected in zip(modules, epoch.snapshots, oracle._module_storages):
        assert not storage._buffers
        reference = build_snapshot_reference(
            public_rows(expected), BYTES_PER_ENTRY, expected.working_set_bytes, True
        )
        assert snapshot.same_arrays(reference)


def test_a_loaded_or_recovered_system_publishes_without_building(tmp_path):
    graph = _labelled_power_law()
    config = MoctopusConfig(cost_model=CostModel(num_modules=8))
    oracle = Moctopus(config)
    load_per_edge(oracle, graph.labeled_edges(), graph.nodes())

    loaded = Moctopus.from_graph(graph, config)
    assert loaded._host_storage.num_rows > 0, "the graph must promote hubs"
    _assert_modules_publish_their_bases(loaded, oracle)

    durable = Moctopus.from_graph(
        graph,
        MoctopusConfig(
            cost_model=CostModel(num_modules=8),
            durability_dir=str(tmp_path),
            checkpoint_interval_batches=0,
        ),
    )
    durable.checkpoint()
    durable.close()
    recovered = Moctopus.recover(str(tmp_path))
    try:
        _assert_modules_publish_their_bases(recovered, oracle)
    finally:
        recovered.close()

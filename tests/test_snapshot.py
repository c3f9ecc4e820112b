"""Tests for the CSR storage snapshots and their incremental maintenance."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Moctopus, MoctopusConfig
from repro.core.hetero_storage import BYTES_PER_SLOT, HeterogeneousGraphStorage
from repro.core.local_storage import BYTES_PER_ENTRY, LocalGraphStorage
from repro.core.snapshot import EMPTY_SNAPSHOT, merge_snapshot, row_buffer
from repro.graph import random_graph
from repro.pim import CostModel

from faultinject import public_rows
from model import build_snapshot_reference, snapshot_of


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


# ----------------------------------------------------------------------
# Rows spliced into the empty snapshot (a storage's first refresh)
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
    assert snapshot is not EMPTY_SNAPSHOT and snapshot.same_arrays(
        build_snapshot_reference([], 12, 1, True)
    )


def test_build_snapshot_trailing_empty_rows():
    snapshot = snapshot_of(
        buffers([(0, [(1, 0)]), (1, []), (2, [])]),
        bytes_per_entry=12,
        working_set_bytes=1,
        count_local=True,
    )
    assert snapshot.local_counts.tolist() == [1, 0, 0]


def test_build_snapshot_matches_scalar_reference():
    """The splice into the empty snapshot and the per-edge reference
    agree array-for-array."""
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
# Dirty rows + merge_snapshot
# ----------------------------------------------------------------------
def test_overlay_empty_fast_path_returns_same_object():
    storage = LocalGraphStorage()
    storage.add_edge(1, 2)
    assert not storage._cache.dirty  # nothing is recorded before a base exists
    first = storage.to_csr()
    # No mutation since the refresh: the cached base comes back as-is.
    assert storage.to_csr() is first
    assert storage.snapshot_builds == 1
    assert not storage._cache.dirty
    storage.add_edge(1, 3)
    storage.remove_edge(1, 3)
    assert storage._cache.dirty == {1}


def test_overlay_delete_of_never_snapshotted_edge():
    """An edge added and deleted between refreshes merges cleanly."""
    storage = LocalGraphStorage()
    storage.add_edge(1, 2)
    storage.to_csr()
    storage.add_edge(3, 4)   # never in the base
    storage.remove_edge(3, 4)
    snapshot = storage.to_csr()
    assert snapshot.same_arrays(reference_of(storage))
    # Row 3 exists (empty) because add_edge created it.
    assert snapshot.node_ids.tolist() == [1, 3]
    assert snapshot.degrees.tolist() == [1, 0]
    # Deleting an edge that never existed anywhere is a no-op merge-wise.
    storage.remove_edge(77, 78)
    assert storage.to_csr().same_arrays(reference_of(storage))


def test_overlay_row_migrated_then_updated_in_same_batch():
    """A row moved between storages and edited before the next refresh."""
    source = LocalGraphStorage()
    target = LocalGraphStorage()
    for node in range(8):
        source.add_edge(node, node + 100)
        target.add_edge(node + 50, node + 100)
    source.to_csr()
    target.to_csr()
    # Migrate row 3 and update it on its new home, all within one batch.
    entries = source.remove_row(3)
    target.insert_row(3, entries)
    target.add_edge(3, 999)
    target.remove_edge(3, 103)
    source_snapshot = source.to_csr()
    target_snapshot = target.to_csr()
    assert source.snapshot_builds == 2 and target.snapshot_builds == 2
    assert source_snapshot.same_arrays(reference_of(source))
    assert target_snapshot.same_arrays(reference_of(target))
    assert 3 not in source_snapshot.node_ids.tolist()
    row = target_snapshot.lookup(np.array([3]))[0]
    start, stop = target_snapshot.indptr[row], target_snapshot.indptr[row + 1]
    assert target_snapshot.dsts[start:stop].tolist() == [999]
    # Remove + reinstall on the *same* storage also resolves to live data.
    entries = target.remove_row(3)
    target.insert_row(3, [(42, 7)])
    assert target.to_csr().same_arrays(reference_of(target))


def test_merge_snapshot_into_empty_base():
    rows = dict(buffers([(4, [(1, 0)]), (2, [(4, 5)])]))
    merged = merge_snapshot(
        EMPTY_SNAPSHOT,
        np.array([2, 4], dtype=np.int64),
        rows.get,
        bytes_per_entry=12,
        working_set_bytes=50,
        count_local=True,
    )
    reference = build_snapshot_reference(list(rows.items()), 12, 50, True)
    assert merged.same_arrays(reference)
    # Membership changes flip locality of *clean* rows too: 2 -> 4 is
    # local only because row 4 exists.
    assert merged.local_counts.tolist() == [1, 0]
    assert EMPTY_SNAPSHOT.num_rows == 0 and not EMPTY_SNAPSHOT.dsts.flags.writeable


def test_hetero_overlay_merges_match_rebuild():
    storage = HeterogeneousGraphStorage(num_pim_modules=4)
    for node in range(6):
        for dst in range(3):
            storage.insert_edge(node, 10 * node + dst)
    storage.to_csr()
    storage.insert_edge(2, 999)
    storage.delete_edge(3, 30)
    entries = storage.remove_row(4)
    storage.insert_row(40, entries)
    snapshot = storage.to_csr()
    assert storage.snapshot_builds == 2
    assert snapshot.same_arrays(reference_of(storage))


# ----------------------------------------------------------------------
# Differential: every to_csr() of a scripted storage equals the oracle
# ----------------------------------------------------------------------
NODES = 6
VALUES = 8


class StoragePair:
    """Two storages of one kind, so a row can move out of one and in to
    the other; ``apply`` runs one scripted op on side ``op[1]``."""

    def __init__(self, kind: str) -> None:
        self.module = kind == "module"
        self.sides = [self.fresh(), self.fresh()]

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
        elif kind == "drop":
            storage.drop_snapshot()
        elif kind == "reseed":  # continue on a checkpoint-seeded lineage
            restored = self.fresh()
            if self.module:
                restored.restore_rows(storage.to_csr())
            else:
                restored.restore_arrays(storage.capture_arrays(), base=storage.to_csr())
            self.sides[side] = restored
        else:
            assert kind == "refresh"
            assert storage.to_csr().same_arrays(reference_of(storage))


node_values = st.integers(0, NODES - 1)
values = st.integers(0, VALUES - 1)
sides = st.integers(0, 1)
script_ops = st.one_of(
    st.tuples(st.just("add"), sides, node_values, values, values),
    st.tuples(st.just("add"), sides, node_values, values, values),
    st.tuples(st.just("sub"), sides, node_values, values),
    st.tuples(st.just("move"), sides, node_values),
    st.tuples(st.just("touch_all"), sides, values),
    st.tuples(st.just("drop"), sides),
    st.tuples(st.just("reseed"), sides),
    st.tuples(st.just("refresh"), sides),
    st.tuples(st.just("refresh"), sides),
)
FIRST_REFRESH = [("add", 0, 1, 2, 0), ("add", 0, 3, 1, 1), ("add", 0, 2, 2, 5), ("refresh", 0)]
AFTER_DROP = [("add", 0, 1, 2, 0), ("refresh", 0), ("add", 0, 2, 1, 0), ("drop", 0), ("refresh", 0)]
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
@example(ops=AFTER_DROP)
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
# LocalGraphStorage.to_csr
# ----------------------------------------------------------------------
def test_local_storage_snapshot_cached_until_mutation():
    storage = LocalGraphStorage()
    storage.add_edge(1, 2)
    storage.add_edge(2, 3)
    first = storage.to_csr()
    assert storage.to_csr() is first
    assert storage.snapshot_builds == 1

    storage.add_edge(1, 4)
    second = storage.to_csr()
    assert second is not first
    assert storage.snapshot_builds == 2
    # Only source rows live in the segment: rows 1 and 2.
    assert second.degrees.tolist() == [2, 1]


def test_local_storage_snapshot_invalidated_by_every_mutation():
    storage = LocalGraphStorage()
    storage.add_edge(1, 2, label=7)

    storage.to_csr()
    assert storage.remove_edge(1, 2)
    assert storage.to_csr().num_edges == 0

    storage.to_csr()
    storage.insert_row(10, [(11, 0), (12, 0)])
    assert storage.to_csr().lookup(np.array([10])).tolist() == [1]

    storage.to_csr()
    storage.remove_row(10)
    assert storage.to_csr().lookup(np.array([10])).tolist() == [-1]

    storage.to_csr()
    storage.ensure_row(99)
    assert 99 in storage.to_csr().node_ids.tolist()

    # Relabeling an existing edge is a mutation too.
    storage.add_edge(1, 5, label=1)
    snapshot = storage.to_csr()
    storage.add_edge(1, 5, label=2)
    assert storage.to_csr() is not snapshot


def test_local_storage_snapshot_bytes_match_scalar_accounting():
    storage = LocalGraphStorage()
    for dst in range(5):
        storage.add_edge(0, dst)
    snapshot = storage.to_csr()
    assert snapshot.bytes_per_entry == BYTES_PER_ENTRY
    assert int(snapshot.degrees[0]) * snapshot.bytes_per_entry == len(
        storage.next_hops_with_labels(0)
    ) * BYTES_PER_ENTRY
    assert snapshot.working_set_bytes == max(storage.storage_bytes, 1)


# ----------------------------------------------------------------------
# HeterogeneousGraphStorage.to_csr
# ----------------------------------------------------------------------
def test_hetero_snapshot_matches_cols_vector_order():
    storage = HeterogeneousGraphStorage(num_pim_modules=4)
    storage.insert_edge(3, 10)
    storage.insert_edge(3, 11)
    storage.insert_edge(3, 12)
    storage.delete_edge(3, 11)
    snapshot = storage.to_csr()
    assert snapshot.node_ids.tolist() == [3]
    # Occupied slots in position order — the order a host scan streams.
    expected = [dst for dst, _ in storage.next_hops_with_labels(3)]
    start, end = int(snapshot.indptr[0]), int(snapshot.indptr[1])
    assert snapshot.dsts[start:end].tolist() == expected
    assert snapshot.bytes_per_entry == BYTES_PER_SLOT
    assert snapshot.working_set_bytes == max(storage.total_bytes(), 1)
    # The host never detects misplacement.
    assert snapshot.local_counts.tolist() == [0]


def test_hetero_snapshot_invalidation():
    storage = HeterogeneousGraphStorage(num_pim_modules=4)
    storage.insert_edge(1, 2)
    first = storage.to_csr()
    assert storage.to_csr() is first

    storage.insert_edge(1, 3)
    assert storage.to_csr() is not first
    assert storage.snapshot_builds == 2

    storage.to_csr()
    storage.delete_edge(1, 2)
    assert storage.to_csr().num_edges == 1

    storage.to_csr()
    storage.insert_row(7, [(8, 0)])
    assert 7 in storage.to_csr().node_ids.tolist()

    storage.to_csr()
    storage.remove_row(7)
    assert 7 not in storage.to_csr().node_ids.tolist()

    # A no-op update (duplicate insert) does not invalidate.
    cached = storage.to_csr()
    outcome = storage.insert_edge(1, 3)
    assert not outcome.applied
    assert storage.to_csr() is cached


# ----------------------------------------------------------------------
# Published snapshots are immutable (regression: handed-out bases used
# to be writable, so any in-place caller mutation silently corrupted the
# cache — and now also every pinned serving epoch sharing the arrays)
# ----------------------------------------------------------------------
def test_published_snapshot_arrays_are_read_only():
    storage = LocalGraphStorage()
    storage.add_edge(1, 2)
    storage.add_edge(1, 3)
    snapshot = storage.to_csr()
    for array in (
        snapshot.node_ids,
        snapshot.indptr,
        snapshot.dsts,
        snapshot.labels,
        snapshot.local_counts,
        snapshot.degrees,
    ):
        assert not array.flags.writeable
    with pytest.raises(ValueError):
        snapshot.dsts[0] = 999
    with pytest.raises(ValueError):
        snapshot.indptr[0] = 7
    # Every refresh publishes frozen arrays: a splice over the base...
    storage.add_edge(1, 4)
    assert not storage.to_csr().dsts.flags.writeable
    # ...and one of every row after a drop.
    storage.drop_snapshot()
    frozen = storage.to_csr()
    assert storage.snapshot_builds == 3
    assert not frozen.dsts.flags.writeable
    hetero = HeterogeneousGraphStorage(num_pim_modules=4)
    hetero.insert_edge(1, 2)
    with pytest.raises(ValueError):
        hetero.to_csr().dsts[0] = 999


def test_refresh_tolerates_frozen_base_arrays():
    """Splices of a few rows and of every row run on ``writeable=False``
    bases.

    Published bases are frozen and shared by reference (epochs, the
    checkpoint loader seeds them via ``SnapshotCache.seed_base``), so
    :func:`merge_snapshot` may never write into a base array — it must
    copy before splicing.  The regression covers both storages and
    asserts the refreshed arrays equal a from-scratch rebuild and are
    themselves fresh (not aliases of the frozen inputs).
    """
    storage = LocalGraphStorage()
    for node in range(12):
        storage.add_edge(node, node + 1)
        storage.add_edge(node, node + 2)
    base = storage.to_csr()
    assert not base.dsts.flags.writeable
    # A few dirty rows -> splice against the frozen base.
    storage.add_edge(0, 99)
    storage.remove_edge(1, 2)
    spliced = storage.to_csr()
    assert spliced.same_arrays(reference_of(storage))
    assert spliced.dsts.base is not base.dsts
    # Every row dirty -> still a splice against a frozen previous base.
    for node in range(12):
        storage.add_edge(node, node + 50)
    assert storage.to_csr().same_arrays(reference_of(storage))
    assert storage.snapshot_builds == 3

    hetero = HeterogeneousGraphStorage(num_pim_modules=4)
    for node in range(8):
        hetero.insert_edge(node, node + 1)
    hetero.to_csr()
    hetero.delete_edge(0, 1)
    hetero.insert_edge(0, 7)
    assert hetero.to_csr().same_arrays(reference_of(hetero))


def test_seed_base_restores_cache_and_allows_mutation():
    """A storage seeded from checkpoint arrays behaves like the original.

    The first refresh is a cache hit on the seeded (frozen) arrays, and
    later mutations splice against that read-only base without raising
    or diverging from a rebuild.
    """
    original = LocalGraphStorage()
    for node in range(6):
        original.add_edge(node, (node + 1) % 6, label=node % 3)
    frozen = original.to_csr()

    restored = LocalGraphStorage()
    restored.restore_rows(frozen)
    # Cache hit: the exact seeded object comes back.
    assert restored.to_csr() is frozen
    assert restored.num_edges == original.num_edges
    assert restored.storage_bytes == original.storage_bytes
    # Mutating after the seed splices against the read-only base.
    restored.add_edge(2, 99)
    restored.remove_edge(0, 1)
    refreshed = restored.to_csr()
    assert refreshed.same_arrays(reference_of(restored))
    # And a batch dirtying every row over the seeded lineage also works.
    for node in range(6):
        restored.add_edge(node, node + 40)
    assert restored.to_csr().same_arrays(reference_of(restored))


def test_restore_rows_requires_empty_storage():
    storage = LocalGraphStorage()
    storage.add_edge(1, 2)
    donor = LocalGraphStorage()
    donor.add_edge(3, 4)
    with pytest.raises(RuntimeError):
        storage.restore_rows(donor.to_csr())
    assert storage.next_hops_with_labels(1) == [(2, 0)] and not storage.has_row(3)
    hetero = HeterogeneousGraphStorage(num_pim_modules=2)
    hetero.insert_edge(1, 2)
    empty = HeterogeneousGraphStorage(num_pim_modules=2)
    with pytest.raises(RuntimeError):
        hetero.restore_arrays(empty.capture_arrays(), base=empty.to_csr())
    assert hetero.next_hops(1) == [2] and hetero.num_rows == 1


def test_row_entries_reads_pinned_rows():
    storage = LocalGraphStorage()
    storage.add_edge(5, 9, label=2)
    storage.add_edge(5, 1, label=7)
    storage.add_edge(3, 5)
    snapshot = storage.to_csr()
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
    config = MoctopusConfig(
        cost_model=CostModel(num_modules=4),
        engine="vectorized",
        high_degree_threshold=8,
    )
    system = Moctopus.from_graph(graph, config)
    with system.begin() as session:
        epoch = session._epoch
        fingerprint = _epoch_array_fingerprint(epoch)
        baseline, _ = session.batch_khop(list(range(10)), 2)
        builds = [storage.snapshot_builds for storage in system._module_storages]

        for round_id in range(6):
            edges = [
                (node, 200 + round_id * 50 + node) for node in range(0, 40, 2)
            ]
            system.insert_edges(edges)
            system.delete_edges(edges[::2])
            system.batch_khop(list(range(8)), 2)  # live queries + migrations
        spliced = [
            storage.snapshot_builds - before
            for storage, before in zip(system._module_storages, builds)
        ]
        assert min(spliced) > 0, "churn must splice into every module's base"

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
# Derived views: degree histogram, transposed blocks, per-label blocks
# ----------------------------------------------------------------------
def test_degree_histogram_counts_rows_by_out_degree():
    snapshot = snapshot_of(
        buffers([(5, [(1, 0), (5, 0), (9, 0)]), (1, [(5, 0)]), (9, [])]),
        bytes_per_entry=12,
        working_set_bytes=100,
        count_local=True,
    )
    histogram = snapshot.degree_histogram()
    assert histogram.tolist() == [1, 1, 0, 1]  # degrees 0, 1 and 3
    assert not histogram.flags.writeable
    assert snapshot.degree_histogram() is histogram  # cached
    empty = snapshot_of(
        [], bytes_per_entry=12, working_set_bytes=1, count_local=True
    )
    assert empty.degree_histogram().tolist() == [0]


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
    snapshot = storage.to_csr()
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
    """Mutation replaces the snapshot object, so stale cached views are
    unreachable rather than invalidated in place."""
    storage = LocalGraphStorage()
    storage.add_edge(0, 1)
    before = storage.to_csr()
    block_before = before.transpose_block()
    histogram_before = before.degree_histogram()
    storage.add_edge(0, 2)
    after = storage.to_csr()
    assert after is not before
    assert after.transpose_block() is not block_before
    assert after.degree_histogram() is not histogram_before
    assert after.transpose_block().dsts.tolist() == [1, 2]
    assert before.transpose_block().dsts.tolist() == [1]  # old view intact


def test_epoch_degree_histogram_sums_pinned_snapshots():
    system = Moctopus.from_graph(
        random_graph(30, 120, seed=9),
        MoctopusConfig(cost_model=CostModel(num_modules=4)),
    )
    epoch = system._epochs.current()
    histogram = epoch.degree_histogram()
    parts = [snapshot.degree_histogram() for snapshot in epoch.snapshots]
    expected = np.zeros(max(len(part) for part in parts), dtype=np.int64)
    for part in parts:
        expected[: len(part)] += part
    assert histogram.tolist() == expected.tolist()
    assert int(histogram.sum()) == sum(
        snapshot.num_rows for snapshot in epoch.snapshots
    )
    assert not histogram.flags.writeable
    assert epoch.degree_histogram() is histogram  # cached

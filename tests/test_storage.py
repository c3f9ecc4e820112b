"""Tests for PIM local graph storage and heterogeneous graph storage."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from model import build_snapshot_reference
from repro.core import Moctopus, MoctopusConfig
from repro.core.hetero_storage import HeterogeneousGraphStorage
from repro.core.local_storage import (
    BYTES_PER_ENTRY,
    BYTES_PER_ROW,
    LocalGraphStorage,
    footprint,
)
from repro.core.snapshot import row_buffer
from repro.pim import CostModel, MemoryCapacityError


# ----------------------------------------------------------------------
# LocalGraphStorage
# ----------------------------------------------------------------------
def test_local_storage_add_and_query():
    storage = LocalGraphStorage()
    assert storage.add_edge(1, 2) is True
    assert storage.add_edge(1, 3) is True
    assert storage.add_edge(1, 2) is False
    assert storage.next_hops(1) == [2, 3]
    assert storage.has_edge(1, 2)
    assert not storage.has_edge(2, 1)
    assert storage.num_rows == 1
    assert storage.num_edges == 2
    assert storage.row_length(1) == 2
    assert storage.row_length(9) == 0


def test_local_storage_labels_are_kept():
    storage = LocalGraphStorage()
    storage.add_edge(1, 2, label=7)
    storage.add_edge(1, 2, label=9)  # refresh
    assert storage.next_hops_with_labels(1) == [(2, 9)]


def test_local_storage_remove_edge():
    storage = LocalGraphStorage()
    storage.add_edge(1, 2)
    assert storage.remove_edge(1, 2) is True
    assert storage.remove_edge(1, 2) is False
    assert storage.remove_edge(5, 6) is False
    assert storage.num_edges == 0


def test_local_storage_row_move_roundtrip():
    storage = LocalGraphStorage()
    storage.add_edge(1, 2)
    storage.add_edge(1, 3, label=4)
    entries = storage.remove_row(1)
    assert entries == [(2, 0), (3, 4)]
    assert storage.num_rows == 0 and storage.num_edges == 0
    other = LocalGraphStorage()
    other.insert_row(1, entries)
    assert other.next_hops(1) == [2, 3]
    with pytest.raises(ValueError):
        other.insert_row(1, [])


def test_local_storage_memory_accounting():
    storage = LocalGraphStorage(capacity_bytes=10_000)
    storage.add_edge(1, 2)
    # One row record (for the source) plus one next-hop entry.
    assert storage.storage_bytes == BYTES_PER_ROW + BYTES_PER_ENTRY
    storage.remove_edge(1, 2)
    assert storage.storage_bytes == BYTES_PER_ROW
    storage.insert_row(2, [(3, 0), (4, 1)])
    assert storage.storage_bytes == footprint(2, 2)
    storage.remove_row(2)
    # A freed row's bytes can be taken again at once.
    assert storage.storage_bytes == BYTES_PER_ROW
    assert storage.fits(10_000 - BYTES_PER_ROW)
    assert not storage.fits(10_000 - BYTES_PER_ROW + 1)


def _two_row_segment():
    """A heap segment of two rows holding three entries."""
    rows = [(1, row_buffer([(2, 0), (3, 0)])), (2, row_buffer([(1, 0)]))]
    return build_snapshot_reference(rows, BYTES_PER_ENTRY, footprint(2, 3), True)


#: ``(write, capacity, stored first, bytes the write asks for, bytes
#: stored once it succeeds)`` — every path by which a module's storage
#: takes memory.
CAPACITY_CASES = [
    ("add_edge's new row", BYTES_PER_ROW - 1, [], BYTES_PER_ROW, footprint(1, 1)),
    ("a new entry", footprint(1, 1), [(1, 2)], BYTES_PER_ENTRY, footprint(1, 2)),
    ("insert_row", footprint(2, 3) - 1, [(1, 2)], footprint(1, 2), footprint(2, 3)),
    ("adopt", footprint(2, 3) - 1, [], footprint(2, 3), footprint(2, 3)),
]


def test_local_storage_capacity_enforced():
    writes = {
        "add_edge's new row": lambda storage: storage.add_edge(1, 2),
        "a new entry": lambda storage: storage.add_edge(1, 3),
        "insert_row": lambda storage: storage.insert_row(2, [(3, 0), (4, 0)]),
        "adopt": lambda storage: storage.adopt(_two_row_segment()),
    }
    for name, capacity, edges, requested, full in CAPACITY_CASES:
        storage = LocalGraphStorage(capacity_bytes=capacity)
        for src, dst in edges:
            storage.add_edge(src, dst)
        before = (storage.storage_bytes, storage.num_rows, storage.num_edges)
        assert not storage.fits(requested), name
        with pytest.raises(MemoryCapacityError) as info:
            writes[name](storage)
        assert info.value.requested == requested, name
        assert info.value.available == capacity - before[0], name
        assert info.value.capacity == capacity, name
        after = (storage.storage_bytes, storage.num_rows, storage.num_edges)
        assert after == before, name
        # A module exactly big enough takes the same write.
        storage = LocalGraphStorage(capacity_bytes=full)
        for src, dst in edges:
            storage.add_edge(src, dst)
        writes[name](storage)
        assert storage.storage_bytes == full and not storage.fits(1), name


def test_non_positive_module_memory_is_refused():
    """A storage, and so a system, cannot be built with no memory; an
    unbounded storage (a session's staged rows) takes any write."""
    for capacity in (0, -1):
        with pytest.raises(ValueError):
            LocalGraphStorage(capacity_bytes=capacity)
        config = MoctopusConfig(
            cost_model=CostModel(num_modules=2, module_memory_bytes=capacity)
        )
        with pytest.raises(ValueError):
            Moctopus(config)
    unbounded = LocalGraphStorage()
    assert unbounded.capacity_bytes is None and unbounded.fits(1 << 62)


# ----------------------------------------------------------------------
# HeterogeneousGraphStorage
# ----------------------------------------------------------------------
def test_hetero_insert_protocol_outcome():
    storage = HeterogeneousGraphStorage(num_pim_modules=4)
    outcome = storage.insert_edge(1, 2)
    assert outcome.applied
    assert outcome.host_writes == 1
    assert outcome.pim_map_lookups >= 2
    # Duplicate insert is detected by the PIM-side elem_position_map alone.
    duplicate = storage.insert_edge(1, 2)
    assert not duplicate.applied
    assert duplicate.host_writes == 0
    assert storage.num_edges == 1
    assert storage.has_edge(1, 2)
    assert storage.next_hops(1) == [2]


def test_hetero_delete_and_slot_reuse():
    storage = HeterogeneousGraphStorage(num_pim_modules=4)
    storage.insert_edge(1, 2)
    storage.insert_edge(1, 3)
    outcome = storage.delete_edge(1, 2)
    assert outcome.applied and outcome.host_writes == 1
    assert storage.delete_edge(1, 2).applied is False
    assert storage.next_hops(1) == [3]
    # The freed slot is reused by the free_list_map.
    storage.insert_edge(1, 4)
    assert sorted(storage.next_hops(1)) == [3, 4]
    assert storage.num_edges == 2


def test_hetero_vector_growth():
    storage = HeterogeneousGraphStorage(num_pim_modules=2)
    grew = 0
    for dst in range(1, 40):
        outcome = storage.insert_edge(0, dst)
        grew += 1 if outcome.host_streamed_bytes else 0
    assert grew >= 2  # capacity doubled at least twice from 8 slots
    assert storage.row_length(0) == 39
    assert sorted(storage.next_hops(0)) == list(range(1, 40))
    assert storage.row_bytes(0) > 0
    assert storage.total_bytes() >= storage.row_bytes(0)


def test_hetero_row_move_roundtrip():
    storage = HeterogeneousGraphStorage(num_pim_modules=2)
    storage.insert_row(7, [(1, 0), (2, 0), (3, 5)])
    assert storage.row_length(7) == 3
    assert storage.has_edge(7, 3)
    entries = storage.remove_row(7)
    assert sorted(entries) == [(1, 0), (2, 0), (3, 5)]
    assert storage.num_rows == 0
    assert storage.remove_row(7) == []
    storage.insert_row(8, [(1, 0)])
    with pytest.raises(ValueError):
        storage.insert_row(8, [(2, 0)])


def test_hetero_index_module_sharding():
    storage = HeterogeneousGraphStorage(num_pim_modules=4)
    modules = {storage.index_module_of(node) for node in range(16)}
    assert modules == {0, 1, 2, 3}
    with pytest.raises(ValueError):
        HeterogeneousGraphStorage(num_pim_modules=0)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(0, 5), st.integers(0, 5)),
        max_size=60,
    )
)
def test_hetero_storage_matches_reference_dict(operations):
    """Insert/delete sequences agree with a plain set-of-edges reference."""
    storage = HeterogeneousGraphStorage(num_pim_modules=4)
    reference = set()
    for is_insert, src, dst in operations:
        if is_insert:
            outcome = storage.insert_edge(src, dst)
            assert outcome.applied == ((src, dst) not in reference)
            reference.add((src, dst))
        else:
            outcome = storage.delete_edge(src, dst)
            assert outcome.applied == ((src, dst) in reference)
            reference.discard((src, dst))
    assert storage.num_edges == len(reference)
    for src, dst in reference:
        assert storage.has_edge(src, dst)
        assert dst in storage.next_hops(src)

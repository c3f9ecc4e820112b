"""Heterogeneous graph storage for high-degree nodes (paper Section 3.3).

High-degree nodes live on the host, where the most query-efficient
layout is a contiguous ``cols_vector`` per row: fetching a hub's entire
next-hop list is one sequential scan.  Updates, however, would force the
host to search the vector for duplicates and manage free slots — so the
paper splits the work:

* the **host side** keeps only the ``cols_vector`` (a growable array per
  row, possibly with holes) and performs the single positional write of
  an update;
* the **PIM side** keeps two supplementary hash maps *per row* —
  ``elem_position_map`` mapping the row's ``dst`` ids to the position of
  each edge in the vector, and ``free_list_map`` listing free positions
  (allocated last-in first-out) — and performs existence checks and
  free-slot allocation.

A ``cols_vector`` is one contiguous row buffer
(:mod:`repro.core.snapshot`): an ``array('q')`` of ``2 x capacity``
values, slot ``p`` being ``dst, label`` at ``2p, 2p + 1`` and an empty
slot carrying the reserved ``dst`` :data:`~repro.core.snapshot.HOLE`.
The snapshot splice takes these buffers holes and all and masks the
holes in numpy; :meth:`HeterogeneousGraphStorage.capture_arrays` lays
the same buffers end to end for a checkpoint.  Both copy — no view of a
slot buffer outlives the call, or the next growth would fail.  Every
mutation records its row in the storage's
:class:`~repro.core.snapshot.SnapshotCache`, which the next
:meth:`~HeterogeneousGraphStorage.to_csr` splices into the cached base.

The insert protocol (the paper's worked example for edge ``<1, 2>``):
``elem_position_map`` confirms the edge is absent → ``free_list_map``
allocates a position → the map records ``(<1, 2>, pos)`` → the host
writes ``2`` at that position of row 1's ``cols_vector``.  When the map
finds the edge already there, the insert is a relabel: the host writes
the new label at the recorded position (and nothing when it is the
label the edge already has).

The class below is the data structure; :class:`HeteroUpdateOutcome`
reports which side did how much work so the update processor can charge
the simulated hardware accordingly (host write vs PIM map operations).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.snapshot import (
    HOLE,
    GraphSnapshot,
    RowBuffer,
    RowEntries,
    SnapshotCache,
    join_buffers,
    row_buffer,
    split_buffers,
)
from repro.graph.digraph import DEFAULT_LABEL

#: Growth factor of a ``cols_vector`` when it runs out of capacity.
GROWTH_FACTOR = 2
#: Initial capacity of a newly created ``cols_vector``.
INITIAL_CAPACITY = 8
#: Bytes per ``cols_vector`` slot (NodeID + label).
BYTES_PER_SLOT = 12

_EMPTY_SLOT = array("q", (HOLE, 0))


@dataclass
class HeteroUpdateOutcome:
    """What one heterogeneous-storage update did, for cost accounting.

    Attributes
    ----------
    applied:
        Whether the update changed the graph (an insert of an existing
        edge or a delete of a missing edge is a no-op).
    pim_map_lookups:
        Random hash-map accesses performed on the PIM side
        (``elem_position_map`` / ``free_list_map`` reads and writes).
    host_writes:
        Positional writes performed by the host into ``cols_vector``.
    host_streamed_bytes:
        Bytes the host had to stream (only non-zero when a vector grows
        and its contents are copied).
    """

    applied: bool
    pim_map_lookups: int = 0
    host_writes: int = 0
    host_streamed_bytes: int = 0


class ColsVector:
    """A growable positional array of next hops for one high-degree row.

    ``slots`` is a row buffer at twice the capacity: slot ``p`` is the
    pair ``slots[2p], slots[2p + 1]``, and an empty slot carries
    :data:`~repro.core.snapshot.HOLE` as its ``dst``.
    """

    __slots__ = ("slots", "size")

    def __init__(self, slots: RowBuffer, size: int = 0) -> None:
        self.slots = slots
        self.size = size

    @property
    def capacity(self) -> int:
        """Number of slots currently allocated."""
        return len(self.slots) >> 1

    def occupied(self) -> RowEntries:
        """The stored ``(dst, label)`` pairs in position order."""
        values = iter(self.slots)
        return [pair for pair in zip(values, values) if pair[0] != HOLE]

    def grow(self) -> int:
        """Double the capacity; return the number of bytes copied."""
        old_capacity = self.capacity
        self.slots.extend(_EMPTY_SLOT * (old_capacity * (GROWTH_FACTOR - 1)))
        return old_capacity * BYTES_PER_SLOT


class HeterogeneousGraphStorage:
    """Host-resident ``cols_vector`` rows plus PIM-resident index maps."""

    #: Bytes streamed per occupied slot when a row is scanned (``RowSource``).
    bytes_per_entry = BYTES_PER_SLOT

    def __init__(self, num_pim_modules: int) -> None:
        if num_pim_modules <= 0:
            raise ValueError("num_pim_modules must be positive")
        self._num_pim_modules = num_pim_modules
        self._vectors: Dict[int, ColsVector] = {}
        #: ``row -> {dst: position}`` — conceptually sharded over PIM modules.
        self._elem_position_map: Dict[int, Dict[int, int]] = {}
        #: ``row -> free positions`` (allocated LIFO) — conceptually on PIM modules.
        self._free_list_map: Dict[int, array] = {}
        self._num_edges = 0
        #: Slots allocated across all rows (``total_bytes`` in O(1)).
        self._total_slots = 0
        #: Base snapshot + dirty rows (see repro.core.snapshot).
        self._cache = SnapshotCache()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Number of high-degree rows stored."""
        return len(self._vectors)

    @property
    def num_edges(self) -> int:
        """Number of stored edges."""
        return self._num_edges

    def has_row(self, node: int) -> bool:
        """Whether ``node`` has a host-resident row."""
        return node in self._vectors

    def rows(self) -> Iterator[int]:
        """Iterate over stored row ids."""
        return iter(self._vectors)

    def row_length(self, node: int) -> int:
        """Out-degree of ``node`` (0 when the row is absent)."""
        vector = self._vectors.get(node)
        return 0 if vector is None else vector.size

    def row_bytes(self, node: int) -> int:
        """Bytes the host streams to read the row's occupied prefix.

        ``cols_vector`` slots are filled from the free list, so occupied
        entries stay packed toward the front and a query only has to scan
        ``size`` slots, not the full capacity.
        """
        vector = self._vectors.get(node)
        return 0 if vector is None else vector.size * BYTES_PER_SLOT

    def total_bytes(self) -> int:
        """Total host memory occupied by all ``cols_vector`` rows."""
        return self._total_slots * BYTES_PER_SLOT

    @property
    def working_set_bytes(self) -> int:
        """The capacity-based footprint the host's random-access cost
        depends on, as the host snapshots carry it (never 0)."""
        return max(self.total_bytes(), 1)

    def index_module_of(self, node: int) -> int:
        """PIM module that shards ``node``'s index maps.

        The supplementary maps are spread across modules by row id so
        that no single module becomes an index hotspot.
        """
        return node % self._num_pim_modules

    # ------------------------------------------------------------------
    # Query access (host side)
    # ------------------------------------------------------------------
    def next_hops(self, node: int) -> List[int]:
        """Next-hop NodeIDs of ``node`` via one contiguous scan."""
        vector = self._vectors.get(node)
        if vector is None:
            return []
        return [dst for dst in vector.slots[::2] if dst != HOLE]

    def next_hops_with_labels(self, node: int) -> List[Tuple[int, int]]:
        """Next hops of ``node`` as ``(dst, label)`` pairs."""
        vector = self._vectors.get(node)
        if vector is None:
            return []
        return vector.occupied()

    # The names a ``RowSource`` is read by (live rows and pinned
    # snapshots expand through the same scalar loop).
    row_dsts = next_hops
    row_entries = next_hops_with_labels

    def local_hops(self, node: int) -> int:
        """Always 0, like a host snapshot's ``local_counts``: the host
        never detects misplacement."""
        return 0

    def has_edge(self, src: int, dst: int) -> bool:
        """Edge existence via the PIM-side ``elem_position_map``."""
        return dst in self._elem_position_map.get(src, ())

    def _fetch_row(self, node: int) -> Optional[RowBuffer]:
        """``node``'s slot buffer, holes included (``None`` when absent)."""
        vector = self._vectors.get(node)
        return None if vector is None else vector.slots

    def to_csr(self) -> GraphSnapshot:
        """CSR snapshot of the host rows (cached; incrementally refreshed).

        Entries appear in ``cols_vector`` position order (the order a
        host scan streams them; the splice skips the holes);
        ``working_set_bytes`` is the capacity-based footprint that the
        host's random-access cost depends on.  The refresh (return the
        cached base or splice the dirty rows into it) lives in
        :class:`~repro.core.snapshot.SnapshotCache`.
        """
        return self._cache.refresh(
            self._vectors.keys,
            self._fetch_row,
            bytes_per_entry=BYTES_PER_SLOT,
            working_set_bytes=lambda: self.working_set_bytes,
            count_local=False,
        )

    def drop_snapshot(self) -> None:
        """Release the cached CSR arrays (rebuilt on the next ``to_csr``)."""
        self._cache.drop()

    @property
    def snapshot_builds(self) -> int:
        """Number of snapshot refreshes performed (cache hits excluded)."""
        return self._cache.builds

    # ------------------------------------------------------------------
    # Mutation (split between host and PIM, reported in the outcome)
    # ------------------------------------------------------------------
    def ensure_row(self, node: int) -> bool:
        """Create an empty row for ``node``; return ``True`` if it was new."""
        if node in self._vectors:
            return False
        self._vectors[node] = ColsVector(_EMPTY_SLOT * INITIAL_CAPACITY)
        self._elem_position_map[node] = {}
        self._free_list_map[node] = array("q", range(INITIAL_CAPACITY))
        self._total_slots += INITIAL_CAPACITY
        self._cache.record(node)
        return True

    def insert_edge(
        self, src: int, dst: int, label: int = DEFAULT_LABEL
    ) -> HeteroUpdateOutcome:
        """Insert ``src -> dst`` following the paper's split protocol.

        Re-inserting an existing edge relabels it in place — the same
        answer a PIM-module row gives — at the cost of one positional
        host write when the label actually changes.
        """
        if dst == HOLE:
            raise ValueError(f"node id {HOLE} is reserved for empty slots")
        self.ensure_row(src)
        lookups = 1  # elem_position_map existence check (PIM side).
        vector = self._vectors[src]
        positions = self._elem_position_map[src]
        position = positions.get(dst)
        if position is not None:
            if vector.slots[2 * position + 1] == label:
                return HeteroUpdateOutcome(applied=False, pim_map_lookups=lookups)
            vector.slots[2 * position + 1] = label
            self._cache.record(src)
            return HeteroUpdateOutcome(
                applied=False, pim_map_lookups=lookups, host_writes=1
            )

        free_list = self._free_list_map[src]
        streamed = 0
        if not free_list:
            # The vector is full: grow it and publish the new free slots.
            old_capacity = vector.capacity
            streamed = vector.grow()
            free_list.extend(range(old_capacity, vector.capacity))
            self._total_slots += vector.capacity - old_capacity
        position = free_list.pop()
        lookups += 1  # free_list_map allocation (PIM side).
        positions[dst] = position
        lookups += 1  # elem_position_map insertion (PIM side).
        vector.slots[2 * position] = dst
        vector.slots[2 * position + 1] = label
        vector.size += 1
        self._num_edges += 1
        self._cache.record(src)
        return HeteroUpdateOutcome(
            applied=True,
            pim_map_lookups=lookups,
            host_writes=1,
            host_streamed_bytes=streamed,
        )

    def load_edges(self, src: int, dsts: List[int], labels: List[int]) -> None:
        """Insert new edges ``src -> dsts[i]`` in order (bulk load).

        Slot positions, free list, growth and slot totals end as one
        :meth:`insert_edge` per edge leaves them: positions are popped
        from the free list LIFO, and a full vector doubles before the
        next pop.  No ``dst`` may be in the row yet or repeat (a loadable
        table's pairs are distinct), so no existence check is made and no
        outcome is reported.
        """
        if not dsts:
            return
        self.ensure_row(src)
        vector = self._vectors[src]
        free_list = self._free_list_map[src]
        positions: List[int] = []
        while len(positions) < len(dsts):
            if not free_list:
                old_capacity = vector.capacity
                vector.grow()
                free_list.extend(range(old_capacity, vector.capacity))
                self._total_slots += vector.capacity - old_capacity
            # Pop, last first, as many free slots as are still needed.
            keep = max(len(free_list) - (len(dsts) - len(positions)), 0)
            positions.extend(reversed(free_list[keep:]))
            del free_list[keep:]
        self._elem_position_map[src].update(zip(dsts, positions))
        slots = vector.slots
        for position, dst, label in zip(positions, dsts, labels):
            slots[2 * position] = dst
            slots[2 * position + 1] = label
        vector.size += len(dsts)
        self._num_edges += len(dsts)
        self._cache.record(src)

    def delete_edge(self, src: int, dst: int) -> HeteroUpdateOutcome:
        """Delete ``src -> dst`` following the split protocol."""
        lookups = 1  # elem_position_map lookup (PIM side).
        positions = self._elem_position_map.get(src)
        position = None if positions is None else positions.pop(dst, None)
        if position is None:
            return HeteroUpdateOutcome(applied=False, pim_map_lookups=lookups)
        vector = self._vectors[src]
        vector.slots[2 * position] = HOLE
        vector.size -= 1
        self._free_list_map[src].append(position)
        lookups += 1  # free_list_map release (PIM side).
        self._num_edges -= 1
        self._cache.record(src)
        return HeteroUpdateOutcome(
            applied=True, pim_map_lookups=lookups, host_writes=1
        )

    # ------------------------------------------------------------------
    # Bulk moves (labor division migrations)
    # ------------------------------------------------------------------
    def insert_row(self, node: int, entries: RowEntries) -> None:
        """Install a whole row (a node promoted from a PIM module)."""
        previous = self._vectors.get(node)
        if previous is not None:
            if previous.size > 0:
                raise ValueError(f"row {node} already holds data on the host")
            self._total_slots -= previous.capacity
        count = len(entries)
        capacity = max(INITIAL_CAPACITY, count * GROWTH_FACTOR)
        slots = row_buffer(entries)
        slots.extend(_EMPTY_SLOT * (capacity - count))
        self._vectors[node] = ColsVector(slots, count)
        self._elem_position_map[node] = {
            dst: position for position, (dst, _) in enumerate(entries)
        }
        self._free_list_map[node] = array("q", range(count, capacity))
        self._total_slots += capacity
        self._num_edges += count
        self._cache.record(node)

    def remove_row(self, node: int) -> RowEntries:
        """Remove a row entirely and return its entries (demotion path)."""
        vector = self._vectors.pop(node, None)
        if vector is None:
            return []
        del self._elem_position_map[node]
        del self._free_list_map[node]
        self._total_slots -= vector.capacity
        self._num_edges -= vector.size
        self._cache.record(node)
        return vector.occupied()

    # ------------------------------------------------------------------
    # Checkpoint capture / restore
    # ------------------------------------------------------------------
    def capture_arrays(self) -> Dict[str, np.ndarray]:
        """Positional state a CSR snapshot cannot express, as flat arrays.

        The split protocol's future behaviour (and simulated cost)
        depends on exactly where each edge sits in its ``cols_vector``,
        how large every vector's capacity is (the host's working-set
        bytes) and the *order* of each free list (slots are allocated
        LIFO).  A checkpoint therefore records, per row sorted by id:
        ``caps``, the occupied ``(position, dst, label)`` triples in
        position order (``occ_flat``, bounded per row by ``occ_indptr``)
        and the free lists verbatim (``free_flat`` / ``free_indptr``).
        Every array is a private copy: the slot buffers are joined into
        one ``bytes`` and never exported past this call.
        """
        row_ids = sorted(self._vectors)
        vectors = [self._vectors[node] for node in row_ids]
        slot_bounds, values = join_buffers([vector.slots for vector in vectors])
        slot_indptr = slot_bounds >> 1
        slots = values.reshape(-1, 2)
        live = np.flatnonzero(slots[:, 0] != HOLE)
        sizes = np.fromiter(
            (vector.size for vector in vectors), dtype=np.int64, count=len(vectors)
        )
        occ_indptr = np.zeros(len(vectors) + 1, dtype=np.int64)
        np.cumsum(3 * sizes, out=occ_indptr[1:])
        free_indptr, free_flat = join_buffers(
            [self._free_list_map[node] for node in row_ids]
        )
        return {
            "row_ids": np.asarray(row_ids, dtype=np.int64),
            "caps": np.diff(slot_indptr),
            "occ_indptr": occ_indptr,
            "occ_flat": np.column_stack(
                [live - np.repeat(slot_indptr[:-1], sizes), slots[live]]
            ).reshape(-1),
            "free_indptr": free_indptr,
            "free_flat": free_flat,
        }

    def restore_arrays(
        self, arrays: Dict[str, np.ndarray], base: GraphSnapshot
    ) -> None:
        """Rebuild vectors, index maps and free lists from a capture.

        The inverse of :meth:`capture_arrays`: the triples are scattered
        into one hole-filled slot array that is cut into per-row buffers.
        ``base`` seeds the snapshot cache with the checkpoint's CSR
        arrays.  The storage must be empty (freshly constructed).
        """
        if self._vectors:
            raise RuntimeError("restore_arrays requires an empty storage")
        caps = arrays["caps"]
        slot_indptr = np.zeros(len(caps) + 1, dtype=np.int64)
        np.cumsum(caps, out=slot_indptr[1:])
        triples = arrays["occ_flat"].reshape(-1, 3)
        occ_bounds = arrays["occ_indptr"] // 3

        slots = np.empty((int(slot_indptr[-1]), 2), dtype=np.int64)
        slots[:, 0] = HOLE
        slots[:, 1] = 0
        slots[np.repeat(slot_indptr[:-1], np.diff(occ_bounds)) + triples[:, 0]] = triples[:, 1:]

        positions = triples[:, 0].tolist()
        dsts = triples[:, 1].tolist()
        occ_bounds = occ_bounds.tolist()
        for node, start, stop, slot_buffer, free_list in zip(
            arrays["row_ids"].tolist(),
            occ_bounds,
            occ_bounds[1:],
            split_buffers(slots.reshape(-1), 2 * slot_indptr),
            split_buffers(arrays["free_flat"], arrays["free_indptr"]),
        ):
            self._vectors[node] = ColsVector(slot_buffer, stop - start)
            self._elem_position_map[node] = dict(
                zip(dsts[start:stop], positions[start:stop])
            )
            self._free_list_map[node] = free_list
        self._total_slots = int(slot_indptr[-1])
        self._num_edges = len(triples)
        self._cache.seed_base(base)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HeterogeneousGraphStorage(rows={self.num_rows}, "
            f"edges={self.num_edges})"
        )

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
  ``elem_position_map`` mapping ``(row, dst)`` to the position of that
  edge in the vector, and ``free_list_map`` listing free positions — and
  performs existence checks and free-slot allocation.

The insert protocol (the paper's worked example for edge ``<1, 2>``):
``elem_position_map`` confirms the edge is absent → ``free_list_map``
allocates a position → the map records ``(<1, 2>, pos)`` → the host
writes ``2`` at that position of row 1's ``cols_vector``.

The class below is the data structure; :class:`HeteroUpdateOutcome`
reports which side did how much work so the update processor can charge
the simulated hardware accordingly (host write vs PIM map operations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.snapshot import (
    DEFAULT_SNAPSHOT_COMPACT_RATIO,
    GraphSnapshot,
    SnapshotCache,
)
from repro.graph.digraph import DEFAULT_LABEL

#: Growth factor of a ``cols_vector`` when it runs out of capacity.
GROWTH_FACTOR = 2
#: Initial capacity of a newly created ``cols_vector``.
INITIAL_CAPACITY = 8
#: Bytes per ``cols_vector`` slot (NodeID + label).
BYTES_PER_SLOT = 12


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
    """A growable positional array of next hops for one high-degree row."""

    def __init__(self, capacity: int = INITIAL_CAPACITY) -> None:
        self.slots: List[Optional[Tuple[int, int]]] = [None] * capacity
        self.size = 0

    @property
    def capacity(self) -> int:
        """Number of slots currently allocated."""
        return len(self.slots)

    def occupied(self) -> List[Tuple[int, int]]:
        """The stored ``(dst, label)`` pairs in position order."""
        return [slot for slot in self.slots if slot is not None]

    def grow(self) -> int:
        """Double the capacity; return the number of bytes copied."""
        old_capacity = self.capacity
        self.slots.extend([None] * (old_capacity * (GROWTH_FACTOR - 1)))
        return old_capacity * BYTES_PER_SLOT


class HeterogeneousGraphStorage:
    """Host-resident ``cols_vector`` rows plus PIM-resident index maps."""

    def __init__(
        self,
        num_pim_modules: int,
        compact_ratio: float = DEFAULT_SNAPSHOT_COMPACT_RATIO,
        incremental: bool = True,
    ) -> None:
        if num_pim_modules <= 0:
            raise ValueError("num_pim_modules must be positive")
        self._num_pim_modules = num_pim_modules
        self._vectors: Dict[int, ColsVector] = {}
        #: ``(row, dst) -> position`` — conceptually sharded over PIM modules.
        self._elem_position_map: Dict[Tuple[int, int], int] = {}
        #: ``row -> list of free positions`` — conceptually on PIM modules.
        self._free_list_map: Dict[int, List[int]] = {}
        self._num_edges = 0
        #: Base snapshot + overlay + refresh strategy (see repro.core.snapshot).
        self._cache = SnapshotCache(compact_ratio, incremental)

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
        return sum(vector.capacity * BYTES_PER_SLOT for vector in self._vectors.values())

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
        return [dst for dst, _ in vector.occupied()]

    def next_hops_with_labels(self, node: int) -> List[Tuple[int, int]]:
        """Next hops of ``node`` as ``(dst, label)`` pairs."""
        vector = self._vectors.get(node)
        if vector is None:
            return []
        return vector.occupied()

    def has_edge(self, src: int, dst: int) -> bool:
        """Edge existence via the PIM-side ``elem_position_map``."""
        return (src, dst) in self._elem_position_map

    def _fetch_row(self, node: int) -> Optional[List[Tuple[int, int]]]:
        """Current entries of ``node``'s row (``None`` when absent)."""
        vector = self._vectors.get(node)
        return None if vector is None else vector.occupied()

    def _all_rows(self) -> List[Tuple[int, List[Tuple[int, int]]]]:
        return [(node, vector.occupied()) for node, vector in self._vectors.items()]

    def to_csr(self) -> GraphSnapshot:
        """CSR snapshot of the host rows (cached; incrementally refreshed).

        Entries appear in ``cols_vector`` position order (the order a
        host scan streams them); ``working_set_bytes`` is the
        capacity-based footprint that the host's random-access cost
        depends on.  Refresh strategy (return cached / splice dirty rows
        / compact) lives in :class:`~repro.core.snapshot.SnapshotCache`;
        every strategy yields array-identical snapshots.
        """
        return self._cache.refresh(
            self._all_rows,
            self._fetch_row,
            bytes_per_entry=BYTES_PER_SLOT,
            working_set_bytes=lambda: max(self.total_bytes(), 1),
            count_local=False,
        )

    def drop_snapshot(self) -> None:
        """Release the cached CSR arrays (rebuilt on the next ``to_csr``)."""
        self._cache.drop()

    # Refresh-strategy counters, aliased for tests and diagnostics.
    @property
    def snapshot_builds(self) -> int:
        """Number of snapshot refreshes performed (any strategy)."""
        return self._cache.builds

    @property
    def snapshot_full_builds(self) -> int:
        """Refreshes that rebuilt the base from scratch."""
        return self._cache.full_builds

    @property
    def snapshot_merges(self) -> int:
        """Refreshes that spliced the overlay into the cached base."""
        return self._cache.merges

    @property
    def snapshot_compactions(self) -> int:
        """Full builds forced by the overlay crossing ``compact_ratio``."""
        return self._cache.compactions

    # ------------------------------------------------------------------
    # Mutation (split between host and PIM, reported in the outcome)
    # ------------------------------------------------------------------
    def ensure_row(self, node: int) -> bool:
        """Create an empty row for ``node``; return ``True`` if it was new."""
        if node in self._vectors:
            return False
        self._vectors[node] = ColsVector()
        self._free_list_map[node] = list(range(INITIAL_CAPACITY))
        if self._cache.tracking:
            self._cache.overlay.record_add(node)
        return True

    def insert_edge(
        self, src: int, dst: int, label: int = DEFAULT_LABEL
    ) -> HeteroUpdateOutcome:
        """Insert ``src -> dst`` following the paper's split protocol."""
        self.ensure_row(src)
        lookups = 1  # elem_position_map existence check (PIM side).
        if (src, dst) in self._elem_position_map:
            return HeteroUpdateOutcome(applied=False, pim_map_lookups=lookups)

        vector = self._vectors[src]
        free_list = self._free_list_map.setdefault(src, [])
        streamed = 0
        if not free_list:
            # The vector is full: grow it and publish the new free slots.
            old_capacity = vector.capacity
            streamed = vector.grow()
            free_list.extend(range(old_capacity, vector.capacity))
        position = free_list.pop()
        lookups += 1  # free_list_map allocation (PIM side).
        self._elem_position_map[(src, dst)] = position
        lookups += 1  # elem_position_map insertion (PIM side).
        vector.slots[position] = (dst, label)
        vector.size += 1
        self._num_edges += 1
        if self._cache.tracking:
            self._cache.overlay.record_add(src)
        return HeteroUpdateOutcome(
            applied=True,
            pim_map_lookups=lookups,
            host_writes=1,
            host_streamed_bytes=streamed,
        )

    def delete_edge(self, src: int, dst: int) -> HeteroUpdateOutcome:
        """Delete ``src -> dst`` following the split protocol."""
        lookups = 1  # elem_position_map lookup (PIM side).
        position = self._elem_position_map.pop((src, dst), None)
        if position is None:
            return HeteroUpdateOutcome(applied=False, pim_map_lookups=lookups)
        vector = self._vectors[src]
        vector.slots[position] = None
        vector.size -= 1
        self._free_list_map.setdefault(src, []).append(position)
        lookups += 1  # free_list_map release (PIM side).
        self._num_edges -= 1
        if self._cache.tracking:
            self._cache.overlay.record_sub(src)
        return HeteroUpdateOutcome(
            applied=True, pim_map_lookups=lookups, host_writes=1
        )

    # ------------------------------------------------------------------
    # Bulk moves (labor division migrations)
    # ------------------------------------------------------------------
    def insert_row(self, node: int, entries: List[Tuple[int, int]]) -> None:
        """Install a whole row (a node promoted from a PIM module)."""
        if node in self._vectors and self._vectors[node].size > 0:
            raise ValueError(f"row {node} already holds data on the host")
        capacity = max(INITIAL_CAPACITY, len(entries) * GROWTH_FACTOR)
        vector = ColsVector(capacity=capacity)
        for position, (dst, label) in enumerate(entries):
            vector.slots[position] = (dst, label)
            self._elem_position_map[(node, dst)] = position
        vector.size = len(entries)
        self._vectors[node] = vector
        self._free_list_map[node] = list(range(len(entries), capacity))
        self._num_edges += len(entries)
        if self._cache.tracking:
            self._cache.overlay.record_move_in(node)

    def remove_row(self, node: int) -> List[Tuple[int, int]]:
        """Remove a row entirely and return its entries (demotion path)."""
        vector = self._vectors.pop(node, None)
        if vector is None:
            return []
        entries = vector.occupied()
        for dst, _ in entries:
            self._elem_position_map.pop((node, dst), None)
        self._free_list_map.pop(node, None)
        self._num_edges -= len(entries)
        if self._cache.tracking:
            self._cache.overlay.record_move_out(node)
        return entries

    # ------------------------------------------------------------------
    # Checkpoint capture / restore
    # ------------------------------------------------------------------
    def capture_state(self) -> Dict[str, List]:
        """Positional state a CSR snapshot cannot express.

        The split protocol's future behaviour (and simulated cost)
        depends on exactly where each edge sits in its ``cols_vector``,
        how large every vector's capacity is (the host's working-set
        bytes) and the *order* of each free list (slots are allocated
        LIFO).  A checkpoint therefore records, per row sorted by id:
        capacity, the occupied ``(position, dst, label)`` slots in
        position order, and the free list verbatim.
        """
        row_ids = sorted(self._vectors)
        capacities: List[int] = []
        occupied: List[List[Tuple[int, int, int]]] = []
        free_lists: List[List[int]] = []
        for node in row_ids:
            vector = self._vectors[node]
            capacities.append(vector.capacity)
            occupied.append(
                [
                    (position, slot[0], slot[1])
                    for position, slot in enumerate(vector.slots)
                    if slot is not None
                ]
            )
            free_lists.append(list(self._free_list_map.get(node, [])))
        return {
            "row_ids": row_ids,
            "capacities": capacities,
            "occupied": occupied,
            "free_lists": free_lists,
        }

    def restore_state(
        self, state: Dict[str, List], base: Optional[GraphSnapshot] = None
    ) -> None:
        """Rebuild vectors, index maps and free lists from a capture.

        ``base`` optionally seeds the snapshot cache with the
        checkpoint's CSR arrays.  The storage must be empty (freshly
        constructed).
        """
        if self._vectors:
            raise RuntimeError("restore_state requires an empty storage")
        for node, capacity, occupied, free_list in zip(
            state["row_ids"],
            state["capacities"],
            state["occupied"],
            state["free_lists"],
        ):
            vector = ColsVector(capacity=capacity)
            for position, dst, label in occupied:
                vector.slots[position] = (dst, label)
                self._elem_position_map[(node, dst)] = position
            vector.size = len(occupied)
            self._vectors[node] = vector
            self._free_list_map[node] = list(free_list)
            self._num_edges += len(occupied)
        if base is not None:
            self._cache.seed_base(base)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HeterogeneousGraphStorage(rows={self.num_rows}, "
            f"edges={self.num_edges})"
        )

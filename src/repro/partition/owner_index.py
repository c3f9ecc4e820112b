"""Vectorized owner lookups over the ``node_partition_vector``.

The array execution kernels, the migrator's columnar vote and epoch
captures need to answer "which partition owns each of these nodes?" for
whole arrays at once.  :class:`OwnerIndex` freezes the
:class:`~repro.partition.base.PartitionMap` into one of two numpy
lookup structures and caches it against the map's version stamp, so
back-to-back batches between placement changes share the same arrays.

Reasonably dense node ids get a flat id-indexed vector (O(1) gathers);
sparse id spaces — where that vector would dwarf the assignment itself —
fall back to sorted ``(nodes, partitions)`` pairs probed by binary
search.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.partition.base import PartitionMap

_NO_ENTRIES = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


class OwnerIndex:
    """Version-cached, array-at-a-time view of a :class:`PartitionMap`."""

    #: Owner code of a node the partitioner has never seen (dangling edge).
    UNKNOWN = -2

    def __init__(self) -> None:
        self._dense: Optional[np.ndarray] = None
        self._nodes: Optional[np.ndarray] = None
        self._parts: Optional[np.ndarray] = None
        self._version = -1

    def refresh(self, partition_map: PartitionMap) -> None:
        """Bring the lookup structure up to date with the map.

        Callers refresh once per batch: node placement cannot change
        mid-batch (updates partition against the batch-start vector,
        queries cannot be interrupted by migrations).  When the map's
        change journal still covers the gap and the dense representation
        applies, only the changed entries are patched in; otherwise one
        pass over the partition map rebuilds the structure.
        """
        if self._version == partition_map.version:
            return
        if self._dense is not None:
            delta = partition_map.changes_since(self._version)
            if delta is not None and self._apply_delta(delta, partition_map):
                self._version = partition_map.version
                return
        self._rebuild(partition_map)

    def _apply_delta(
        self, delta: list, partition_map: PartitionMap
    ) -> bool:
        """Patch recent placement changes into the dense vector.

        Applied in journal order so re-placements resolve to the latest
        assignment.  Returns ``False`` (caller rebuilds) when a new node
        id would stretch the dense vector past the sparsity bound.
        """
        dense = self._dense
        highest = max((node for node, _ in delta), default=-1)
        if highest >= dense.size:
            if highest + 1 > 4 * len(partition_map) + 1024:
                return False
            grown = np.full(highest + 1, self.UNKNOWN, dtype=np.int64)
            grown[: dense.size] = dense
            dense = self._dense = grown
        for node, part in delta:
            dense[node] = part
        return True

    def _rebuild(self, partition_map: PartitionMap) -> None:
        count = len(partition_map)
        nodes = np.fromiter(
            (node for node, _ in partition_map.items()), dtype=np.int64, count=count
        )
        parts = np.fromiter(
            (part for _, part in partition_map.items()), dtype=np.int64, count=count
        )
        highest = int(nodes.max()) if count else -1
        if highest + 1 <= 4 * count + 1024:
            dense = np.full(highest + 1, self.UNKNOWN, dtype=np.int64)
            dense[nodes] = parts
            self._dense = dense
            self._nodes = None
            self._parts = None
        else:
            order = np.argsort(nodes)
            self._dense = None
            self._nodes = nodes[order]
            self._parts = parts[order]
        self._version = partition_map.version

    def owner_of(self, node: int) -> int:
        """Owner partition of one node (:data:`UNKNOWN` when unplaced)."""
        dense = self._dense
        if dense is not None:
            if 0 <= node < dense.size:
                return dense.item(node)
            return self.UNKNOWN
        owner_nodes = self._nodes
        if owner_nodes is None or owner_nodes.size == 0:
            return self.UNKNOWN
        position = int(np.searchsorted(owner_nodes, node))
        if position < owner_nodes.size and int(owner_nodes[position]) == node:
            return int(self._parts[position])
        return self.UNKNOWN

    @classmethod
    def from_arrays(
        cls,
        dense: Optional[np.ndarray] = None,
        nodes: Optional[np.ndarray] = None,
        parts: Optional[np.ndarray] = None,
    ) -> "OwnerIndex":
        """Rebuild an index directly from its lookup arrays.

        This is the attach half of shared-memory epoch export
        (:mod:`repro.parallel.shm`): a worker process reconstructs the
        frozen owner table zero-copy over arrays that live in a shared
        segment.  Exactly one representation may be supplied — ``dense``
        or the sorted ``(nodes, parts)`` pair — or neither for an empty
        table.  The arrays are used as handed in (callers freeze them).
        """
        if dense is not None and nodes is not None:
            raise ValueError("supply either dense or (nodes, parts), not both")
        if (nodes is None) != (parts is None):
            raise ValueError("nodes and parts must be supplied together")
        index = cls()
        if dense is not None:
            index._dense = dense
        elif nodes is not None:
            index._nodes = nodes
            index._parts = parts
        return index

    def export_arrays(self) -> Dict[str, np.ndarray]:
        """The index's lookup arrays, keyed by representation.

        Returns ``{"dense": ...}`` or ``{"nodes": ..., "parts": ...}``
        (empty dict for an empty table) — the serialization half of
        shared-memory epoch export, inverted by :meth:`from_arrays`.
        """
        if self._dense is not None:
            return {"dense": self._dense}
        if self._nodes is not None:
            return {"nodes": self._nodes, "parts": self._parts}
        return {}

    def frozen_copy(self) -> "OwnerIndex":
        """Point-in-time, read-only copy of the current lookup structure.

        Serving epochs capture the owner table with this: the live index
        keeps patching its arrays in place as the partition map journals
        new placements, so a pinned epoch needs its own immutable copy.
        """
        copy = OwnerIndex()
        copy._version = self._version
        if self._dense is not None:
            copy._dense = self._dense.copy()
            copy._dense.flags.writeable = False
        if self._nodes is not None:
            copy._nodes = self._nodes.copy()
            copy._nodes.flags.writeable = False
            copy._parts = self._parts.copy()
            copy._parts.flags.writeable = False
        return copy

    def table(self) -> Tuple[np.ndarray, np.ndarray]:
        """Canonical ``(nodes, partitions)`` view of every known entry.

        Nodes are sorted ascending, so two indexes hold the same owner
        table exactly when their ``table()`` arrays are equal — the
        normal form the durability suite compares recovered systems
        with (the acceptance criterion's "same OwnerIndex"), independent
        of whether each side happens to be dense or sparse.
        """
        dense = self._dense
        if dense is not None:
            nodes = np.flatnonzero(dense != self.UNKNOWN).astype(np.int64)
            return nodes, dense[nodes]
        if self._nodes is None:
            return _NO_ENTRIES
        return self._nodes, self._parts

    def owners_of(self, nodes: np.ndarray) -> np.ndarray:
        """Owner partition per node (:data:`UNKNOWN` when unplaced —
        negative ids included, which no write path places)."""
        dense = self._dense
        if dense is not None:
            if dense.size == 0:
                return np.full(len(nodes), self.UNKNOWN, dtype=np.int64)
            clipped = np.clip(nodes, 0, dense.size - 1)
            return np.where(
                (nodes >= 0) & (nodes < dense.size), dense[clipped], self.UNKNOWN
            )
        owner_nodes = self._nodes
        if owner_nodes is None or owner_nodes.size == 0:
            return np.full(len(nodes), self.UNKNOWN, dtype=np.int64)
        positions = np.minimum(
            np.searchsorted(owner_nodes, nodes), owner_nodes.size - 1
        )
        return np.where(
            owner_nodes[positions] == nodes,
            self._parts[positions],
            self.UNKNOWN,
        )

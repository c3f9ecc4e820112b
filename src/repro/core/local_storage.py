"""Local graph storage of a PIM module.

Each PIM module keeps the adjacency-matrix segment of the graph nodes
assigned to it as a hash map from row id (NodeID) to the row data — the
next-hop NodeIDs and their edge labels.  A hash map is used for its
concurrency and scalability, exactly as the paper describes; in the
simulator it is a Python dict plus byte accounting against the module's
64 MB local memory.

A row's value is one compact buffer, as on the real module: an
``array('q')`` interleaving ``dst0, label0, dst1, label1, ...`` in
insertion order (the row-buffer format of :mod:`repro.core.snapshot`).
Edges are found on the ``dst`` column — ``row[::2]`` — never by
searching the interleaved buffer, where a label can equal a node id.
The public reads still return Python lists, materialised per call; the
snapshot splice and the checkpoint read the buffers themselves, by
copy, and keep no view of one (an ``array`` exporting a buffer cannot
grow).

The storage itself is purely functional with respect to simulation: it
mutates data and reports what happened (row length read, whether an edge
existed, ...), while the *processors* translate those reports into
charged work on the simulated hardware.

Snapshots are maintained incrementally: mutations record the touched row
in the storage's :class:`~repro.core.snapshot.SnapshotCache` instead of
discarding the cached CSR base, and :meth:`to_csr` splices the dirty
rows back in — see :mod:`repro.core.snapshot` for the lifecycle.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.snapshot import (
    HOLE,
    GraphSnapshot,
    RowBuffer,
    SnapshotCache,
    row_buffer,
    row_pairs,
    split_buffers,
)
from repro.graph.digraph import DEFAULT_LABEL
from repro.pim.memory import LocalMemory

#: Bytes charged per stored next-hop entry (NodeID + label).
BYTES_PER_ENTRY = 12
#: Fixed bytes charged per row (hash-map bucket + header).
BYTES_PER_ROW = 32


class LocalGraphStorage:
    """Hash-map adjacency segment stored in one PIM module's local memory."""

    #: Bytes streamed per entry when a row is scanned (``RowSource``).
    bytes_per_entry = BYTES_PER_ENTRY

    def __init__(self, memory: Optional[LocalMemory] = None) -> None:
        #: ``node -> dst0, label0, dst1, label1, ...`` in insertion order.
        self._rows: Dict[int, RowBuffer] = {}
        self._memory = memory
        self._num_edges = 0
        #: Base snapshot + dirty rows (see repro.core.snapshot).
        self._cache = SnapshotCache()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Number of graph nodes stored on this module."""
        return len(self._rows)

    @property
    def num_edges(self) -> int:
        """Number of next-hop entries stored on this module."""
        return self._num_edges

    @property
    def storage_bytes(self) -> int:
        """Bytes of local memory this segment occupies."""
        return len(self._rows) * BYTES_PER_ROW + self._num_edges * BYTES_PER_ENTRY

    @property
    def working_set_bytes(self) -> int:
        """The segment's footprint as its snapshots carry it (never 0)."""
        return max(self.storage_bytes, 1)

    def has_row(self, node: int) -> bool:
        """Whether ``node``'s row lives on this module."""
        return node in self._rows

    def rows(self) -> Iterator[int]:
        """Iterate over stored row ids."""
        return iter(self._rows)

    def row_length(self, node: int) -> int:
        """Out-degree of ``node`` on this module (0 when absent)."""
        row = self._rows.get(node)
        return 0 if row is None else len(row) >> 1

    def row_buffer(self, node: int) -> Optional[RowBuffer]:
        """``node``'s stored buffer itself (``None`` when absent).

        For bulk readers that copy it at once (``join_buffers``) and keep
        no view: reading the live row never forces a snapshot refresh.
        """
        return self._rows.get(node)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def ensure_row(self, node: int) -> bool:
        """Create an empty row for ``node``; return ``True`` if it was new."""
        if node in self._rows:
            return False
        if self._memory is not None:
            self._memory.allocate(BYTES_PER_ROW)
        self._rows[node] = array("q")
        self._cache.record(node)
        return True

    def add_edge(self, src: int, dst: int, label: int = DEFAULT_LABEL) -> bool:
        """Insert ``src -> dst``; return ``True`` if the edge was new."""
        if dst == HOLE:
            raise ValueError(f"node id {HOLE} is reserved for empty slots")
        self.ensure_row(src)
        row = self._rows[src]
        # Search the dst column only: in the interleaved buffer a label
        # can equal a node id.
        dsts = row[::2]
        if dst in dsts:
            row[2 * dsts.index(dst) + 1] = label
            self._cache.record(src)
            return False
        if self._memory is not None:
            self._memory.allocate(BYTES_PER_ENTRY)
        row.append(dst)
        row.append(label)
        self._num_edges += 1
        self._cache.record(src)
        return True

    def load_rows(self, nodes: List[int], buffers: List[RowBuffer]) -> None:
        """Create or extend the rows of ``nodes``, in order, with ``buffers``.

        ``buffers[i]`` holds interleaved ``dst, label`` values for
        ``nodes[i]`` — the bulk loader's slices of a chunk, one row each.
        A new (or still empty) row becomes its buffer, so it is kept at
        exact size; a row with edges appends it.  New rows are created in
        ``nodes`` order.  No destination may be in its row yet or repeat
        (a loadable table's pairs are distinct), which is what lets a
        bulk load skip :meth:`add_edge`'s search.
        """
        rows = self._rows
        created = len(nodes) - sum(map(rows.__contains__, nodes))
        count = sum(map(len, buffers)) >> 1
        if self._memory is not None:
            self._memory.allocate(created * BYTES_PER_ROW + count * BYTES_PER_ENTRY)
        for node, buffer in zip(nodes, buffers):
            row = rows.get(node)
            if row:
                row.extend(buffer)
            else:
                rows[node] = buffer
        self._num_edges += count
        self._cache.record_all(nodes)

    def remove_edge(self, src: int, dst: int) -> bool:
        """Delete ``src -> dst``; return ``True`` if it existed."""
        row = self._rows.get(src)
        if row is None:
            return False
        dsts = row[::2]
        if dst not in dsts:
            return False
        index = 2 * dsts.index(dst)
        del row[index : index + 2]
        self._num_edges -= 1
        if self._memory is not None:
            self._memory.free(BYTES_PER_ENTRY)
        self._cache.record(src)
        return True

    def remove_row(self, node: int) -> List[Tuple[int, int]]:
        """Remove ``node``'s row entirely and return its entries.

        Used when the node migrator relocates a node to another computing
        node: the row data travels with it.
        """
        row = self._rows.pop(node, None)
        if row is None:
            return []
        entries = row_pairs(row)
        self._num_edges -= len(entries)
        if self._memory is not None:
            self._memory.free(BYTES_PER_ROW + len(entries) * BYTES_PER_ENTRY)
        self._cache.record(node)
        return entries

    def insert_row(self, node: int, entries: List[Tuple[int, int]]) -> None:
        """Install a full row (the receiving side of a migration)."""
        if node in self._rows:
            raise ValueError(f"row {node} already exists on this module")
        if self._memory is not None:
            self._memory.allocate(BYTES_PER_ROW + len(entries) * BYTES_PER_ENTRY)
        self._rows[node] = row_buffer(entries)
        self._num_edges += len(entries)
        self._cache.record(node)

    # ------------------------------------------------------------------
    # Checkpoint restore
    # ------------------------------------------------------------------
    def restore_rows(self, snapshot: GraphSnapshot) -> None:
        """Replace this segment's contents wholesale (recovery path).

        ``snapshot`` is the CSR capture the checkpoint recorded: every
        row is filled with one ``frombytes`` slice of its interleaved
        columns, and the snapshot itself seeds the cache so the first
        post-recovery ``to_csr()`` is a cache hit.  Memory accounting is
        re-charged from scratch — the storage must be empty (freshly
        constructed) when this is called.
        """
        if self._rows:
            raise RuntimeError("restore_rows requires an empty storage")
        interleaved = np.column_stack([snapshot.dsts, snapshot.labels]).reshape(-1)
        self._rows = dict(
            zip(
                snapshot.node_ids.tolist(),
                split_buffers(interleaved, 2 * snapshot.indptr),
            )
        )
        self._num_edges = snapshot.num_edges
        if self._memory is not None:
            self._memory.allocate(self.storage_bytes)
        self._cache.seed_base(snapshot)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def to_csr(self) -> GraphSnapshot:
        """CSR snapshot of this segment (cached; incrementally refreshed).

        The snapshot carries this storage's byte-accounting constant and
        the per-row local-destination counts that misplacement detection
        uses, so the vectorized engine can charge identical simulated
        work to the scalar path.  The refresh (return the cached base or
        splice the dirty rows into it) lives in
        :class:`~repro.core.snapshot.SnapshotCache`.
        """
        return self._cache.refresh(
            self._rows.keys,
            self._rows.get,
            bytes_per_entry=BYTES_PER_ENTRY,
            working_set_bytes=lambda: self.working_set_bytes,
            count_local=True,
        )

    def drop_snapshot(self) -> None:
        """Release the cached CSR arrays (rebuilt on the next ``to_csr``)."""
        self._cache.drop()

    @property
    def snapshot_builds(self) -> int:
        """Number of snapshot refreshes performed (cache hits excluded)."""
        return self._cache.builds

    # ------------------------------------------------------------------
    # Query access
    # ------------------------------------------------------------------
    def next_hops(self, node: int) -> List[int]:
        """Next-hop NodeIDs of ``node`` (empty when the row is absent)."""
        row = self._rows.get(node)
        if row is None:
            return []
        return row[::2].tolist()

    def next_hops_with_labels(self, node: int) -> List[Tuple[int, int]]:
        """Next hops of ``node`` as ``(dst, label)`` pairs."""
        row = self._rows.get(node)
        if row is None:
            return []
        return row_pairs(row)

    # The names a ``RowSource`` is read by (live rows and pinned
    # snapshots expand through the same scalar loop).
    row_dsts = next_hops
    row_entries = next_hops_with_labels

    def local_hops(self, node: int) -> int:
        """How many of ``node``'s next hops are rows of this module — the
        ``local`` side of misplacement detection (a snapshot's
        ``local_counts``, read live)."""
        rows = self._rows
        local = 0
        for dst in rows.get(node, ())[::2]:
            if dst in rows:
                local += 1
        return local

    def has_edge(self, src: int, dst: int) -> bool:
        """Whether ``src -> dst`` is stored on this module."""
        row = self._rows.get(src)
        return row is not None and dst in row[::2]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LocalGraphStorage(rows={self.num_rows}, edges={self.num_edges})"
        )

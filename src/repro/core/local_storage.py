"""Local graph storage of a PIM module.

Each PIM module keeps the adjacency-matrix segment of the graph nodes
assigned to it as a hash map from row id (NodeID) to the row data — the
next-hop NodeIDs and their edge labels.  A hash map is used for its
concurrency and scalability, exactly as the paper describes; in the
simulator it is modelled by byte accounting against the module's 64 MB
local memory (:data:`BYTES_PER_ROW` per row, :data:`BYTES_PER_ENTRY`
per entry), while the rows themselves are held once, copy on write:

* a **clean** row lives only in the storage's frozen CSR base — the
  :class:`~repro.core.snapshot.GraphSnapshot` its
  :class:`~repro.core.snapshot.SnapshotCache` publishes, which the bulk
  loader and the checkpoint restore build directly
  (:meth:`LocalGraphStorage.load_csr`,
  :meth:`LocalGraphStorage.restore_rows`);
* the first write to a base row copies that one row into a buffer —
  an ``array('q')`` interleaving ``dst0, label0, dst1, label1, ...`` in
  insertion order (the row-buffer format of :mod:`repro.core.snapshot`)
  — and the buffer stays; rows created after the base was seeded start
  as buffers;
* a removed row leaves a ``None`` tombstone among the buffers, which
  hides its base row.

Rows are looked up in the base through the snapshot's own
``row_index``; the storage keeps no per-row index of its own.  Edges are
found on a buffer's ``dst`` column — ``row[::2]`` — never by searching
the interleaved buffer, where a label can equal a node id.  The public
reads return Python lists, materialised per call; the snapshot splice
reads the buffers themselves, by copy, and keeps no view of one (an
``array`` exporting a buffer cannot grow).

The storage itself is purely functional with respect to simulation: it
mutates data and reports what happened (row length read, whether an edge
existed, ...), while the *processors* translate those reports into
charged work on the simulated hardware.

Snapshots are maintained incrementally: mutations record the touched row
in the :class:`~repro.core.snapshot.SnapshotCache` instead of discarding
the base, and :meth:`to_csr` splices the written rows back in — see
:mod:`repro.core.snapshot` for the lifecycle.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.snapshot import (
    EMPTY_SNAPSHOT,
    HOLE,
    GraphSnapshot,
    RowBuffer,
    SnapshotCache,
    csr_snapshot,
    join_buffers,
    ranges,
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

#: ``_buffers`` lookup default: the row was not written since the base
#: was seeded, so the base holds it (or it does not exist).
_CLEAN = object()
#: An absent row's buffer, for :func:`~repro.core.snapshot.join_buffers`.
_NO_ROW = array("q")


class LocalGraphStorage:
    """Hash-map adjacency segment stored in one PIM module's local memory."""

    def __init__(self, memory: Optional[LocalMemory] = None) -> None:
        #: Rows written since the base was seeded: ``node -> dst0,
        #: label0, dst1, label1, ...`` in insertion order, or ``None``
        #: for a removed row.  Every other row is a clean base row.
        self._buffers: Dict[int, Optional[RowBuffer]] = {}
        self._memory = memory
        self._num_rows = 0
        self._num_edges = 0
        #: Base snapshot + dirty rows (see repro.core.snapshot).
        self._cache = SnapshotCache()

    def _base(self) -> GraphSnapshot:
        """The base holding the clean rows (empty before one is seeded)."""
        base = self._cache.base
        return EMPTY_SNAPSHOT if base is None else base

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Number of graph nodes stored on this module."""
        return self._num_rows

    @property
    def num_edges(self) -> int:
        """Number of next-hop entries stored on this module."""
        return self._num_edges

    @property
    def storage_bytes(self) -> int:
        """Bytes of local memory this segment occupies."""
        return self._num_rows * BYTES_PER_ROW + self._num_edges * BYTES_PER_ENTRY

    @property
    def working_set_bytes(self) -> int:
        """The segment's footprint as its snapshots carry it (never 0)."""
        return max(self.storage_bytes, 1)

    def has_row(self, node: int) -> bool:
        """Whether ``node``'s row lives on this module."""
        row = self._buffers.get(node, _CLEAN)
        if row is _CLEAN:
            return self._base().row_index(node) >= 0
        return row is not None

    def rows(self) -> Iterator[int]:
        """Iterate over stored row ids, in ascending order."""
        buffers = self._buffers
        clean = [
            node for node in self._base().node_ids.tolist() if node not in buffers
        ]
        written = [node for node, row in buffers.items() if row is not None]
        return iter(sorted(clean + written))

    def row_length(self, node: int) -> int:
        """Out-degree of ``node`` on this module (0 when absent)."""
        row = self._buffers.get(node, _CLEAN)
        if row is _CLEAN:
            base = self._base()
            index = base.row_index(node)
            return 0 if index < 0 else base.degrees.item(index)
        return 0 if row is None else len(row) >> 1

    def gather_dsts(self, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The next hops of ``nodes`` as columns: ``(lengths, dsts)``.

        ``dsts`` holds each node's next hops in stored order, the nodes'
        rows end to end; an absent row is empty.  A row written since the
        last refresh is read from its buffer, every other one from the
        base (a buffer the refresh spliced equals its base row): no
        snapshot refresh, and no buffer is created.
        """
        base = self._base()
        written = self._buffers if self._cache.base is None else self._cache.dirty
        index = base.lookup(nodes)
        found = index >= 0
        lengths = np.zeros(len(nodes), dtype=np.int64)
        lengths[found] = base.degrees[index[found]]
        starts = base.indptr[index]
        stale = [i for i, node in enumerate(nodes.tolist()) if node in written]
        if not stale:
            return lengths, base.dsts[ranges(starts, lengths)]
        bounds, values = join_buffers(
            [self._buffers.get(node) or _NO_ROW for node in nodes[stale].tolist()]
        )
        lengths[stale] = np.diff(bounds) >> 1
        starts[stale] = (bounds[:-1] >> 1) + base.num_edges
        dsts = np.concatenate([base.dsts, values[::2]])
        return lengths, dsts[ranges(starts, lengths)]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _copy_base_row(self, node: int) -> Optional[RowBuffer]:
        """Copy ``node``'s clean base row into its buffer (the first write
        to it); ``None`` when the base has no such row."""
        base = self._base()
        index = base.row_index(node)
        if index < 0:
            return None
        start, stop = base.indptr.item(index), base.indptr.item(index + 1)
        dsts = base.dsts[start:stop].tolist()
        values = dsts * 2  # dst0, label0, dst1, label1, ...
        values[::2] = dsts
        values[1::2] = base.labels[start:stop].tolist()
        row = self._buffers[node] = array("q", values)
        return row

    def _new_row(self, node: int) -> RowBuffer:
        """Create ``node``'s empty row (it must not exist)."""
        if self._memory is not None:
            self._memory.allocate(BYTES_PER_ROW)
        row = self._buffers[node] = array("q")
        self._num_rows += 1
        self._cache.record(node)
        return row

    def ensure_row(self, node: int) -> bool:
        """Create an empty row for ``node``; return ``True`` if it was new."""
        if self.has_row(node):
            return False
        self._new_row(node)
        return True

    def add_edge(self, src: int, dst: int, label: int = DEFAULT_LABEL) -> bool:
        """Insert ``src -> dst``; return ``True`` if the edge was new."""
        if dst == HOLE:
            raise ValueError(f"node id {HOLE} is reserved for empty slots")
        row = self._buffers.get(src, _CLEAN)
        if row is _CLEAN:
            row = self._copy_base_row(src)
        if row is None:
            row = self._new_row(src)
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

    def remove_edge(self, src: int, dst: int) -> bool:
        """Delete ``src -> dst``; return ``True`` if it existed."""
        row = self._buffers.get(src, _CLEAN)
        if row is _CLEAN:
            if dst not in self._base().row_dsts(src):
                return False
            row = self._copy_base_row(src)
        elif row is None:
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
        node: the row data travels with it.  The row leaves a tombstone.
        """
        row = self._buffers.get(node, _CLEAN)
        if row is _CLEAN:
            entries = self._base().row_entries(node)
            if not entries and not self.has_row(node):
                return []
        elif row is None:
            return []
        else:
            entries = row_pairs(row)
        self._buffers[node] = None
        self._num_rows -= 1
        self._num_edges -= len(entries)
        if self._memory is not None:
            self._memory.free(BYTES_PER_ROW + len(entries) * BYTES_PER_ENTRY)
        self._cache.record(node)
        return entries

    def insert_row(self, node: int, entries: List[Tuple[int, int]]) -> None:
        """Install a full row (the receiving side of a migration)."""
        if self.has_row(node):
            raise ValueError(f"row {node} already exists on this module")
        if self._memory is not None:
            self._memory.allocate(BYTES_PER_ROW + len(entries) * BYTES_PER_ENTRY)
        self._buffers[node] = row_buffer(entries)
        self._num_rows += 1
        self._num_edges += len(entries)
        self._cache.record(node)

    # ------------------------------------------------------------------
    # Bulk fill: the load and the checkpoint restore
    # ------------------------------------------------------------------
    def load_csr(
        self,
        node_ids: np.ndarray,
        indptr: np.ndarray,
        dsts: np.ndarray,
        labels: np.ndarray,
    ) -> None:
        """Fill this empty segment with a bulk load's rows, as its base.

        Row ``node_ids[i]`` (ascending) holds the edges
        ``dsts[indptr[i]:indptr[i + 1]]`` with their ``labels``; no row
        gets a buffer.  The memory is charged once, for the whole segment.
        """
        working_set = len(node_ids) * BYTES_PER_ROW + len(dsts) * BYTES_PER_ENTRY
        self.restore_rows(
            csr_snapshot(
                node_ids,
                indptr,
                dsts,
                labels,
                bytes_per_entry=BYTES_PER_ENTRY,
                working_set_bytes=max(working_set, 1),
            )
        )

    def restore_rows(self, snapshot: GraphSnapshot) -> None:
        """Make ``snapshot`` this empty segment's base (recovery path).

        ``snapshot`` is the CSR capture the checkpoint recorded: it seeds
        the cache, so the first post-recovery ``to_csr()`` is a cache hit
        and every row stays clean.  Memory accounting is re-charged from
        scratch — the storage must be empty (freshly constructed) when
        this is called.
        """
        if self._num_rows or self._buffers:
            raise RuntimeError("restore_rows requires an empty storage")
        self._num_rows = snapshot.num_rows
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
        splice the written rows into it) lives in
        :class:`~repro.core.snapshot.SnapshotCache`; without a base every
        row is a buffer (or a tombstone), so the buffers are every row.
        """
        return self._cache.refresh(
            self._buffers.keys,
            self._buffers.get,
            bytes_per_entry=BYTES_PER_ENTRY,
            working_set_bytes=lambda: self.working_set_bytes,
            count_local=True,
        )

    def drop_snapshot(self) -> None:
        """Forget the cached base: its clean rows are copied into buffers
        first, and the next ``to_csr`` splices every row anew."""
        base = self._cache.base
        if base is not None:
            interleaved = np.column_stack([base.dsts, base.labels]).reshape(-1)
            rows = dict(
                zip(base.node_ids.tolist(), split_buffers(interleaved, 2 * base.indptr))
            )
            rows.update(self._buffers)  # written rows and tombstones win
            self._buffers = {node: row for node, row in rows.items() if row is not None}
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
        row = self._buffers.get(node, _CLEAN)
        if row is _CLEAN:
            return self._base().row_dsts(node)
        return [] if row is None else row[::2].tolist()

    def next_hops_with_labels(self, node: int) -> List[Tuple[int, int]]:
        """Next hops of ``node`` as ``(dst, label)`` pairs."""
        row = self._buffers.get(node, _CLEAN)
        if row is _CLEAN:
            return self._base().row_entries(node)
        return [] if row is None else row_pairs(row)

    def has_edge(self, src: int, dst: int) -> bool:
        """Whether ``src -> dst`` is stored on this module."""
        row = self._buffers.get(src, _CLEAN)
        if row is _CLEAN:
            return dst in self._base().row_dsts(src)
        return row is not None and dst in row[::2]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LocalGraphStorage(rows={self.num_rows}, edges={self.num_edges})"
        )

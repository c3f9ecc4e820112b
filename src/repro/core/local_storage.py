"""Local graph storage of a PIM module.

Each PIM module keeps the adjacency-matrix segment of the graph nodes
assigned to it as a hash map from row id (NodeID) to the row data — the
next-hop NodeIDs and their edge labels.  A hash map is used for its
concurrency and scalability, exactly as the paper describes; in the
simulator it is modelled by byte accounting against the module's 64 MB
local memory (:data:`BYTES_PER_ROW` per row, :data:`BYTES_PER_ENTRY`
per entry): the storage is the module's only record of that memory, and
a write that would overflow it raises
:class:`~repro.pim.memory.MemoryCapacityError` before its bytes are
stored.  The rows themselves are held once, copy on write:

* a **clean** row lives only in the storage's frozen base — its
  segment of the last published
  :class:`~repro.core.snapshot.CSRHeap`, which the bulk loader and the
  checkpoint restore write directly (:meth:`LocalGraphStorage.adopt`);
* the first write to a base row copies that one row into a buffer —
  an ``array('q')`` interleaving ``dst0, label0, dst1, label1, ...`` in
  insertion order (the row-buffer format of :mod:`repro.core.snapshot`)
  — and the buffer stays, beside the base row the next publish writes;
  rows created after the base was adopted start as buffers;
* a removed row leaves a ``None`` tombstone among the buffers, which
  hides its base row.

Rows are looked up in the base through the snapshot's own
``row_index``; the storage keeps no per-row index of its own.  Edges are
found on a buffer's ``dst`` column — ``row[::2]`` — never by searching
the interleaved buffer, where a label can equal a node id.  The public
reads return Python lists, materialised per call; a publish's splice
reads the buffers themselves, by copy, and keeps no view of one (an
``array`` exporting a buffer cannot grow).

The storage itself is purely functional with respect to simulation: it
mutates data and reports what happened (row length read, whether an edge
existed, ...), while the *processors* translate those reports into
charged work on the simulated hardware.

Mutations record the touched row in :attr:`LocalGraphStorage.written`,
and the next publish splices the written rows into a new segment and
rebases the storage onto it — see :mod:`repro.core.snapshot` for the
lifecycle.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.core.snapshot import (
    HOLE,
    CSRHeap,
    GraphSnapshot,
    RowBuffer,
    join_buffers,
    ranges,
    row_buffer,
    row_pairs,
)
from repro.graph.digraph import DEFAULT_LABEL
from repro.pim.memory import MemoryCapacityError

#: Bytes charged per stored next-hop entry (NodeID + label).
BYTES_PER_ENTRY = 12
#: Fixed bytes charged per row (hash-map bucket + header).
BYTES_PER_ROW = 32

#: ``_buffers`` lookup default: the row was not written since the base
#: was seeded, so the base holds it (or it does not exist).
_CLEAN = object()
#: An absent row's buffer, for :func:`~repro.core.snapshot.join_buffers`.
_NO_ROW = array("q")


def footprint(rows, edges):
    """Local-memory bytes of ``rows`` rows holding ``edges`` entries."""
    return rows * BYTES_PER_ROW + edges * BYTES_PER_ENTRY


#: The base of a storage no publish has rebased yet: no rows.
_EMPTY_SEGMENT = CSRHeap.empty([BYTES_PER_ENTRY]).segment(0)


class LocalGraphStorage:
    """Hash-map adjacency segment stored in one PIM module's local memory."""

    #: The segment's byte-accounting constant (see repro.core.snapshot).
    bytes_per_entry = BYTES_PER_ENTRY
    #: A module segment counts its rows' local destinations.
    count_local = True

    def __init__(self, capacity_bytes: Optional[int] = None) -> None:
        #: Every row ever written: ``node -> dst0, label0, dst1,
        #: label1, ...`` in insertion order, or ``None`` for a removed
        #: row.  Every other row is a clean base row.
        self._buffers: Dict[int, Optional[RowBuffer]] = {}
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        #: The module's local memory in bytes; ``None`` = unbounded (a
        #: session's staged rows).
        self.capacity_bytes = capacity_bytes
        self._num_rows = 0
        self._num_edges = 0
        #: Ids of the rows written since the last publish: a tombstone, a
        #: new row or a buffer that differs from the base.
        self.written: Set[int] = set()
        #: The segment of the last published heap: the clean rows.
        self._base: GraphSnapshot = _EMPTY_SEGMENT

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
        return footprint(self._num_rows, self._num_edges)

    @property
    def working_set_bytes(self) -> int:
        """The segment's footprint as its snapshots carry it (never 0)."""
        return max(self.storage_bytes, 1)

    def fits(self, num_bytes: int) -> bool:
        """Whether ``num_bytes`` more would stay within the capacity."""
        capacity = self.capacity_bytes
        return capacity is None or self.storage_bytes + num_bytes <= capacity

    def _reserve(self, num_bytes: int) -> None:
        """Refuse a write of ``num_bytes`` that would overflow the module's
        memory, before it changes anything."""
        if not self.fits(num_bytes):
            capacity = self.capacity_bytes
            raise MemoryCapacityError(
                requested=num_bytes,
                available=capacity - self.storage_bytes,
                capacity=capacity,
            )

    def has_row(self, node: int) -> bool:
        """Whether ``node``'s row lives on this module."""
        row = self._buffers.get(node, _CLEAN)
        if row is _CLEAN:
            return self._base.row_index(node) >= 0
        return row is not None

    def rows(self) -> Iterator[int]:
        """Iterate over stored row ids, in ascending order."""
        buffers = self._buffers
        clean = [
            node for node in self._base.node_ids.tolist() if node not in buffers
        ]
        written = [node for node, row in buffers.items() if row is not None]
        return iter(sorted(clean + written))

    def row_length(self, node: int) -> int:
        """Out-degree of ``node`` on this module (0 when absent)."""
        row = self._buffers.get(node, _CLEAN)
        if row is _CLEAN:
            base = self._base
            index = base.row_index(node)
            return 0 if index < 0 else base.degrees.item(index)
        return 0 if row is None else len(row) >> 1

    def gather_dsts(self, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The next hops of ``nodes`` as columns: ``(lengths, dsts)``.

        ``dsts`` holds each node's next hops in stored order, the nodes'
        rows end to end; an absent row is empty.  A row written since the
        last publish is read from its buffer, every other one from the
        base (a buffer a publish spliced equals its base row): nothing is
        published, and no buffer is created.
        """
        base = self._base
        written = self.written
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
        base = self._base
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
        self._reserve(BYTES_PER_ROW)
        row = self._buffers[node] = array("q")
        self._num_rows += 1
        self.written.add(node)
        return row

    def ensure_row(self, node: int) -> bool:
        """Create an empty row for ``node``; return ``True`` if it was new."""
        if self.has_row(node):
            return False
        self._new_row(node)
        return True

    def add_edge(self, src: int, dst: int, label: int = DEFAULT_LABEL) -> bool:
        """Insert ``src -> dst``; return ``True`` if the edge was new.

        Re-inserting an edge relabels it; with the label it already has,
        nothing is written (a clean row stays clean).
        """
        if dst == HOLE:
            raise ValueError(f"node id {HOLE} is reserved for empty slots")
        row = self._buffers.get(src, _CLEAN)
        clean = row is _CLEAN
        if clean:
            row = self._copy_base_row(src)
        if row is None:
            # A new row and its first entry are one reservation.
            self._reserve(footprint(1, 1))
            row = self._new_row(src)
        else:
            # Search the dst column only: in the interleaved buffer a
            # label can equal a node id.
            dsts = row[::2]
            if dst in dsts:
                slot = 2 * dsts.index(dst) + 1
                if row[slot] == label:
                    if clean:
                        del self._buffers[src]
                    return False
                row[slot] = label
                self.written.add(src)
                return False
            if clean and not self.fits(BYTES_PER_ENTRY):
                del self._buffers[src]  # a refused write leaves no copy
            self._reserve(BYTES_PER_ENTRY)
        row.append(dst)
        row.append(label)
        self._num_edges += 1
        self.written.add(src)
        return True

    def remove_edge(self, src: int, dst: int) -> bool:
        """Delete ``src -> dst``; return ``True`` if it existed."""
        row = self._buffers.get(src, _CLEAN)
        if row is _CLEAN:
            if dst not in self._base.row_dsts(src):
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
        self.written.add(src)
        return True

    def remove_row(self, node: int) -> List[Tuple[int, int]]:
        """Remove ``node``'s row entirely and return its entries.

        Used when the node migrator relocates a node to another computing
        node: the row data travels with it.  The row leaves a tombstone.
        """
        row = self._buffers.get(node, _CLEAN)
        if row is _CLEAN:
            entries = self._base.row_entries(node)
            if not entries and not self.has_row(node):
                return []
        elif row is None:
            return []
        else:
            entries = row_pairs(row)
        self._buffers[node] = None
        self._num_rows -= 1
        self._num_edges -= len(entries)
        self.written.add(node)
        return entries

    def insert_row(self, node: int, entries: List[Tuple[int, int]]) -> None:
        """Install a full row (the receiving side of a migration)."""
        if self.has_row(node):
            raise ValueError(f"row {node} already exists on this module")
        self._reserve(footprint(1, len(entries)))
        self._buffers[node] = row_buffer(entries)
        self._num_rows += 1
        self._num_edges += len(entries)
        self.written.add(node)

    # ------------------------------------------------------------------
    # The heap: load, restore and publish
    # ------------------------------------------------------------------
    def adopt(self, segment: GraphSnapshot) -> None:
        """Make ``segment``, a heap's, this empty storage's rows (a bulk
        load or a checkpoint restore): no row gets a buffer, and the
        capacity is checked once, for the whole segment, before anything
        changes."""
        if self._num_rows or self._buffers:
            raise RuntimeError("adopt requires an empty storage")
        self._reserve(footprint(segment.num_rows, segment.num_edges))
        self.rebase(segment)
        self._num_rows, self._num_edges = segment.num_rows, segment.num_edges

    def rebase(self, segment: GraphSnapshot) -> None:
        """Read clean rows from ``segment`` from now on: a publish spliced
        every written row into it."""
        self._base = segment
        self.written.clear()

    def written_rows(self) -> Dict[int, Optional[RowBuffer]]:
        """The rows written since the last rebase (``None``: removed)."""
        return {node: self._buffers[node] for node in self.written}

    # ------------------------------------------------------------------
    # Query access
    # ------------------------------------------------------------------
    def next_hops(self, node: int) -> List[int]:
        """Next-hop NodeIDs of ``node`` (empty when the row is absent)."""
        row = self._buffers.get(node, _CLEAN)
        if row is _CLEAN:
            return self._base.row_dsts(node)
        return [] if row is None else row[::2].tolist()

    def next_hops_with_labels(self, node: int) -> List[Tuple[int, int]]:
        """Next hops of ``node`` as ``(dst, label)`` pairs."""
        row = self._buffers.get(node, _CLEAN)
        if row is _CLEAN:
            return self._base.row_entries(node)
        return [] if row is None else row_pairs(row)

    def has_edge(self, src: int, dst: int) -> bool:
        """Whether ``src -> dst`` is stored on this module."""
        row = self._buffers.get(src, _CLEAN)
        if row is _CLEAN:
            return dst in self._base.row_dsts(src)
        return row is not None and dst in row[::2]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LocalGraphStorage(rows={self.num_rows}, edges={self.num_edges})"
        )

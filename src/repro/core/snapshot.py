"""The epoch layout: one CSR heap of every storage's segment, spliced per publish.

A :class:`CSRHeap` holds the adjacency of the module storages
(:class:`~repro.core.local_storage.LocalGraphStorage`) and then the
host's (:class:`~repro.core.hetero_storage.HeterogeneousGraphStorage`),
one segment each.  A segment is a :class:`GraphSnapshot`, the only
thing a kernel reads; it carries its storage's byte-accounting constants and the per-row
count of locally-owned destinations that the paper's misplacement
detection needs, so every engine charges the same simulated work.

The storages keep each *written* row as one ``array('q')`` interleaving
``dst0, label0, dst1, label1, ...`` (a :data:`HOLE` ``dst`` is an empty
host slot).  The splice copies every buffer it is given (one
``bytes.join``) and keeps no view of one: an ``array`` exporting its
buffer cannot be resized.

A storage records the ids of the rows it writes in ``written`` and reads
every other row from its **base**, its segment of the last published
heap.  A publish is one :func:`splice`: :func:`merge_segment` merges
each storage's written rows into its segment, the new heap takes every
untouched segment from the previous one as it is, and the storages that
wrote are rebased onto their new segments.  Nothing written, nothing
built — nor after a load or a restore, which write the heap directly
(:meth:`~repro.serve.epoch.EpochManager.install`).  A session writes
its staged updates into storages rebased on its pinned segments and
merges their written rows in with the same :func:`merge_segment`.  A splice is
exact, so a heap is array-for-array the CSR of the current rows however
long its lineage; the suites hold every segment to a per-edge reference
builder (``tests/model.py``).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import chain
from operator import attrgetter
from typing import (
    ClassVar, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

import numpy as np

_EMPTY = np.empty(0, dtype=np.int64)
# The empty column is shared by every empty snapshot; freeze it so no
# published snapshot can be mutated through the shared instance.
_EMPTY.flags.writeable = False

#: A row's ``(dst, label)`` pairs as the public read API returns them.
RowEntries = List[Tuple[int, int]]
#: A row as the storages *store* it and hand it to the splice: one
#: ``array('q')`` interleaving ``dst0, label0, dst1, label1, ...``.
RowBuffer = array
#: ``dst`` of an empty slot in a row buffer.  Node ids are non-negative
#: (they index the owner table), so no stored edge can carry it.
HOLE = -1


def row_buffer(entries: Iterable[Tuple[int, int]]) -> RowBuffer:
    """Pack ``(dst, label)`` pairs into a row buffer."""
    return array("q", chain.from_iterable(entries))


def row_pairs(buffer: RowBuffer) -> RowEntries:
    """The ``(dst, label)`` pairs of a hole-free row buffer, in order."""
    values = iter(buffer)
    return list(zip(values, values))


def join_buffers(buffers: List[array]) -> Tuple[np.ndarray, np.ndarray]:
    """Lay ``array('q')`` buffers end to end: ``(bounds, values)``.

    ``bounds`` holds each buffer's item offsets (``len(buffers) + 1`` of
    them) and ``values`` is a read-only int64 array over a private
    ``bytes`` copy: the join releases every buffer export it takes
    before it returns, so nothing here outlives the call holding a row.
    """
    count = len(buffers)
    bounds = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(
        np.fromiter(map(len, buffers), dtype=np.int64, count=count), out=bounds[1:]
    )
    return bounds, np.frombuffer(b"".join(buffers), dtype=np.int64)


def split_buffers(values: np.ndarray, bounds: np.ndarray) -> List[array]:
    """Cut an int64 array into one ``array('q')`` per ``bounds`` segment
    (:func:`join_buffers`' inverse), each filled by a single
    ``frombytes`` of its slice.
    """
    data = memoryview(values.tobytes())
    cuts = (bounds * values.itemsize).tolist()
    pieces: List[RowBuffer] = []
    for start, stop in zip(cuts, cuts[1:]):
        piece = array("q")
        piece.frombytes(data[start:stop])
        pieces.append(piece)
    return pieces


def ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``starts[i], starts[i] + 1, ..., starts[i] + lengths[i] - 1`` for
    every ``i``, end to end."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(
        starts - ends + lengths, lengths
    )


class TransposedBlock:
    """In-edge (CSC-style) view of a snapshot's adjacency: edges grouped
    by *destination*.

    ``dsts`` holds the sorted unique destination node ids, ``indptr``
    the per-destination segment bounds, and ``src_rows`` the producing
    row *indices* (positions into the owning snapshot's ``node_ids``,
    not global ids) of each in-edge.  This is the matrix engine's
    pull-side operand: one ``np.bitwise_or.reduceat`` over the
    ``indptr`` segments computes ``frontier ⊗ Adj`` for a whole
    partition without any per-phase edge sort.
    """

    __slots__ = ("dsts", "indptr", "src_rows")

    def __init__(
        self, dsts: np.ndarray, indptr: np.ndarray, src_rows: np.ndarray
    ) -> None:
        self.dsts = dsts
        self.indptr = indptr
        self.src_rows = src_rows
        for array in (dsts, indptr, src_rows):
            array.flags.writeable = False

    @property
    def num_edges(self) -> int:
        """Number of in-edges in the block."""
        return len(self.src_rows)


def sorted_runs(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Stable sort order of ``values`` and the bounds of its runs of
    equal values: run ``i`` is ``order[bounds[i]:bounds[i + 1]]``, the
    runs in ascending value order, each in input order (``bounds`` is
    ``[0]`` when ``values`` is empty)."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    boundary = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=boundary[1:])
    return order, np.append(np.flatnonzero(boundary), len(ordered))


def _transpose_edges(
    dsts: np.ndarray, src_rows: np.ndarray
) -> TransposedBlock:
    """Group ``(src_row, dst)`` edge pairs by destination."""
    if dsts.size == 0:
        return TransposedBlock(
            _EMPTY.copy(), np.zeros(1, dtype=np.int64), _EMPTY.copy()
        )
    order, indptr = sorted_runs(dsts)
    return TransposedBlock(dsts[order[indptr[:-1]]], indptr, src_rows[order])


class GraphSnapshot:
    """Immutable CSR view of one storage's adjacency rows.

    Rows are identified by their *global* node ids; ``node_ids`` is
    sorted so membership and row lookup are ``searchsorted`` calls.
    Every array is frozen.
    """

    def __init__(
        self,
        node_ids: np.ndarray,
        indptr: np.ndarray,
        dsts: np.ndarray,
        labels: np.ndarray,
        local_counts: np.ndarray,
        bytes_per_entry: int,
        working_set_bytes: int,
    ) -> None:
        self.node_ids = node_ids
        self.indptr = indptr
        self.dsts = dsts
        self.labels = labels
        #: Per row: how many of its destinations are rows of the *same*
        #: storage (the "local" side of misplacement detection).
        self.local_counts = local_counts
        #: Bytes streamed per adjacency entry when a row is scanned.
        self.bytes_per_entry = bytes_per_entry
        #: Size of the structure for working-set-dependent access costs
        #: (the host's ``cols_vector`` capacity; a module's segment bytes).
        self.working_set_bytes = working_set_bytes
        self.degrees = np.diff(indptr)
        for array in (node_ids, indptr, dsts, labels, local_counts, self.degrees):
            array.flags.writeable = False
        # Lazily built derived views (transpose / per-label blocks / row
        # ids); row and edge counts are read off the arrays, never
        # cached.  A snapshot is immutable — a publish builds new
        # segments — so once built these can never go stale.  Concurrent
        # pinned readers may race to build one; both compute the same
        # arrays and the single reference assignment publishes either
        # safely.
        self._transpose: Optional[TransposedBlock] = None
        self._label_blocks: Optional[dict] = None
        self._row_ids: Optional[List[int]] = None

    @property
    def num_rows(self) -> int:
        """Number of adjacency rows in the snapshot."""
        return len(self.node_ids)

    @property
    def num_edges(self) -> int:
        """Number of adjacency entries in the snapshot."""
        return len(self.dsts)

    def lookup(self, nodes: np.ndarray) -> np.ndarray:
        """Row index of each node id in ``nodes`` (``-1`` when absent)."""
        if self.num_rows == 0:
            return np.full(len(nodes), -1, dtype=np.int64)
        positions = np.searchsorted(self.node_ids, nodes)
        positions = np.minimum(positions, self.num_rows - 1)
        found = self.node_ids[positions] == nodes
        return np.where(found, positions, -1)

    def row_index(self, node: int) -> int:
        """Row index of a single node id (``-1`` when absent).

        The scalar loop asks this once per frontier node, so it bisects
        a cached Python list of the row ids: ~10x cheaper per probe than
        a ``searchsorted`` call, and built with one ``tolist()``.
        """
        ids = self._row_ids
        if ids is None:
            ids = self._row_ids = self.node_ids.tolist()
        position = bisect_left(ids, node)
        if position < len(ids) and ids[position] == node:
            return position
        return -1

    def row_dsts(self, node: int) -> List[int]:
        """Next-hop node ids of ``node``'s row (empty when absent)."""
        row = self.row_index(node)
        if row < 0:
            return []
        start, stop = self.indptr.item(row), self.indptr.item(row + 1)
        return self.dsts[start:stop].tolist()

    def row_entries(self, node: int) -> RowEntries:
        """``(dst, label)`` entries of ``node``'s row, in stored order.

        Empty when the row is absent — the same contract as the storages'
        ``next_hops_with_labels``.  The scalar ``smxm`` loop reads rows
        here, live queries included.
        """
        row = self.row_index(node)
        if row < 0:
            return []
        start, stop = self.indptr.item(row), self.indptr.item(row + 1)
        return list(
            zip(self.dsts[start:stop].tolist(), self.labels[start:stop].tolist())
        )

    def local_hops(self, node: int) -> int:
        """How many of ``node``'s next hops are rows of this snapshot
        (its ``local_counts`` entry; 0 when the row is absent)."""
        row = self.row_index(node)
        return 0 if row < 0 else self.local_counts.item(row)

    def transpose_block(self) -> TransposedBlock:
        """In-edges of the snapshot grouped by destination (cached).

        Built once per snapshot: ``src_rows`` repeats each row index by
        its degree, then a stable sort by destination groups the edges.
        """
        block = self._transpose
        if block is None:
            src_rows = np.repeat(
                np.arange(self.num_rows, dtype=np.int64), self.degrees
            )
            block = _transpose_edges(self.dsts, src_rows)
            self._transpose = block
        return block

    def label_blocks(self) -> dict:
        """Per-label transposed adjacency blocks (cached): label ->
        :class:`TransposedBlock` over only that label's edges.

        The matrix engine's DFA path pulls one block per (label, live
        automaton transition) pair, so edges whose label the automaton
        rejects are never touched.
        """
        blocks = self._label_blocks
        if blocks is None:
            blocks = {}
            if self.num_edges:
                src_rows = np.repeat(
                    np.arange(self.num_rows, dtype=np.int64), self.degrees
                )
                order, bounds = sorted_runs(self.labels)
                bounds = bounds.tolist()
                for start, stop in zip(bounds, bounds[1:]):
                    chunk = order[start:stop]
                    blocks[int(self.labels[chunk[0]])] = _transpose_edges(
                        self.dsts[chunk], src_rows[chunk]
                    )
            self._label_blocks = blocks
        return blocks

    def same_arrays(self, other: "GraphSnapshot") -> bool:
        """Array-for-array equality (the incremental-maintenance contract)."""
        return (
            np.array_equal(self.node_ids, other.node_ids)
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.dsts, other.dsts)
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self.local_counts, other.local_counts)
            and self.bytes_per_entry == other.bytes_per_entry
            and self.working_set_bytes == other.working_set_bytes
        )


def _sorted_member_mask(members: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Boolean mask of which ``values`` occur in the sorted ``members``."""
    if len(members) == 0 or len(values) == 0:
        return np.zeros(len(values), dtype=bool)
    positions = np.minimum(np.searchsorted(members, values), len(members) - 1)
    return members[positions] == values


def flatten_rows(
    buffers: List[RowBuffer],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate row buffers into ``(indptr, dsts, labels)`` columns.

    The joined buffers are viewed as ``(slot, 2)`` and the live-slot mask
    drops :data:`HOLE` pairs while gathering each column into a fresh
    contiguous array.  ``indptr`` counts live entries, so a host
    ``cols_vector`` with holes and a packed module row flatten the same
    way.
    """
    bounds, values = join_buffers(buffers)
    slots = values.reshape(-1, 2)
    live = slots[:, 0] != HOLE
    live_prefix = np.zeros(len(slots) + 1, dtype=np.int64)
    np.cumsum(live, out=live_prefix[1:])
    return live_prefix[bounds >> 1], slots[live, 0], slots[live, 1]


def _local_counts(
    node_ids: np.ndarray, indptr: np.ndarray, dsts: np.ndarray
) -> np.ndarray:
    """Per ``indptr`` row over ``dsts``: how many of its destinations are
    in the sorted ``node_ids``."""
    prefix = np.zeros(len(dsts) + 1, dtype=np.int64)
    np.cumsum(_sorted_member_mask(node_ids, dsts), out=prefix[1:])
    return prefix[indptr[1:]] - prefix[indptr[:-1]]


def build_heap(
    node_ids: np.ndarray,
    segment_of: np.ndarray,
    degrees: np.ndarray,
    dsts: np.ndarray,
    labels: np.ndarray,
    count_local: np.ndarray,
    bytes_per_entry: np.ndarray,
    working_set_bytes: np.ndarray,
) -> "CSRHeap":
    """The heap of rows laid out by segment, then by node id (a bulk
    load's): row ``i`` is in segment ``segment_of[i]`` and has the next
    ``degrees[i]`` edges.  In the segments where ``count_local`` is set,
    each row counts its destinations that are rows of the segment."""
    count = len(bytes_per_entry)
    row_offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(segment_of, minlength=count), out=row_offsets[1:])
    ends = np.cumsum(degrees)
    edge_offsets = np.concatenate([[0], ends])[row_offsets]
    indptr = np.zeros(len(node_ids) + count, dtype=np.int64)
    indptr[np.arange(1, len(node_ids) + 1) + segment_of] = ends - edge_offsets[segment_of]
    local_counts = np.zeros(len(node_ids), dtype=np.int64)
    rows, edges = row_offsets.tolist(), edge_offsets.tolist()
    for index in np.flatnonzero(count_local).tolist():
        low, high = rows[index], rows[index + 1]
        local_counts[low:high] = _local_counts(
            node_ids[low:high],
            indptr[low + index : high + index + 1],
            dsts[edges[index] : edges[index + 1]],
        )
    return CSRHeap.from_arrays(
        node_ids, indptr, dsts, labels, local_counts, row_offsets, edge_offsets,
        bytes_per_entry, working_set_bytes,
    )


class CSRHeap:
    """Every segment of an epoch: the module storages', then the host's.

    Segment ``s`` is a :class:`GraphSnapshot` of storage ``s``'s rows.
    Heaps share segments: a splice builds the segments whose storages
    wrote rows and takes every other one from the previous heap as it
    is, so a publish costs the segments it touched, not the graph.  A
    spliced or restored segment owns its arrays; the segments of a load
    or a shared-memory attach are slices of the one block that built
    them, which lives while some heap holds one of them.

    The flat layout (:meth:`arrays`, what :func:`build_heap` and
    :meth:`from_arrays` take and shared memory exports) lays the segments
    end to end: segment ``s`` is rows ``row_offsets[s]:row_offsets[s +
    1]`` of ``node_ids`` and ``local_counts``, edges
    ``edge_offsets[s]:edge_offsets[s + 1]`` of ``dsts`` and ``labels``,
    and ``indptr[row_offsets[s] + s:row_offsets[s + 1] + s + 1]`` (its
    own ``indptr``, leading 0 included); ``bytes_per_entry`` and
    ``working_set_bytes`` hold each segment's byte-accounting constants.
    Every array is frozen.
    """

    #: The flat layout's arrays, in order.
    FIELDS: ClassVar[Tuple[str, ...]] = (
        "node_ids", "indptr", "dsts", "labels", "local_counts",
        "row_offsets", "edge_offsets", "bytes_per_entry", "working_set_bytes",
    )

    __slots__ = ("segments", "num_rows", "num_edges")

    def __init__(self, segments: Sequence[GraphSnapshot]) -> None:
        self.segments: Tuple[GraphSnapshot, ...] = tuple(segments)
        #: Adjacency rows and entries across every segment.
        self.num_rows = sum(map(len, map(attrgetter("node_ids"), self.segments)))
        self.num_edges = sum(map(len, map(attrgetter("dsts"), self.segments)))

    @classmethod
    def empty(cls, bytes_per_entry: Sequence[int]) -> "CSRHeap":
        """A heap of ``len(bytes_per_entry)`` empty segments."""
        count = len(bytes_per_entry)
        return cls.from_arrays(
            _EMPTY, np.zeros(count, dtype=np.int64), _EMPTY, _EMPTY, _EMPTY,
            np.zeros(count + 1, dtype=np.int64), np.zeros(count + 1, dtype=np.int64),
            np.array(bytes_per_entry, dtype=np.int64), np.ones(count, dtype=np.int64),
        )

    @classmethod
    def from_arrays(
        cls,
        node_ids: np.ndarray,
        indptr: np.ndarray,
        dsts: np.ndarray,
        labels: np.ndarray,
        local_counts: np.ndarray,
        row_offsets: np.ndarray,
        edge_offsets: np.ndarray,
        bytes_per_entry: np.ndarray,
        working_set_bytes: np.ndarray,
    ) -> "CSRHeap":
        """The heap of the flat layout (one block): each segment a view of
        its slices."""
        rows, edges = row_offsets.tolist(), edge_offsets.tolist()
        segments = []
        for index, (low, high, first, last) in enumerate(
            zip(rows, rows[1:], edges, edges[1:])
        ):
            segments.append(GraphSnapshot(
                node_ids=node_ids[low:high],
                indptr=indptr[low + index : high + index + 1],
                dsts=dsts[first:last],
                labels=labels[first:last],
                local_counts=local_counts[low:high],
                bytes_per_entry=bytes_per_entry.item(index),
                working_set_bytes=working_set_bytes.item(index),
            ))
        return cls(segments)

    @property
    def num_segments(self) -> int:
        """Number of segments (modules, then the host)."""
        return len(self.segments)

    def segment(self, index: int) -> GraphSnapshot:
        """Segment ``index``'s view."""
        return self.segments[index]

    def column(self, name: str) -> np.ndarray:
        """Every segment's ``name`` array (``node_ids``, ``dsts``,
        ``labels``, ``local_counts``, ``degrees`` or ``indptr``) end to
        end, as one new frozen array."""
        column = np.concatenate([_EMPTY, *(getattr(s, name) for s in self.segments)])
        column.flags.writeable = False
        return column

    def arrays(self) -> Dict[str, np.ndarray]:
        """The flat layout, by name: every array a new frozen copy."""
        arrays = {name: self.column(name) for name in self.FIELDS[:5]}
        for name, size in (("row_offsets", "num_rows"), ("edge_offsets", "num_edges")):
            arrays[name] = np.cumsum([0, *(getattr(s, size) for s in self.segments)])
        for name in self.FIELDS[7:]:
            arrays[name] = np.array([getattr(s, name) for s in self.segments], dtype=np.int64)
        for array in arrays.values():
            array.flags.writeable = False
        return arrays

    def replace(self, segments: Mapping[int, GraphSnapshot]) -> "CSRHeap":
        """This heap with ``segments[s]`` as segment ``s``."""
        merged = list(self.segments)
        for index, segment in segments.items():
            merged[index] = segment
        return CSRHeap(merged)


def merge_segment(
    base: GraphSnapshot,
    rows: Mapping[int, Optional[RowBuffer]],
    working_set_bytes: int,
    count_local: bool,
) -> GraphSnapshot:
    """``base`` with ``rows`` written in, as a new segment of its own
    arrays: ``rows`` maps each row written since ``base`` to its buffer
    (``None``: removed), ``working_set_bytes`` is the new footprint and
    ``count_local`` whether rows count their local destinations.

    The kept base rows and the flattened written rows are ordered by node
    id, and each column comes out of one gather over ``base ++ written``.
    Local counts are recounted for the written rows, or for every row when
    a row came or went (that flips membership of destinations).
    """
    dirty = np.fromiter(rows, dtype=np.int64, count=len(rows))
    keep = ~_sorted_member_mask(np.sort(dirty), base.node_ids)
    buffers = list(rows.values())
    present = np.array([buffer is not None for buffer in buffers], dtype=bool)
    written = dirty[present]
    delta_indptr, delta_dsts, delta_labels = flatten_rows(
        [buffer for buffer in buffers if buffer is not None]
    )

    all_nodes = np.concatenate([base.node_ids[keep], written])
    order = np.argsort(all_nodes)
    node_ids = all_nodes[order]
    degrees = np.concatenate([base.degrees[keep], np.diff(delta_indptr)])[order]
    indptr = np.zeros(len(node_ids) + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    # Where each row's edges start in ``base ++ written``; an edge's index
    # is its row's start plus its place in the row.
    starts = np.concatenate([base.indptr[:-1][keep], delta_indptr[:-1] + base.num_edges])
    index = np.repeat(starts[order] - indptr[:-1], degrees)
    index += np.arange(len(index))
    dsts = np.concatenate([base.dsts, delta_dsts])[index]
    labels = np.concatenate([base.labels, delta_labels])[index]

    if not count_local:
        local_counts = np.zeros(len(node_ids), dtype=np.int64)
    elif len(written) < len(dirty) or len(node_ids) != base.num_rows:
        # A row went, or one came (no row went, yet the count moved).
        local_counts = _local_counts(node_ids, indptr, dsts)
    else:
        local_counts = np.concatenate(
            [base.local_counts[keep], _local_counts(node_ids, delta_indptr, delta_dsts)]
        )[order]
    return GraphSnapshot(
        node_ids, indptr, dsts, labels, local_counts, base.bytes_per_entry, working_set_bytes
    )


def splice(heap: CSRHeap, storages: Sequence) -> CSRHeap:
    """The heap of the storages' current rows (storage ``i`` is segment
    ``i``): the rows each wrote since ``heap`` (``written``, read by
    ``written_rows()``) merged into its segment, every other segment
    taken from ``heap``, or ``heap`` itself when nothing was written.
    Nothing changes: a publish rebases the storages onto the result."""
    merged = {
        index: merge_segment(
            heap.segment(index),
            storage.written_rows(),
            storage.working_set_bytes,
            storage.count_local,
        )
        for index, storage in enumerate(storages)
        if storage.written
    }
    return heap.replace(merged) if merged else heap

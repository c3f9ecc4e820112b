"""Columnar CSR snapshots of the graph storages, maintained incrementally.

The vectorized execution backend expands frontiers with numpy gathers
instead of per-node dict lookups, which requires the adjacency segments
to be available as flat arrays.  Both storage classes
(:class:`~repro.core.local_storage.LocalGraphStorage` and
:class:`~repro.core.hetero_storage.HeterogeneousGraphStorage`) expose a
``to_csr()`` method returning a :class:`GraphSnapshot`.

Row buffers
-----------
The storages keep — and hand to the splice here — each *written*
adjacency row as one flat int64 buffer: an ``array('q')`` interleaving
``dst0, label0, dst1, label1, ...``.  A pair whose ``dst`` is
:data:`HOLE` is an empty slot (the host's ``cols_vector`` has them;
module rows never do) and is skipped.  :func:`row_buffer` /
:func:`row_pairs` convert from and to the ``(dst, label)`` lists of the
public read API, and :func:`split_buffers` cuts checkpoint arrays back
into rows.  The splice copies every buffer it is given (one
``bytes.join``) and never keep a ``memoryview`` or ``frombuffer`` array
over one: an ``array`` that is exporting its buffer cannot be resized,
so a view that outlived the call would make the next insert into that
row raise ``BufferError``.

Snapshot lifecycle
------------------
A storage's :class:`SnapshotCache` keeps one frozen **base** snapshot
and the ids of the rows edited since it froze (edge add/sub, whole-row
install/removal by migrations and labor-division promotions).
``to_csr()`` returns the base when no row is dirty — what back-to-back
queries between updates hit — and otherwise :func:`merge_snapshot`
splices the dirty rows' current buffers into it: only those rows are
re-read and flattened, then one index array places every row's segment
of ``base ++ delta`` and each column is one gather, whatever the
dirty-row count.  A storage with no base yet — one built edge by edge,
or after ``drop()`` — splices every row into :data:`EMPTY_SNAPSHOT` on
its first refresh; a bulk load and a checkpoint restore seed the base
directly (:func:`csr_snapshot`, :meth:`SnapshotCache.seed_base`),
so a loaded or recovered storage never takes that branch.  A splice is
exact — a removed edge or row leaves nothing behind in the arrays — so
a base is array-for-array the snapshot of the current rows however long
its lineage, and a rebuild from scratch would have nothing to collect.
The suites hold every refresh to a per-edge reference builder
(``tests/model.py``).

A module storage keeps no second copy of a clean row: its base *is*
where the row lives, and a row gets a buffer only when it is first
written (see :mod:`repro.core.local_storage`).  The host storage keeps
every row as a buffer, since its slot layout is state the base does not
carry.

A snapshot is a *simulation-faithful* view: alongside the CSR topology
it carries the byte-accounting constants of its storage (hash-map entry
bytes for PIM segments, ``cols_vector`` slot bytes for the host rows)
and the per-row count of locally-owned destinations that the paper's
misplacement detection needs, so the vectorized engine charges exactly
the same simulated work as the scalar one.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import chain
from typing import Callable, Collection, Iterable, List, Optional, Set, Tuple

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


def _runs(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Stable sort order of non-empty ``values`` and the bounds of its
    runs of equal values: run ``i`` is ``order[bounds[i]:bounds[i + 1]]``."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    boundary = np.empty(len(ordered), dtype=bool)
    boundary[0] = True
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
    order, indptr = _runs(dsts)
    return TransposedBlock(dsts[order[indptr[:-1]]], indptr, src_rows[order])


class GraphSnapshot:
    """Immutable CSR view of one storage's adjacency rows.

    Rows are identified by their *global* node ids; ``node_ids`` is
    sorted so membership and row lookup are ``searchsorted`` calls.
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
        # Lazily built derived views (transpose / per-label blocks /
        # degree histogram / row ids).  A snapshot is immutable — the
        # storages' SnapshotCache *replaces* the snapshot object on any
        # mutation — so once built these can never go stale.  Concurrent
        # pinned readers may race to build one; both compute the same
        # arrays and the single reference assignment publishes either
        # safely.
        self._transpose: Optional[TransposedBlock] = None
        self._label_blocks: Optional[dict] = None
        self._degree_histogram: Optional[np.ndarray] = None
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

    def degree_histogram(self) -> np.ndarray:
        """Out-degree histogram of the snapshot's rows (cached, frozen).

        ``histogram[d]`` is the number of rows with out-degree ``d``;
        always at least one bucket long.  Computed once per snapshot
        from the CSR ``indptr`` diff — the dense-vs-sparse crossover
        substrate of the matrix engine and the cost-based planner.
        """
        histogram = self._degree_histogram
        if histogram is None:
            histogram = np.bincount(self.degrees, minlength=1).astype(np.int64)
            histogram.flags.writeable = False
            self._degree_histogram = histogram
        return histogram

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
                order, bounds = _runs(self.labels)
                bounds = bounds.tolist()
                for start, stop in zip(bounds, bounds[1:]):
                    chunk = order[start:stop]
                    blocks[int(self.labels[chunk[0]])] = _transpose_edges(
                        self.dsts[chunk], src_rows[chunk]
                    )
            self._label_blocks = blocks
        return blocks

    def freeze(self) -> "GraphSnapshot":
        """Mark every array read-only and return ``self``.

        Published snapshots are shared by reference between the storage
        cache, pinned serving epochs and the engines; freezing turns any
        accidental in-place mutation of a handed-out base into an
        immediate ``ValueError`` instead of silent corruption of every
        reader.
        """
        for array in (
            self.node_ids,
            self.indptr,
            self.dsts,
            self.labels,
            self.local_counts,
            self.degrees,
        ):
            array.flags.writeable = False
        return self

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


#: The base a storage's first refresh splices all of its rows into.
EMPTY_SNAPSHOT = GraphSnapshot(
    node_ids=_EMPTY,
    indptr=np.zeros(1, dtype=np.int64),
    dsts=_EMPTY,
    labels=_EMPTY,
    local_counts=_EMPTY,
    bytes_per_entry=0,
    working_set_bytes=1,
).freeze()


def _sorted_member_mask(members: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Boolean mask of which ``values`` occur in the sorted ``members``."""
    if len(members) == 0 or len(values) == 0:
        return np.zeros(len(values), dtype=bool)
    positions = np.minimum(np.searchsorted(members, values), len(members) - 1)
    return members[positions] == values


def _local_counts(
    node_ids: np.ndarray, indptr: np.ndarray, dsts: np.ndarray
) -> np.ndarray:
    """Per-``indptr``-segment count of destinations found in ``node_ids``.

    ``indptr`` need not span all of ``node_ids``'s rows — the merge path
    recounts only its dirty-row segments against the full member set.
    """
    if len(node_ids) == 0 or len(dsts) == 0:
        return np.zeros(len(indptr) - 1, dtype=np.int64)
    local_flags = _sorted_member_mask(node_ids, dsts).astype(np.int64)
    # Per-row segment sums via prefix sums: exact for empty rows
    # anywhere (reduceat would mishandle out-of-bounds segment
    # starts produced by trailing empty rows).
    prefix = np.concatenate([[0], np.cumsum(local_flags)])
    return prefix[indptr[1:]] - prefix[indptr[:-1]]


def _flatten_entries(
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


def csr_snapshot(
    node_ids: np.ndarray,
    indptr: np.ndarray,
    dsts: np.ndarray,
    labels: np.ndarray,
    bytes_per_entry: int,
    working_set_bytes: int,
) -> GraphSnapshot:
    """The frozen snapshot of CSR rows built elsewhere (a bulk load),
    with their local counts: row ``node_ids[i]`` (ascending) holds
    ``dsts[indptr[i]:indptr[i + 1]]``."""
    return GraphSnapshot(
        node_ids=node_ids,
        indptr=indptr,
        dsts=dsts,
        labels=labels,
        local_counts=_local_counts(node_ids, indptr, dsts),
        bytes_per_entry=bytes_per_entry,
        working_set_bytes=working_set_bytes,
    ).freeze()


def merge_snapshot(
    base: GraphSnapshot,
    dirty_rows: np.ndarray,
    fetch_row: Callable[[int], Optional[RowBuffer]],
    bytes_per_entry: int,
    working_set_bytes: int,
    count_local: bool,
) -> GraphSnapshot:
    """Splice the current data of ``dirty_rows`` into ``base``.

    ``fetch_row`` returns a dirty row's current buffer, or ``None`` when
    the row no longer exists on the storage.  Clean base rows and the
    freshly flattened dirty rows are laid end to end and the merged
    columns come out of one gather each; the result is array-for-array
    the snapshot of the storage's current contents, whatever ``base``'s
    lineage (:data:`EMPTY_SNAPSHOT` included).
    """
    # Clean base rows survive with their segments; dirty ones are
    # replaced (or dropped) wholesale from the storage's live data.
    keep = ~_sorted_member_mask(dirty_rows, base.node_ids)

    buffers = list(map(fetch_row, dirty_rows.tolist()))
    present = np.array([buffer is not None for buffer in buffers], dtype=bool)
    delta_nodes = dirty_rows[present]
    delta_indptr, delta_dsts, delta_labels = _flatten_entries(
        [buffer for buffer in buffers if buffer is not None]
    )

    # Two-source splice: order the union of surviving and dirty rows by
    # node id (all ids are unique, so the sort is total).  Each merged
    # row then knows where its segment starts in ``base ++ delta``, and
    # one index array gathers every segment into place — a fixed number
    # of numpy calls whatever the dirty-row count.
    all_nodes = np.concatenate([base.node_ids[keep], delta_nodes])
    all_degrees = np.concatenate([base.degrees[keep], np.diff(delta_indptr)])
    all_starts = np.concatenate(
        [base.indptr[:-1][keep], delta_indptr[:-1] + base.num_edges]
    )
    order = np.argsort(all_nodes)
    node_ids = all_nodes[order]
    degrees = all_degrees[order]
    indptr = np.zeros(len(node_ids) + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    gather = np.repeat(all_starts[order] - indptr[:-1], degrees)
    gather += np.arange(len(gather), dtype=np.int64)
    dsts = np.concatenate([base.dsts, delta_dsts])[gather]
    labels = np.concatenate([base.labels, delta_labels])[gather]

    if count_local:
        # Locality of a *clean* row only changes when the row-id set
        # itself changed (an install or removal flips membership of its
        # destinations).  With the membership intact, splice the base
        # counts and recount just the dirty rows' destinations;
        # otherwise recompute over the merged arrays in one pass.
        rows_removed = len(delta_nodes) < len(dirty_rows)
        rows_added = bool(len(delta_nodes)) and not np.all(
            _sorted_member_mask(base.node_ids, delta_nodes)
        )
        if rows_removed or rows_added:
            local_counts = _local_counts(node_ids, indptr, dsts)
        else:
            delta_local = _local_counts(node_ids, delta_indptr, delta_dsts)
            local_counts = np.concatenate(
                [base.local_counts[keep], delta_local]
            )[order]
    else:
        local_counts = np.zeros(len(node_ids), dtype=np.int64)
    return GraphSnapshot(
        node_ids=node_ids,
        indptr=indptr,
        dsts=dsts,
        labels=labels,
        local_counts=local_counts,
        bytes_per_entry=bytes_per_entry,
        working_set_bytes=working_set_bytes,
    )


class SnapshotCache:
    """One storage's cached base snapshot and the rows dirtied since.

    The storages :meth:`record` every row a mutation touches;
    :meth:`refresh` returns the base or splices the dirty rows into it.
    """

    def __init__(self) -> None:
        self.base: Optional[GraphSnapshot] = None
        #: Ids of the rows edited since ``base`` froze.  Recorded only
        #: while a base exists: a first refresh reads every row anyway.
        self.dirty: Set[int] = set()
        #: Number of snapshot refreshes performed.
        self.builds = 0

    def record(self, node: int) -> None:
        """``node``'s row was edited, installed or removed."""
        if self.base is not None:
            self.dirty.add(node)

    def seed_base(self, snapshot: GraphSnapshot) -> None:
        """Install an externally built base (bulk load, checkpoint restore).

        The next ``to_csr()`` is then a cache hit on those arrays.  They
        are frozen (the checkpoint loader may share them), so every later
        splice reads a read-only base — which the regression suite
        asserts explicitly.
        """
        self.base = snapshot.freeze()
        self.dirty.clear()

    def drop(self) -> None:
        """Forget the cached base; the next refresh splices every row."""
        self.base = None
        self.dirty.clear()

    def refresh(
        self,
        row_ids: Callable[[], Collection[int]],
        fetch_row: Callable[[int], Optional[RowBuffer]],
        bytes_per_entry: int,
        working_set_bytes: Callable[[], int],
        count_local: bool,
    ) -> GraphSnapshot:
        """Bring the cached snapshot up to date and return it.

        ``row_ids`` and ``working_set_bytes`` are providers, not values —
        they are only evaluated when a refresh actually happens, so the
        clean-cache fast path stays O(1) even for storages whose
        footprint is O(rows) to compute.
        """
        base = self.base
        if base is None:
            base, dirty = EMPTY_SNAPSHOT, row_ids()
        elif self.dirty:
            dirty = self.dirty
        else:
            return base
        # Published bases are shared by reference (engines, pinned serving
        # epochs); freeze so no caller can mutate a handed-out snapshot.
        self.base = merge_snapshot(
            base,
            np.sort(np.fromiter(dirty, dtype=np.int64, count=len(dirty))),
            fetch_row,
            bytes_per_entry=bytes_per_entry,
            working_set_bytes=working_set_bytes(),
            count_local=count_local,
        ).freeze()
        self.dirty.clear()
        self.builds += 1
        return self.base

"""The vectorized execution backend (columnar frontiers over CSR snapshots).

Where the scalar backend walks dict frontiers node by node, this engine
runs each bulk-synchronous phase as a handful of numpy array operations
against an epoch's segment snapshots (views of its
:class:`~repro.core.snapshot.CSRHeap`).  Updates and migrations between
queries publish a new heap, so results always reflect the current
graph.  Two frontier representations are used:

**Bit-packed masks (pure k-hop plans).**  A k-hop frontier is exactly
the boolean matrix ``Q`` of the paper's ``ans = Q x Adj x ... x Adj``
plan: bit ``r`` on node ``n`` means query row ``r``'s frontier sits on
``n``.  Each partition's share is ``(nodes, masks)`` — a sorted node
array plus a ``(len(nodes), ceil(R/64))`` word matrix — and one smxm
phase is: gather the adjacency rows of the frontier nodes, sort the
edges by destination, and OR-reduce the source masks per destination
(``np.bitwise_or.reduceat``).  Work scales with *edges touched*, not
with frontier items, which is where the order-of-magnitude wall-clock
win over the scalar engine comes from.

**Packed 64-bit context keys (automaton-guided plans).**  General RPQs
carry ``(row, state)`` contexts, so frontier items are packed as
``key = (node * R + row) * S + state + 1`` (injective below
``2**62 / (R * S)``, far beyond the dense ids this repository
generates).  Deduplication is a sort, already-seen filtering is a
``searchsorted``, and node / row / state are recovered with two
``divmod``\\ s.

Each representation is a per-call :class:`~repro.engine.driver.Kernel`
(:class:`BitsetKernel`, :class:`KeysKernel`).  The kernels are
*simulation-faithful*: for every expansion they derive the same work
counters (rows touched, bytes streamed, items processed, frontier items
crossing CPC/IPC, misplacement reports) the scalar kernel would have
produced and report them to the driver, which charges every backend
alike — so results and :class:`~repro.pim.stats.ExecutionStats` are
bit-identical.  Only the wall-clock cost of computing the answer changes
— which is the point.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.base import PlanView, ReportColumns
from repro.engine.driver import ExpandWork
from repro.partition.base import HOST_PARTITION, UNKNOWN
from repro.rpq.automaton import DFA
from repro.rpq.planner import Plan
from repro.rpq.query import csr_from_sorted_pairs

_EMPTY = np.empty(0, dtype=np.int64)

#: A bit-frontier block: sorted unique node ids plus per-node row masks.
MaskBlock = Tuple[np.ndarray, np.ndarray]


def _run_mask(values: np.ndarray) -> np.ndarray:
    """First-occurrence mask of the runs in a sorted, non-empty array."""
    mask = np.empty(len(values), dtype=bool)
    mask[0] = True
    np.not_equal(values[1:], values[:-1], out=mask[1:])
    return mask


def _run_starts(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_run_mask` plus the start index of every run."""
    mask = _run_mask(values)
    return mask, np.flatnonzero(mask)


def _unique(values: np.ndarray) -> np.ndarray:
    """Sorted unique values via an explicit sort.

    Always takes the sort-plus-scan route: numpy's values-only
    ``np.unique`` may pick a hash-table algorithm whose constant factors
    are far worse on these heavily-duplicated int64 key arrays.
    """
    if values.size == 0:
        return values
    ordered = np.sort(values)
    return ordered[_run_mask(ordered)]


def _sorted_unique_counts(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Unique values and run lengths of an already-sorted array (no re-sort)."""
    if values.size == 0:
        return _EMPTY, _EMPTY
    first = np.flatnonzero(_run_mask(values))
    return values[first], np.diff(np.append(first, len(values)))


def _group_into_results(
    rows: np.ndarray, nodes: np.ndarray, num_rows: int
) -> Tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` of the distinct ``(row, node)`` pairs.

    ``rows`` are batch row numbers, so a source listed twice keeps two
    independent rows, and a row with no pair is an empty slice.  Each
    row comes out sorted and duplicate-free (the same node can be
    accepted in two automaton states).
    """
    order = np.lexsort((nodes, rows))
    return csr_from_sorted_pairs(rows[order], nodes[order], num_rows)


def _row_bit_masks(rows: np.ndarray, num_words: int) -> np.ndarray:
    """One single-bit mask row per entry of ``rows``."""
    masks = np.zeros((len(rows), num_words), dtype=np.uint64)
    masks[np.arange(len(rows)), rows // 64] = np.uint64(1) << (
        (rows % 64).astype(np.uint64)
    )
    return masks


def _popcounts(masks: np.ndarray) -> np.ndarray:
    """Number of set bits per mask row (one frontier item per bit)."""
    return np.bitwise_count(masks).sum(axis=1, dtype=np.int64)


class _DfaStepper:
    """Dense-array view of a :class:`~repro.rpq.automaton.DFA`.

    Transition columns are materialised lazily per distinct integer edge
    label (mapped through ``label_names`` exactly like the scalar path),
    so stepping a whole edge batch is one fancy-indexing gather.
    """

    def __init__(self, dfa: DFA, label_names: Dict[int, str]) -> None:
        self._dfa = dfa
        self._label_names = label_names
        states = {dfa.start} | set(dfa.accepting)
        states.update(dfa.transitions)
        states.update(dfa.default)
        states.update(dfa.default.values())
        for arcs in dfa.transitions.values():
            states.update(arcs.values())
        self.num_slots = max(states) + 1
        self.accepting = np.zeros(self.num_slots, dtype=bool)
        for state in dfa.accepting:
            self.accepting[state] = True
        self._columns: Dict[int, np.ndarray] = {}

    def column(self, label: int) -> np.ndarray:
        """Dense transition column of one integer edge label
        (``column[state] = next state``, ``-1`` = reject)."""
        column = self._columns.get(label)
        if column is None:
            label_string = self._label_names.get(label, str(label))
            column = np.fromiter(
                (
                    -1 if (target := self._dfa.step(state, label_string)) is None
                    else target
                    for state in range(self.num_slots)
                ),
                dtype=np.int64,
                count=self.num_slots,
            )
            self._columns[label] = column
        return column

    def step(self, states: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Next state per ``(state, label)`` pair (``-1`` = reject)."""
        unique_labels = _unique(labels)
        inverse = np.searchsorted(unique_labels, labels)
        table = np.stack(
            [self.column(int(label)) for label in unique_labels.tolist()], axis=1
        )
        return table[states, inverse]


def _owner_runs(owners: np.ndarray) -> List[Tuple[int, int, int]]:
    """``(owner, start, stop)`` of every run in an owner-sorted array."""
    run_mask, starts = _run_starts(owners)
    stops = np.append(starts[1:], len(owners))
    return list(zip(owners[run_mask].tolist(), starts.tolist(), stops.tolist()))


def _row_degrees(snapshot, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Row index (``-1`` when absent) and out-degree of each node."""
    row_idx = snapshot.lookup(nodes)
    if snapshot.num_rows == 0:
        return row_idx, np.zeros(len(nodes), dtype=np.int64)
    present = row_idx >= 0
    return row_idx, np.where(present, snapshot.degrees[np.maximum(row_idx, 0)], 0)


def _misplaced(
    snapshot,
    nodes: np.ndarray,
    row_idx: np.ndarray,
    degrees: np.ndarray,
    threshold: Optional[float],
) -> Optional[ReportColumns]:
    """``(nodes, local, remote)`` columns of the nodes whose next hops
    mostly live elsewhere — :func:`~repro.engine.python_engine.smxm`'s
    test over the snapshot's ``local_counts`` (``threshold`` ``None`` = no
    detection); ``None`` when there are none."""
    if threshold is None:
        return None
    active = degrees > 0
    if not active.any():
        return None
    local = snapshot.local_counts[np.maximum(row_idx, 0)]
    remote = degrees - local
    reported = active & (remote > 0) & (remote / np.maximum(degrees, 1) > threshold)
    if not reported.any():
        return None
    return nodes[reported], local[reported], remote[reported]


def _crossing_items(
    producer: int, owners: np.ndarray, weights: Optional[np.ndarray] = None
) -> Tuple[int, int]:
    """Items leaving ``producer`` over the CPC and the IPC channel.

    ``weights`` is the item count behind each ``owners`` entry (one when
    omitted).  Anything to or from the host crosses the CPC channel.
    """
    crossing = owners != producer
    if weights is not None:
        crossing = crossing * weights
    total = int(crossing.sum())
    if producer == HOST_PARTITION:
        return total, 0
    to_host = int(crossing[owners == HOST_PARTITION].sum())
    return to_host, total - to_host


class BitsetKernel:
    """Bit-mask frontiers (pure k-hop plans: contexts are bare query rows).

    A block is ``(nodes, masks)``: sorted unique node ids plus one row of
    ``ceil(R/64)`` mask words per node.
    """

    def __init__(self, plan: Plan, sources: List[int], view: PlanView) -> None:
        self._view = view
        self._sources = sources
        self._num_words = max(1, (len(sources) + 63) // 64)
        #: Whether the plan runs more than one expansion phase (biases
        #: the pull kernels' dense-vs-sparse crossover).
        self._deep_plan = plan.max_expansion_phases() > 1
        #: ``(dsts, masks, owners)`` routed during the current phase.
        self._routed: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        #: Stays empty when an expansion drains the frontier and the
        #: plan never reaches its reduce.
        self._answer = (np.zeros(len(sources) + 1, dtype=np.int64), _EMPTY)

    def initial_frontier(self) -> Tuple[Dict[int, MaskBlock], int]:
        nodes = np.asarray(self._sources, dtype=np.int64)
        owners = self._view.owners_of(nodes)
        known = owners != UNKNOWN
        masks = _row_bit_masks(np.flatnonzero(known), self._num_words)
        self._routed.append((nodes[known], masks, owners[known]))
        return self.next_frontier(), int(len(nodes) - known.sum())

    def items(self, block: MaskBlock) -> int:
        return int(_popcounts(block[1]).sum())

    def expand(
        self, partition: int, block: MaskBlock
    ) -> Tuple[ExpandWork, Optional[MaskBlock]]:
        """The per-destination OR of the source masks (per-producer set
        semantics for free); ``None`` when no edge was touched."""
        nodes, masks = block
        snapshot = self._view.snapshot_of(partition)
        row_idx, degrees = _row_degrees(snapshot, nodes)
        num_edges = int(degrees.sum())
        work = ExpandWork(
            rows_touched=len(nodes),
            bytes_streamed=num_edges * snapshot.bytes_per_entry,
            items_processed=int((degrees * _popcounts(masks)).sum()),
            working_set_bytes=snapshot.working_set_bytes,
            misplaced=_misplaced(
                snapshot, nodes, row_idx, degrees,
                self._view.misplacement_threshold(partition),
            ),
        )
        if num_edges == 0:
            return work, None
        return work, self._produce(snapshot, masks, row_idx, degrees, num_edges)

    def _produce(
        self,
        snapshot,
        masks: np.ndarray,
        row_idx: np.ndarray,
        degrees: np.ndarray,
        num_edges: int,
    ) -> MaskBlock:
        """Compute one partition's produced ``(dsts, masks)`` block.

        The production kernel behind :meth:`expand`, separated from the
        work counting so subclasses can swap the frontier math without
        touching what the simulation measures.  This implementation is
        the push-style gather: collect the adjacency rows of every
        frontier node, sort the edges by destination, and OR-reduce the
        source masks per destination.
        """
        node_rep = np.repeat(np.arange(len(row_idx)), degrees)
        starts = snapshot.indptr[np.maximum(row_idx, 0)]
        cumulative = np.cumsum(degrees)
        offsets = np.arange(num_edges) - np.repeat(cumulative - degrees, degrees)
        edge_pos = np.repeat(starts, degrees) + offsets
        dsts = snapshot.dsts[edge_pos]

        order = np.argsort(dsts)
        sorted_dsts = dsts[order]
        edge_masks = masks[node_rep[order]]
        run_mask, run_start = _run_starts(sorted_dsts)
        return (
            sorted_dsts[run_mask],
            np.bitwise_or.reduceat(edge_masks, run_start, axis=0),
        )

    def route(self, producer: int, produced: Optional[MaskBlock]) -> Tuple[int, int]:
        if produced is None:
            return 0, 0
        dsts, masks = produced
        # Dangling destinations are dropped before any routing
        # accounting, as in the scalar path.
        owners = self._view.owners_of(dsts)
        known = owners != UNKNOWN
        if not known.all():
            dsts, masks, owners = dsts[known], masks[known], owners[known]
        self._routed.append((dsts, masks, owners))
        return _crossing_items(producer, owners, _popcounts(masks))

    def next_frontier(self) -> Dict[int, MaskBlock]:
        """Union per-producer outputs and split them by owner partition."""
        routed, self._routed = self._routed, []
        dsts = np.concatenate([chunk[0] for chunk in routed] or [_EMPTY])
        if dsts.size == 0:
            return {}
        masks = np.concatenate([chunk[1] for chunk in routed])
        owners = np.concatenate([chunk[2] for chunk in routed])
        order = np.lexsort((dsts, owners))
        dsts, masks, owners = dsts[order], masks[order], owners[order]
        # The owner is a function of the destination, so runs of equal
        # destinations are also runs of equal owners.
        run_mask, run_start = _run_starts(dsts)
        unique_dsts = dsts[run_mask]
        merged = np.bitwise_or.reduceat(masks, run_start, axis=0)
        return {
            owner: (unique_dsts[start:stop], merged[start:stop])
            for owner, start, stop in _owner_runs(owners[run_mask])
        }

    def reduce(self, frontier: Dict[int, MaskBlock]) -> None:
        if not frontier:
            return
        num_rows = len(self._sources)
        nodes = np.concatenate([block[0] for block in frontier.values()])
        masks = np.concatenate([block[1] for block in frontier.values()])
        # Blocks are sorted per owner only: sort the nodes once, and every
        # row's matches then come out ascending.
        order = np.argsort(nodes)
        nodes = nodes[order]
        # The answer is sized once and every row's matches are written
        # straight into their slice: it is the largest array of the whole
        # batch, so no second copy of it may exist, even in pieces.
        indices = np.empty(
            int(np.bitwise_count(masks).sum(dtype=np.int64)), dtype=np.int64
        )
        indptr = np.zeros(num_rows + 1, dtype=np.int64)
        stop = 0
        # One 64-row word column at a time keeps the unpacked bit matrix
        # (a byte per row and live node) a small transient.
        for word in range(self._num_words):
            column = masks[order, word]
            live = np.flatnonzero(column)
            live_nodes = nodes[live]
            # Unpacked along axis 0 of the byte-transposed column: one
            # contiguous row of node hits per query row.
            hits = np.unpackbits(
                column[live].view(np.uint8).reshape(-1, 8).T,
                axis=0,
                bitorder="little",
            ).view(bool)
            first_row = word * 64
            counts = hits.sum(axis=1).tolist()
            for row in range(first_row, min(first_row + 64, num_rows)):
                start, stop = stop, stop + counts[row - first_row]
                np.compress(hits[row - first_row], live_nodes, out=indices[start:stop])
                indptr[row + 1] = stop
        self._answer = (indptr, indices)

    def answer(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._answer


class KeysKernel:
    """Packed-key frontiers (automaton-guided plans: ``(row, state)``
    contexts).  A block is a sorted array of unique context keys."""

    def __init__(
        self,
        plan: Plan,
        sources: List[int],
        view: PlanView,
        label_names: Dict[int, str],
    ) -> None:
        self._view = view
        self._sources = sources
        self._dfa = plan.dfa
        self._accumulate = plan.accumulate_results
        self._stepper = _DfaStepper(plan.dfa, label_names)
        # Packed-key parameters for this batch (see module docstring).
        self._row_span = max(1, len(sources))
        self._state_span = self._stepper.num_slots + 1
        self._max_packable_node = (2 ** 62) // (self._row_span * self._state_span)
        #: ``(rows, dsts)`` array pairs accepted so far — while routing in
        #: accumulate mode, by the reduce otherwise; grouped into the
        #: answer once, after the plan finishes.
        self._accepted: List[Tuple[np.ndarray, np.ndarray]] = []
        #: Every context key ever routed (accumulate mode), sorted.
        self._seen = _EMPTY
        #: Surviving context keys routed during the current phase.
        self._routed: List[np.ndarray] = []

    # ------------------------------------------------------------------
    # Packed-key plumbing
    # ------------------------------------------------------------------
    def _pack(
        self, nodes: np.ndarray, rows: np.ndarray, states: np.ndarray
    ) -> np.ndarray:
        if nodes.size and int(nodes.max()) > self._max_packable_node:
            raise OverflowError(
                "node id too large for 64-bit frontier keys; "
                "re-densify node ids or shrink the batch"
            )
        return (nodes * self._row_span + rows) * self._state_span + states + 1

    def _unpack(
        self, keys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Recover ``(nodes, rows, states)`` from packed context keys."""
        nodes, remainder = np.divmod(keys, self._row_span * self._state_span)
        rows, state_part = np.divmod(remainder, self._state_span)
        return nodes, rows, state_part - 1

    def _unpack_nodes(self, keys: np.ndarray) -> np.ndarray:
        """Recover only the node component from packed context keys."""
        return keys // (self._row_span * self._state_span)

    # ------------------------------------------------------------------
    # The Kernel protocol
    # ------------------------------------------------------------------
    def initial_frontier(self) -> Tuple[Dict[int, np.ndarray], int]:
        dfa = self._dfa
        nodes = np.asarray(self._sources, dtype=np.int64)
        known = self._view.owners_of(nodes) != UNKNOWN
        nodes, rows = nodes[known], np.flatnonzero(known)
        if self._accumulate and dfa.is_accepting(dfa.start):
            self._accepted.append((rows, nodes))
        # Source/row pairs are unique by construction, so every key is
        # fresh and the merge's dedup only sorts.
        keys = self._pack(nodes, rows, np.full(len(nodes), dfa.start, dtype=np.int64))
        if self._accumulate:
            self._seen = np.sort(keys)
        self._routed.append(keys)
        return self.next_frontier(), int(len(known) - len(nodes))

    def items(self, block: np.ndarray) -> int:
        return len(block)

    def expand(self, partition: int, block: np.ndarray) -> Tuple[ExpandWork, np.ndarray]:
        """Produced context keys, with duplicates — :meth:`route` owns
        set semantics."""
        nodes, rows, states = self._unpack(block)
        snapshot = self._view.snapshot_of(partition)
        # ``nodes`` is sorted node-major, so unique/counts align with a
        # contiguous grouping of the items.
        unique_nodes, counts = _sorted_unique_counts(nodes)
        row_idx, degrees = _row_degrees(snapshot, unique_nodes)
        item_degrees = np.repeat(degrees, counts)
        items_processed = int(item_degrees.sum())
        work = ExpandWork(
            rows_touched=len(unique_nodes),
            bytes_streamed=int(degrees.sum()) * snapshot.bytes_per_entry,
            items_processed=items_processed,
            working_set_bytes=snapshot.working_set_bytes,
            misplaced=_misplaced(
                snapshot, unique_nodes, row_idx, degrees,
                self._view.misplacement_threshold(partition),
            ),
        )
        if items_processed == 0:
            return work, _EMPTY
        return work, self._produce(
            snapshot, rows, states, counts, row_idx, item_degrees, items_processed
        )

    def _produce(
        self,
        snapshot,
        rows: np.ndarray,
        states: np.ndarray,
        counts: np.ndarray,
        row_idx: np.ndarray,
        item_degrees: np.ndarray,
        items_processed: int,
    ) -> np.ndarray:
        """Compute one partition's produced context keys (with duplicates).

        The production kernel behind :meth:`expand`, separated from the
        work counting so subclasses can swap the frontier math without
        touching what the simulation measures.  This implementation is
        the push-style gather: enumerate every (item, out-edge) pair and
        step the automaton per pair.
        """
        item_starts = np.repeat(
            snapshot.indptr[np.maximum(row_idx, 0)], counts
        )
        cumulative = np.cumsum(item_degrees)
        item_rep = np.repeat(np.arange(len(rows)), item_degrees)
        offsets = np.arange(items_processed) - np.repeat(
            cumulative - item_degrees, item_degrees
        )
        edge_pos = np.repeat(item_starts, item_degrees) + offsets

        dsts = snapshot.dsts[edge_pos]
        produced_rows = rows[item_rep]
        labels = snapshot.labels[edge_pos]
        next_states = self._stepper.step(states[item_rep], labels)
        keep = next_states >= 0
        return self._pack(dsts[keep], produced_rows[keep], next_states[keep])

    def route(self, producer: int, produced: np.ndarray) -> Tuple[int, int]:
        if produced.size == 0:
            return 0, 0
        # Per-producer set semantics: the same context reaching the same
        # destination via two local edges is one frontier item.
        keys = _unique(produced)

        # Dangling destinations (never registered with the partitioner)
        # are dropped before any accounting, as in the scalar path.
        owners = self._view.owners_of(self._unpack_nodes(keys))
        known = owners != UNKNOWN
        if not known.all():
            keys, owners = keys[known], owners[known]

        if self._accumulate:
            seen = self._seen
            if seen.size:
                positions = np.minimum(np.searchsorted(seen, keys), seen.size - 1)
                fresh = seen[positions] != keys
                keys, owners = keys[fresh], owners[fresh]
            if keys.size:
                self._seen = _unique(np.concatenate([seen, keys]))
                nodes, rows, states = self._unpack(keys)
                accepted = self._stepper.accepting[states]
                if accepted.any():
                    self._accepted.append((rows[accepted], nodes[accepted]))

        self._routed.append(keys)
        return _crossing_items(producer, owners)

    def next_frontier(self) -> Dict[int, np.ndarray]:
        """Union per-producer survivors and split them by owner partition."""
        routed, self._routed = self._routed, []
        keys = _unique(np.concatenate(routed or [_EMPTY]))
        if keys.size == 0:
            return {}
        owners = self._view.owners_of(self._unpack_nodes(keys))
        # ``keys`` is sorted, so a stable owner sort keeps each
        # partition's keys sorted node-major — the invariant expansion
        # relies on.
        order = np.argsort(owners, kind="stable")
        keys = keys[order]
        return {
            owner: keys[start:stop]
            for owner, start, stop in _owner_runs(owners[order])
        }

    def reduce(self, frontier: Dict[int, np.ndarray]) -> None:
        if self._accumulate or not frontier:
            # Accumulated results were collected while routing; the
            # reduce phase only merges per-module partial sets, which
            # the driver charged.
            return
        nodes, rows, states = self._unpack(np.concatenate(list(frontier.values())))
        accepted = self._stepper.accepting[states]
        self._accepted.append((rows[accepted], nodes[accepted]))

    def answer(self) -> Tuple[np.ndarray, np.ndarray]:
        return _group_into_results(
            np.concatenate([rows for rows, _ in self._accepted] or [_EMPTY]),
            np.concatenate([dsts for _, dsts in self._accepted] or [_EMPTY]),
            len(self._sources),
        )


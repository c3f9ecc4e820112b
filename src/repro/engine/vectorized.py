"""The vectorized execution backend (columnar frontiers over CSR snapshots).

Where the scalar backend walks dict frontiers node by node, this engine
runs each bulk-synchronous phase as a handful of numpy array operations
against the CSR storage snapshots (:meth:`LocalGraphStorage.to_csr` /
:meth:`HeterogeneousGraphStorage.to_csr`).  Updates and migrations
between queries invalidate those snapshots, so results always reflect
the current graph.  Two frontier representations are used:

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

The engine is *simulation-faithful*: for every phase it derives the same
work counters (rows touched, bytes streamed, items processed, frontier
items crossing CPC/IPC, misplacement reports) the scalar backend would
have produced, charges them to the same components, and therefore yields
bit-identical :class:`~repro.rpq.query.BatchResult`s and
:class:`~repro.pim.stats.ExecutionStats`.  Only the wall-clock cost of
computing the answer changes — which is the point.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.operators import BYTES_PER_FRONTIER_ITEM
from repro.engine.accounting import charge_dispatch, charge_reduce
from repro.engine.base import EngineRuntime
from repro.engine.physical import PhysicalPlan, invert_reverse_results, run_plan
from repro.partition.base import HOST_PARTITION
from repro.partition.owner_index import OwnerIndex
from repro.pim.stats import ExecutionStats
from repro.pim.system import OperationContext
from repro.rpq.automaton import DFA
from repro.rpq.query import BatchResult, csr_from_sorted_pairs

#: Owner code of a node the partitioner has never seen (dangling edge).
_UNKNOWN_OWNER = OwnerIndex.UNKNOWN

_EMPTY = np.empty(0, dtype=np.int64)

#: A bit-frontier block: sorted unique node ids plus per-node row masks.
MaskBlock = Tuple[np.ndarray, np.ndarray]


def _unique(values: np.ndarray) -> np.ndarray:
    """Sorted unique values via an explicit sort.

    Always takes the sort-plus-scan route: numpy's values-only
    ``np.unique`` may pick a hash-table algorithm whose constant factors
    are far worse on these heavily-duplicated int64 key arrays.
    """
    if values.size == 0:
        return values
    ordered = np.sort(values)
    mask = np.empty(len(ordered), dtype=bool)
    mask[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=mask[1:])
    return ordered[mask]


def _sorted_unique_counts(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Unique values and run lengths of an already-sorted array (no re-sort)."""
    if values.size == 0:
        return _EMPTY, _EMPTY
    mask = np.empty(len(values), dtype=bool)
    mask[0] = True
    np.not_equal(values[1:], values[:-1], out=mask[1:])
    first = np.flatnonzero(mask)
    counts = np.diff(np.append(first, len(values)))
    return values[first], counts


def _run_starts(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """First-occurrence mask and start indices of runs in a sorted array."""
    mask = np.empty(len(values), dtype=bool)
    mask[0] = True
    np.not_equal(values[1:], values[:-1], out=mask[1:])
    return mask, np.flatnonzero(mask)


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

    def _column(self, label: int) -> np.ndarray:
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

    #: Public accessor: dense transition column of one integer edge label
    #: (``column[state] = next state``, ``-1`` = reject).  The matrix
    #: engine pulls one adjacency block per (label, live state) pair and
    #: needs the same lazily-built columns the push path steps with.
    column = _column

    def step(self, states: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Next state per ``(state, label)`` pair (``-1`` = reject)."""
        unique_labels = _unique(labels)
        inverse = np.searchsorted(unique_labels, labels)
        table = np.stack(
            [self._column(int(label)) for label in unique_labels.tolist()], axis=1
        )
        return table[states, inverse]


class VectorizedEngine:
    """Executes physical plans with columnar frontiers and CSR snapshots."""

    name = "vectorized"

    def __init__(self, runtime: EngineRuntime) -> None:
        self._runtime = runtime
        #: Version-cached vectorized owner lookups over the partition map
        #: (shared implementation with the vectorized update path).
        self._owner_index = OwnerIndex()
        #: Epoch-pinned state substitute for the current ``execute`` call
        #: (``None`` = live storages).  See :class:`~repro.engine.base.PlanView`.
        self._view = None
        #: Expansion direction of the current ``execute`` call; reverse
        #: plans resolve rows and owners against the epoch's reversed
        #: adjacency index instead of the forward snapshots.
        self._direction = "forward"

    # ------------------------------------------------------------------
    # Plan execution
    # ------------------------------------------------------------------
    def execute(
        self,
        plan: PhysicalPlan,
        sources: List[int],
        view=None,
    ) -> Tuple[BatchResult, ExecutionStats]:
        if plan.direction == "reverse" and (
            view is None or plan.reverse is None or plan.dfa is None
        ):
            raise ValueError(
                "reverse plans require a pinned view, reverse seeds and a DFA"
            )
        self._view = view
        self._direction = plan.direction
        try:
            if view is None:
                # Node placement cannot change mid-query (migrations run
                # after the answer is complete), so one refresh covers
                # the whole plan.
                self._owner_index.refresh(self._runtime.partitioner.partition_map)
            if plan.dfa is None:
                return self._execute_bitset(plan, sources)
            return self._execute_keys(plan, sources)
        finally:
            # Never let a pinned epoch outlive the call through engine
            # scratch state.
            self._view = None
            self._direction = "forward"

    def _begin_op(self) -> OperationContext:
        """Open an accounting operation on the live platform, or on the
        pinned view's private platform (concurrent-execution safe)."""
        pim = self._view.pim if self._view is not None else self._runtime.pim
        return pim.begin_operation()

    def _owners_of(self, nodes: np.ndarray) -> np.ndarray:
        """Owner partition per node (``_UNKNOWN_OWNER`` when unplaced)."""
        if self._view is not None:
            if self._direction == "reverse":
                return self._view.reverse_owners_of(nodes)
            return self._view.owners_of(nodes)
        return self._owner_index.owners_of(nodes)

    def _snapshot_of(self, partition: int):
        """Adjacency snapshot of ``partition`` — pinned when a view is set
        (the reversed-adjacency capture for reverse plans)."""
        if self._view is not None:
            if self._direction == "reverse":
                return self._view.reverse_snapshot_of(partition)
            return self._view.snapshot_of(partition)
        return self._runtime.snapshot_of(partition)

    # ==================================================================
    # Bit-mask path (pure k-hop plans: contexts are bare query rows)
    # ==================================================================
    def _execute_bitset(
        self, plan: PhysicalPlan, sources: List[int]
    ) -> Tuple[BatchResult, ExecutionStats]:
        op = self._begin_op()
        self._num_words = max(1, (len(sources) + 63) // 64)
        self._num_rows = len(sources)

        state: Dict[str, Dict[int, MaskBlock]] = {"frontier": {}}
        #: The answer's CSR pair; stays empty when an expansion drains
        #: the frontier and the plan never reaches its reduce.
        answer = [np.zeros(len(sources) + 1, dtype=np.int64), _EMPTY]

        def dispatch() -> None:
            frontier, skipped = self._bitset_initial_frontier(sources)
            state["frontier"] = frontier
            with op.phase("dispatch"):
                self._bitset_charge_dispatch(op, frontier)
            op.add_counter("batch_size", len(sources))
            op.add_counter("unknown_sources", skipped)

        def expand_route(phase_name: str) -> bool:
            state["frontier"] = self._bitset_phase(
                op, state["frontier"], phase_name=phase_name
            )
            return bool(state["frontier"])

        def clear_frontier() -> None:
            state["frontier"] = {}

        def reduce() -> None:
            answer[:] = self._bitset_reduce(op, state["frontier"])

        run_plan(
            plan,
            dispatch=dispatch,
            expand_route=expand_route,
            clear_frontier=clear_frontier,
            reduce=reduce,
        )

        result = BatchResult(list(sources), *answer)
        stats = op.finish()
        stats.add_counter("results", result.total_matches)
        return result, stats

    def _bitset_initial_frontier(
        self, sources: List[int]
    ) -> Tuple[Dict[int, MaskBlock], int]:
        source_nodes = np.asarray(sources, dtype=np.int64)
        source_rows = np.arange(len(sources), dtype=np.int64)
        owners = self._owners_of(source_nodes)
        known = owners != _UNKNOWN_OWNER
        skipped = int(len(sources) - known.sum())
        source_nodes, source_rows, owners = (
            source_nodes[known], source_rows[known], owners[known]
        )
        if source_nodes.size == 0:
            return {}, skipped
        masks = _row_bit_masks(source_rows, self._num_words)
        order = np.lexsort((source_nodes, owners))
        source_nodes, owners, masks = (
            source_nodes[order], owners[order], masks[order]
        )
        frontier: Dict[int, MaskBlock] = {}
        owner_runs, owner_starts = _run_starts(owners)
        stops = np.append(owner_starts[1:], len(owners))
        for owner, start, stop in zip(
            owners[owner_runs].tolist(), owner_starts.tolist(), stops.tolist()
        ):
            nodes_slice = source_nodes[start:stop]
            node_runs, node_starts = _run_starts(nodes_slice)
            frontier[owner] = (
                nodes_slice[node_runs],
                np.bitwise_or.reduceat(masks[start:stop], node_starts, axis=0),
            )
        return frontier, skipped

    def _bitset_charge_dispatch(
        self, op: OperationContext, frontier: Dict[int, MaskBlock]
    ) -> None:
        charge_dispatch(
            op,
            {
                partition: int(_popcounts(masks).sum())
                for partition, (_, masks) in frontier.items()
            },
        )

    def _bitset_phase(
        self,
        op: OperationContext,
        frontier: Dict[int, MaskBlock],
        phase_name: str,
    ) -> Dict[int, MaskBlock]:
        chunks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        total_cpc_items = 0
        total_ipc_items = 0
        with op.phase(phase_name):
            for partition in sorted(frontier):
                produced = self._bitset_expand(op, partition, frontier[partition])
                if produced is None:
                    continue
                dsts, masks = produced
                # Dangling destinations are dropped before any routing
                # accounting, as in the scalar path.
                owners = self._owners_of(dsts)
                known = owners != _UNKNOWN_OWNER
                if not known.all():
                    dsts, masks, owners = dsts[known], masks[known], owners[known]
                    if dsts.size == 0:
                        continue
                item_counts = _popcounts(masks)
                crossing = owners != partition
                if partition == HOST_PARTITION:
                    total_cpc_items += int(item_counts[crossing].sum())
                else:
                    to_host = crossing & (owners == HOST_PARTITION)
                    total_cpc_items += int(item_counts[to_host].sum())
                    total_ipc_items += int(item_counts[crossing & ~to_host].sum())
                chunks.append((dsts, masks, owners))
            # Same rank-level bulk transfers as the scalar engine: one
            # gather/scatter pair per channel moves every crossing item.
            if total_cpc_items:
                op.cpc_transfer(
                    total_cpc_items * BYTES_PER_FRONTIER_ITEM, num_transfers=1
                )
            if total_ipc_items:
                op.ipc_transfer(
                    total_ipc_items * BYTES_PER_FRONTIER_ITEM, num_transfers=1
                )
        return self._bitset_merge(chunks)

    def _bitset_expand(
        self, op: OperationContext, partition: int, block: MaskBlock
    ) -> Optional[MaskBlock]:
        """Expand one partition's bit frontier; return the per-destination
        OR of the source masks (per-producer set semantics for free)."""
        runtime = self._runtime
        nodes, masks = block
        snapshot = self._snapshot_of(partition)

        row_idx = snapshot.lookup(nodes)
        if snapshot.num_rows == 0:
            degrees = np.zeros(len(nodes), dtype=np.int64)
        else:
            present = row_idx >= 0
            degrees = np.where(present, snapshot.degrees[np.maximum(row_idx, 0)], 0)

        rows_touched = len(nodes)
        bytes_streamed = int(degrees.sum()) * snapshot.bytes_per_entry
        contexts_per_node = _popcounts(masks)
        items_processed = int((degrees * contexts_per_node).sum())

        if partition == HOST_PARTITION:
            op.host.random_accesses(rows_touched, snapshot.working_set_bytes)
            op.host.stream_bytes(bytes_streamed)
            op.host.process_items(items_processed)
        else:
            module = op.module(partition)
            module.launch_kernel()
            module.random_accesses(rows_touched)
            module.stream_bytes(bytes_streamed)
            module.process_items(items_processed)
            if runtime.config.enable_migration and self._view is None:
                self._report_misplacement(
                    snapshot, nodes, row_idx, degrees,
                    runtime.processors[partition].misplacement_threshold,
                )

        num_edges = int(degrees.sum())
        if num_edges == 0:
            return None
        return self._bitset_produce(snapshot, masks, row_idx, degrees, num_edges)

    def _bitset_produce(
        self,
        snapshot,
        masks: np.ndarray,
        row_idx: np.ndarray,
        degrees: np.ndarray,
        num_edges: int,
    ) -> MaskBlock:
        """Compute one partition's produced ``(dsts, masks)`` block.

        The production kernel behind :meth:`_bitset_expand`, separated
        from the (shared) work accounting so subclasses can swap the
        frontier math without touching what the simulation measures.
        This implementation is the push-style gather: collect the
        adjacency rows of every frontier node, sort the edges by
        destination, and OR-reduce the source masks per destination.
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

    def _bitset_merge(
        self, chunks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]]
    ) -> Dict[int, MaskBlock]:
        """Union per-producer outputs and split them by owner partition."""
        if not chunks:
            return {}
        dsts = np.concatenate([chunk[0] for chunk in chunks])
        masks = np.concatenate([chunk[1] for chunk in chunks])
        owners = np.concatenate([chunk[2] for chunk in chunks])
        order = np.lexsort((dsts, owners))
        dsts, masks, owners = dsts[order], masks[order], owners[order]
        # The owner is a function of the destination, so runs of equal
        # destinations are also runs of equal owners.
        run_mask, run_start = _run_starts(dsts)
        unique_dsts = dsts[run_mask]
        unique_owners = owners[run_mask]
        merged = np.bitwise_or.reduceat(masks, run_start, axis=0)
        frontier: Dict[int, MaskBlock] = {}
        owner_runs, owner_starts = _run_starts(unique_owners)
        stops = np.append(owner_starts[1:], len(unique_owners))
        for owner, start, stop in zip(
            unique_owners[owner_runs].tolist(),
            owner_starts.tolist(),
            stops.tolist(),
        ):
            frontier[owner] = (unique_dsts[start:stop], merged[start:stop])
        return frontier

    def _bitset_reduce(
        self, op: OperationContext, frontier: Dict[int, MaskBlock]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Charge the ``mwait`` and return the answer's ``(indptr, indices)``."""
        with op.phase("mwait"):
            charge_reduce(
                op,
                {
                    partition: int(_popcounts(masks).sum())
                    for partition, (_, masks) in frontier.items()
                },
            )
        indptr = np.zeros(self._num_rows + 1, dtype=np.int64)
        if not frontier:
            return indptr, _EMPTY
        nodes = np.concatenate([block[0] for block in frontier.values()])
        masks = np.concatenate([block[1] for block in frontier.values()])
        # Blocks are sorted per owner only: sort the nodes once, and every
        # row's matches then come out ascending.
        order = np.argsort(nodes)
        nodes, masks = nodes[order], masks[order]
        counts = np.zeros(self._num_words * 64, dtype=np.int64)
        chunks: List[np.ndarray] = []
        # One 64-row word column at a time keeps the unpacked bit matrix
        # (a byte per node and row) a small transient.
        for word in range(self._num_words):
            bits = np.unpackbits(
                np.ascontiguousarray(masks[:, word]).view(np.uint8).reshape(-1, 8),
                axis=1,
                bitorder="little",
            )
            # Row-major over the transpose: grouped by row, nodes ascending.
            row_bits, node_pos = np.nonzero(np.ascontiguousarray(bits.T))
            counts[word * 64:(word + 1) * 64] = np.bincount(row_bits, minlength=64)
            chunks.append(nodes[node_pos])
        np.cumsum(counts[: self._num_rows], out=indptr[1:])
        return indptr, np.concatenate(chunks)

    # ==================================================================
    # Packed-key path (automaton-guided plans: (row, state) contexts)
    # ==================================================================
    def _execute_keys(
        self, plan: PhysicalPlan, sources: List[int]
    ) -> Tuple[BatchResult, ExecutionStats]:
        runtime = self._runtime
        op = self._begin_op()
        dfa = plan.dfa
        accumulate = plan.accumulate_results
        reverse = plan.direction == "reverse"
        #: Reverse plans expand the reversed-expression DFA from the
        #: candidate end nodes; the forward answer is recovered by
        #: inverting the matches after the plan drains.
        run_sources = list(plan.reverse.seeds) if reverse else sources
        stepper = _DfaStepper(dfa, runtime.label_names)

        # Packed-key parameters for this batch (see module docstring).
        self._row_span = max(1, len(run_sources))
        self._state_span = stepper.num_slots + 1
        self._max_packable_node = (2 ** 62) // (self._row_span * self._state_span)
        #: ``(rows, dsts)`` array pairs accepted so far — while routing in
        #: accumulate mode, by the reduce otherwise; grouped into the
        #: answer once, after the plan finishes.
        self._accumulated: List[Tuple[np.ndarray, np.ndarray]] = []

        #: frontier: partition -> sorted array of unique context keys;
        #: seen: every context key ever routed (accumulate mode).
        state = {"frontier": {}, "seen": _EMPTY}

        def dispatch() -> None:
            frontier, skipped = self._build_initial_frontier(
                run_sources, dfa, accumulate
            )
            state["frontier"] = frontier
            with op.phase("dispatch"):
                self._charge_dispatch(op, frontier)
            op.add_counter("batch_size", len(run_sources))
            op.add_counter("unknown_sources", skipped)
            if accumulate and frontier:
                state["seen"] = _unique(np.concatenate(list(frontier.values())))

        def expand_route(phase_name: str) -> bool:
            state["frontier"], state["seen"] = self._run_expansion_phase(
                op, state["frontier"], stepper, accumulate, state["seen"],
                phase_name=phase_name,
            )
            return bool(state["frontier"])

        def clear_frontier() -> None:
            state["frontier"] = {}

        def reduce() -> None:
            self._run_reduce_phase(op, state["frontier"], accumulate, stepper)

        run_plan(
            plan,
            dispatch=dispatch,
            expand_route=expand_route,
            clear_frontier=clear_frontier,
            reduce=reduce,
        )

        accepted, self._accumulated = self._accumulated, []
        indptr, indices = _group_into_results(
            np.concatenate([rows for rows, _ in accepted] or [_EMPTY]),
            np.concatenate([dsts for _, dsts in accepted] or [_EMPTY]),
            len(run_sources),
        )
        if reverse:
            indptr, indices = invert_reverse_results(
                sources, plan.reverse.seeds, indptr, indices
            )
        result = BatchResult(list(sources), indptr, indices)
        stats = op.finish()
        stats.add_counter("results", result.total_matches)
        return result, stats

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
    # Frontier construction and dispatch
    # ------------------------------------------------------------------
    def _build_initial_frontier(
        self,
        sources: List[int],
        dfa: DFA,
        accumulate: bool,
    ) -> Tuple[Dict[int, np.ndarray], int]:
        start_state = dfa.start
        start_accepting = accumulate and dfa.is_accepting(dfa.start)
        source_nodes = np.asarray(sources, dtype=np.int64)
        source_rows = np.arange(len(sources), dtype=np.int64)
        owners = self._owners_of(source_nodes)
        known = owners != _UNKNOWN_OWNER
        skipped = int(len(sources) - known.sum())
        source_nodes, source_rows, owners = (
            source_nodes[known], source_rows[known], owners[known]
        )
        if start_accepting:
            self._accumulated.append((source_rows, source_nodes))
        states = np.full(len(source_nodes), start_state, dtype=np.int64)
        keys = self._pack(source_nodes, source_rows, states)
        order = np.lexsort((keys, owners))
        owners, keys = owners[order], keys[order]
        frontier: Dict[int, np.ndarray] = {}
        group_owners, group_counts = _sorted_unique_counts(owners)
        start = 0
        for owner, count in zip(group_owners.tolist(), group_counts.tolist()):
            # Source/row pairs are unique by construction; no dedup needed.
            frontier[owner] = keys[start:start + count]
            start += count
        return frontier, skipped

    def _charge_dispatch(
        self, op: OperationContext, frontier: Dict[int, np.ndarray]
    ) -> None:
        charge_dispatch(
            op, {partition: len(keys) for partition, keys in frontier.items()}
        )

    # ------------------------------------------------------------------
    # Expansion phases
    # ------------------------------------------------------------------
    def _run_expansion_phase(
        self,
        op: OperationContext,
        frontier: Dict[int, np.ndarray],
        stepper: _DfaStepper,
        accumulate: bool,
        seen_keys: np.ndarray,
        phase_name: str,
    ) -> Tuple[Dict[int, np.ndarray], np.ndarray]:
        survivor_chunks: List[np.ndarray] = []
        total_cpc_items = 0
        total_ipc_items = 0
        with op.phase(phase_name):
            for partition in sorted(frontier):
                produced_keys = self._expand_partition(
                    op, partition, frontier[partition], stepper
                )
                cpc_items, ipc_items, seen_keys, survivors = self._route_produced(
                    partition, produced_keys, stepper, accumulate, seen_keys,
                )
                total_cpc_items += cpc_items
                total_ipc_items += ipc_items
                if survivors is not None:
                    survivor_chunks.append(survivors)
            # Same rank-level bulk transfers as the scalar engine: one
            # gather/scatter pair per channel moves every crossing item.
            if total_cpc_items:
                op.cpc_transfer(
                    total_cpc_items * BYTES_PER_FRONTIER_ITEM, num_transfers=1
                )
            if total_ipc_items:
                op.ipc_transfer(
                    total_ipc_items * BYTES_PER_FRONTIER_ITEM, num_transfers=1
                )
        return self._merge_next_frontier(survivor_chunks), seen_keys

    def _merge_next_frontier(
        self, survivor_chunks: List[np.ndarray]
    ) -> Dict[int, np.ndarray]:
        """Union per-producer survivors and split them by owner partition."""
        if not survivor_chunks:
            return {}
        if len(survivor_chunks) == 1:
            keys = _unique(survivor_chunks[0])
        else:
            keys = _unique(np.concatenate(survivor_chunks))
        owners = self._owners_of(self._unpack_nodes(keys))
        # ``keys`` is sorted, so a stable owner sort keeps each
        # partition's keys sorted node-major — the invariant expansion
        # relies on.
        order = np.argsort(owners, kind="stable")
        owners = owners[order]
        keys = keys[order]
        next_frontier: Dict[int, np.ndarray] = {}
        group_owners, group_counts = _sorted_unique_counts(owners)
        start = 0
        for owner, count in zip(group_owners.tolist(), group_counts.tolist()):
            next_frontier[owner] = keys[start:start + count]
            start += count
        return next_frontier

    def _expand_partition(
        self,
        op: OperationContext,
        partition: int,
        frontier_keys: np.ndarray,
        stepper: _DfaStepper,
    ) -> np.ndarray:
        """Expand one partition's frontier; return produced context keys
        (with duplicates — the router owns set semantics)."""
        runtime = self._runtime
        nodes, rows, states = self._unpack(frontier_keys)
        snapshot = self._snapshot_of(partition)

        # ``nodes`` is sorted node-major, so unique/counts align with a
        # contiguous grouping of the items.
        unique_nodes, counts = _sorted_unique_counts(nodes)
        row_idx = snapshot.lookup(unique_nodes)
        if snapshot.num_rows == 0:
            degrees = np.zeros(len(unique_nodes), dtype=np.int64)
        else:
            present = row_idx >= 0
            degrees = np.where(present, snapshot.degrees[np.maximum(row_idx, 0)], 0)

        rows_touched = len(unique_nodes)
        bytes_streamed = int(degrees.sum()) * snapshot.bytes_per_entry
        item_degrees = np.repeat(degrees, counts)
        items_processed = int(item_degrees.sum())

        if partition == HOST_PARTITION:
            op.host.random_accesses(rows_touched, snapshot.working_set_bytes)
            op.host.stream_bytes(bytes_streamed)
            op.host.process_items(items_processed)
        else:
            module = op.module(partition)
            module.launch_kernel()
            module.random_accesses(rows_touched)
            module.stream_bytes(bytes_streamed)
            module.process_items(items_processed)
            if runtime.config.enable_migration and self._view is None:
                self._report_misplacement(
                    snapshot, unique_nodes, row_idx, degrees,
                    runtime.processors[partition].misplacement_threshold,
                )

        if items_processed == 0:
            return _EMPTY
        return self._keys_produce(
            snapshot, rows, states, counts, row_idx, item_degrees,
            items_processed, stepper,
        )

    def _keys_produce(
        self,
        snapshot,
        rows: np.ndarray,
        states: np.ndarray,
        counts: np.ndarray,
        row_idx: np.ndarray,
        item_degrees: np.ndarray,
        items_processed: int,
        stepper: _DfaStepper,
    ) -> np.ndarray:
        """Compute one partition's produced context keys (with duplicates).

        The production kernel behind :meth:`_expand_partition`, separated
        from the (shared) work accounting so subclasses can swap the
        frontier math without touching what the simulation measures.
        This implementation is the push-style gather: enumerate every
        (item, out-edge) pair and step the automaton per pair.
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
        next_states = stepper.step(states[item_rep], labels)
        keep = next_states >= 0
        return self._pack(dsts[keep], produced_rows[keep], next_states[keep])

    def _report_misplacement(
        self,
        snapshot,
        unique_nodes: np.ndarray,
        row_idx: np.ndarray,
        degrees: np.ndarray,
        threshold: float,
    ) -> None:
        # ``threshold`` is the per-module OperatorProcessor's frozen value —
        # the same source the scalar engine honors — so a post-construction
        # config tweak cannot silently diverge the backends.
        active = degrees > 0
        if not active.any():
            return
        local = snapshot.local_counts[np.maximum(row_idx, 0)]
        remote = degrees - local
        reported = active & (remote > 0) & (remote / np.maximum(degrees, 1) > threshold)
        for node, local_count, remote_count in zip(
            unique_nodes[reported].tolist(),
            local[reported].tolist(),
            remote[reported].tolist(),
        ):
            self._runtime.migrator.report_misplaced(node, local_count, remote_count)

    def _route_produced(
        self,
        producer: int,
        produced_keys: np.ndarray,
        stepper: _DfaStepper,
        accumulate: bool,
        seen_keys: np.ndarray,
    ) -> Tuple[int, int, np.ndarray, Optional[np.ndarray]]:
        """Apply set semantics and ownership to one producer's output.

        Returns the CPC/IPC item counts of this producer, the updated
        seen-key set, and the surviving context keys (``None`` when
        nothing survives).
        """
        if produced_keys.size == 0:
            return 0, 0, seen_keys, None
        # Per-producer set semantics: the same context reaching the same
        # destination via two local edges is one frontier item.
        keys = _unique(produced_keys)

        # Dangling destinations (never registered with the partitioner)
        # are dropped before any accounting, as in the scalar path.
        owners = self._owners_of(self._unpack_nodes(keys))
        known = owners != _UNKNOWN_OWNER
        if not known.all():
            keys, owners = keys[known], owners[known]
            if keys.size == 0:
                return 0, 0, seen_keys, None

        if accumulate:
            if seen_keys.size:
                positions = np.minimum(
                    np.searchsorted(seen_keys, keys), seen_keys.size - 1
                )
                fresh = seen_keys[positions] != keys
                keys, owners = keys[fresh], owners[fresh]
            if keys.size == 0:
                return 0, 0, seen_keys, None
            seen_keys = _unique(np.concatenate([seen_keys, keys]))
            nodes, rows, states = self._unpack(keys)
            accepted = stepper.accepting[states]
            if accepted.any():
                self._accumulated.append((rows[accepted], nodes[accepted]))

        crossing = owners != producer
        if producer == HOST_PARTITION:
            cpc_items = int(crossing.sum())
            ipc_items = 0
        else:
            to_host = crossing & (owners == HOST_PARTITION)
            cpc_items = int(to_host.sum())
            ipc_items = int((crossing & ~to_host).sum())
        return cpc_items, ipc_items, seen_keys, keys

    # ------------------------------------------------------------------
    # Reduction (mwait)
    # ------------------------------------------------------------------
    def _run_reduce_phase(
        self,
        op: OperationContext,
        frontier: Dict[int, np.ndarray],
        accumulate: bool,
        stepper: _DfaStepper,
    ) -> None:
        with op.phase("mwait"):
            charge_reduce(
                op, {partition: len(keys) for partition, keys in frontier.items()}
            )
            if accumulate:
                # Results were accumulated on the fly; the reduce phase
                # only merges per-module partial sets, charged above.
                return
            if not frontier:
                return
            nodes, rows, states = self._unpack(
                np.concatenate(list(frontier.values()))
            )
            accepted = stepper.accepting[states]
            self._accumulated.append((rows[accepted], nodes[accepted]))
"""The scalar execution backend (exact reference semantics).

This engine is the original ``QueryProcessor._execute`` hot path moved
behind the :class:`~repro.engine.base.ExecutionEngine` protocol: dict
frontiers, per-node expansion through each module's
:class:`~repro.core.operator_processor.OperatorProcessor`, and per-item
routing.  It is deliberately straightforward — the vectorized backend is
validated against it item for item — with one normalisation: frontier
partitions are always visited in sorted order (host first, then modules
ascending), so the phase-level communication accounting is independent
of dict insertion history and both backends see the same producer order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.operators import BYTES_PER_FRONTIER_ITEM
from repro.engine.accounting import charge_dispatch, charge_reduce
from repro.engine.base import EngineRuntime, Frontier, PlanView
from repro.engine.physical import PhysicalPlan, invert_reverse_results, run_plan
from repro.partition.base import HOST_PARTITION
from repro.pim.stats import ExecutionStats
from repro.pim.system import OperationContext
from repro.rpq.automaton import DFA
from repro.rpq.query import BatchResult, Context, ContextSet


class PythonEngine:
    """Executes physical plans with pure-Python dict/set frontiers."""

    name = "python"

    def __init__(self, runtime: EngineRuntime) -> None:
        self._runtime = runtime
        #: Epoch-pinned state substitute for the current ``execute`` call
        #: (``None`` = live storages).  See :class:`PlanView`.
        self._view: Optional[PlanView] = None
        #: Expansion direction of the current ``execute`` call; reverse
        #: plans resolve rows and owners against the epoch's reversed
        #: adjacency index instead of the forward snapshots.
        self._direction: str = "forward"

    def _owner(self, node: int) -> Optional[int]:
        """Owner of ``node`` — frozen epoch table when pinned, else live."""
        if self._view is not None:
            if self._direction == "reverse":
                return self._view.reverse_owner(node)
            return self._view.owner(node)
        return self._runtime.owner(node)

    def _view_snapshot(self, partition: int):
        """The pinned snapshot to expand against (direction-aware)."""
        view = self._view
        assert view is not None
        if self._direction == "reverse":
            return view.reverse_snapshot_of(partition)
        return view.snapshot_of(partition)

    # ------------------------------------------------------------------
    # Plan execution
    # ------------------------------------------------------------------
    def execute(
        self,
        plan: PhysicalPlan,
        sources: List[int],
        view: Optional[PlanView] = None,
    ) -> Tuple[BatchResult, ExecutionStats]:
        runtime = self._runtime
        reverse = plan.direction == "reverse"
        if reverse and (view is None or plan.reverse is None):
            raise ValueError(
                "reverse plans require a pinned view and reverse seeds"
            )
        #: Reverse plans expand the reversed-expression DFA from the
        #: candidate end nodes; the forward answer is recovered by
        #: inverting the matches after the plan drains.
        run_sources = list(plan.reverse.seeds) if reverse else sources
        self._view = view
        self._direction = plan.direction
        op = (view.pim if view is not None else runtime.pim).begin_operation()
        dfa = plan.dfa
        accumulate = plan.accumulate_results
        results: List[Set[int]] = [set() for _ in run_sources]
        state: Dict[str, Frontier] = {"frontier": {}}
        seen: Set[Tuple[int, Context]] = set()

        def dispatch() -> None:
            frontier, skipped = self._build_initial_frontier(
                run_sources, dfa, results, accumulate
            )
            state["frontier"] = frontier
            with op.phase("dispatch"):
                self._charge_dispatch(op, frontier)
            op.add_counter("batch_size", len(run_sources))
            op.add_counter("unknown_sources", skipped)
            if accumulate:
                for partition_frontier in frontier.values():
                    for node, contexts in partition_frontier.items():
                        for context in contexts:
                            seen.add((node, context))

        def expand_route(phase_name: str) -> bool:
            state["frontier"] = self._run_expansion_phase(
                op, state["frontier"], dfa, results, accumulate, seen,
                phase_name=phase_name,
            )
            return bool(state["frontier"])

        def clear_frontier() -> None:
            state["frontier"] = {}

        def reduce() -> None:
            self._run_reduce_phase(op, state["frontier"], results, accumulate, dfa)

        try:
            run_plan(
                plan,
                dispatch=dispatch,
                expand_route=expand_route,
                clear_frontier=clear_frontier,
                reduce=reduce,
            )
        finally:
            # Never let a pinned epoch outlive the call through engine
            # scratch state.
            self._view = None
            self._direction = "forward"

        result = BatchResult.from_sets(list(run_sources), results)
        if reverse:
            result = BatchResult(
                list(sources),
                *invert_reverse_results(
                    sources, plan.reverse.seeds, result.indptr, result.indices
                ),
            )
        stats = op.finish()
        stats.add_counter("results", result.total_matches)
        return result, stats

    # ------------------------------------------------------------------
    # Frontier construction and dispatch
    # ------------------------------------------------------------------
    def _build_initial_frontier(
        self,
        sources: List[int],
        dfa: Optional[DFA],
        results: List[Set[int]],
        accumulate: bool,
    ) -> Tuple[Frontier, int]:
        frontier: Frontier = {}
        skipped = 0
        for row, source in enumerate(sources):
            owner = self._owner(source)
            if owner is None:
                skipped += 1
                continue
            context: Context
            if dfa is None:
                context = row
            else:
                context = (row, dfa.start)
                if accumulate and dfa.is_accepting(dfa.start):
                    results[row].add(source)
            frontier.setdefault(owner, {}).setdefault(source, set()).add(context)
        return frontier, skipped

    def _charge_dispatch(self, op: OperationContext, frontier: Frontier) -> None:
        charge_dispatch(
            op,
            {
                partition: sum(
                    len(contexts) for contexts in partition_frontier.values()
                )
                for partition, partition_frontier in frontier.items()
            },
        )

    # ------------------------------------------------------------------
    # Expansion phases
    # ------------------------------------------------------------------
    def _run_expansion_phase(
        self,
        op: OperationContext,
        frontier: Frontier,
        dfa: Optional[DFA],
        results: List[Set[int]],
        accumulate: bool,
        seen: Set[Tuple[int, Context]],
        phase_name: str,
    ) -> Frontier:
        next_frontier: Frontier = {}
        total_cpc_items = 0
        total_ipc_items = 0
        with op.phase(phase_name):
            for partition in sorted(frontier):
                partition_frontier = frontier[partition]
                if partition == HOST_PARTITION:
                    produced = self._expand_on_host(op, partition_frontier, dfa)
                else:
                    produced = self._expand_on_module(op, partition, partition_frontier, dfa)
                cpc_items, ipc_items = self._route_produced(
                    op, partition, produced, next_frontier, results, dfa,
                    accumulate, seen,
                )
                total_cpc_items += cpc_items
                total_ipc_items += ipc_items
            # Frontier hand-offs are rank-level bulk transfers: one batched
            # gather/scatter pair moves every crossing item of the phase, so
            # only the byte volume — controlled by partition locality —
            # depends on how many items crossed.
            if total_cpc_items:
                op.cpc_transfer(
                    total_cpc_items * BYTES_PER_FRONTIER_ITEM, num_transfers=1
                )
            if total_ipc_items:
                op.ipc_transfer(
                    total_ipc_items * BYTES_PER_FRONTIER_ITEM, num_transfers=1
                )
        return next_frontier

    def _expand_on_module(
        self,
        op: OperationContext,
        module_id: int,
        partition_frontier: Dict[int, ContextSet],
        dfa: Optional[DFA],
    ) -> Dict[int, ContextSet]:
        runtime = self._runtime
        module = op.module(module_id)
        module.launch_kernel()
        view = self._view
        if view is not None:
            # Pinned execution: expand against the epoch's frozen CSR
            # snapshot (the reversed-adjacency capture for reverse
            # plans) with the same per-row accounting the live
            # OperatorProcessor charges; misplacement detection is off
            # (reports from a stale epoch would misdirect the migrator).
            snapshot = self._view_snapshot(module_id)
            produced, rows_touched, streamed, items = self._expand_rows(
                partition_frontier,
                dfa,
                snapshot.row_entries,
                lambda node, hops: len(hops) * snapshot.bytes_per_entry,
            )
            module.random_accesses(rows_touched)
            module.stream_bytes(streamed)
            module.process_items(items)
            return produced
        processor = runtime.processors[module_id]
        detect = runtime.config.enable_migration
        produced, work = processor.process_smxm(
            partition_frontier,
            dfa=dfa,
            label_names=runtime.label_names,
            detect_misplacement=detect,
        )
        module.random_accesses(work.rows_touched)
        module.stream_bytes(work.bytes_streamed)
        module.process_items(work.items_processed)
        for node, (local, remote) in work.misplacement_reports.items():
            runtime.migrator.report_misplaced(node, local, remote)
        return produced

    def _expand_rows(
        self,
        partition_frontier: Dict[int, ContextSet],
        dfa: Optional[DFA],
        fetch_row,
        row_bytes,
    ) -> Tuple[Dict[int, ContextSet], int, int, int]:
        """The shared per-row expansion loop (OperatorProcessor semantics).

        ``fetch_row(node)`` supplies a row's ``(dst, label)`` entries and
        ``row_bytes(node, entries)`` its streamed bytes — the only two
        things that differ between the live host storage and a pinned
        CSR snapshot.  Keeping one loop keeps the pinned-vs-live and
        cross-engine accounting parity in one place.
        """
        runtime = self._runtime
        produced: Dict[int, ContextSet] = {}
        rows_touched = 0
        streamed = 0
        items = 0
        for node, contexts in partition_frontier.items():
            next_hops = fetch_row(node)
            rows_touched += 1
            streamed += row_bytes(node, next_hops)
            for destination, label in next_hops:
                if dfa is None:
                    items += len(contexts)
                    produced.setdefault(destination, set()).update(contexts)
                else:
                    label_string = runtime.label_names.get(label, str(label))
                    for context in contexts:
                        items += 1
                        row, state = context
                        next_state = dfa.step(state, label_string)
                        if next_state is None:
                            continue
                        produced.setdefault(destination, set()).add((row, next_state))
        return produced, rows_touched, streamed, items

    def _expand_on_host(
        self,
        op: OperationContext,
        partition_frontier: Dict[int, ContextSet],
        dfa: Optional[DFA],
    ) -> Dict[int, ContextSet]:
        runtime = self._runtime
        view = self._view
        if view is not None:
            snapshot = self._view_snapshot(HOST_PARTITION)
            working_set = snapshot.working_set_bytes
            fetch_row = snapshot.row_entries
            row_bytes = lambda node, hops: len(hops) * snapshot.bytes_per_entry  # noqa: E731
        else:
            storage = runtime.host_storage
            working_set = max(storage.total_bytes(), 1)
            fetch_row = storage.next_hops_with_labels
            row_bytes = lambda node, hops: storage.row_bytes(node)  # noqa: E731
        produced, rows_touched, streamed, items = self._expand_rows(
            partition_frontier, dfa, fetch_row, row_bytes
        )
        op.host.random_accesses(rows_touched, working_set)
        op.host.stream_bytes(streamed)
        op.host.process_items(items)
        return produced

    def _route_produced(
        self,
        op: OperationContext,
        producer: int,
        produced: Dict[int, ContextSet],
        next_frontier: Frontier,
        results: List[Set[int]],
        dfa: Optional[DFA],
        accumulate: bool,
        seen: Set[Tuple[int, Context]],
    ) -> Tuple[int, int]:
        cpc_items = 0
        ipc_items: Dict[int, int] = {}
        for destination, contexts in produced.items():
            owner = self._owner(destination)
            if owner is None:
                # Dangling edge: the destination node has never been
                # registered (can happen transiently during updates).
                continue
            for context in contexts:
                if accumulate:
                    key = (destination, context)
                    if key in seen:
                        continue
                    seen.add(key)
                    assert dfa is not None
                    row, state = context
                    if dfa.is_accepting(state):
                        results[row].add(destination)
                next_frontier.setdefault(owner, {}).setdefault(destination, set()).add(context)
                # Communication for handing the item to its owner.
                if owner == producer:
                    continue
                if producer == HOST_PARTITION or owner == HOST_PARTITION:
                    cpc_items += 1
                else:
                    ipc_items[owner] = ipc_items.get(owner, 0) + 1
        return cpc_items, sum(ipc_items.values())

    # ------------------------------------------------------------------
    # Reduction (mwait)
    # ------------------------------------------------------------------
    def _run_reduce_phase(
        self,
        op: OperationContext,
        frontier: Frontier,
        results: List[Set[int]],
        accumulate: bool,
        dfa: Optional[DFA] = None,
    ) -> None:
        with op.phase("mwait"):
            charge_reduce(
                op,
                {
                    partition: sum(
                        len(contexts)
                        for contexts in partition_frontier.values()
                    )
                    for partition, partition_frontier in frontier.items()
                },
            )
            if accumulate:
                # Results were accumulated on the fly; the reduce phase only
                # merges per-module partial sets, already charged above.
                return
            for partition_frontier in frontier.values():
                for node, contexts in partition_frontier.items():
                    for context in contexts:
                        if isinstance(context, int):
                            results[context].add(node)
                            continue
                        row, state = context
                        if dfa is None or dfa.is_accepting(state):
                            results[row].add(node)

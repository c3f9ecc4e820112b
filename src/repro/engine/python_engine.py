"""The scalar execution backend (exact reference semantics).

:class:`ScalarKernel` is the original ``QueryProcessor._execute`` hot
path behind the :class:`~repro.engine.driver.Kernel` protocol: dict
frontiers, per-node expansion through the one scalar loop
(:func:`repro.core.operator_processor.smxm`) over whatever rows the view
hands out — live storages or pinned snapshots alike — and per-item
routing.  It is deliberately straightforward: the array kernels are
validated against it item for item, and the driver charges all of them
from the same reported counts.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np

from repro.core.operator_processor import smxm
from repro.engine.base import PlanView
from repro.engine.driver import ExpandWork, execute_plan
from repro.partition.base import HOST_PARTITION
from repro.pim.stats import ExecutionStats
from repro.rpq.planner import Plan
from repro.rpq.query import BatchResult, Context, ContextSet

#: A scalar frontier: owner partition -> node -> set of query contexts.
Frontier = Dict[int, Dict[int, ContextSet]]


class ScalarKernel:
    """Pure-Python dict/set frontiers: ``partition -> node -> contexts``."""

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
        self._label_names = label_names
        self._results: List[Set[int]] = [set() for _ in sources]
        #: Every ``(node, context)`` ever routed (accumulate mode).
        self._seen: Set[Tuple[int, Context]] = set()
        #: The frontier being routed into during the current phase.
        self._next: Frontier = {}

    def initial_frontier(self) -> Tuple[Frontier, int]:
        dfa = self._dfa
        owner_of = self._view.owner
        frontier: Frontier = {}
        skipped = 0
        for row, source in enumerate(self._sources):
            owner = owner_of(source)
            if owner is None:
                skipped += 1
                continue
            context: Context
            if dfa is None:
                context = row
            else:
                context = (row, dfa.start)
                if self._accumulate:
                    self._seen.add((source, context))
                    if dfa.is_accepting(dfa.start):
                        self._results[row].add(source)
            frontier.setdefault(owner, {}).setdefault(source, set()).add(context)
        return frontier, skipped

    def items(self, block: Dict[int, ContextSet]) -> int:
        return sum(len(contexts) for contexts in block.values())

    def expand(
        self, partition: int, block: Dict[int, ContextSet]
    ) -> Tuple[ExpandWork, Dict[int, ContextSet]]:
        view = self._view
        rows = view.rows_of(partition)
        produced, work = smxm(
            block,
            rows,
            self._dfa,
            self._label_names,
            view.misplacement_threshold(partition),
        )
        # The driver boundary is columnar: (nodes, local, remote) arrays.
        misplaced = None
        reports = work.misplacement_reports
        if reports:
            counts = np.array(list(reports.values()), dtype=np.int64)
            misplaced = (
                np.fromiter(reports, dtype=np.int64, count=len(reports)),
                counts[:, 0],
                counts[:, 1],
            )
        return (
            ExpandWork(
                work.rows_touched,
                work.bytes_streamed,
                work.items_processed,
                rows.working_set_bytes,
                misplaced,
            ),
            produced,
        )

    def route(
        self, producer: int, produced: Dict[int, ContextSet]
    ) -> Tuple[int, int]:
        dfa = self._dfa
        accumulate = self._accumulate
        seen = self._seen
        owner_of = self._view.owner
        next_frontier = self._next
        cpc_items = 0
        ipc_items = 0
        for destination, contexts in produced.items():
            owner = owner_of(destination)
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
                    row, state = context
                    if dfa.is_accepting(state):
                        self._results[row].add(destination)
                next_frontier.setdefault(owner, {}).setdefault(destination, set()).add(context)
                # Communication for handing the item to its owner.
                if owner == producer:
                    continue
                if producer == HOST_PARTITION or owner == HOST_PARTITION:
                    cpc_items += 1
                else:
                    ipc_items += 1
        return cpc_items, ipc_items

    def next_frontier(self) -> Frontier:
        frontier, self._next = self._next, {}
        return frontier

    def reduce(self, frontier: Frontier) -> None:
        if self._accumulate:
            # Results were accumulated on the fly; the reduce phase only
            # merges per-module partial sets, which the driver charged.
            return
        dfa = self._dfa
        results = self._results
        for block in frontier.values():
            for node, contexts in block.items():
                for context in contexts:
                    if isinstance(context, int):
                        results[context].add(node)
                        continue
                    row, state = context
                    if dfa is None or dfa.is_accepting(state):
                        results[row].add(node)

    def answer(self) -> Tuple[np.ndarray, np.ndarray]:
        result = BatchResult.from_sets(self._sources, self._results)
        return result.indptr, result.indices


class PythonEngine:
    """Executes plans with :class:`ScalarKernel`."""

    name = "python"

    def __init__(self, label_names: Dict[int, str]) -> None:
        self._label_names = label_names

    def execute(
        self, plan: Plan, sources: List[int], view: PlanView
    ) -> Tuple[BatchResult, ExecutionStats]:
        return execute_plan(plan, sources, view, self._kernel)

    def _kernel(
        self, plan: Plan, sources: List[int], view: PlanView
    ) -> ScalarKernel:
        return ScalarKernel(plan, sources, view, self._label_names)

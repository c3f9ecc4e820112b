"""The scalar execution backend (exact reference semantics).

:class:`ScalarKernel` is the original ``QueryProcessor._execute`` hot
path behind the :class:`~repro.engine.driver.Kernel` protocol: dict
frontiers, per-node expansion through the one scalar ``smxm`` loop
(:func:`smxm`) over the snapshot the view hands out — the frozen arrays
the array kernels read — and per-item routing.  It is deliberately
straightforward: the array kernels are validated against it item for
item, and the driver charges all of them from the same reported counts.

While expanding a frontier, :func:`smxm` also performs the paper's
misplacement detection: a node whose next hops mostly live outside the
local module is reported as incorrectly partitioned, overlapping the
detection with query processing exactly as Section 3.2.2 describes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.snapshot import GraphSnapshot
from repro.engine.base import PlanView
from repro.engine.driver import ExpandWork
from repro.partition.base import HOST_PARTITION
from repro.rpq.automaton import DFA
from repro.rpq.planner import Plan
from repro.rpq.query import BatchResult, Context, ContextSet

#: A scalar frontier: owner partition -> node -> set of query contexts.
Frontier = Dict[int, Dict[int, ContextSet]]


def smxm(
    frontier: Dict[int, ContextSet],
    snapshot: GraphSnapshot,
    dfa: Optional[DFA] = None,
    label_names: Optional[Dict[int, str]] = None,
    misplacement_threshold: Optional[float] = None,
) -> Tuple[Dict[int, ContextSet], ExpandWork]:
    """Expand ``frontier`` against ``snapshot`` — the one scalar ``smxm`` loop.

    Parameters
    ----------
    frontier:
        ``node -> set of contexts``; a context is a query row (k-hop
        plans) or a ``(row, automaton_state)`` pair (general RPQs).
    snapshot:
        The partition's frozen adjacency rows.
    dfa:
        When given, contexts are ``(row, state)`` pairs and each edge
        label steps the automaton; contexts that the automaton
        rejects are dropped.
    label_names:
        Integer-label to query-label-string mapping for DFA stepping.
    misplacement_threshold:
        Remote-hop fraction above which a node is reported as
        misplaced; ``None`` turns detection off.

    Returns
    -------
    (produced, work):
        ``produced`` maps destination node to the set of contexts now
        sitting on it; ``work`` holds the counters the driver charges,
        the misplaced nodes as ``(nodes, local, remote)`` columns in
        frontier order.
    """
    produced: Dict[int, ContextSet] = {}
    reports: List[Tuple[int, int, int]] = []
    names = label_names or {}
    edges = 0
    items = 0
    for node, contexts in frontier.items():
        if dfa is None:
            # k-hop plans never read a label: the dst column is enough.
            next_hops = snapshot.row_dsts(node)
            degree = len(next_hops)
            for destination in next_hops:
                produced.setdefault(destination, set()).update(contexts)
            items += degree * len(contexts)
        else:
            entries = snapshot.row_entries(node)
            degree = len(entries)
            for destination, label in entries:
                label_string = names.get(label)
                if label_string is None:
                    label_string = str(label)
                for context in contexts:
                    items += 1
                    row, state = context
                    next_state = dfa.step(state, label_string)
                    if next_state is None:
                        continue
                    produced.setdefault(destination, set()).add((row, next_state))
        edges += degree
        if misplacement_threshold is not None and degree:
            local = snapshot.local_hops(node)
            remote = degree - local
            if remote > 0 and remote / degree > misplacement_threshold:
                reports.append((node, local, remote))
    # The driver boundary is columnar: (nodes, local, remote) arrays.
    misplaced = None
    if reports:
        nodes, local, remote = np.array(reports, dtype=np.int64).T
        misplaced = (nodes, local, remote)
    return produced, ExpandWork(
        len(frontier),
        edges * snapshot.bytes_per_entry,
        items,
        snapshot.working_set_bytes,
        misplaced,
    )


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
        produced, work = smxm(
            block,
            view.snapshot_of(partition),
            self._dfa,
            self._label_names,
            view.misplacement_threshold(partition),
        )
        return work, produced

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


"""The Operator Processor running on every PIM module.

Each PIM module parses operators received from the host and executes
them against its local graph storage.  In the simulator the processor
performs the real data manipulation (so results are exact) and reports
*work counters* that the query/update processors convert into simulated
time on the owning :class:`~repro.pim.module.PIMModule`.

While expanding a frontier, the processor also performs the paper's
misplacement detection: a node whose next hops mostly live outside the
local module is reported as incorrectly partitioned, overlapping the
detection with query processing exactly as Section 3.2.2 describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.local_storage import BYTES_PER_ENTRY, LocalGraphStorage
from repro.graph.stream import UpdateKind
from repro.rpq.automaton import DFA
from repro.rpq.query import ContextSet


@dataclass
class SmxmWork:
    """Work performed by one module during one ``smxm`` operator."""

    #: Hash-map row lookups (random local-memory accesses).
    rows_touched: int = 0
    #: Bytes of row data streamed from local memory.
    bytes_streamed: int = 0
    #: Items processed by the wimpy core (one per produced frontier entry).
    items_processed: int = 0
    #: Nodes whose next hops are mostly non-local: ``node -> (local, remote)``.
    misplacement_reports: Dict[int, Tuple[int, int]] = field(default_factory=dict)


@dataclass
class UpdateWork:
    """Work performed by one module during an ``add``/``sub`` operator."""

    map_lookups: int = 0
    bytes_streamed: int = 0
    items_processed: int = 0
    applied: int = 0


class OperatorProcessor:
    """Executes operators against one module's local graph storage."""

    def __init__(
        self,
        module_id: int,
        storage: LocalGraphStorage,
        misplacement_threshold: float = 0.5,
    ) -> None:
        self.module_id = module_id
        self.storage = storage
        self.misplacement_threshold = misplacement_threshold

    # ------------------------------------------------------------------
    # smxm
    # ------------------------------------------------------------------
    def process_smxm(
        self,
        frontier: Dict[int, ContextSet],
        dfa: Optional[DFA] = None,
        label_names: Optional[Dict[int, str]] = None,
        detect_misplacement: bool = True,
    ) -> Tuple[Dict[int, ContextSet], SmxmWork]:
        """Expand ``frontier`` against the local adjacency segment.

        Parameters
        ----------
        frontier:
            ``node -> set of contexts``; a context is a query row (k-hop
            plans) or a ``(row, automaton_state)`` pair (general RPQs).
        dfa:
            When given, contexts are ``(row, state)`` pairs and each edge
            label steps the automaton; contexts that the automaton
            rejects are dropped.
        label_names:
            Integer-label to query-label-string mapping for DFA stepping.
        detect_misplacement:
            Whether to report nodes whose next hops are mostly remote.

        Returns
        -------
        (produced, work):
            ``produced`` maps destination node to the set of contexts now
            sitting on it; ``work`` holds the counters to charge.
        """
        produced: Dict[int, ContextSet] = {}
        work = SmxmWork()
        storage = self.storage
        for node, contexts in frontier.items():
            work.rows_touched += 1
            if dfa is None:
                # k-hop plans never read a label: the dst column is enough.
                next_hops = storage.next_hops(node)
                degree = len(next_hops)
                for destination in next_hops:
                    produced.setdefault(destination, set()).update(contexts)
                work.items_processed += degree * len(contexts)
            else:
                entries = storage.next_hops_with_labels(node)
                degree = len(entries)
                for destination, label in entries:
                    label_string = (
                        label_names[label]
                        if label_names and label in label_names
                        else str(label)
                    )
                    for context in contexts:
                        work.items_processed += 1
                        row, state = context
                        next_state = dfa.step(state, label_string)
                        if next_state is None:
                            continue
                        produced.setdefault(destination, set()).add((row, next_state))
            work.bytes_streamed += degree * BYTES_PER_ENTRY
            if detect_misplacement and degree:
                local = storage.local_hops(node)
                remote = degree - local
                if remote > 0 and remote / degree > self.misplacement_threshold:
                    work.misplacement_reports[node] = (local, remote)
        return produced, work

    # ------------------------------------------------------------------
    # add / sub
    # ------------------------------------------------------------------
    def process_add(self, edges: List[Tuple[int, int, int]]) -> UpdateWork:
        """Apply a batch of edge insertions to the local segment."""
        return self.process_update_ops(
            [(UpdateKind.INSERT, src, dst, label) for src, dst, label in edges]
        )

    def process_sub(self, edges: List[Tuple[int, int]]) -> UpdateWork:
        """Apply a batch of edge deletions to the local segment."""
        return self.process_update_ops(
            [(UpdateKind.DELETE, src, dst, 0) for src, dst in edges]
        )

    def process_update_ops(
        self, entries: List[Tuple[UpdateKind, int, int, int]]
    ) -> UpdateWork:
        """Apply a mixed ``(kind, src, dst, label)`` sequence in order.

        Applying insertions and deletions interleaved (rather than one
        whole operator after the other) keeps a delete→insert of the
        same edge within one batch at its sequential result.
        """
        work = UpdateWork()
        for kind, src, dst, label in entries:
            row_length = self.storage.row_length(src)
            work.map_lookups += 1
            work.bytes_streamed += row_length * BYTES_PER_ENTRY
            work.items_processed += 1
            if kind is UpdateKind.INSERT:
                if self.storage.add_edge(src, dst, label):
                    work.applied += 1
            elif self.storage.remove_edge(src, dst):
                work.applied += 1
        return work

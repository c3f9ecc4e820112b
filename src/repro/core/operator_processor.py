"""The operators every PIM module runs against its local graph storage.

Each PIM module parses operators received from the host and executes
them against its local graph storage.  In the simulator an operator
performs the real data manipulation (so results are exact) and reports
*work counters* that the query/update processors charge to the owning
module's :class:`~repro.pim.ledger.ModuleCounters`, which the cost model
converts into simulated time.

While expanding a frontier, :func:`smxm` also performs the paper's
misplacement detection: a node whose next hops mostly live outside the
local module is reported as incorrectly partitioned, overlapping the
detection with query processing exactly as Section 3.2.2 describes.

:func:`smxm` is the one scalar expansion loop, over a partition's
:class:`~repro.core.snapshot.GraphSnapshot` — the frozen arrays the
array kernels read too, live queries included; the scalar execution
kernel calls it on whatever snapshot its view hands out.
:func:`apply_update_ops` is the ``add``/``sub`` side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.local_storage import BYTES_PER_ENTRY, LocalGraphStorage
from repro.core.snapshot import GraphSnapshot
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


def smxm(
    frontier: Dict[int, ContextSet],
    snapshot: GraphSnapshot,
    dfa: Optional[DFA] = None,
    label_names: Optional[Dict[int, str]] = None,
    misplacement_threshold: Optional[float] = None,
) -> Tuple[Dict[int, ContextSet], SmxmWork]:
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
        sitting on it; ``work`` holds the counters to charge.
    """
    produced: Dict[int, ContextSet] = {}
    reports: Dict[int, Tuple[int, int]] = {}
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
                reports[node] = (local, remote)
    return produced, SmxmWork(
        rows_touched=len(frontier),
        bytes_streamed=edges * snapshot.bytes_per_entry,
        items_processed=items,
        misplacement_reports=reports,
    )


def apply_update_ops(
    storage: LocalGraphStorage, entries: List[Tuple[UpdateKind, int, int, int]]
) -> UpdateWork:
    """Apply one module's ``(kind, src, dst, label)`` sequence in order.

    The module-side half of the ``add``/``sub`` operators.  Applying
    insertions and deletions interleaved (rather than one whole operator
    after the other) keeps a delete→insert of the same edge within one
    batch at its sequential result.
    """
    work = UpdateWork()
    for kind, src, dst, label in entries:
        row_length = storage.row_length(src)
        work.map_lookups += 1
        work.bytes_streamed += row_length * BYTES_PER_ENTRY
        work.items_processed += 1
        if kind is UpdateKind.INSERT:
            if storage.add_edge(src, dst, label):
                work.applied += 1
        elif storage.remove_edge(src, dst):
            work.applied += 1
    return work

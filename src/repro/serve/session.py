"""Sessions: snapshot-isolated client handles onto a Moctopus system.

A :class:`Session` pins one epoch at ``begin()`` and keeps every query
on that frozen state until the caller explicitly :meth:`refresh`\\ es —
the MVCC contract "a pinned reader never observes later writes".  On
top of isolation the session layers **read-your-writes**: updates
staged through the session are spliced into the pinned snapshots (with
the same :func:`~repro.core.snapshot.merge_snapshot` machinery the
storages use for their own incremental maintenance) so the session's
queries see its uncommitted edges immediately, while other readers and
the live system see nothing until :meth:`commit` hands the staged batch
to the single writer.

Sessions on different threads execute concurrently without sharing any
mutable state: the pinned arrays are frozen (``writeable=False``), the
engine — the system's, captured at ``begin()`` — keeps nothing between
calls, a phase's charges live in the operation that opened it, and
everything else is session-local — including the accounting
:class:`~repro.pim.system.PIMSystem` the session's reads fold their
totals into, which keeps unlogged pinned reads out of the live system's
checkpointed totals and needs no lock because nothing else charges it.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.checks import require_int64s, require_labels
from repro.core.snapshot import GraphSnapshot, merge_snapshot, row_buffer
from repro.graph.digraph import DEFAULT_LABEL
from repro.graph.stream import UpdateKind, UpdateOp
from repro.partition.base import HOST_PARTITION
from repro.pim.stats import ExecutionStats
from repro.pim.system import PIMSystem
from repro.rpq.query import BatchResult, KHopQuery
from repro.serve.epoch import Epoch, EpochView

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.system import Moctopus


class Session:
    """A snapshot-isolated reader (plus staged-writer) handle.

    Use as a context manager so the pinned epoch is always released:

    .. code-block:: python

        with system.begin() as session:
            result, stats = session.batch_khop([0, 1], hops=2)
            session.insert_edges([(0, 99)])      # visible to this session
            result2, _ = session.batch_khop([0], hops=1)   # sees 0 -> 99
            session.commit()                     # hand to the writer
    """

    def __init__(self, system: "Moctopus") -> None:
        self._system = system
        #: The kernel current at ``begin()``; a later ``use_engine`` keeps it.
        #: Read before pinning: on a closed system it raises with no pin taken.
        self._engine = system._query_processor.engine
        #: ``None`` once closed; ``close()`` keeps its id in ``_epoch_id``.
        self._epoch: Optional[Epoch] = system._epochs.pin()
        self._closed = False
        #: Totals sink of this session's pinned executions (no other
        #: reader, so no lock).
        self._pim = PIMSystem(system.config.cost_model)
        #: Patched row contents of every source the session wrote:
        #: ``node -> [(dst, label), ...]`` (full row, storage semantics).
        self._local: Dict[int, List[Tuple[int, int]]] = {}
        #: Session-created nodes and their provisional partitions.
        self._new_nodes: Dict[int, int] = {}
        #: Staged updates in submission order, replayed verbatim on commit.
        self._ops: List[Tuple[UpdateKind, int, int, int]] = []
        self._view_cache: Optional[EpochView] = None
        #: Queries answered by this session (per-epoch stats feed).
        self.queries_executed = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def epoch_id(self) -> int:
        """Id of the currently pinned epoch (the last one, once closed)."""
        return self._epoch_id if self._epoch is None else self._epoch.epoch_id

    @property
    def pending_updates(self) -> int:
        """Number of staged (uncommitted) updates."""
        return len(self._ops)

    def refresh(self) -> int:
        """Re-pin the latest published epoch and return its id.

        Staged (uncommitted) updates survive a refresh: they are
        re-spliced onto the new epoch, so read-your-writes holds across
        the move.

        The swap is exception-safe: the old epoch's pin is only released
        after the move onto the new epoch (including the overlay rebase)
        has fully succeeded.  If anything raises in between, the freshly
        taken pin is dropped and the session rolls back to its previous
        epoch, staged ops and overlay — pin counts stay balanced either
        way, so a failed refresh can never block retention eviction.
        """
        self._assert_open()
        manager = self._system._epochs
        latest = manager.pin()
        previous = self._epoch
        # ``_rebase_local`` clears the staged state in place, so roll-back
        # needs real copies, not aliases.
        staged = list(self._ops)
        local_backup = {node: list(row) for node, row in self._local.items()}
        new_nodes_backup = dict(self._new_nodes)
        try:
            self._epoch = latest
            self._view_cache = None
            self._rebase_local()
        except BaseException:
            self._epoch = previous
            self._ops = staged
            self._local = local_backup
            self._new_nodes = new_nodes_backup
            self._view_cache = None
            manager.unpin(latest)
            raise
        manager.unpin(previous)
        return self._epoch.epoch_id

    def close(self) -> None:
        """Release the pinned epoch; idempotent (extra calls are no-ops).

        The session is marked closed *before* unpinning so a failure
        inside the manager can never lead to a double-unpin on retry;
        queries and writes after ``close()`` raise.  The epoch, the view
        over it and the staged rows are dropped with the pin, so a closed
        handle keeps no retired epoch's arrays alive.
        """
        if not self._closed:
            self._closed = True
            epoch, self._epoch = self._epoch, None
            self._epoch_id = epoch.epoch_id
            self._view_cache = None
            self._local.clear()
            self._new_nodes.clear()
            self._ops.clear()
            self._system._epochs.unpin(epoch)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _assert_open(self) -> None:
        if self._closed:
            raise RuntimeError("session is closed")

    # ------------------------------------------------------------------
    # Queries (epoch-pinned execution)
    # ------------------------------------------------------------------
    def batch_khop(
        self, sources, hops: int
    ) -> Tuple[BatchResult, ExecutionStats]:
        """Batch k-hop query against the pinned epoch (+ staged writes)."""
        return self.execute(KHopQuery(hops=hops, sources=list(sources)))

    def execute(self, query) -> Tuple[BatchResult, ExecutionStats]:
        """Run a :class:`KHopQuery`/:class:`RPQuery` on the pinned state."""
        self._assert_open()
        view = self._view()
        result, stats = self._system._query_processor.execute_on_view(
            query, view, self._engine
        )
        stats.add_counter("epoch", view.epoch_id)
        self.queries_executed += 1
        self._system._epochs.note_served(view.epoch_id, 1)
        return result, stats

    # ------------------------------------------------------------------
    # Staged writes (read-your-writes overlay)
    # ------------------------------------------------------------------
    def insert_edges(
        self, edges, labels: Optional[List[int]] = None
    ) -> None:
        """Stage edge insertions, visible to this session immediately.

        A mismatched ``labels`` list, a label or a node id the live
        system would refuse (:meth:`Moctopus.apply_updates`) is rejected
        before anything is staged.
        """
        self._assert_open()
        edges = list(edges)
        require_labels(labels, len(edges))
        require_int64s("node id", chain.from_iterable(edges), non_negative=True)
        for index, (src, dst) in enumerate(edges):
            label = labels[index] if labels else DEFAULT_LABEL
            self._stage_insert(src, dst, label)

    def delete_edges(self, edges) -> None:
        """Stage edge deletions, visible to this session immediately."""
        self._assert_open()
        edges = list(edges)
        require_int64s("node id", chain.from_iterable(edges), non_negative=True)
        for src, dst in edges:
            self._stage_delete(src, dst)

    def apply_updates(self, ops: List[UpdateOp]) -> None:
        """Stage a mixed :class:`UpdateOp` stream in order."""
        self._assert_open()
        require_int64s(
            "node id", chain.from_iterable(op.edge for op in ops), non_negative=True
        )
        for op in ops:
            if op.kind is UpdateKind.INSERT:
                self._stage_insert(op.src, op.dst, DEFAULT_LABEL)
            else:
                self._stage_delete(op.src, op.dst)

    def commit(self) -> Optional[ExecutionStats]:
        """Hand the staged updates to the writer and re-pin.

        The batch is applied to the live system in submission order (the
        writer publishes a fresh epoch), the overlay is cleared, and the
        session moves onto the new epoch — its own writes are now part
        of the pinned state.  Returns the writer's simulated cost, or
        ``None`` when nothing was staged.
        """
        self._assert_open()
        stats: Optional[ExecutionStats] = None
        if self._ops:
            ops = [
                UpdateOp(kind, src, dst) for kind, src, dst, _ in self._ops
            ]
            op_labels = [label for _, _, _, label in self._ops]
            stats = self._system.apply_updates(ops, labels=op_labels)
            self._ops.clear()
            self._local.clear()
            self._new_nodes.clear()
        # Commit always lands the session on the latest epoch, staged
        # writes or not — "after commit I see the current state".
        self.refresh()
        return stats

    # ------------------------------------------------------------------
    # Overlay plumbing
    # ------------------------------------------------------------------
    def _stage_insert(self, src: int, dst: int, label: int) -> None:
        self._ops.append((UpdateKind.INSERT, src, dst, label))
        row = self._row_for_write(src)
        for position, (existing_dst, _) in enumerate(row):
            if existing_dst == dst:
                row[position] = (dst, label)
                break
        else:
            row.append((dst, label))
        self._register_node(dst)
        self._view_cache = None

    def _stage_delete(self, src: int, dst: int) -> None:
        self._ops.append((UpdateKind.DELETE, src, dst, DEFAULT_LABEL))
        if self._epoch.owner(src) is None and src not in self._local:
            # Deleting from a node the epoch has never seen is a no-op
            # (the live update path treats it as a host no-op too).
            return
        row = self._row_for_write(src)
        for position, (existing_dst, _) in enumerate(row):
            if existing_dst == dst:
                del row[position]
                break
        self._view_cache = None

    def _row_for_write(self, node: int) -> List[Tuple[int, int]]:
        """The session's patched row of ``node``, seeded from the epoch."""
        row = self._local.get(node)
        if row is None:
            owner = self._epoch.owner(node)
            if owner is None:
                self._register_node(node)
                row = []
            else:
                row = self._epoch.snapshot_of(owner).row_entries(node)
            self._local[node] = row
        return row

    def _register_node(self, node: int) -> None:
        """Give a session-created node a provisional partition and row."""
        if self._epoch.owner(node) is not None or node in self._new_nodes:
            return
        # Provisional placement for routing only: the real partitioner
        # decides at commit time.  Reachability results are placement-
        # agnostic, so any deterministic choice works.
        self._new_nodes[node] = node % max(1, self._epoch.num_modules)
        self._local.setdefault(node, [])

    def _rebase_local(self) -> None:
        """Re-splice the staged ops onto a freshly pinned epoch."""
        if not self._ops:
            return
        staged = list(self._ops)
        self._ops.clear()
        self._local.clear()
        self._new_nodes.clear()
        for kind, src, dst, label in staged:
            if kind is UpdateKind.INSERT:
                self._stage_insert(src, dst, label)
            else:
                self._stage_delete(src, dst)

    def _view(self) -> EpochView:
        """The engine-facing view: pinned epoch + spliced staged writes."""
        if self._view_cache is not None:
            return self._view_cache
        if not self._local:
            self._view_cache = EpochView(self._epoch, self._pim)
            return self._view_cache
        by_owner: Dict[int, List[int]] = {}
        for node in self._local:
            owner = self._epoch.owner(node)
            if owner is None:
                owner = self._new_nodes[node]
            by_owner.setdefault(owner, []).append(node)
        patched: Dict[int, GraphSnapshot] = {}
        for owner, nodes in by_owner.items():
            base = self._epoch.snapshot_of(owner)
            dirty = np.sort(np.fromiter(nodes, dtype=np.int64, count=len(nodes)))
            patched[owner] = merge_snapshot(
                base,
                dirty,
                lambda node: row_buffer(self._local[node]),
                bytes_per_entry=base.bytes_per_entry,
                working_set_bytes=base.working_set_bytes,
                count_local=(owner != HOST_PARTITION),
            ).freeze()
        self._view_cache = EpochView(
            self._epoch, self._pim, patched=patched,
            extra_owners=dict(self._new_nodes),
        )
        return self._view_cache

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else f"epoch={self._epoch.epoch_id}"
        return f"Session({state}, staged={len(self._ops)})"

"""Sessions: snapshot-isolated client handles onto a Moctopus system.

A :class:`Session` pins one epoch at ``begin()`` and keeps every query
on that frozen state until the caller explicitly :meth:`refresh`\\ es —
the MVCC contract "a pinned reader never observes later writes".  On
top of isolation the session layers **read-your-writes**: an update
staged through the session is written, under the live update path's
rules, into a :class:`~repro.core.local_storage.LocalGraphStorage`
rebased on the pinned segment of its source's partition, and the rows
those storages wrote are merged into their segments (with
:func:`~repro.core.snapshot.merge_segment`, as a publish merges a
storage's written rows).  The session's queries see its uncommitted
edges immediately, while other readers and the live system see nothing
until :meth:`commit` hands the staged batch to the single writer.

Sessions on different threads execute concurrently without sharing any
mutable state: the pinned arrays are frozen (``writeable=False``), the
kernel is a name — the system's, captured at ``begin()`` — whose
frontier state is built afresh for every call, a phase's charges live
in the operation that opened it, and everything else is session-local — including the accounting
:class:`~repro.pim.system.PIMSystem` the session's reads fold their
totals into, which keeps unlogged pinned reads out of the live system's
checkpointed totals and needs no lock because nothing else charges it.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.checks import require_int64s, require_labels
from repro.core.local_storage import LocalGraphStorage
from repro.core.snapshot import merge_segment
from repro.graph.digraph import DEFAULT_LABEL
from repro.graph.stream import UpdateKind, UpdateOp
from repro.partition.base import HOST_PARTITION
from repro.pim.stats import ExecutionStats
from repro.pim.system import PIMSystem
from repro.rpq.query import BatchResult, KHopQuery
from repro.serve.epoch import Epoch, EpochView

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.system import Moctopus


class _Overlay:
    """A session's staged writes on one pinned epoch, as storage rows.

    Each partition a staged op touches gets one
    :class:`~repro.core.local_storage.LocalGraphStorage`, with no memory
    account, rebased on the epoch's segment; the op is that storage's
    ``add_edge`` / ``remove_edge``, so an insert writes its source's row
    and a delete of a missing edge writes nothing.  A node the epoch does
    not place gets a provisional owner, ``node % num_modules``, for
    routing only (reachability is placement-agnostic; the partitioner
    decides at commit), and no row: the overlay's owner vector is then
    the epoch's with that node placed.
    """

    def __init__(self, epoch: Epoch) -> None:
        self.epoch = epoch
        self._storages: Dict[int, LocalGraphStorage] = {}
        #: The epoch's owner vector, plus the nodes the overlay placed.
        self.owners = epoch.owners

    def _place(self, node: int) -> int:
        owner = self.owners.owner(node)
        if owner is None:
            owner = node % max(1, self.epoch.num_modules)
            self.owners = self.owners.placed(node, owner)
        return owner

    def _storage(self, partition: int) -> LocalGraphStorage:
        storage = self._storages.get(partition)
        if storage is None:
            storage = self._storages[partition] = LocalGraphStorage()
            storage.rebase(self.epoch.snapshot_of(partition))
        return storage

    def stage(self, kind: UpdateKind, src: int, dst: int, label: int) -> None:
        """Write one op into its source's partition."""
        if kind is UpdateKind.INSERT:
            self._storage(self._place(src)).add_edge(src, dst, label)
            self._place(dst)
            return
        owner = self.owners.owner(src)
        if owner is not None:
            self._storage(owner).remove_edge(src, dst)

    def view(self, pim: PIMSystem) -> EpochView:
        """The epoch with every written row merged into its segment."""
        epoch = self.epoch
        merged = {}
        for partition, storage in self._storages.items():
            if storage.written:
                base = epoch.snapshot_of(partition)
                merged[epoch.segment_of(partition)] = merge_segment(
                    base,
                    storage.written_rows(),
                    base.working_set_bytes,
                    partition != HOST_PARTITION,
                )
        return EpochView(
            epoch,
            pim,
            heap=epoch.heap.replace(merged) if merged else None,
            owners=self.owners,
        )


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
        #: Name of the kernel current at ``begin()``; a later
        #: ``use_engine`` does not change it.
        #: Read before pinning: on a closed system it raises with no pin taken.
        self._engine = system._query_processor.engine
        #: ``None`` once closed; ``close()`` keeps its id in ``_epoch_id``.
        self._epoch: Optional[Epoch] = system._epochs.pin()
        self._closed = False
        #: Totals sink of this session's pinned executions (no other
        #: reader, so no lock).
        self._pim = PIMSystem(system.config.cost_model)
        #: The staged ops written over the pinned epoch (``None`` once closed).
        self._overlay: Optional[_Overlay] = _Overlay(self._epoch)
        #: Staged updates in submission order, replayed verbatim on
        #: refresh and commit.
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

        Staged (uncommitted) updates survive a refresh: they are written
        again over the new epoch, so read-your-writes holds across the
        move.  They are written before anything is swapped: if that
        raises, the new epoch is unpinned and the session is unchanged,
        so pin counts stay balanced and a failed refresh can never block
        retention eviction.
        """
        self._assert_open()
        manager = self._system._epochs
        latest = manager.pin()
        try:
            overlay = _Overlay(latest)
            for op in self._ops:
                overlay.stage(*op)
        except BaseException:
            manager.unpin(latest)
            raise
        previous = self._epoch
        self._epoch, self._overlay, self._view_cache = latest, overlay, None
        manager.unpin(previous)
        return latest.epoch_id

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
            self._view_cache = self._overlay = None
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
            self._stage(UpdateKind.INSERT, src, dst, label)

    def delete_edges(self, edges) -> None:
        """Stage edge deletions, visible to this session immediately."""
        self._assert_open()
        edges = list(edges)
        require_int64s("node id", chain.from_iterable(edges), non_negative=True)
        for src, dst in edges:
            self._stage(UpdateKind.DELETE, src, dst, DEFAULT_LABEL)

    def apply_updates(self, ops: List[UpdateOp]) -> None:
        """Stage a mixed :class:`UpdateOp` stream in order."""
        self._assert_open()
        require_int64s(
            "node id", chain.from_iterable(op.edge for op in ops), non_negative=True
        )
        for op in ops:
            self._stage(op.kind, op.src, op.dst, DEFAULT_LABEL)

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
            self._overlay = _Overlay(self._epoch)
            self._view_cache = None
        # Commit always lands the session on the latest epoch, staged
        # writes or not — "after commit I see the current state".
        self.refresh()
        return stats

    def _stage(self, kind: UpdateKind, src: int, dst: int, label: int) -> None:
        self._overlay.stage(kind, src, dst, label)
        self._ops.append((kind, src, dst, label))
        self._view_cache = None

    def _view(self) -> EpochView:
        """The engine-facing view: pinned epoch + staged rows."""
        if self._view_cache is None:
            self._view_cache = self._overlay.view(self._pim)
        return self._view_cache

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else f"epoch={self._epoch.epoch_id}"
        return f"Session({state}, staged={len(self._ops)})"

"""Epochs: immutable point-in-time captures of the served graph.

The serving layer gives every reader a **snapshot-isolated** view of the
system: a reader pins an :class:`Epoch` — one frozen
:class:`~repro.core.snapshot.CSRHeap` holding every storage's rows plus
the frozen :class:`~repro.partition.base.OwnerVector` of the node
partition table — and all of its queries execute against those arrays
no matter how far the single writer advances in the meantime.  A
capture is one :func:`~repro.core.snapshot.splice` of the rows the
storages wrote since the last one into their segments of the previous
heap (every other segment is shared with it, and nothing at all is
built when no row was written) plus the partition map's
:meth:`~repro.partition.base.PartitionMap.freeze`, which shares the
previous epoch's vector when nothing was placed since and otherwise
hands out the live one, for the map to copy at its next write.

:class:`EpochManager` owns the publish lifecycle.  The single writer
marks the current epoch **stale** after every update batch / migration
pass; the next pin atomically captures and publishes a fresh epoch.
An epoch's lifetime is its pins: the manager retains the current epoch
and every pinned one, and retires an older epoch at its last unpin — a
session holding epoch N keeps its arrays alive and bit-identical however
many splices and row migrations later epochs absorb, and
nothing else does.

:class:`EpochView` is the lens an execution engine actually receives
(the :class:`~repro.engine.base.PlanView` contract), and the only one:
a heap it reads — the epoch's, or a session's, which is the epoch's
with the rows the session's staged writes changed merged in
(read-your-writes) — an owner vector — the epoch's, or a session's with
its new nodes placed — plus the accounting
:class:`~repro.pim.system.PIMSystem` whose totals its executions fold
into.  A pinned reader passes a private platform, because pinned reads
are not logged and must stay out of the live system's checkpointed
totals.  A live query runs on a ``live`` view of the *current* epoch
that folds into the system's own platform, is never cached, and hands
its misplacement reports to the node migrator when the placement
migrates (``Moctopus._live_view``).
"""

from __future__ import annotations

import threading
from types import TracebackType
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.hetero_storage import HeterogeneousGraphStorage
from repro.core.local_storage import LocalGraphStorage
from repro.core.snapshot import CSRHeap, GraphSnapshot, splice
from repro.partition.base import HOST_PARTITION, OwnerVector, PartitionMap
from repro.pim.system import PIMSystem

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.node_migrator import NodeMigrator

#: The one error every read or write of a closed system raises.
SYSTEM_CLOSED = "this Moctopus system is closed: close() released its graph"

#: The paper's misplacement rule: a node is reported as incorrectly
#: partitioned when more than this fraction of its next hops are remote.
MISPLACEMENT_THRESHOLD = 0.5


class LockLike(Protocol):
    """Any mutex usable as the manager's writer lock.

    ``threading.RLock`` is a factory function, not a type, so callables
    passing an (R)Lock — or an instrumented stand-in from
    ``repro.analysis.lockcheck`` — are typed against this protocol.
    """

    def acquire(self, blocking: bool = ..., timeout: float = ...) -> bool:
        ...

    def release(self) -> None:
        ...

    def __enter__(self) -> object:
        ...

    def __exit__(
        self,
        exc_type: Optional[type],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> object:
        ...


class Epoch:
    """One immutable published version of the served graph.

    ``heap`` holds every storage's rows, the modules' segments followed
    by the host's (segment ``num_modules``); ``owners`` is the partition
    table's frozen :class:`~repro.partition.base.OwnerVector` at capture
    time, shared with the epochs before it that placed nothing new.  A
    publish and a worker's attach of an exported epoch both build one
    with this constructor.
    """

    __slots__ = (
        "epoch_id",
        "heap",
        "owners",
        "num_nodes",
        "num_edges",
        "num_rows",
        "num_modules",
        "_label_edge_counts",
        "__weakref__",
    )

    def __init__(
        self, epoch_id: int, heap: CSRHeap, owners: OwnerVector, num_nodes: int
    ) -> None:
        self.epoch_id = epoch_id
        self.heap = heap
        self.owners = owners
        self.num_nodes = num_nodes
        self.num_edges = heap.num_edges
        self.num_rows = heap.num_rows
        self.num_modules = heap.num_segments - 1
        self._label_edge_counts: Optional[Dict[int, int]] = None

    @property
    def snapshots(self) -> Tuple[GraphSnapshot, ...]:
        """Every segment's view: the modules', then the host's."""
        return self.heap.segments

    def label_edge_counts(self) -> Dict[int, int]:
        """Edge count per label id across the epoch (cached).

        Feeds the cost model's per-label fanout estimates when
        ``explain()`` costs a plan: the expected frontier growth of an
        ``smxm`` step filtered to label ``l`` is ``count[l] / num_rows``
        per frontier node.
        """
        counts = self._label_edge_counts
        if counts is None:
            values, occurrences = np.unique(self.heap.column("labels"), return_counts=True)
            counts = dict(zip(values.tolist(), occurrences.tolist()))
            self._label_edge_counts = counts
        return counts

    def segment_of(self, partition: int) -> int:
        """The heap segment of ``partition`` (``HOST_PARTITION`` = host)."""
        return self.num_modules if partition == HOST_PARTITION else partition

    def snapshot_of(self, partition: int) -> GraphSnapshot:
        """Pinned snapshot of ``partition`` (``HOST_PARTITION`` = host)."""
        return self.heap.segment(self.segment_of(partition))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Epoch(id={self.epoch_id}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )


class EpochView:
    """The :class:`~repro.engine.base.PlanView` over one epoch.

    ``heap`` is the heap the view reads, the epoch's by default; a
    session passes the epoch's with its staged rows merged in
    (:func:`~repro.core.snapshot.merge_segment`).  ``owners`` is the
    owner vector it routes by, the epoch's by default; a session that
    placed new nodes passes the epoch's with their provisional owners
    (:meth:`~repro.partition.base.OwnerVector.placed`).  ``owner`` and
    ``owners_of`` are that vector's own methods.

    ``live`` marks a live query's view of the current epoch.  It charges
    the system's own platform, so it is never cached: a cache hit would
    leave that platform uncharged.  ``migrator`` is given only
    to a live view whose placement migrates: module partitions then
    detect misplacement and the reports go to it.
    """

    def __init__(
        self,
        epoch: Epoch,
        pim: PIMSystem,
        heap: Optional[CSRHeap] = None,
        owners: Optional[OwnerVector] = None,
        *,
        live: bool = False,
        migrator: Optional[NodeMigrator] = None,
    ) -> None:
        self.epoch = epoch
        #: Totals sink of this view's executions (PlanView contract):
        #: the pinning reader's own platform, or the live system's for
        #: a live query.
        self.pim = pim
        #: The segments the view reads: the epoch's, or a session's.
        self.heap = epoch.heap if heap is None else heap
        #: The owner vector the view routes by: the epoch's, or a session's.
        self.owners = epoch.owners if owners is None else owners
        self.owner = self.owners.owner
        self.owners_of = self.owners.owners_of
        self.live = live
        self._migrator = migrator

    @property
    def epoch_id(self) -> int:
        """Identifier of the pinned epoch."""
        return self.epoch.epoch_id

    def is_patched(self) -> bool:
        """Whether the view overlays session-local (uncommitted) state.

        Patched views are invisible to the plan and result caches and
        to the cost model — the epoch's frozen, shared state does not
        describe what they read.
        """
        return self.heap is not self.epoch.heap or self.owners is not self.epoch.owners

    def snapshot_of(self, partition: int) -> GraphSnapshot:
        """The view's segment of ``partition`` (``HOST_PARTITION`` = host)."""
        return self.heap.segment(self.epoch.segment_of(partition))

    def misplacement_threshold(self, partition: int) -> Optional[float]:
        """:data:`MISPLACEMENT_THRESHOLD` on a module when the view
        reports to a migrator; ``None`` otherwise (the host, and every
        pinned execution, detect nothing)."""
        if self._migrator is None or partition == HOST_PARTITION:
            return None
        return MISPLACEMENT_THRESHOLD

    def report_misplaced(
        self, reports: Tuple[np.ndarray, np.ndarray, np.ndarray]
    ) -> None:
        """Forwarded to the migrator; dropped without one, because a
        report derived from a pinned (possibly stale) epoch would
        misdirect it."""
        if self._migrator is not None:
            self._migrator.report_misplaced(*reports)

    def frozen_epoch(self) -> Optional[Epoch]:
        """The pinned epoch, unless the view is patched with a session
        overlay — its statistics and its id then describe something other
        than what the view reads — or is live: a cached answer would skip
        the system's charges and the expansion whose reports drive
        migration.  The caches key results by its id and share plans by
        query shape among such views; ``explain()`` costs a plan from
        its statistics."""
        if self.live or self.is_patched():
            return None
        return self.epoch

    def total_rows(self) -> int:
        """Total adjacency rows across the view's snapshots."""
        return self.heap.num_rows

    def total_edges(self) -> int:
        """Total adjacency entries across the view's snapshots."""
        return self.heap.num_edges


class EpochManager:
    """Publishes, pins and retires epochs (single-writer / many-reader).

    All state transitions run under the lock shared with the owning
    system, so a capture can never interleave with a half-applied update
    batch: the writer holds the lock while mutating and marks the
    manager stale; the next ``pin()``/``current()`` captures a fresh
    epoch atomically under the same lock.

    ``on_retire`` is called (under the lock) with the id of every epoch
    that retires, so epoch-keyed caches can drop entries that could
    never hit again.
    """

    def __init__(
        self,
        partition_map: PartitionMap,
        storages: Sequence[Union[LocalGraphStorage, HeterogeneousGraphStorage]],
        lock: Optional[LockLike] = None,
        on_retire: Optional[Callable[[int], None]] = None,
    ) -> None:
        #: What an epoch is captured from: the node partition vector and
        #: the module storages followed by the host's — held directly,
        #: not through the owning system, so the two form no cycle.
        #: ``None`` once the owning system closed.
        self._partition_map: Optional[PartitionMap] = partition_map
        self._storages = tuple(storages)
        #: The last published (or installed) heap; storage ``i`` reads
        #: its clean rows from segment ``i`` (an empty base until then).
        self._heap: Optional[CSRHeap] = CSRHeap.empty(
            [storage.bytes_per_entry for storage in self._storages]
        )
        #: Number of publishes that spliced written rows into a new heap.
        self.splices = 0
        self._on_retire = on_retire
        self._lock: LockLike = (
            lock if lock is not None else threading.RLock()
        )
        #: Open pins per epoch id; an id leaves at its last unpin.
        self._pins: Dict[int, int] = {}
        self._current: Optional[Epoch] = None
        self._stale = True
        self._next_id = 0
        #: Per-epoch serving counters: queries answered, batches executed.
        self._served: Dict[int, Dict[str, int]] = {}

    # ------------------------------------------------------------------
    # Publish lifecycle
    # ------------------------------------------------------------------
    def mark_stale(self) -> None:
        """The live state moved past the current epoch (writer-side)."""
        with self._lock:
            self._stale = True

    def publish(self) -> Epoch:
        """Force-publish (and return) an epoch of the current live state.

        This is the durability layer's **checkpoint barrier**: a
        checkpoint serializes exactly the frozen arrays of a published
        epoch, so every checkpoint is a consistent point-in-time capture
        — it can never observe a half-applied update batch, because both
        publishing and the writer path run under the system's writer
        lock.  Equivalent to :meth:`current` (which also publishes when
        stale); the explicit name marks the barrier call sites.
        """
        return self.current()

    def install(self, heap: CSRHeap) -> None:
        """Make ``heap``, a load's or a restore's, the empty storages' rows.

        A storage whose module memory cannot hold its segment raises
        :class:`~repro.pim.memory.MemoryCapacityError` and keeps its own
        rows, as do the storages after it; the heap takes the segments
        the storages before it adopted, so the next publish is still
        exactly the storages' rows.
        """
        with self._lock:
            self._stale = True
            for index, storage in enumerate(self._storages):
                try:
                    storage.adopt(heap.segment(index))
                except BaseException:
                    self._heap = self._heap.replace(dict(enumerate(heap.segments[:index])))
                    raise
            self._heap = heap

    def restore_published_count(self, count: int) -> None:
        """Resume epoch numbering after recovery (ids stay monotonic)."""
        with self._lock:
            if self._current is not None:
                raise RuntimeError("cannot renumber after epochs were published")
            self._next_id = count

    def current(self) -> Epoch:
        """The latest epoch, capturing and publishing a fresh one if stale.

        Raises :class:`RuntimeError` once the owning system closed.
        """
        with self._lock:
            if self._partition_map is None:
                raise RuntimeError(SYSTEM_CLOSED)
            epoch = self._current
            if self._stale or epoch is None:
                heap = splice(self._heap, self._storages)
                if heap is not self._heap:
                    self._heap = heap
                    self.splices += 1
                    for index, storage in enumerate(self._storages):
                        if storage.written:
                            storage.rebase(heap.segment(index))
                epoch = Epoch(
                    epoch_id=self._next_id,
                    heap=heap,
                    owners=self._partition_map.freeze(),
                    num_nodes=len(self._partition_map),
                )
                self._next_id += 1
                previous, self._current = self._current, epoch
                self._stale = False
                if previous is not None:
                    self._retire_unless_live(previous.epoch_id)
            return epoch

    def _is_live(self, epoch_id: int) -> bool:
        current = self._current
        return epoch_id in self._pins or (
            current is not None and epoch_id == current.epoch_id
        )

    def _retire_unless_live(self, epoch_id: int) -> None:
        """Forget an epoch that is neither current nor pinned: its arrays
        die with its last holder, its serving counters and cache entries
        here (or a publish-per-batch service leaks one dict per epoch
        forever, and holds dead entries until the LRU bound evicts them)."""
        if not self._is_live(epoch_id):
            self._served.pop(epoch_id, None)
            if self._on_retire is not None:
                self._on_retire(epoch_id)

    def close(self) -> None:
        """The owning system is closing: drop the current epoch and every
        reference to live state.

        The storages and the heap are dropped too (a module storage's
        base holds its clean rows, so it goes with the storage, not
        before it), and so are the partition map and the retire hook.
        Pinned readers keep their arrays and can still :meth:`unpin`;
        :meth:`current` and :meth:`pin` raise from now on.  Idempotent.
        """
        with self._lock:
            released, self._current = self._current, None
            self._stale = True
            if released is not None:
                self._retire_unless_live(released.epoch_id)
            self._partition_map = None
            self._storages = ()
            self._heap = None
            self._on_retire = None

    # ------------------------------------------------------------------
    # Pinning
    # ------------------------------------------------------------------
    def pin(self) -> Epoch:
        """Pin (and if necessary publish) the latest epoch."""
        with self._lock:
            epoch = self.current()
            self._pins[epoch.epoch_id] = self._pins.get(epoch.epoch_id, 0) + 1
            return epoch

    def unpin(self, epoch: Epoch) -> None:
        """Release one pin of ``epoch``; its last unpin retires an old epoch."""
        with self._lock:
            count = self._pins.get(epoch.epoch_id, 0) - 1
            if count > 0:
                self._pins[epoch.epoch_id] = count
                return
            self._pins.pop(epoch.epoch_id, None)
            self._retire_unless_live(epoch.epoch_id)

    def pin_count(self, epoch_id: int) -> int:
        """Open pins on ``epoch_id`` (0 when unpinned or retired)."""
        with self._lock:
            return self._pins.get(epoch_id, 0)

    def pins(self) -> int:
        """Total open pins across every epoch (0 = no reader holds one).

        The leak detector of the serving suite: after every session,
        scheduler and worker-pool export has closed, this must return to
        zero — a nonzero residue means some path dropped an epoch
        without unpinning it, which keeps that epoch's counters (and
        whatever still references its arrays) registered forever.
        """
        with self._lock:
            return sum(self._pins.values())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def note_served(self, epoch_id: int, queries: int, batches: int = 1) -> None:
        """Record ``queries`` answered against ``epoch_id``.

        A note arriving after the epoch retired is dropped with it.
        """
        with self._lock:
            if not self._is_live(epoch_id):
                return
            entry = self._served.setdefault(
                epoch_id, {"queries": 0, "batches": 0}
            )
            entry["queries"] += queries
            entry["batches"] += batches

    @property
    def published_epochs(self) -> int:
        """Total number of epochs published so far."""
        with self._lock:
            return self._next_id

    def retained_ids(self) -> List[int]:
        """Ids of the live epochs: the current one and every pinned one
        (oldest first)."""
        with self._lock:
            retained = set(self._pins)
            if self._current is not None:
                retained.add(self._current.epoch_id)
            return sorted(retained)

    def serving_report(self) -> Dict[int, Dict[str, int]]:
        """Serving counters of the *retained* epochs (id -> queries/batches).

        Counters retire together with their epoch, so the report stays
        bounded by the number of open pins however long the service runs.
        """
        with self._lock:
            return {
                epoch_id: dict(entry) for epoch_id, entry in self._served.items()
            }

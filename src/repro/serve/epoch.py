"""Epochs: immutable point-in-time captures of the served graph.

The serving layer gives every reader a **snapshot-isolated** view of the
system: a reader pins an :class:`Epoch` — the frozen CSR snapshots of
every storage plus a frozen copy of the node-partition table — and all
of its queries execute against those arrays no matter how far the
single writer advances in the meantime.  Capturing an epoch is cheap by
construction: the storages' :class:`~repro.core.snapshot.SnapshotCache`
already maintains immutable CSR bases incrementally, so a capture is
``to_csr()`` per storage (a cache hit when nothing changed since the
last refresh, a splice of the dirty rows otherwise) plus one memcpy of
the owner table.

:class:`EpochManager` owns the publish lifecycle.  The single writer
marks the current epoch **stale** after every update batch / migration
pass; the next pin atomically captures and publishes a fresh epoch.
An epoch's lifetime is its pins: the manager retains the current epoch
and every pinned one, and retires an older epoch at its last unpin — a
session holding epoch N keeps its arrays alive and bit-identical however
many splices and row migrations later epochs absorb, and
nothing else does.

:class:`EpochView` is the lens an execution engine actually receives
(the :class:`~repro.engine.base.PlanView` contract): the epoch's frozen
state, optionally patched with a session's uncommitted writes
(read-your-writes), plus the accounting
:class:`~repro.pim.system.PIMSystem` whose totals its executions fold
into — a private one, because pinned reads are not logged and must stay
out of the live system's checkpointed totals.
"""

from __future__ import annotations

import threading
from types import TracebackType
from typing import Dict, List, Optional, Protocol, Sequence, Tuple, Union

import numpy as np

from repro.core.hetero_storage import HeterogeneousGraphStorage
from repro.core.local_storage import LocalGraphStorage
from repro.core.snapshot import GraphSnapshot
from repro.partition.base import HOST_PARTITION, PartitionMap
from repro.partition.owner_index import OwnerIndex
from repro.pim.system import PIMSystem


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

    ``snapshots`` holds the per-module CSR captures followed by the host
    capture (index ``num_modules``); ``owners`` is a frozen
    :class:`OwnerIndex` copy of the partition table at capture time.
    """

    __slots__ = (
        "epoch_id",
        "snapshots",
        "owners",
        "num_nodes",
        "num_edges",
        "num_rows",
        "num_modules",
        "_degree_histogram",
        "_label_edge_counts",
    )

    def __init__(
        self,
        epoch_id: int,
        snapshots: Tuple[GraphSnapshot, ...],
        owners: OwnerIndex,
        num_nodes: int,
        num_edges: int,
    ) -> None:
        self.epoch_id = epoch_id
        self.snapshots = snapshots
        self.owners = owners
        self.num_nodes = num_nodes
        #: Total adjacency entries across the snapshots.
        self.num_edges = num_edges
        #: Total adjacency rows across the snapshots, summed once: every
        #: ``"auto"`` dispatch and every plan asks an unpatched view.
        self.num_rows = sum(snapshot.num_rows for snapshot in snapshots)
        self.num_modules = len(snapshots) - 1
        self._degree_histogram: Optional[np.ndarray] = None
        self._label_edge_counts: Optional[Dict[int, int]] = None

    def degree_histogram(self) -> np.ndarray:
        """Out-degree histogram across every pinned snapshot (cached).

        ``histogram[d]`` counts adjacency rows of out-degree ``d`` over
        all modules plus the host capture.  Each per-snapshot histogram
        is itself cached on its (immutable) :class:`GraphSnapshot`, so
        an epoch only pays the padded sum once — the substrate for the
        matrix engine's dense-vs-sparse frontier crossover and the
        roadmap's cost-based planner.
        """
        histogram = self._degree_histogram
        if histogram is None:
            parts = [snapshot.degree_histogram() for snapshot in self.snapshots]
            width = max(len(part) for part in parts)
            histogram = np.zeros(width, dtype=np.int64)
            for part in parts:
                histogram[: len(part)] += part
            histogram.flags.writeable = False
            self._degree_histogram = histogram
        return histogram

    def label_edge_counts(self) -> Dict[int, int]:
        """Edge count per label id across every pinned snapshot (cached).

        Feeds the cost-based planner's per-label fanout estimates: the
        expected frontier growth of an ``smxm`` step filtered to label
        ``l`` is ``count[l] / total_rows`` per frontier node.
        """
        counts = self._label_edge_counts
        if counts is None:
            counts = {}
            for snapshot in self.snapshots:
                if len(snapshot.labels) == 0:
                    continue
                values, occurrences = np.unique(
                    snapshot.labels, return_counts=True
                )
                for value, occurrence in zip(
                    values.tolist(), occurrences.tolist()
                ):
                    counts[value] = counts.get(value, 0) + occurrence
            self._label_edge_counts = counts
        return counts

    def snapshot_of(self, partition: int) -> GraphSnapshot:
        """Pinned snapshot of ``partition`` (``HOST_PARTITION`` = host)."""
        if partition == HOST_PARTITION:
            return self.snapshots[self.num_modules]
        return self.snapshots[partition]

    def owner(self, node: int) -> Optional[int]:
        """Owner of ``node`` at this epoch (``None`` when unplaced)."""
        owner = self.owners.owner_of(node)
        return None if owner == OwnerIndex.UNKNOWN else owner

    def owners_of(self, nodes: np.ndarray) -> np.ndarray:
        """Vectorized owner lookup against the frozen partition table."""
        return self.owners.owners_of(nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Epoch(id={self.epoch_id}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )


class EpochView:
    """A :class:`~repro.engine.base.PlanView` over one pinned epoch.

    ``patched`` optionally overrides per-partition snapshots with
    session-patched ones (uncommitted writes spliced in with
    :func:`~repro.core.snapshot.merge_snapshot`); ``extra_owners`` maps
    the session-created nodes the epoch's owner table does not place to
    their provisional partitions so the engines can route frontiers
    through rows that exist only in the overlay.
    """

    def __init__(
        self,
        epoch: Epoch,
        pim: PIMSystem,
        patched: Optional[Dict[int, GraphSnapshot]] = None,
        extra_owners: Optional[Dict[int, int]] = None,
    ) -> None:
        self.epoch = epoch
        #: Totals sink of this view's executions (PlanView contract):
        #: the pinning reader's own platform, never the live system's.
        self.pim = pim
        self._patched = patched or {}
        self._extra_owners = extra_owners or {}

    @property
    def epoch_id(self) -> int:
        """Identifier of the pinned epoch."""
        return self.epoch.epoch_id

    def is_patched(self) -> bool:
        """Whether the view overlays session-local (uncommitted) state.

        Patched views are invisible to the epoch-keyed plan/result
        caches and to cost-based planning — both are only sound against
        the epoch's frozen, shared state.
        """
        return bool(self._patched) or bool(self._extra_owners)

    def snapshot_of(self, partition: int) -> GraphSnapshot:
        """Pinned (possibly session-patched) snapshot of ``partition``."""
        patched = self._patched.get(partition)
        if patched is not None:
            return patched
        return self.epoch.snapshot_of(partition)

    #: The scalar loop reads the same frozen snapshots row by row.
    rows_of = snapshot_of

    def misplacement_threshold(self, partition: int) -> Optional[float]:
        """``None``: pinned executions skip misplacement detection."""
        return None

    def report_misplaced(
        self, reports: Tuple[np.ndarray, np.ndarray, np.ndarray]
    ) -> None:
        """Dropped: a report derived from a pinned (possibly stale)
        epoch would misdirect the migrator."""

    def owner(self, node: int) -> Optional[int]:
        """Owner at the pinned epoch, extended with session-local nodes."""
        extra = self._extra_owners.get(node)
        if extra is not None:
            return extra
        return self.epoch.owner(node)

    def owners_of(self, nodes: np.ndarray) -> np.ndarray:
        """Vectorized owner lookup, extended with session-local nodes."""
        owners = self.epoch.owners_of(nodes)
        if self._extra_owners:
            for position in np.flatnonzero(owners == OwnerIndex.UNKNOWN).tolist():
                owners[position] = self._extra_owners.get(
                    int(nodes[position]), OwnerIndex.UNKNOWN
                )
        return owners

    def frozen_epoch(self) -> Optional[Epoch]:
        """The pinned epoch, unless the view is patched with a session
        overlay: its statistics and its id then describe something other
        than what the view reads."""
        return None if self.is_patched() else self.epoch

    def _snapshots(self) -> List[GraphSnapshot]:
        partitions = (*range(self.epoch.num_modules), HOST_PARTITION)
        return [self.snapshot_of(partition) for partition in partitions]

    def total_rows(self) -> int:
        """Total adjacency rows across the view's snapshots."""
        if not self._patched:  # the epoch's own, summed once
            return self.epoch.num_rows
        return sum(snapshot.num_rows for snapshot in self._snapshots())

    def total_edges(self) -> int:
        """Total adjacency entries across the view's snapshots."""
        if not self._patched:
            return self.epoch.num_edges
        return sum(snapshot.num_edges for snapshot in self._snapshots())


class EpochManager:
    """Publishes, pins and retires epochs (single-writer / many-reader).

    All state transitions run under the lock shared with the owning
    system, so a capture can never interleave with a half-applied update
    batch: the writer holds the lock while mutating and marks the
    manager stale; the next ``pin()``/``current()`` captures a fresh
    epoch atomically under the same lock.
    """

    def __init__(
        self,
        partition_map: PartitionMap,
        storages: Sequence[Union[LocalGraphStorage, HeterogeneousGraphStorage]],
        lock: Optional[LockLike] = None,
    ) -> None:
        #: What an epoch is captured from: the node partition vector and
        #: the module storages followed by the host's — held directly,
        #: not through the owning system, so the two form no cycle.
        self._partition_map = partition_map
        self._storages = tuple(storages)
        #: Owner table, journal-patched between captures; every epoch
        #: takes a frozen copy.
        self._owner_capture = OwnerIndex()
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

    def restore_published_count(self, count: int) -> None:
        """Resume epoch numbering after recovery (ids stay monotonic)."""
        with self._lock:
            if self._current is not None:
                raise RuntimeError("cannot renumber after epochs were published")
            self._next_id = count

    def current(self) -> Epoch:
        """The latest epoch, capturing and publishing a fresh one if stale."""
        with self._lock:
            epoch = self._current
            if self._stale or epoch is None:
                # Cheap by design: ``to_csr()`` is a cache hit for every
                # storage the last update batch didn't touch.
                snapshots = tuple(storage.to_csr() for storage in self._storages)
                self._owner_capture.refresh(self._partition_map)
                epoch = Epoch(
                    epoch_id=self._next_id,
                    snapshots=snapshots,
                    owners=self._owner_capture.frozen_copy(),
                    num_nodes=len(self._partition_map),
                    num_edges=sum(snapshot.num_edges for snapshot in snapshots),
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
        die with its last holder, its serving counters here (or a
        publish-per-batch service leaks one dict per epoch forever)."""
        if not self._is_live(epoch_id):
            self._served.pop(epoch_id, None)

    def release(self) -> None:
        """Drop the current epoch and the storages' cached snapshots.

        The owning system is closing: pinned readers keep their arrays,
        and the next ``current()`` rebuilds and publishes afresh.
        """
        with self._lock:
            released, self._current = self._current, None
            self._stale = True
            if released is not None:
                self._retire_unless_live(released.epoch_id)
            for storage in self._storages:
                storage.drop_snapshot()

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

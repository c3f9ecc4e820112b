"""The update path: batch edge insertions and deletions.

Graph updates are abstracted into ``add`` and ``sub`` operators and
dispatched to PIM modules map-reduce style (paper Section 3.1).  Unlike
path matching, updates need no inter-PIM communication and no reduction
stage, so they can saturate the parallel intra-PIM bandwidth — which is
why the paper reports the largest speedups (30x insert, 52.6x delete on
average) for this workload.

Execution of one batch:

1. **partition** (host) — for every update the host consults (and, for
   brand-new nodes, extends) the ``node_partition_vector``; updates whose
   source row lives on a PIM module are grouped into per-module ``add``/
   ``sub`` operators, updates on host-resident high-degree rows take the
   heterogeneous-storage protocol.
2. **dispatch** (CPC) — operators travel to their modules in one batch
   transfer per module.
3. **apply** (PIM, parallel) — each module applies its operator against
   its local hash-map segment.  High-degree updates run their PIM-side
   index lookups on the module sharding that row's maps, and the host
   performs the single positional write into ``cols_vector``.

Two interchangeable implementations of the partition step exist, chosen
by the same ``MoctopusConfig.engine`` knob as the query backends:

* ``"python"`` (and the default ``"auto"``) — the scalar reference: one
  pass over the batch, a partition-vector consultation per update
  (exact original semantics);
* ``"vectorized"`` / ``"matrix"`` — one ``searchsorted`` over the whole
  batch resolves every endpoint against the :class:`~repro.partition.owner_index.
  OwnerIndex`; updates that cannot change any placement (both endpoints
  assigned, source nowhere near the high-degree threshold) are grouped
  per module with ``np.unique``-style run detection, and only the
  *stateful* remainder — brand-new nodes, sources that may cross the
  threshold mid-batch — replays through the scalar logic in batch
  order.

Both produce bit-identical operator queues per source, identical final
system state, and identical simulated statistics: all phase accounting
is integer counters folded into time once per phase, so one bulk charge
equals N unit charges exactly.

**Replay determinism contract.**  The durability layer
(:mod:`repro.durability`) recovers from crashes by re-running
:meth:`UpdateProcessor.apply_batch` on WAL-logged batches, so this
method must stay a pure function of (batch, labels, observable system
state): no wall clock, no randomness, no iteration over
non-deterministically ordered containers that feeds back into state or
accounting.  Everything it consults — the partition vector, observed
out-degrees, storage contents, the node count — is restored
bit-exactly by checkpoints, and the fault-injection suite
(``tests/test_durability.py``) breaks if a change here violates the
contract.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import MoctopusConfig
from repro.core.hetero_storage import HeterogeneousGraphStorage
from repro.core.local_storage import LocalGraphStorage
from repro.core.node_migrator import NodeMigrator
from repro.core.operator_processor import OperatorProcessor
from repro.core.operators import BYTES_PER_UPDATE_ITEM, OPERATOR_HEADER_BYTES
from repro.core.partitioner import GraphPartitioner
from repro.engine.base import ENGINE_NAMES
from repro.graph.digraph import DEFAULT_LABEL
from repro.graph.stream import UpdateKind, UpdateOp
from repro.partition.base import HOST_PARTITION
from repro.partition.owner_index import OwnerIndex
from repro.pim.stats import ExecutionStats
from repro.pim.system import OperationContext, PIMSystem


#: One queued module update: ``(seq, kind, src, dst, label)`` where
#: ``seq`` is the op's position in the original batch.  Deletes carry
#: ``DEFAULT_LABEL`` (labels are ignored on removal).
PendingEntry = Tuple[int, UpdateKind, int, int, int]


class _PendingBatch:
    """Per-module ``add``/``sub`` operator payloads of one batch.

    Every entry records its position in the original batch (``seq``), and
    :meth:`finalize` hands each module its payload sorted by ``seq`` — so
    the module applies its slice of the batch in true batch order even
    though insertions and deletions travel as separate ``add``/``sub``
    operators.  Applying the grouped operators wholesale (all adds, then
    all subs) would silently resolve a delete→insert of the same edge
    within one batch to *absent*, diverging from sequential semantics.

    Entries are also indexed by source as they are queued, because a
    source promoted to the host mid-batch must pull its already-queued
    updates out of its old module's operators (they would otherwise be
    applied to a row that no longer lives there).  Requeueing tombstones
    the entries in place — survivor order is untouched and one promotion
    costs O(pending-for-source), not a rescan of the whole batch —
    and :meth:`finalize` drops the tombstones in a single pass.
    """

    def __init__(self) -> None:
        self.ops: Dict[int, List[Optional[PendingEntry]]] = {}
        self._positions: Dict[Tuple[int, int], List[int]] = {}
        #: Which operator kinds were ever queued per module; an operator
        #: fully drained by requeues still ships (empty) and its kernel
        #: launch is still part of the charged work.
        self._operators: Dict[int, set] = {}

    def queue_add(self, module: int, seq: int, src: int, dst: int, label: int) -> None:
        """Queue one insertion for ``module``, indexed for a possible
        requeue; use :meth:`extend_adds` for sources that cannot promote."""
        bucket = self.ops.setdefault(module, [])
        self._positions.setdefault((module, src), []).append(len(bucket))
        self._operators.setdefault(module, set()).add(UpdateKind.INSERT)
        bucket.append((seq, UpdateKind.INSERT, src, dst, label))

    def queue_sub(self, module: int, seq: int, src: int, dst: int) -> None:
        """Queue one deletion for ``module`` (see :meth:`queue_add`)."""
        bucket = self.ops.setdefault(module, [])
        self._positions.setdefault((module, src), []).append(len(bucket))
        self._operators.setdefault(module, set()).add(UpdateKind.DELETE)
        bucket.append((seq, UpdateKind.DELETE, src, dst, DEFAULT_LABEL))

    def extend_adds(
        self, module: int, entries: List[Tuple[int, int, int, int]]
    ) -> None:
        """Bulk-queue ``(seq, src, dst, label)`` insertions whose sources
        can never be requeued."""
        if not entries:
            return
        self._operators.setdefault(module, set()).add(UpdateKind.INSERT)
        self.ops.setdefault(module, []).extend(
            (seq, UpdateKind.INSERT, src, dst, label)
            for seq, src, dst, label in entries
        )

    def extend_subs(self, module: int, entries: List[Tuple[int, int, int]]) -> None:
        """Bulk-queue ``(seq, src, dst)`` deletions whose sources can
        never be requeued."""
        if not entries:
            return
        self._operators.setdefault(module, set()).add(UpdateKind.DELETE)
        self.ops.setdefault(module, []).extend(
            (seq, UpdateKind.DELETE, src, dst, DEFAULT_LABEL)
            for seq, src, dst in entries
        )

    def requeue_source(self, src: int, module: int) -> List[PendingEntry]:
        """Remove and return ``src``'s pending entries on ``module``,
        sorted into original batch order."""
        requeued: List[PendingEntry] = []
        bucket = self.ops.get(module, [])
        for position in self._positions.pop((module, src), []):
            requeued.append(bucket[position])
            bucket[position] = None
        requeued.sort(key=lambda entry: entry[0])
        return requeued

    def finalize(
        self,
    ) -> Dict[int, Tuple[List[PendingEntry], bool, bool]]:
        """Tombstone-free per-module payloads in batch order.

        Returns ``module -> (entries, has_add_operator, has_sub_operator)``
        where the operator flags record which operator kinds were queued
        (even when every entry was requeued away — the empty kernel
        launch is part of the charged work, as the scalar path always
        dispatched it).
        """
        finalized: Dict[int, Tuple[List[PendingEntry], bool, bool]] = {}
        for module, bucket in self.ops.items():
            entries = [entry for entry in bucket if entry is not None]
            entries.sort(key=lambda entry: entry[0])
            operators = self._operators.get(module, set())
            finalized[module] = (
                entries,
                UpdateKind.INSERT in operators,
                UpdateKind.DELETE in operators,
            )
        return finalized


def _run_bounds(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Start/stop indices of equal-value runs in a sorted array."""
    run_mask = np.empty(len(values), dtype=bool)
    run_mask[0] = True
    np.not_equal(values[1:], values[:-1], out=run_mask[1:])
    starts = np.flatnonzero(run_mask)
    return starts, np.append(starts[1:], len(values))


def _grouped_by_owner(mask: np.ndarray, owners: np.ndarray):
    """Yield ``(owner, op-index chunk)`` per owner run of the masked ops.

    The stable owner sort keeps batch order within each chunk — the
    per-source entry order the apply-phase byte accounting depends on.
    """
    selected = np.flatnonzero(mask)
    if selected.size == 0:
        return
    chunk_owners = owners[selected]
    order = np.argsort(chunk_owners, kind="stable")
    selected, chunk_owners = selected[order], chunk_owners[order]
    for start, stop in zip(*_run_bounds(chunk_owners)):
        yield int(chunk_owners[start]), selected[start:stop]


class UpdateProcessor:
    """Executes batches of edge insertions/deletions on the simulated system."""

    def __init__(
        self,
        config: MoctopusConfig,
        pim_system: PIMSystem,
        partitioner: GraphPartitioner,
        module_storages: List[LocalGraphStorage],
        host_storage: HeterogeneousGraphStorage,
        operator_processors: List[OperatorProcessor],
        node_migrator: NodeMigrator,
    ) -> None:
        self._config = config
        self._pim = pim_system
        self._partitioner = partitioner
        self._module_storages = module_storages
        self._host_storage = host_storage
        self._processors = operator_processors
        self._migrator = node_migrator
        self._engine_name = config.engine
        self._owner_index = OwnerIndex()
        #: Bytes of the ``node_partition_vector`` (2 per node) as of the
        #: current batch's start: the working set every partition-vector
        #: access of the batch is charged against.  Read once per batch —
        #: nodes the partition phase places do not grow it mid-batch.
        self._vector_bytes = 0
        #: Lifetime number of update batches applied.  Checkpointed and
        #: restored (then advanced by WAL tail replay) so the counter
        #: reads the same on a recovered system as on one that never
        #: crashed.
        self.batches_applied = 0

    # ------------------------------------------------------------------
    # Backend selection (mirrors the query processor's knob)
    # ------------------------------------------------------------------
    @property
    def engine_name(self) -> str:
        """Name of the active update-partitioning backend."""
        return self._engine_name

    def use_engine(self, name: str) -> None:
        """Swap the update-partitioning backend (any ``ENGINE_NAMES`` entry;
        ``"matrix"`` shares the vectorized partitioning path)."""
        if name not in ENGINE_NAMES:
            raise ValueError(
                f"unknown execution engine {name!r}; expected one of {ENGINE_NAMES}"
            )
        self._engine_name = name

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------
    def apply_batch(
        self, ops: List[UpdateOp], labels: Optional[List[int]] = None
    ) -> ExecutionStats:
        """Apply a mixed batch of updates following the paper's flow."""
        operation = self._pim.begin_operation()
        self._vector_bytes = len(self._partitioner.partition_map) * 2

        pending = _PendingBatch()
        hetero_ops: List[Tuple[UpdateOp, int]] = []

        with operation.phase("partition"):
            # The matrix engine shares the vectorized batch-partitioning
            # path: only query execution differs between those backends.
            # ``"auto"`` keeps the scalar path.
            if self._engine_name in ("vectorized", "matrix") and ops:
                self._partition_batch_vectorized(
                    operation, ops, labels, pending, hetero_ops
                )
            else:
                self._partition_batch_scalar(
                    operation, ops, labels, pending, hetero_ops
                )
        module_ops = pending.finalize()

        with operation.phase("dispatch"):
            dispatched_items = sum(
                len(entries) for entries, _, _ in module_ops.values()
            )
            if dispatched_items:
                # All per-module add/sub operators ship in one rank-level
                # batched scatter.
                operation.cpc_transfer(
                    OPERATOR_HEADER_BYTES + dispatched_items * BYTES_PER_UPDATE_ITEM,
                    num_transfers=1,
                )

        with operation.phase("apply"):
            self._apply_module_updates(operation, module_ops)
            self._apply_hetero_updates(operation, hetero_ops)

        stats = operation.finish()
        stats.add_counter("updates", len(ops))
        self.batches_applied += 1
        return stats

    # ------------------------------------------------------------------
    # Partition phase — scalar reference
    # ------------------------------------------------------------------
    def _partition_batch_scalar(
        self,
        operation: OperationContext,
        ops: List[UpdateOp],
        labels: Optional[List[int]],
        pending: _PendingBatch,
        hetero_ops: List[Tuple[UpdateOp, int]],
    ) -> None:
        """One partition-vector consultation per update (original semantics)."""
        for index, update in enumerate(ops):
            label = labels[index] if labels else DEFAULT_LABEL
            operation.host.process_items(1)
            self._route_update(update, index, label, operation, pending, hetero_ops)

    # ------------------------------------------------------------------
    # Partition phase — vectorized batch path
    # ------------------------------------------------------------------
    def _partition_batch_vectorized(
        self,
        operation: OperationContext,
        ops: List[UpdateOp],
        labels: Optional[List[int]],
        pending: _PendingBatch,
        hetero_ops: List[Tuple[UpdateOp, int]],
    ) -> None:
        """Whole-batch partitioning with one owner lookup per endpoint array.

        Updates are split by *source* into a **simple** set — source and
        destination already assigned and the source cannot cross the
        high-degree threshold within this batch, so partitioning is a
        pure lookup — and a **complex** remainder that may mutate
        partitioner state (place new nodes, promote hubs).  Simple
        updates are resolved and grouped entirely in numpy; complex ones
        replay through the scalar per-op logic in batch order, which
        reproduces placement decisions, promotions and requeues exactly.
        A source is classified wholesale, so the per-source queueing
        order every accounting rule depends on is preserved verbatim.
        """
        count = len(ops)
        # Loop-top per-item host charge of the scalar path, in one call
        # (integer phase counters make this bit-identical).
        operation.host.process_items(count)

        srcs = np.fromiter((update.src for update in ops), dtype=np.int64, count=count)
        dsts = np.fromiter((update.dst for update in ops), dtype=np.int64, count=count)
        inserts = np.fromiter(
            (update.kind is UpdateKind.INSERT for update in ops),
            dtype=bool,
            count=count,
        )

        self._owner_index.refresh(self._partitioner.partition_map)
        src_owners = self._owner_index.owners_of(srcs)
        dst_owners = self._owner_index.owners_of(dsts)
        unknown = OwnerIndex.UNKNOWN

        # --- classify sources --------------------------------------------
        complex_sources = set(np.unique(srcs[src_owners == unknown]).tolist())
        complex_sources.update(
            np.unique(srcs[inserts & (dst_owners == unknown)]).tolist()
        )
        threshold = self._config.high_degree_threshold
        if threshold is not None:
            candidates = (
                inserts & (src_owners != unknown) & (src_owners != HOST_PARTITION)
            )
            unique_srcs, batch_degrees = np.unique(
                srcs[candidates], return_counts=True
            )
            for node, batch_degree in zip(
                unique_srcs.tolist(), batch_degrees.tolist()
            ):
                # The labor-division wrapper promotes when the observed
                # degree passes the threshold; with this batch's inserts
                # it would reach deg + batch_degree.
                if (
                    self._partitioner.observed_out_degree(node) + batch_degree
                    > threshold
                ):
                    complex_sources.add(node)

        if complex_sources:
            complex_arr = np.fromiter(
                sorted(complex_sources), dtype=np.int64, count=len(complex_sources)
            )
            positions = np.minimum(
                np.searchsorted(complex_arr, srcs), len(complex_arr) - 1
            )
            is_complex = complex_arr[positions] == srcs
        else:
            is_complex = np.zeros(count, dtype=bool)

        simple_inserts = inserts & ~is_complex
        simple_deletes = ~inserts & ~is_complex

        # --- bulk host accounting for the simple set ---------------------
        # The scalar path charges 2 partition-vector accesses per insert
        # and 1 per delete; the working set is constant across the batch.
        accesses = 2 * int(simple_inserts.sum()) + int(simple_deletes.sum())
        if accesses:
            operation.host.random_accesses(
                accesses, working_set_bytes=self._vector_bytes
            )

        # --- degree bookkeeping the scalar ingest would have done --------
        if threshold is not None and simple_inserts.any():
            unique_srcs, batch_degrees = np.unique(
                srcs[simple_inserts], return_counts=True
            )
            self._partitioner.record_observed_edges(
                zip(unique_srcs.tolist(), batch_degrees.tolist()),
                np.unique(dsts[simple_inserts]).tolist(),
            )

        if labels:
            op_labels = np.fromiter(labels, dtype=np.int64, count=count)
        else:
            op_labels = np.full(count, DEFAULT_LABEL, dtype=np.int64)

        # --- group simple module updates per module ----------------------
        on_module = src_owners != HOST_PARTITION
        for owner, chunk in _grouped_by_owner(simple_inserts & on_module, src_owners):
            pending.extend_adds(
                owner,
                list(
                    zip(
                        chunk.tolist(),
                        srcs[chunk].tolist(),
                        dsts[chunk].tolist(),
                        op_labels[chunk].tolist(),
                    )
                ),
            )
        for owner, chunk in _grouped_by_owner(simple_deletes & on_module, src_owners):
            pending.extend_subs(
                owner,
                list(zip(chunk.tolist(), srcs[chunk].tolist(), dsts[chunk].tolist())),
            )

        # --- simple host-resident updates (the hetero protocol) ----------
        host_simple = ~is_complex & (src_owners == HOST_PARTITION)
        for index in np.flatnonzero(host_simple).tolist():
            hetero_ops.append((ops[index], int(op_labels[index])))

        # --- stateful remainder: replay scalar logic in batch order ------
        for index in np.flatnonzero(is_complex).tolist():
            self._route_update(
                ops[index], index, int(op_labels[index]), operation, pending, hetero_ops
            )

    # ------------------------------------------------------------------
    # Placement of update targets
    # ------------------------------------------------------------------
    def _route_update(
        self,
        update: UpdateOp,
        seq: int,
        label: int,
        operation: OperationContext,
        pending: _PendingBatch,
        hetero_ops: List[Tuple[UpdateOp, int]],
    ) -> None:
        """Place one update and queue it — the per-op routing both the
        scalar path and the vectorized stateful remainder share."""
        owner, promoted_from = self._place_for_update(update, operation)
        if promoted_from is not None:
            # The source was promoted to the host while this batch was
            # being partitioned: updates already queued for its old
            # module must follow it, or they would be applied to a row
            # that no longer lives there.
            self._requeue_promoted_source(
                update.src, promoted_from, pending, hetero_ops
            )
        if owner == HOST_PARTITION:
            hetero_ops.append((update, label))
        elif update.kind is UpdateKind.INSERT:
            pending.queue_add(owner, seq, update.src, update.dst, label)
        else:
            pending.queue_sub(owner, seq, update.src, update.dst)

    def _place_for_update(
        self, update: UpdateOp, operation: OperationContext
    ) -> Tuple[int, Optional[int]]:
        """Owner of the update's source row, plus the module it was promoted from.

        Returns ``(owner_partition, promoted_from)`` where ``promoted_from``
        is the PIM module the source just left (``None`` when no promotion
        happened during this placement).
        """
        src, dst = update.src, update.dst
        if update.kind is UpdateKind.INSERT:
            previous = self._partitioner.partition_of(src)
            src_partition, _ = self._partitioner.ingest_edge(src, dst)
            promoted_from: Optional[int] = None
            # The labor-division wrapper may have just promoted the source
            # because this edge pushed it over the threshold.
            if (
                previous is not None
                and previous != HOST_PARTITION
                and src_partition == HOST_PARTITION
            ):
                self._migrator.promote_to_host(src, previous, op=operation)
                promoted_from = previous
            # Consulting (and possibly extending) the partition vector is a
            # host-side access per endpoint; the vector is one small entry
            # per node (the paper's node_partition_vector), so it stays
            # cache-resident just as it does on the real platform.
            operation.host.random_accesses(2, working_set_bytes=self._vector_bytes)
            return src_partition, promoted_from
        owner = self._partitioner.partition_of(src)
        operation.host.random_accesses(1, working_set_bytes=self._vector_bytes)
        if owner is None:
            # Deleting an edge of an unknown node: treat as a host no-op.
            return HOST_PARTITION, None
        return owner, None

    def _requeue_promoted_source(
        self,
        src: int,
        promoted_from: int,
        pending: _PendingBatch,
        hetero_ops: List[Tuple[UpdateOp, int]],
    ) -> None:
        """Move queued updates of a just-promoted source to the hetero
        path, preserving their original batch order."""
        for _, kind, edge_src, edge_dst, edge_label in pending.requeue_source(
            src, promoted_from
        ):
            hetero_ops.append((UpdateOp(kind, edge_src, edge_dst), edge_label))

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def _apply_module_updates(
        self,
        operation: OperationContext,
        module_ops: Dict[int, Tuple[List[PendingEntry], bool, bool]],
    ) -> None:
        """Apply each module's slice of the batch in true batch order.

        The ``add`` and ``sub`` operators still dispatch (and charge one
        kernel launch each) per module, but their entries are applied
        interleaved by batch position: applying all adds before all subs
        would resolve a delete→insert of the same edge within one batch
        to *absent* instead of the sequential result.
        """
        for module_id, (entries, has_add_op, has_sub_op) in module_ops.items():
            module = operation.module(module_id)
            if has_add_op:
                module.launch_kernel()
            if has_sub_op:
                module.launch_kernel()
            work = self._processors[module_id].process_update_ops(
                [(kind, src, dst, label) for _, kind, src, dst, label in entries]
            )
            module.random_accesses(work.map_lookups)
            module.stream_bytes(work.bytes_streamed)
            module.process_items(work.items_processed)

    def _apply_hetero_updates(
        self,
        operation: OperationContext,
        hetero_ops: List[Tuple[UpdateOp, int]],
    ) -> None:
        if hetero_ops:
            # The heterogeneous-storage protocol exchanges (edge, position)
            # records with the PIM-side index maps; the whole batch moves in
            # one scatter/gather pair, so only the byte volume is per-edge.
            operation.cpc_transfer(
                2 * len(hetero_ops) * BYTES_PER_UPDATE_ITEM, num_transfers=2
            )
        for update, label in hetero_ops:
            index_module = operation.module(
                self._host_storage.index_module_of(update.src)
            )
            if update.kind is UpdateKind.INSERT:
                outcome = self._host_storage.insert_edge(update.src, update.dst, label)
            else:
                outcome = self._host_storage.delete_edge(update.src, update.dst)
            # PIM side: index-map lookups and free-slot management.
            index_module.random_accesses(outcome.pim_map_lookups)
            index_module.process_items(outcome.pim_map_lookups)
            # Host side: the single positional write (plus any growth copy).
            operation.host.process_items(outcome.host_writes)
            if outcome.host_streamed_bytes:
                operation.host.stream_bytes(outcome.host_streamed_bytes)

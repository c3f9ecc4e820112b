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

The partition step is one pass over the batch in batch order with a
partition-vector consultation per update: this module alone knows how a
batch is partitioned (the kernel ``Moctopus.use_engine`` pins is a
query kernel and has no meaning here).  All phase accounting is integer counters folded
into time once per phase.

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

from repro.core.hetero_storage import HeterogeneousGraphStorage
from repro.core.local_storage import LocalGraphStorage
from repro.core.node_migrator import NodeMigrator
from repro.core.operator_processor import apply_update_ops
from repro.core.operators import BYTES_PER_UPDATE_ITEM, OPERATOR_HEADER_BYTES
from repro.core.partitioner import GraphPartitioner
from repro.graph.digraph import DEFAULT_LABEL
from repro.graph.stream import UpdateKind, UpdateOp
from repro.partition.base import HOST_PARTITION
from repro.pim.stats import ExecutionStats
from repro.pim.system import OperationContext, PIMSystem


#: One queued module update, ``(kind, src, dst, label)`` — exactly what
#: :func:`~repro.core.operator_processor.apply_update_ops` takes (labels
#: are ignored on removal).
PendingEntry = Tuple[UpdateKind, int, int, int]


class _PendingBatch:
    """Per-module ``add``/``sub`` operator payloads of one batch.

    Entries are appended as the partition loop meets them, so each
    module's payload is in true batch order even though insertions and
    deletions travel as separate ``add``/``sub`` operators.  Applying
    the grouped operators wholesale (all adds, then all subs) would
    silently resolve a delete→insert of the same edge within one batch
    to *absent*, diverging from sequential semantics.

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

    def queue(self, module: int, entry: PendingEntry) -> None:
        """Queue one update for ``module``, indexed for a possible requeue."""
        kind, src, _, _ = entry
        bucket = self.ops.setdefault(module, [])
        self._positions.setdefault((module, src), []).append(len(bucket))
        self._operators.setdefault(module, set()).add(kind)
        bucket.append(entry)

    def requeue_source(self, src: int, module: int) -> List[PendingEntry]:
        """Remove and return ``src``'s pending entries on ``module``, in
        batch order."""
        requeued: List[PendingEntry] = []
        bucket = self.ops.get(module, [])
        for position in self._positions.pop((module, src), []):
            requeued.append(bucket[position])
            bucket[position] = None
        return requeued

    def finalize(
        self,
    ) -> Dict[int, Tuple[List[PendingEntry], bool, bool]]:
        """Tombstone-free per-module payloads in batch order.

        Returns ``module -> (entries, has_add_operator, has_sub_operator)``
        where the operator flags record which operator kinds were queued
        (even when every entry was requeued away — the empty kernel
        launch is part of the charged work).
        """
        finalized: Dict[int, Tuple[List[PendingEntry], bool, bool]] = {}
        for module, bucket in self.ops.items():
            operators = self._operators[module]
            finalized[module] = (
                [entry for entry in bucket if entry is not None],
                UpdateKind.INSERT in operators,
                UpdateKind.DELETE in operators,
            )
        return finalized


class UpdateProcessor:
    """Executes batches of edge insertions/deletions on the simulated system."""

    def __init__(
        self,
        pim_system: PIMSystem,
        partitioner: GraphPartitioner,
        module_storages: List[LocalGraphStorage],
        host_storage: HeterogeneousGraphStorage,
        node_migrator: NodeMigrator,
    ) -> None:
        self._pim = pim_system
        self._partitioner = partitioner
        self._module_storages = module_storages
        self._host_storage = host_storage
        self._migrator = node_migrator
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
            for index, update in enumerate(ops):
                label = labels[index] if labels else DEFAULT_LABEL
                operation.host.process_items(1)
                self._route_update(update, label, operation, pending, hetero_ops)
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
    # Placement of update targets
    # ------------------------------------------------------------------
    def _route_update(
        self,
        update: UpdateOp,
        label: int,
        operation: OperationContext,
        pending: _PendingBatch,
        hetero_ops: List[Tuple[UpdateOp, int]],
    ) -> None:
        """Place one update and queue it for its owner."""
        owner, promoted_from = self._place_for_update(update, operation)
        if promoted_from is not None:
            # The source was promoted to the host while this batch was
            # being partitioned: updates already queued for its old
            # module must follow it (in their batch order), or they
            # would be applied to a row that no longer lives there.
            for kind, src, dst, queued_label in pending.requeue_source(
                update.src, promoted_from
            ):
                hetero_ops.append((UpdateOp(kind, src, dst), queued_label))
        if owner == HOST_PARTITION:
            hetero_ops.append((update, label))
        else:
            pending.queue(owner, (update.kind, update.src, update.dst, label))

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
            work = apply_update_ops(self._module_storages[module_id], entries)
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

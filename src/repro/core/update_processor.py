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

The partition step is one pass over the batch in batch order against
the placement policy itself: each update consults (and, for an insert,
extends) the partition vector once per endpoint, and a source an insert
takes past the high-degree threshold moves to the host at once.  The
updates are then routed by where each source row lives at batch end —
an update whose source was promoted during the batch follows it to the
host in its own batch position — so no queued update ever has to be
pulled back out of a module.  This module alone knows how a batch is
partitioned (the kernel ``Moctopus.use_engine`` pins is a query kernel
and has no meaning here).  All phase accounting is integer counters
folded into time once per phase.

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

from typing import Dict, List, Optional, Set, Tuple

from repro.core.hetero_storage import HeterogeneousGraphStorage
from repro.core.local_storage import BYTES_PER_ENTRY, LocalGraphStorage
from repro.core.node_migrator import NodeMigrator
from repro.core.operators import BYTES_PER_UPDATE_ITEM, OPERATOR_HEADER_BYTES
from repro.graph.digraph import DEFAULT_LABEL
from repro.graph.stream import UpdateKind, UpdateOp
from repro.partition.base import HOST_PARTITION, StreamingPartitioner
from repro.pim.stats import ExecutionStats
from repro.pim.system import OperationContext, PIMSystem


#: One queued module update, ``(kind, src, dst, label)`` (the label is
#: ignored on removal).
PendingEntry = Tuple[UpdateKind, int, int, int]

#: A batch's module payloads: per module, its entries in batch order and
#: the operator kinds (``add``/``sub``) it was sent, modules in the order
#: they were first sent an op.
ModuleOps = Dict[int, Tuple[List[PendingEntry], Set[UpdateKind]]]


class UpdateProcessor:
    """Executes batches of edge insertions/deletions on the simulated system."""

    def __init__(
        self,
        pim_system: PIMSystem,
        policy: StreamingPartitioner,
        module_storages: List[LocalGraphStorage],
        host_storage: HeterogeneousGraphStorage,
        node_migrator: NodeMigrator,
    ) -> None:
        self._pim = pim_system
        self._policy = policy
        #: The map's own owner lookup (one frame per read).
        self._partition_of = policy.partition_map.partition_of
        self._module_storages = module_storages
        self._host_storage = host_storage
        self._migrator = node_migrator
        #: Bytes of the ``node_partition_vector`` as of the current
        #: batch's start: the working set every partition-vector access
        #: of the batch is charged against.  Read once per batch — nodes
        #: the partition phase places do not grow it mid-batch.  The map
        #: stores the vector as ``int16``, but the charge is placed nodes
        #: x 2 B on purpose, not the array's ``nbytes`` (its spare length
        #: and side table are storage detail), so simulated time stays put.
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
        self._vector_bytes = len(self._policy.partition_map) * 2

        promoted: Set[int] = set()
        with operation.phase("partition"):
            owners = [self._place(update, operation, promoted) for update in ops]
        module_ops, hetero_ops = self._route(ops, labels, owners, promoted)

        with operation.phase("dispatch"):
            dispatched_items = sum(len(entries) for entries, _ in module_ops.values())
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
    # Partition: place, then route
    # ------------------------------------------------------------------
    def _place(
        self, update: UpdateOp, operation: OperationContext, promoted: Set[int]
    ) -> Optional[int]:
        """Place one update's endpoints; the owner of its source row now
        (``None`` when a delete names a source never placed).

        A source this insert takes past the high-degree threshold joins
        ``promoted``, and its row moves to the host now.
        """
        operation.host.process_items(1)
        src = update.src
        if update.kind is UpdateKind.INSERT:
            owner, previous = self._policy.ingest_edge(src, update.dst)
            if owner == HOST_PARTITION and previous is not None and previous >= 0:
                self._migrator.promote_to_host(src, previous, op=operation)
                promoted.add(src)
            # Consulting (and possibly extending) the partition vector is a
            # host-side access per endpoint over its 2 bytes per node: under
            # scaled_cost_model()'s 32 KB LLC that is cache-resident only up
            # to 16 384 nodes, and each access past that is a DRAM miss.
            operation.host.random_accesses(2, working_set_bytes=self._vector_bytes)
            return owner
        operation.host.random_accesses(1, working_set_bytes=self._vector_bytes)
        return self._partition_of(src)

    @staticmethod
    def _route(
        ops: List[UpdateOp],
        labels: Optional[List[int]],
        owners: List[Optional[int]],
        promoted: Set[int],
    ) -> Tuple[ModuleOps, List[Tuple[UpdateOp, int]]]:
        """Group the batch by where each source row lives at batch end.

        An op goes to the host when its source was on the host or
        unplaced at its turn, or was promoted during the batch; every
        other op goes to its owner module, in batch order, so a
        delete→insert of one edge keeps its sequential result.  A
        module's payload pairs its entries with the operator kinds it
        was sent: an operator whose every op then followed a promotion
        to the host still ships (empty) and launches its kernel.
        """
        module_ops: ModuleOps = {}
        hetero_ops: List[Tuple[UpdateOp, int]] = []
        for index, (update, owner) in enumerate(zip(ops, owners)):
            label = labels[index] if labels else DEFAULT_LABEL
            if owner is not None and owner >= 0:
                if owner not in module_ops:
                    module_ops[owner] = ([], set())
                entries, kinds = module_ops[owner]
                kinds.add(update.kind)
                if update.src not in promoted:
                    entries.append((update.kind, update.src, update.dst, label))
                    continue
            hetero_ops.append((update, label))
        return module_ops, hetero_ops

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def _apply_module_updates(
        self,
        operation: OperationContext,
        module_ops: ModuleOps,
    ) -> None:
        """Apply each module's slice of the batch in true batch order —
        the module-side half of the ``add``/``sub`` operators.

        The ``add`` and ``sub`` operators still dispatch (and charge one
        kernel launch each) per module, but their entries are applied
        interleaved by batch position: applying all adds before all subs
        would resolve a delete→insert of the same edge within one batch
        to *absent* instead of the sequential result.  Each entry costs
        one hash-map lookup and one item, plus the bytes of the row it
        reads before it writes.
        """
        for module_id, (entries, kinds) in module_ops.items():
            module = operation.module(module_id)
            for _ in range(len(kinds)):  # one add and/or one sub operator
                module.launch_kernel()
            storage = self._module_storages[module_id]
            streamed = 0
            for kind, src, dst, label in entries:
                streamed += storage.row_length(src) * BYTES_PER_ENTRY
                if kind is UpdateKind.INSERT:
                    storage.add_edge(src, dst, label)
                else:
                    storage.remove_edge(src, dst)
            module.random_accesses(len(entries))
            module.stream_bytes(streamed)
            module.process_items(len(entries))

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

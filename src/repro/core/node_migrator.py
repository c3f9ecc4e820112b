"""The Node Migrator (the adaptive half of greedy-adaptive partitioning).

The radical greedy heuristic is deliberately imprecise: it places a node
next to its *first* neighbor without checking the rest.  While
processing path-matching queries, PIM modules report nodes that miss
most of their next hops locally; after the query finishes, the host CPU
migrates those nodes to the partition holding most of their neighbors,
restoring graph locality at a cost proportional to the (small) number of
misplaced nodes.

The migrator is also responsible for the labor-division moves: when a
node's out-degree crosses the high-degree threshold, its row is promoted
from its PIM module to the host's heterogeneous storage.

Every row move goes through the storages' ``remove_row``/``insert_row``
pair, which records the move in each storage's snapshot
:class:`~repro.core.snapshot.DeltaOverlay` — a migration dirties exactly
two rows (one per storage), so the next query's snapshot refresh splices
rather than rebuilds.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.hetero_storage import HeterogeneousGraphStorage
from repro.core.local_storage import BYTES_PER_ENTRY, LocalGraphStorage
from repro.core.partitioner import GraphPartitioner
from repro.partition.base import HOST_PARTITION
from repro.pim.system import OperationContext


class NodeMigrator:
    """Relocates misplaced nodes and promotes new high-degree nodes."""

    def __init__(
        self,
        partitioner: GraphPartitioner,
        module_storages: List[LocalGraphStorage],
        host_storage: HeterogeneousGraphStorage,
        capacity_factor: float = 1.05,
    ) -> None:
        self._partitioner = partitioner
        self._module_storages = module_storages
        self._host_storage = host_storage
        #: Same capacity-constraint proportion as the partitioner: a node
        #: is only migrated when the target module has headroom, so the
        #: adaptive phase cannot undo the load balance the greedy phase
        #: enforced.
        self._capacity_factor = capacity_factor
        #: Nodes reported as misplaced since the last migration pass.
        self._pending: Dict[int, Tuple[int, int]] = {}
        #: Lifetime number of locality migrations performed.
        self.migrations_performed = 0
        #: Lifetime number of promotions to the host performed.
        self.promotions_performed = 0
        #: ``(node, from_module, to_module)`` moves of the most recent
        #: :meth:`apply_migrations` pass — the partition-map change
        #: journal the durability layer appends to the WAL.
        self.last_moves: List[Tuple[int, int, int]] = []

    # ------------------------------------------------------------------
    # Reporting (called by the query processor with module reports)
    # ------------------------------------------------------------------
    def report_misplaced(self, node: int, local: int, remote: int) -> None:
        """Record that ``node`` missed most of its next hops locally."""
        self._pending[node] = (local, remote)

    @property
    def pending_reports(self) -> int:
        """Number of nodes currently reported as misplaced."""
        return len(self._pending)

    # ------------------------------------------------------------------
    # Locality migration
    # ------------------------------------------------------------------
    def _majority_partition(self, node: int, current: int) -> Optional[int]:
        """PIM partition holding most of ``node``'s next hops.

        Returns ``None`` unless some other partition holds *strictly more*
        next hops than the current one — moving on a tie would only churn.
        """
        storage = self._module_storages[current]
        votes: Dict[int, int] = {}
        for destination in storage.next_hops(node):
            partition = self._partitioner.partition_of(destination)
            if partition is None or partition == HOST_PARTITION:
                continue
            votes[partition] = votes.get(partition, 0) + 1
        if not votes:
            return None
        target, count = max(votes.items(), key=lambda item: (item[1], -item[0]))
        if target != current and count <= votes.get(current, 0):
            return None
        return target

    def _target_has_headroom(self, target: int) -> bool:
        sizes = self._partitioner.partition_map.pim_sizes()
        average = sum(sizes) / max(1, len(sizes))
        return sizes[target] + 1 <= self._capacity_factor * max(average, 1.0)

    def apply_migrations(
        self,
        op: Optional[OperationContext] = None,
        limit: int = 4096,
    ) -> int:
        """Migrate reported nodes to their majority partitions.

        Parameters
        ----------
        op:
            Operation context to charge migration costs against (row data
            crosses the inter-PIM channel, host updates the partition
            vector).  ``None`` performs the moves without accounting,
            which is what bulk loading uses.
        limit:
            Maximum number of nodes to migrate in this pass.

        Returns
        -------
        int
            Number of nodes actually migrated.
        """
        self.last_moves = []
        if not self._pending:
            return 0
        migrated = 0
        # Sorted by node id so the outcome is independent of report
        # order: the execution engines discover misplaced nodes in
        # different orders, but headroom checks (and the migration limit)
        # must resolve identically for every backend.
        for node in sorted(self._pending):
            if migrated >= limit:
                break
            local, remote = self._pending.pop(node)
            current = self._partitioner.partition_of(node)
            if current is None or current == HOST_PARTITION:
                continue
            target = self._majority_partition(node, current)
            if target is None or target == current:
                continue
            if not self._target_has_headroom(target):
                continue
            entries = self._module_storages[current].remove_row(node)
            self._module_storages[target].insert_row(node, entries)
            self._partitioner.migrate(node, target)
            migrated += 1
            self.migrations_performed += 1
            self.last_moves.append((node, current, target))
            if op is not None:
                row_bytes = max(1, len(entries)) * BYTES_PER_ENTRY
                op.ipc_transfer(row_bytes, src_module=current, dst_module=target)
                op.module(current).random_accesses(1)
                op.module(target).random_accesses(1)
                op.module(target).process_items(len(entries))
                op.host.process_items(1)
        self._pending.clear()
        return migrated

    def replay_move(self, node: int, source: int, target: int) -> None:
        """Redo one journaled migration during recovery.

        The decision was already made (and logged) by the original run;
        replay just moves the row and the partition-map entry, with no
        simulated accounting — the original pass charged it, and
        lifetime platform counters are restored from the checkpoint.
        """
        if source == HOST_PARTITION or target == HOST_PARTITION:
            raise ValueError("migration journal entries move between PIM modules")
        entries = self._module_storages[source].remove_row(node)
        self._module_storages[target].insert_row(node, entries)
        self._partitioner.migrate(node, target)
        self.migrations_performed += 1

    def clear_pending(self) -> None:
        """Drop all pending reports.

        Recovery calls this after replaying a ``MIGRATIONS`` journal
        record: the original :meth:`apply_migrations` pass consumed
        *every* report (including ones it skipped for headroom or tie
        votes), so reports restored from an older checkpoint must not
        outlive the replayed pass — they would migrate nodes the
        uncrashed run never touched.
        """
        self._pending.clear()

    def capture_pending(self) -> List[Tuple[int, int, int]]:
        """Misplacement reports not yet migrated (checkpointed as-is)."""
        return sorted(
            (node, local, remote)
            for node, (local, remote) in self._pending.items()
        )

    def restore_pending(self, reports: np.ndarray) -> None:
        """Re-seed the pending misplacement reports from a checkpoint's
        ``(node, local, remote)`` array rows."""
        self._pending = {
            node: (local, remote) for node, local, remote in reports.tolist()
        }

    # ------------------------------------------------------------------
    # Labor-division promotion
    # ------------------------------------------------------------------
    def promote_to_host(
        self,
        node: int,
        source_partition: int,
        op: Optional[OperationContext] = None,
    ) -> None:
        """Move ``node``'s row from a PIM module to the host's storage.

        Called when the node's out-degree crosses the high-degree
        threshold.  The partition map is assumed to have been updated
        already (the labor-division partitioner does it when it observes
        the degree change); this method moves the data and charges the
        transfer.
        """
        if source_partition == HOST_PARTITION:
            return
        entries = self._module_storages[source_partition].remove_row(node)
        self._host_storage.insert_row(node, entries)
        self.promotions_performed += 1
        if op is not None:
            row_bytes = max(1, len(entries)) * BYTES_PER_ENTRY
            op.cpc_transfer(row_bytes)
            op.module(source_partition).random_accesses(1)
            op.host.process_items(len(entries))

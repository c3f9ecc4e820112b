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
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.hetero_storage import HeterogeneousGraphStorage
from repro.core.local_storage import BYTES_PER_ENTRY, LocalGraphStorage, footprint
from repro.core.snapshot import sorted_runs
from repro.partition.base import HOST_PARTITION, PartitionMap
from repro.pim.system import OperationContext

#: Misplacement reports as columns: ``(nodes, local, remote)`` int64 arrays.
_Columns = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: Capacity proportion the migrator respects when moving a node to its
#: majority partition.  The paper bounds load balance at assignment time
#: (1.05x), but migration exists purely to recover locality, so it may
#: overshoot the assignment constraint moderately: hot hubs are already
#: on the host, so node-count skew from migration is little work skew.
MIGRATION_CAPACITY_FACTOR = 1.5

_EMPTY = np.empty(0, dtype=np.int64)


def _tally(
    voters: np.ndarray, owners: np.ndarray, current: np.ndarray, num_partitions: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Votes per (voter, partition), and who is outvoted at home.

    ``voters[i]`` (a position into ``current``, in any order) casts one vote
    for ``owners[i]``; host and unknown owners vote for nobody.  Returns
    ``(parts, votes, bounds, candidates)``: voter ``v``'s tally is
    ``parts[bounds[v]:bounds[v + 1]]`` with as many ``votes`` each, and
    ``candidates`` are the voters some partition holds strictly more
    votes of than ``current[v]`` does.

    Sparse, and built in place, on purpose: the pass runs while the
    batch's answer is still alive, and a dense voter x partition table
    would be the largest array after it.
    """
    on_module = owners >= 0
    # One ``voter * P + partition`` key per vote; each distinct key is one
    # tally entry, ordered by voter, then partition.
    keys = voters[on_module]
    keys *= num_partitions
    keys += owners[on_module]
    keys, votes = np.unique(keys, return_counts=True)
    tally_voter, parts = np.divmod(keys, num_partitions)
    own_votes = np.zeros(len(current), dtype=np.int64)
    own = parts == current[tally_voter]
    own_votes[tally_voter[own]] = votes[own]
    outvoted = tally_voter[votes > own_votes[tally_voter]]
    order, runs = sorted_runs(outvoted)
    candidates = outvoted[order[runs[:-1]]]
    bounds = np.searchsorted(tally_voter, np.arange(len(current) + 1))
    return parts, votes, bounds, candidates


def _later_fans(
    nodes: np.ndarray, dsts: np.ndarray, voters: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per pending node, the later voters holding an edge to it.

    A move changes the tally of every pending node that points at the
    moved one and is decided after it.  Returns ``(fans, bounds)``: the
    voters to patch when ``nodes[v]`` moves are
    ``fans[bounds[v]:bounds[v + 1]]``.
    """
    position = np.minimum(np.searchsorted(nodes, dsts), len(nodes) - 1)
    later = (nodes[position] == dsts) & (voters > position)
    position = position[later]
    order = np.argsort(position, kind="stable")
    bounds = np.searchsorted(position[order], np.arange(len(nodes) + 1))
    return voters[later][order], bounds


class NodeMigrator:
    """Relocates misplaced nodes and promotes new high-degree nodes."""

    def __init__(
        self,
        partition_map: PartitionMap,
        module_storages: List[LocalGraphStorage],
        host_storage: HeterogeneousGraphStorage,
        capacity_factor: float,
    ) -> None:
        #: The ``node_partition_vector`` a move rewrites.
        self._map = partition_map
        self._module_storages = module_storages
        self._host_storage = host_storage
        #: A node only moves to a module whose node count stays within
        #: this proportion of the average (the system passes
        #: :data:`MIGRATION_CAPACITY_FACTOR`).
        self._capacity_factor = capacity_factor
        #: Reports since the last migration pass, one column chunk per
        #: expansion, in arrival order.
        self._reports: List[_Columns] = []
        #: Whether ``_reports`` is the single merged chunk of :meth:`_pending`.
        self._merged = True
        #: Lifetime number of locality migrations performed.
        self.migrations_performed = 0
        #: ``(node, from_module, to_module)`` moves of the most recent
        #: :meth:`apply_migrations` pass — the partition-map change
        #: journal the durability layer appends to the WAL.
        self.last_moves: List[Tuple[int, int, int]] = []

    # ------------------------------------------------------------------
    # Reporting (called by the query processor with module reports)
    # ------------------------------------------------------------------
    def report_misplaced(self, nodes, local, remote) -> None:
        """Record that ``nodes`` missed most of their next hops locally.

        Columns (arrays or sequences) of equal length: per node, how many
        of its next hops were ``local`` and how many ``remote``.
        """
        self._reports.append(
            (
                np.asarray(nodes, dtype=np.int64),
                np.asarray(local, dtype=np.int64),
                np.asarray(remote, dtype=np.int64),
            )
        )
        self._merged = False

    def _pending(self) -> _Columns:
        """The reports merged: ascending node ids, each node's latest report."""
        if not self._reports:
            return _EMPTY, _EMPTY, _EMPTY
        if not self._merged:
            nodes, local, remote = (
                np.concatenate(column) for column in zip(*self._reports)
            )
            order = np.argsort(nodes, kind="stable")
            nodes = nodes[order]
            latest = np.ones(len(nodes), dtype=bool)
            np.not_equal(nodes[1:], nodes[:-1], out=latest[:-1])
            order = order[latest]
            self._reports = [(nodes[latest], local[order], remote[order])]
            self._merged = True
        return self._reports[0]

    @property
    def pending_reports(self) -> int:
        """Number of nodes currently reported as misplaced."""
        return len(self._pending()[0])

    # ------------------------------------------------------------------
    # Locality migration
    # ------------------------------------------------------------------
    def _target_has_headroom(self, node: int, source: int, target: int) -> bool:
        """Whether ``target`` may take ``node``: its node count stays within
        the capacity factor, and its memory holds ``node``'s row."""
        partition_map = self._map
        average = partition_map.pim_total() / max(1, partition_map.num_partitions)
        if partition_map.size(target) + 1 > self._capacity_factor * max(average, 1.0):
            return False
        row_length = self._module_storages[source].row_length(node)
        return self._module_storages[target].fits(footprint(1, row_length))

    def _move_row(self, node: int, source: int, target: int) -> int:
        """Move ``node``'s row and partition-map entry; the row's length."""
        entries = self._module_storages[source].remove_row(node)
        self._module_storages[target].insert_row(node, entries)
        self._map.assign(node, target)
        self.migrations_performed += 1
        return len(entries)

    def _next_hops(
        self, nodes: np.ndarray, current: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The live next hops of ``nodes`` (on modules ``current``) as edge
        columns ``(voters, dsts)``: ``dsts[i]`` is a next hop of
        ``nodes[voters[i]]``.  One read per module, so the edges come
        grouped by module; the vote does not depend on their order."""
        by_module = np.argsort(current, kind="stable")
        bounds = np.searchsorted(
            current[by_module], np.arange(len(self._module_storages) + 1)
        ).tolist()
        lengths, dsts = zip(
            *(
                storage.gather_dsts(nodes[by_module[low:high]])
                for storage, low, high in zip(self._module_storages, bounds, bounds[1:])
                if high > low
            )
        )
        return np.repeat(by_module, np.concatenate(lengths)), np.concatenate(dsts)

    def apply_migrations(self, op: OperationContext, limit: int = 4096) -> int:
        """Migrate reported nodes to their majority partitions.

        A node moves to the PIM partition holding *strictly more* of its
        next hops than its current one (the lowest partition id among
        equals; moving on a tie would only churn), if that partition has
        headroom: room for one more node under the capacity factor, and
        local memory for the node's row (a module that cannot take the
        row leaves the node where it is).  Nodes are decided in ascending
        id order — the engines discover misplaced nodes in different
        orders, but headroom checks and the migration limit must resolve
        identically for every backend — and each decision sees the moves
        made before it.

        The vote is columnar: the pending nodes' rows are read live (never
        through a publish: a pass after a small scalar query must not pay
        the splice the next query might never need; see
        ``LocalGraphStorage.gather_dsts``), their
        next hops resolve to owners in one lookup and one sort tallies the
        votes per (node, partition).  Only the nodes some other partition
        outvotes their own on are then walked one by one.

        Parameters
        ----------
        op:
            Operation context to charge migration costs against (row data
            crosses the inter-PIM channel, host updates the partition
            vector).
        limit:
            Maximum number of nodes to migrate in this pass; the reports
            left over are discarded with the rest.

        Returns
        -------
        int
            Number of nodes actually migrated.
        """
        self.last_moves = []
        nodes = self._pending()[0]
        self.clear_pending()
        if not nodes.size:
            return 0
        owners_of = self._map.owners_of
        current = owners_of(nodes)
        on_module = current >= 0  # neither the host nor unknown
        nodes, current = nodes[on_module], current[on_module]
        if not nodes.size:
            return 0

        voters, dsts = self._next_hops(nodes, current)
        tally_part, tally_votes, tally_bounds, candidates = _tally(
            voters, owners_of(dsts), current, self._map.num_partitions
        )
        if not candidates.size:
            return 0
        fans, fan_bounds = _later_fans(nodes, dsts, voters)

        def tally_of(voter: int) -> Dict[int, int]:
            start, stop = tally_bounds[voter], tally_bounds[voter + 1]
            return dict(
                zip(tally_part[start:stop].tolist(), tally_votes[start:stop].tolist())
            )

        heap = candidates.tolist()  # ascending, so already a heap
        candidates = set(heap)
        patched: Dict[int, Dict[int, int]] = {}
        migrated = 0
        while heap and migrated < limit:
            voter = heappop(heap)
            votes = patched.pop(voter, None) or tally_of(voter)
            source = int(current[voter])
            target = min(votes, key=lambda part: (-votes[part], part))
            if votes[target] <= votes.get(source, 0):
                continue
            node = int(nodes[voter])
            if not self._target_has_headroom(node, source, target):
                continue
            row_length = self._move_row(node, source, target)
            migrated += 1
            self.last_moves.append((node, source, target))
            op.ipc_transfer(max(1, row_length) * BYTES_PER_ENTRY)
            op.module(source).random_accesses(1)
            op.module(target).random_accesses(1)
            op.module(target).process_items(row_length)
            op.host.process_items(1)
            for fan in fans[fan_bounds[voter]:fan_bounds[voter + 1]].tolist():
                votes = patched.get(fan)
                if votes is None:
                    # First patch of a voter still ahead of the walk: it
                    # is queued already only if it was a candidate.
                    votes = patched[fan] = tally_of(fan)
                    if fan not in candidates:
                        heappush(heap, fan)
                if votes[source] == 1:
                    del votes[source]
                else:
                    votes[source] -= 1
                votes[target] = votes.get(target, 0) + 1
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
        self._move_row(node, source, target)

    def clear_pending(self) -> None:
        """Drop all pending reports.

        Recovery calls this after replaying a ``MIGRATIONS`` journal
        record: the original :meth:`apply_migrations` pass consumed
        *every* report (including ones it skipped for headroom or tie
        votes), so reports restored from an older checkpoint must not
        outlive the replayed pass — they would migrate nodes the
        uncrashed run never touched.
        """
        self._reports = []
        self._merged = True

    def capture_pending(self) -> List[Tuple[int, int, int]]:
        """Misplacement reports not yet migrated (checkpointed as-is)."""
        return list(zip(*(column.tolist() for column in self._pending())))

    def restore_pending(self, reports: np.ndarray) -> None:
        """Re-seed the pending misplacement reports from a checkpoint's
        ``(node, local, remote)`` array rows."""
        self.clear_pending()
        if len(reports):
            self.report_misplaced(reports[:, 0], reports[:, 1], reports[:, 2])

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
        if op is not None:
            row_bytes = max(1, len(entries)) * BYTES_PER_ENTRY
            op.cpc_transfer(row_bytes)
            op.module(source_partition).random_accesses(1)
            op.host.process_items(len(entries))

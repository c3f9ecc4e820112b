"""Adaptive repartitioning (Vaquero et al., SOCC 2013 style).

The *adaptive* family the paper contrasts with: nodes are initially
assigned by a hash function, then the system iteratively migrates nodes
toward the partition holding most of their neighbors.  It supports
dynamic graphs (no prior knowledge needed) but pays a large
communication price: every migration moves a node's adjacency data
between computing nodes.

Moctopus's greedy-adaptive method borrows the migration idea but only
applies it to the few nodes the radical greedy heuristic got wrong, so
its migration volume is a small fraction of a full adaptive pass.  The
implementation here is used by the partitioner ablation benchmark.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.partition.base import StreamingPartitioner
from repro.partition.hash_partition import stable_node_hash


class AdaptivePartitioner(StreamingPartitioner):
    """Hash placement plus iterative neighbor-majority migration."""

    name = "adaptive"

    def __init__(
        self,
        num_partitions: int,
        imbalance_tolerance: float = 1.10,
        salt: int = 0x9E3779B1,
    ) -> None:
        super().__init__(num_partitions)
        if imbalance_tolerance < 1.0:
            raise ValueError("imbalance_tolerance must be >= 1.0")
        self.imbalance_tolerance = imbalance_tolerance
        self._salt = salt
        #: Undirected neighborhood observed from the edge stream.
        self._neighbors: Dict[int, Set[int]] = {}
        #: Total node migrations performed (the overhead metric).
        self.migrations = 0

    # ------------------------------------------------------------------
    def ingest_edge(self, src: int, dst: int) -> Tuple[int, Optional[int]]:
        """Observe the edge and keep the neighborhood index current."""
        self._neighbors.setdefault(src, set()).add(dst)
        self._neighbors.setdefault(dst, set()).add(src)
        return super().ingest_edge(src, dst)

    def assign_node(self, node: int, first_neighbor: Optional[int] = None) -> int:
        """Initial placement: plain hash (locality recovered later by migration)."""
        partition = stable_node_hash(node, self._salt) % self.num_partitions
        self.partition_map.assign(node, partition)
        return partition

    # ------------------------------------------------------------------
    def _majority_partition(self, node: int) -> Optional[int]:
        """Partition holding the most neighbors of ``node`` (None if isolated)."""
        votes: Dict[int, int] = {}
        for neighbor in self._neighbors.get(node, ()):  # pragma: no branch
            partition = self.partition_map.partition_of(neighbor)
            if partition is not None:
                votes[partition] = votes.get(partition, 0) + 1
        if not votes:
            return None
        best_partition, _ = max(votes.items(), key=lambda item: (item[1], -item[0]))
        return best_partition

    def _capacity_limit(self) -> float:
        assigned = len(self.partition_map)
        average = assigned / self.num_partitions if self.num_partitions else 0.0
        return self.imbalance_tolerance * max(average, 1.0)

    def migration_round(self) -> int:
        """One migration sweep; returns the number of nodes moved.

        Every node an edge mentions is examined, in first-mention order
        (an isolated node has no votes); if most of its neighbors live on
        a different partition and that partition is under the imbalance
        limit, the node moves there.
        """
        moved = 0
        limit = self._capacity_limit()
        for node in self._neighbors:
            target = self._majority_partition(node)
            if target is None or target == self.partition_map.partition_of(node):
                continue
            if self.partition_map.size(target) + 1 > limit:
                continue
            self.partition_map.assign(node, target)
            moved += 1
        self.migrations += moved
        return moved

    def converge(self, max_rounds: int = 10) -> int:
        """Run migration rounds until no node moves (or ``max_rounds``)."""
        total = 0
        for _ in range(max_rounds):
            moved = self.migration_round()
            total += moved
            if moved == 0:
                break
        return total

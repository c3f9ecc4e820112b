"""The paper's radical greedy heuristic with a dynamic capacity constraint.

Placement rule (Section 3.2.2):

1. When a node appears for the first time (as an endpoint of its first
   edge), assign it to the partition housing its **first neighbor** —
   no scan over all P partitions, O(1) state lookup in the
   ``node_partition_vector``.
2. If that target partition is over the **dynamic capacity constraint**
   (1.05x the average number of assigned nodes across PIM modules), the
   node is instead placed on an under-capacity partition chosen by a
   hash, which enforces load balance at the cost of a little locality.
3. Nodes the heuristic gets wrong (most of their next hops live
   elsewhere) are detected during path matching and migrated later by
   the node migrator — that adaptive half lives in
   :mod:`repro.core.node_migrator`; this module only implements the
   greedy half plus the bookkeeping both halves share.
"""

from __future__ import annotations

from typing import Optional

from repro.partition.base import StreamingPartitioner
from repro.partition.hash_partition import stable_node_hash

#: The paper's capacity-constraint proportion: 1.05x the average.
DEFAULT_CAPACITY_FACTOR = 1.05


class RadicalGreedyPartitioner(StreamingPartitioner):
    """First-neighbor placement with a dynamic capacity constraint.

    Parameters
    ----------
    num_partitions:
        Number of PIM partitions.
    capacity_factor:
        Multiple of the average partition size above which a partition
        stops accepting new nodes (the paper uses 1.05).  Lowering it
        tightens balance but hurts locality; the A2 ablation sweeps it.
    salt:
        Salt of the fallback hash used when the preferred partition is
        full.
    """

    def __init__(
        self,
        num_partitions: int,
        capacity_factor: float = DEFAULT_CAPACITY_FACTOR,
        min_capacity: int = 16,
        salt: int = 0x51ED270,
    ) -> None:
        super().__init__(num_partitions)
        if not capacity_factor >= 1.0:  # written so that nan is refused too
            raise ValueError("capacity_factor must be >= 1.0")
        if min_capacity < 1:
            raise ValueError("min_capacity must be at least 1")
        self.capacity_factor = capacity_factor
        #: Absolute floor of the constraint.  While the graph is still tiny
        #: the relative constraint would forbid every co-location (1.05x of
        #: a near-zero average is below one node); a handful of nodes can
        #: never cause meaningful imbalance, so partitions may always grow
        #: to this floor.
        self.min_capacity = min_capacity
        self._salt = salt
        #: Placements that followed the first neighbor (locality wins).
        self.greedy_placements = 0
        #: Placements diverted by the capacity constraint or lack of a
        #: placed neighbor (hash fallback).
        self.fallback_placements = 0

    # ------------------------------------------------------------------
    def capacity_limit(self) -> float:
        """Current dynamic capacity: ``factor * average assigned nodes``.

        The constraint grows with the graph ("increasing with graph
        scale"), so early placements are never starved.
        """
        average = self.partition_map.pim_total() / self.num_partitions
        return max(self.capacity_factor * average, float(self.min_capacity))

    def _under_capacity(self, partition: int, limit: float) -> bool:
        return self.partition_map.size(partition) + 1 <= limit

    def _hash_fallback(self, node: int, limit: float) -> int:
        """Pick an under-capacity partition by hashing, as the paper describes."""
        start = stable_node_hash(node, self._salt) % self.num_partitions
        for offset in range(self.num_partitions):
            candidate = (start + offset) % self.num_partitions
            if self._under_capacity(candidate, limit):
                return candidate
        # Every partition is at the limit (can only happen transiently for
        # tiny graphs); fall back to the least loaded one.
        sizes = self.partition_map.pim_sizes()
        return min(range(self.num_partitions), key=lambda partition: sizes[partition])

    def assign_node(self, node: int, first_neighbor: Optional[int] = None) -> int:
        """Place ``node`` next to its first neighbor when capacity allows."""
        # Only the placement itself moves the limit: compute it once.
        limit = self.capacity_limit()
        if first_neighbor is not None:
            preferred = self.partition_map.partition_of(first_neighbor)
            if (
                preferred is not None
                and preferred >= 0
                and self._under_capacity(preferred, limit)
            ):
                self.partition_map.assign(node, preferred)
                self.greedy_placements += 1
                return preferred

        partition = self._hash_fallback(node, limit)
        self.partition_map.assign(node, partition)
        self.fallback_placements += 1
        return partition

    # ------------------------------------------------------------------
    def migrate(self, node: int, target_partition: int) -> None:
        """Move an already-placed node (the adaptive half calls this)."""
        if not self.partition_map.is_assigned(node):
            raise KeyError(f"node {node} has not been assigned yet")
        self.partition_map.assign(node, target_partition)

    @property
    def placement_decisions(self) -> int:
        """Total number of nodes this partitioner has placed."""
        return self.greedy_placements + self.fallback_placements

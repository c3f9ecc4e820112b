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

from typing import Dict, List, Optional

import numpy as np

from repro.partition.base import UNKNOWN, StreamingPartitioner
from repro.partition.hash_partition import stable_node_hash

#: The paper's capacity-constraint proportion: 1.05x the average.
DEFAULT_CAPACITY_FACTOR = 1.05

#: Salt of the fallback hash used when the preferred partition is full.
FALLBACK_SALT = 0x51ED270


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
    """

    name = "radical_greedy"
    migrates = True

    def __init__(
        self,
        num_partitions: int,
        capacity_factor: float = DEFAULT_CAPACITY_FACTOR,
        min_capacity: int = 16,
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

    # ------------------------------------------------------------------
    def _hash_fallback(self, node: int, limit: float, sizes: List[int]) -> int:
        """Pick an under-capacity partition by hashing, as the paper describes."""
        count = self.num_partitions
        start = stable_node_hash(node, FALLBACK_SALT) % count
        for offset in range(count):
            candidate = (start + offset) % count
            if sizes[candidate] + 1 <= limit:
                return candidate
        # Every partition is at the limit (can only happen transiently for
        # tiny graphs); fall back to the least loaded one.
        return min(range(count), key=sizes.__getitem__)

    def assign_node(self, node: int, first_neighbor: Optional[int] = None) -> int:
        """Place ``node`` next to its first neighbor when capacity allows."""
        return self.assign_nodes([node], [first_neighbor])[0]

    def assign_nodes(
        self, nodes: List[int], first_neighbors: List[Optional[int]]
    ) -> List[int]:
        """Place a run of distinct new nodes in order, by the rule above.

        Each node is placed as :meth:`assign_node` would place it after
        the ones before it: the capacity limit and the partition sizes
        move with every placement, and a first neighbor placed earlier in
        the run counts.  It reads the sizes and its neighbors' owners once
        and writes its placements once (:meth:`PartitionMap.assign_new`).
        """
        partition_map = self.partition_map
        neighbors = [-1 if n is None else n for n in first_neighbors]  # -1: never placed
        owners = partition_map.owners_of(np.array(neighbors, dtype=np.int64)).tolist()
        sizes = partition_map.pim_sizes()
        total = partition_map.pim_total()
        count = self.num_partitions
        factor = self.capacity_factor
        floor = float(self.min_capacity)
        placed: Dict[int, int] = {}
        partitions: List[int] = []
        append = partitions.append
        greedy = 0
        for node, neighbor, partition in zip(nodes, first_neighbors, owners):
            # The dynamic capacity grows with the graph ("increasing with
            # graph scale"), so early placements are never starved.
            limit = factor * (total / count)
            if limit < floor:
                limit = floor
            if partition == UNKNOWN:
                partition = placed.get(neighbor)
            if partition is None or partition < 0 or sizes[partition] + 1 > limit:
                partition = self._hash_fallback(node, limit, sizes)
            else:
                greedy += 1
            sizes[partition] += 1
            total += 1
            placed[node] = partition
            append(partition)
        partition_map.assign_new(nodes, partitions)
        self.greedy_placements += greedy
        self.fallback_placements += len(partitions) - greedy
        return partitions

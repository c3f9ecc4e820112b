"""Linear Deterministic Greedy (LDG) streaming partitioning.

Stanton & Kliot (SIGKDD 2012).  LDG assigns an arriving node to the
partition that already contains most of its neighbors, damped by a
capacity penalty so partitions stay balanced:

``score(p) = |neighbors(v) on p| * (1 - size(p) / capacity)``

The paper uses LDG as the representative of the *greedy* family: it
preserves locality well but (a) every placement scans all P partitions,
which is expensive when P is in the tens or hundreds of PIM modules, and
(b) the capacity term needs the final number of nodes up front, which a
dynamic graph database does not know.  Moctopus's radical greedy
heuristic trades a little locality for O(1) placement; this
implementation exists as the comparison point for the partitioner
ablation benchmark.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.partition.base import StreamingPartitioner


class LDGPartitioner(StreamingPartitioner):
    """Streaming LDG over arriving edges.

    Parameters
    ----------
    num_partitions:
        Number of PIM partitions.
    expected_nodes:
        The total node count LDG's capacity term assumes.  LDG needs this
        prior knowledge — exactly the limitation the paper points out.
    """

    name = "ldg"

    def __init__(self, num_partitions: int, expected_nodes: int) -> None:
        super().__init__(num_partitions)
        if expected_nodes <= 0:
            raise ValueError("expected_nodes must be positive")
        self.expected_nodes = expected_nodes
        self._capacity = max(1.0, expected_nodes / num_partitions)
        #: Neighbors observed so far for each node (both directions),
        #: maintained incrementally from the edge stream.
        self._neighbors: Dict[int, Set[int]] = {}
        #: Number of partitions scanned across all placements — the
        #: partitioning-overhead metric the ablation reports.
        self.partitions_scanned = 0

    # ------------------------------------------------------------------
    def _observe_edge(self, src: int, dst: int) -> None:
        self._neighbors.setdefault(src, set()).add(dst)
        self._neighbors.setdefault(dst, set()).add(src)

    def ingest_edge(self, src: int, dst: int):
        """Record the edge before placement so scores see it."""
        self._observe_edge(src, dst)
        return super().ingest_edge(src, dst)

    def assign_node(self, node: int, first_neighbor: Optional[int] = None) -> int:
        """Place ``node`` on the partition with the best damped neighbor score."""
        neighbors = self._neighbors.get(node, set())
        if first_neighbor is not None:
            neighbors = neighbors | {first_neighbor}
        best_partition = 0
        best_score = float("-inf")
        for partition in range(self.num_partitions):
            self.partitions_scanned += 1
            size = self.partition_map.size(partition)
            neighbor_count = sum(
                1 for neighbor in neighbors
                if self.partition_map.partition_of(neighbor) == partition
            )
            score = neighbor_count * (1.0 - size / self._capacity)
            # Deterministic tie-break: emptier partition wins, then lower id.
            if score > best_score or (
                score == best_score
                and size < self.partition_map.size(best_partition)
            ):
                best_partition = partition
                best_score = score
        self.partition_map.assign(node, best_partition)
        return best_partition

"""Labor division: high-degree nodes to the host, low-degree nodes to PIM.

Section 3.2.1 of the paper.  Real graphs are skewed; a handful of hub
nodes have enormous next-hop lists.  Keeping hubs on PIM modules both
overloads whichever module owns them (load imbalance) and wastes the
host CPU, which is precisely good at streaming long contiguous arrays.
The labor-division approach therefore:

* classifies a node as *high-degree* when its out-degree exceeds a
  threshold (the paper and Table 1 use 16);
* places high-degree nodes on the host partition;
* promotes a node from a PIM module to the host the moment its degree
  crosses the threshold as the graph grows (performed by the node
  migrator in :mod:`repro.core.node_migrator`).

:class:`LaborDivisionPartitioner` wraps any PIM-side streaming
partitioner and adds the high-degree routing in front of it, so the
policy composes with hash, LDG or radical greedy placement for the
low-degree remainder.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.partition.base import HOST_PARTITION, StreamingPartitioner

#: Out-degree above which a node is considered high-degree (paper: 16).
DEFAULT_HIGH_DEGREE_THRESHOLD = 16


class LaborDivisionPartitioner(StreamingPartitioner):
    """Route high-degree nodes to the host, delegate the rest."""

    def __init__(
        self,
        pim_partitioner: StreamingPartitioner,
        high_degree_threshold: int = DEFAULT_HIGH_DEGREE_THRESHOLD,
    ) -> None:
        super().__init__(pim_partitioner.num_partitions)
        if high_degree_threshold <= 0:
            raise ValueError("high_degree_threshold must be positive")
        self.high_degree_threshold = high_degree_threshold
        self._pim_partitioner = pim_partitioner
        # Share one map so callers see a single consistent view.
        self.partition_map = pim_partitioner.partition_map
        #: Out-degree observed so far per node (from the ingest stream).
        self._out_degree: Dict[int, int] = {}
        #: Nodes promoted to the host because their degree crossed the
        #: threshold after initial placement.
        self.promotions = 0

    # ------------------------------------------------------------------
    def observed_out_degree(self, node: int) -> int:
        """Out-degree of ``node`` as seen by this partitioner's edge stream."""
        return self._out_degree.get(node, 0)

    def is_high_degree(self, node: int) -> bool:
        """Whether ``node`` currently exceeds the high-degree threshold."""
        return self.observed_out_degree(node) > self.high_degree_threshold

    def assign_node(self, node: int, first_neighbor: Optional[int] = None) -> int:
        """Place a new node: host when already high-degree, PIM otherwise."""
        if self.is_high_degree(node):
            self.partition_map.assign(node, HOST_PARTITION)
            return HOST_PARTITION
        return self._pim_partitioner.assign_node(node, first_neighbor=first_neighbor)

    def ingest_edge(self, src: int, dst: int) -> Tuple[int, int]:
        """Observe an edge, place endpoints, and promote a hub if needed."""
        self._out_degree[src] = self._out_degree.get(src, 0) + 1
        self._out_degree.setdefault(dst, 0)
        src_partition, dst_partition = super().ingest_edge(src, dst)
        # The source may have just crossed the threshold: promote it.
        if src_partition != HOST_PARTITION and self.is_high_degree(src):
            self.partition_map.assign(src, HOST_PARTITION)
            self.promotions += 1
            src_partition = HOST_PARTITION
        return src_partition, dst_partition

    def pending_promotions(self) -> int:
        """Nodes still on PIM whose observed degree exceeds the threshold.

        Normally zero, because :meth:`ingest_edge` promotes eagerly; the
        accessor exists for tests and for engines that bypass the stream
        interface during bulk loads.
        """
        count = 0
        for node, degree in self._out_degree.items():
            partition = self.partition_map.partition_of(node)
            if partition is not None and partition != HOST_PARTITION:
                if degree > self.high_degree_threshold:
                    count += 1
        return count

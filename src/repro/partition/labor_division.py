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

from itertools import repeat
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.checks import require_int
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
        self.high_degree_threshold = require_int(
            "high_degree_threshold", high_degree_threshold, 1
        )
        #: The policy placing the nodes that stay on PIM modules.
        self.pim_partitioner = pim_partitioner
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

    def out_degrees(self, nodes: List[int]) -> np.ndarray:
        """:meth:`observed_out_degree` of each of ``nodes``, as an array."""
        return np.fromiter(
            map(self._out_degree.get, nodes, repeat(0)), dtype=np.int64, count=len(nodes)
        )

    def observe(self, nodes: Iterable[int], degrees: Iterable[int]) -> None:
        """Set observed out-degrees in bulk; unseen nodes enter in order."""
        self._out_degree.update(zip(nodes, degrees))

    def crossings(self, degrees: np.ndarray, added: np.ndarray) -> np.ndarray:
        """Which new out-edge takes each node past the threshold.

        Node ``i`` has out-degree ``degrees[i]`` and gains ``added[i]``
        edges; the result is the 0-based index of the edge after which
        :meth:`is_high_degree` first holds, or ``-1`` when none does (the
        node stays at or under the threshold, or was over it already).
        The bulk loader promotes at exactly these edges, as
        :meth:`ingest_edge` would have one edge at a time.
        """
        offsets = self.high_degree_threshold - degrees
        return np.where((offsets >= 0) & (offsets < added), offsets, -1)

    def promote(self, node: int) -> None:
        """Move a node that just became high-degree to the host."""
        self.partition_map.assign(node, HOST_PARTITION)
        self.promotions += 1

    def assign_node(self, node: int, first_neighbor: Optional[int] = None) -> int:
        """Place a new node: host when already high-degree, PIM otherwise."""
        if self.is_high_degree(node):
            self.partition_map.assign(node, HOST_PARTITION)
            return HOST_PARTITION
        return self.pim_partitioner.assign_node(node, first_neighbor=first_neighbor)

    def assign_nodes(
        self, nodes: List[int], first_neighbors: List[Optional[int]]
    ) -> List[int]:
        """Place a run of new nodes, as one :meth:`assign_node` each.

        A run with no high-degree node in it (every run of a bulk load:
        a node is placed before any out-edge of it is counted) is the
        PIM policy's run.
        """
        highest = max(map(self._out_degree.get, nodes, repeat(0)), default=0)
        if highest > self.high_degree_threshold:
            return super().assign_nodes(nodes, first_neighbors)
        return self.pim_partitioner.assign_nodes(nodes, first_neighbors)

    def ingest_edge(self, src: int, dst: int) -> Tuple[int, int]:
        """Observe an edge, place endpoints, and promote a hub if needed."""
        self._out_degree[src] = self._out_degree.get(src, 0) + 1
        self._out_degree.setdefault(dst, 0)
        src_partition, dst_partition = super().ingest_edge(src, dst)
        # The source may have just crossed the threshold: promote it.
        if src_partition != HOST_PARTITION and self.is_high_degree(src):
            self.promote(src)
            src_partition = HOST_PARTITION
        return src_partition, dst_partition

    def pending_promotions(self) -> int:
        """Nodes still on PIM whose observed degree exceeds the threshold.

        Zero after every load and update batch: :meth:`ingest_edge` and
        the bulk loader promote at the crossing edge itself.  Tests use
        it to assert exactly that.
        """
        count = 0
        for node, degree in self._out_degree.items():
            partition = self.partition_map.partition_of(node)
            if partition is not None and partition != HOST_PARTITION:
                if degree > self.high_degree_threshold:
                    count += 1
        return count

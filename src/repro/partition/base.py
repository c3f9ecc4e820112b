"""Common interfaces for graph partitioners.

Moctopus partitions the graph *disjointly by node* across ``1 + P``
computing nodes: the host CPU plus ``P`` PIM modules.  Throughout this
package a partition id is an integer in ``0 .. P-1`` for PIM modules and
the sentinel :data:`HOST_PARTITION` (``-1``) for the host, matching the
paper's ``node_partition_vector`` where the host is marked ``H``.

Two interaction styles are supported:

* **streaming** — :meth:`StreamingPartitioner.ingest_edge` is called for
  every arriving edge, and the partitioner decides placements on the
  fly.  This is the graph-database setting the paper targets (the
  radical greedy heuristic decides when a node's *first* edge arrives).
* **static** — :func:`partition_static_graph` replays an existing graph
  through a bare streaming partitioner, which is how the partitioner
  ablation compares policies on a generated dataset.  A
  :class:`~repro.core.system.Moctopus` loads a graph through its
  columnar bulk loader (:mod:`repro.core.bulk_load`) instead, which
  makes the same placement decisions a chunk of edges at a time.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from itertools import islice
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.graph.digraph import DiGraph

#: Partition id of the host CPU (the paper's ``H`` marker).
HOST_PARTITION = -1

#: Placement changes a :class:`PartitionMap` remembers for incremental
#: consumers (the vectorized owner index); older gaps force a rebuild.
JOURNAL_CAPACITY = 4096


class PartitionMap:
    """Mutable node -> partition mapping with per-partition size tracking."""

    def __init__(self, num_partitions: int) -> None:
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        self.num_partitions = num_partitions
        self._assignment: Dict[int, int] = {}
        #: :meth:`partition_of` is the assignment dict's own ``get``: the
        #: dict is never rebound, and the lookup is the hottest call of
        #: bulk loading and update placement.
        self.partition_of = self._assignment.get
        #: Whether a node has been placed — bound the same way (the
        #: per-edge ingest asks it of both endpoints of every edge).
        self.is_assigned = self._assignment.__contains__
        self._sizes: Dict[int, int] = {partition: 0 for partition in range(num_partitions)}
        self._sizes[HOST_PARTITION] = 0
        #: Bumped on every placement change; cheap staleness check for
        #: derived lookup structures (the vectorized engine's owner
        #: vector caches against it).
        self.version = 0
        #: Ring buffer of the most recent placement changes, in order;
        #: :meth:`changes_since` serves incremental consumers from it.
        self._journal: Deque[Tuple[int, int]] = deque(maxlen=JOURNAL_CAPACITY)

    def assign(self, node: int, partition: int) -> None:
        """Place ``node`` on ``partition`` (moving it if already placed)."""
        self._validate(partition)
        previous = self._assignment.get(node)
        if previous is not None:
            self._sizes[previous] -= 1
        self._assignment[node] = partition
        self._sizes[partition] += 1
        self._journal.append((node, partition))
        self.version += 1

    def assign_new(self, nodes: List[int], partitions: List[int]) -> None:
        """:meth:`assign` each of ``nodes`` to its partition, in order.

        The nodes must be distinct and not placed yet (a placement run's
        output): the map, sizes, journal and version then end exactly as
        one :meth:`assign` per node leaves them.
        """
        if not nodes:
            return
        self._validate(min(partitions))
        self._validate(max(partitions))
        self._assignment.update(zip(nodes, partitions))
        sizes = self._sizes
        for partition in partitions:
            sizes[partition] += 1
        self._journal.extend(zip(nodes, partitions))
        self.version += len(nodes)

    def changes_since(self, version: int) -> Optional[List[Tuple[int, int]]]:
        """Placement changes after ``version``, oldest first.

        Returns ``None`` when the gap exceeds the journal capacity (the
        caller must rebuild from scratch).  ``version`` is a value of
        :attr:`version` the caller observed earlier; one journal entry is
        appended per version bump, so the delta is the last
        ``current - version`` entries.
        """
        delta = self.version - version
        if delta < 0 or delta > len(self._journal):
            return None
        if delta == 0:
            return []
        return list(islice(self._journal, len(self._journal) - delta, None))

    def partition_of(self, node: int) -> Optional[int]:
        """Partition of ``node`` or ``None`` when unassigned."""
        return self._assignment.get(node)

    def size(self, partition: int) -> int:
        """Number of nodes currently on ``partition``."""
        self._validate(partition)
        return self._sizes[partition]

    def pim_sizes(self) -> List[int]:
        """Node counts of the PIM partitions only (index = partition id)."""
        # ``_sizes`` holds the PIM partitions in id order, then the host.
        return list(islice(self._sizes.values(), self.num_partitions))

    def host_size(self) -> int:
        """Number of nodes on the host partition."""
        return self._sizes[HOST_PARTITION]

    def pim_total(self) -> int:
        """Number of nodes on all PIM partitions together (O(1))."""
        return len(self._assignment) - self._sizes[HOST_PARTITION]

    def nodes_on(self, partition: int) -> List[int]:
        """All nodes currently placed on ``partition``."""
        self._validate(partition)
        return [node for node, assigned in self._assignment.items() if assigned == partition]

    def items(self) -> Iterable[Tuple[int, int]]:
        """Iterate over ``(node, partition)`` pairs."""
        return self._assignment.items()

    def __len__(self) -> int:
        return len(self._assignment)

    def __contains__(self, node: int) -> bool:
        return node in self._assignment

    def _validate(self, partition: int) -> None:
        if partition != HOST_PARTITION and not 0 <= partition < self.num_partitions:
            raise ValueError(
                f"partition {partition} out of range "
                f"(0..{self.num_partitions - 1} or HOST_PARTITION)"
            )

    def copy(self) -> "PartitionMap":
        """Deep copy of the mapping."""
        clone = PartitionMap(self.num_partitions)
        for node, partition in self._assignment.items():
            clone.assign(node, partition)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PartitionMap(partitions={self.num_partitions}, "
            f"assigned={len(self._assignment)}, host={self.host_size()})"
        )


class StreamingPartitioner(ABC):
    """Base class for partitioners that decide placements edge by edge."""

    #: The policy's name, as a durability directory records it
    #: (:meth:`repro.core.partitioner.GraphPartitioner.record`).
    name: str
    #: Whether the node migrator repairs this policy's placements (the
    #: adaptive half of greedy-adaptive partitioning): a system reports
    #: misplaced nodes and migrates them after a query only then.
    migrates = False

    def __init__(self, num_partitions: int) -> None:
        self.num_partitions = num_partitions
        self.partition_map = PartitionMap(num_partitions)
        #: Placements that followed a node's first neighbor (locality wins).
        self.greedy_placements = 0
        #: Placements diverted by a capacity constraint or the lack of a
        #: placed neighbor.
        self.fallback_placements = 0

    @abstractmethod
    def assign_node(self, node: int, first_neighbor: Optional[int] = None) -> int:
        """Place a node seen for the first time; return its partition."""

    def assign_nodes(
        self, nodes: List[int], first_neighbors: List[Optional[int]]
    ) -> List[int]:
        """Place a run of distinct new nodes in order, as one
        :meth:`assign_node` call each; return their partitions."""
        return list(map(self.assign_node, nodes, first_neighbors))

    def ingest_edge(self, src: int, dst: int) -> Tuple[int, int]:
        """Observe the edge ``src -> dst``; place unseen endpoints.

        Returns the ``(src_partition, dst_partition)`` pair after
        placement.  The source is placed first (its first neighbor is the
        destination); the destination's first neighbor is the source —
        this mirrors the paper's Figure 1 where a new node's partition is
        derived from the first edge that mentions it.
        """
        if not self.partition_map.is_assigned(src):
            self.assign_node(src, first_neighbor=dst)
        if not self.partition_map.is_assigned(dst):
            self.assign_node(dst, first_neighbor=src)
        src_partition = self.partition_map.partition_of(src)
        dst_partition = self.partition_map.partition_of(dst)
        assert src_partition is not None and dst_partition is not None
        return src_partition, dst_partition

    def partition_of(self, node: int) -> Optional[int]:
        """Partition of ``node`` or ``None`` when unassigned."""
        return self.partition_map.partition_of(node)


def partition_static_graph(
    partitioner: StreamingPartitioner, graph: DiGraph
) -> PartitionMap:
    """Replay ``graph`` through ``partitioner`` edge by edge.

    Isolated nodes (no edges at all) are placed at the end with
    ``first_neighbor=None`` so every node ends up assigned.
    """
    for src, dst in graph.edges():
        partitioner.ingest_edge(src, dst)
    for node in graph.nodes():
        if not partitioner.partition_map.is_assigned(node):
            partitioner.assign_node(node, first_neighbor=None)
    return partitioner.partition_map

"""Common interfaces for graph partitioners.

Moctopus partitions the graph *disjointly by node* across ``1 + P``
computing nodes: the host CPU plus ``P`` PIM modules.  Throughout this
package a partition id is an integer in ``0 .. P-1`` for PIM modules and
the sentinel :data:`HOST_PARTITION` (``-1``) for the host, matching the
paper's ``node_partition_vector`` where the host is marked ``H``.

That vector is the only record of who owns a node: :class:`PartitionMap`
writes it as an ``int16`` array indexed by node id (:data:`UNKNOWN` where
nothing is placed) plus a side table for the ids too far past the
placement to index, its own lookups read it live, and every other
reader — an epoch, a session, a worker process, the node migrator —
reads it as an :class:`OwnerVector`, shared copy-on-write.

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
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph.digraph import DiGraph

#: Partition id of the host CPU (the paper's ``H`` marker).
HOST_PARTITION = -1

#: Owner code of a node id that no partition holds.
UNKNOWN = -2

#: The owner vector's entry type; a partition count it cannot hold is
#: refused (:class:`PartitionMap`).
OWNER_DTYPE = np.int16

_NO_IDS = np.empty(0, dtype=np.int64)
_NO_IDS.flags.writeable = False


def _dense_limit(count: int) -> int:
    """Ids from this one on, with ``count`` nodes placed, go in the side
    table: a dense vector may not outgrow the placement (or the one a
    bulk load will reach, :meth:`PartitionMap.reserve`) by more."""
    return 4 * count + 1024


class OwnerVector:
    """The ``node_partition_vector`` as frozen arrays.

    ``dense`` (:data:`OWNER_DTYPE`, at least one entry) holds the owner of
    every id below its length, :data:`UNKNOWN` where none is placed; the
    placed ids it does not cover are ``side_nodes`` (sorted) with their
    owners ``side_parts``.  An epoch holds one, and consecutive epochs
    hold the same one until the map is written
    (:meth:`PartitionMap.freeze`).
    """

    __slots__ = ("dense", "side_nodes", "side_parts", "_span")

    def __init__(
        self, dense: np.ndarray, side_nodes: np.ndarray, side_parts: np.ndarray
    ) -> None:
        self.dense = dense
        self.side_nodes = side_nodes
        self.side_parts = side_parts
        self._span = len(dense)

    def owner(self, node: int) -> Optional[int]:
        """Owner of ``node`` (``None`` when unplaced) — the scalar kernel's
        per-node route, so one frame."""
        if 0 <= node < self._span:
            owner = self.dense.item(node)
            return None if owner == UNKNOWN else owner
        side = self.side_nodes
        position = side.searchsorted(node)
        if position < len(side) and side.item(position) == node:
            return self.side_parts.item(position)
        return None

    def owners_of(self, nodes: np.ndarray) -> np.ndarray:
        """Owner per node as ``int64`` (:data:`UNKNOWN` when unplaced —
        negative ids included, which no write path places)."""
        inside = (nodes >= 0) & (nodes < self._span)
        owners = np.where(inside, self.dense.take(nodes, mode="clip"), np.int64(UNKNOWN))
        side = self.side_nodes
        if len(side):
            positions = np.minimum(side.searchsorted(nodes), len(side) - 1)
            found = side[positions] == nodes
            owners[found] = self.side_parts[positions[found]]
        return owners

    def table(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every placed ``(nodes, partitions)`` pair as ``int64`` columns,
        nodes ascending: two vectors hold the same placement exactly when
        their tables are equal, and a checkpoint stores this form."""
        nodes = np.flatnonzero(self.dense != UNKNOWN)
        parts = self.dense[nodes].astype(np.int64)
        if len(self.side_nodes):
            nodes = np.concatenate([nodes, self.side_nodes])
            order = np.argsort(nodes, kind="stable")
            nodes, parts = nodes[order], np.concatenate([parts, self.side_parts])[order]
        return nodes, parts

    def placed(self, node: int, partition: int) -> "OwnerVector":
        """This vector with the unplaced ``node`` on ``partition``: a new
        vector that shares every array it does not change."""
        if 0 <= node < self._span:
            dense = self.dense.copy()
            dense[node] = partition
            dense.flags.writeable = False
            return OwnerVector(dense, self.side_nodes, self.side_parts)
        position = self.side_nodes.searchsorted(node)
        side_nodes = np.insert(self.side_nodes, position, node)
        side_parts = np.insert(self.side_parts, position, partition)
        side_nodes.flags.writeable = side_parts.flags.writeable = False
        return OwnerVector(self.dense, side_nodes, side_parts)


class PartitionMap:
    """Mutable node -> partition mapping with per-partition size tracking.

    The owner vector is the only record of who owns a node: lookups read
    the live array (or the side table for far ids), and every reader
    outside the writers gets it from :meth:`freeze`.  Readers share the
    vector copy-on-write: a freeze hands out the live array read-only,
    and the next write copies it first, so a freeze with no write since
    the last one copies nothing.  Beside it the map keeps one node count
    per partition and the number of placed nodes.
    """

    def __init__(self, num_partitions: int) -> None:
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        if num_partitions > np.iinfo(OWNER_DTYPE).max + 1:
            raise ValueError(
                f"num_partitions {num_partitions} does not fit the owner vector"
                f" ({np.dtype(OWNER_DTYPE).name})"
            )
        self.num_partitions = num_partitions
        #: Node count per partition, the host's last (``HOST_PARTITION`` indexes it).
        self._sizes = [0] * (num_partitions + 1)
        #: Number of placed nodes.
        self._count = 0
        #: The owner vector: ids below ``len(_dense)`` there, the placed
        #: ids past it (:func:`_dense_limit`) in ``_side``.  Only
        #: :meth:`_grow` rebinds ``_dense``, with ``_owners``, its
        #: memoryview (the cheapest scalar read), and ``_shared``, whether
        #: a frozen vector holds it (the next write copies).
        self._dense = np.empty(0, dtype=OWNER_DTYPE)
        self._side: Dict[int, int] = {}
        self._grow(1)
        #: ``_side`` as sorted arrays (``None`` until rebuilt after a write).
        self._side_arrays: Optional[Tuple[np.ndarray, np.ndarray]] = (_NO_IDS, _NO_IDS)
        #: What the last :meth:`freeze` returned, until the next write.
        self._frozen: Optional[OwnerVector] = None

    def assign(self, node: int, partition: int) -> None:
        """Place ``node`` on ``partition`` (moving it if already placed)."""
        self._validate(partition)
        previous = self.partition_of(node)
        if previous is None:
            self._count += 1
        else:
            self._sizes[previous] -= 1
        self._sizes[partition] += 1
        dense = self._writable(node)
        if dense is None:
            self._side[node] = partition
            self._side_arrays = None
        else:
            dense[node] = partition

    def assign_new(self, nodes: List[int], partitions: List[int]) -> None:
        """:meth:`assign` each of ``nodes`` to its partition, in order.

        The nodes must be distinct and not placed yet (a placement run's
        output): the map and its sizes then end exactly as one
        :meth:`assign` per node leaves them.
        """
        if not len(nodes):
            return
        self._validate(min(partitions))
        self._validate(max(partitions))
        sizes = self._sizes
        for partition in partitions:
            sizes[partition] += 1
        self._count += len(nodes)
        self._frozen = None
        # Ids below ``bound`` go in the dense vector (growing it if need be).
        bound = max(_dense_limit(self._count), len(self._dense))
        highest = max(nodes)
        if min(nodes) < 0 or highest >= bound:
            ids, parts = np.asarray(nodes), np.asarray(partitions)
            side = (ids < 0) | (ids >= bound)
            self._side.update(zip(ids[side].tolist(), parts[side].tolist()))
            self._side_arrays = None
            nodes, partitions = ids[~side], parts[~side]
            highest = nodes.max(initial=-1)
        if highest >= 0:
            self._writable(highest)[nodes] = partitions

    def reserve(self, count: int, highest: int) -> None:
        """Size the dense vector once for ``count`` more placements with ids
        up to ``highest`` (a bulk load's): none regrows it or goes aside."""
        size = min(highest + 1, _dense_limit(self._count + count))
        if size > len(self._dense):  # a frozen vector stays valid: nothing moves
            self._grow(size)

    def _writable(self, node: int) -> Optional[np.ndarray]:
        """The dense vector, ours to write and long enough to hold
        ``node``, or ``None`` when ``node`` belongs in the side table."""
        self._frozen = None
        dense = self._dense
        if 0 <= node < len(dense):
            return self._grow(len(dense)) if self._shared else dense
        limit = _dense_limit(self._count)
        if not 0 <= node < limit:
            return None
        return self._grow(min(max(node + 1, 2 * len(dense)), limit))

    def _grow(self, size: int) -> np.ndarray:
        """A fresh dense vector of ``size`` entries (a copy when the size is
        unchanged), holding the side-table ids it covers."""
        dense = self._dense
        grown = np.full(size, UNKNOWN, dtype=OWNER_DTYPE)
        grown[: len(dense)] = dense
        covered = [side for side in self._side if 0 <= side < size]
        for side in covered:
            grown[side] = self._side.pop(side)
        if covered:
            self._side_arrays = None
        self._dense, self._owners, self._shared = grown, memoryview(grown), False
        return grown

    def _side_table(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._side_arrays is None:
            nodes = np.array(sorted(self._side), dtype=np.int64)
            parts = np.array([self._side[node] for node in nodes.tolist()], dtype=np.int64)
            nodes.flags.writeable = parts.flags.writeable = False
            self._side_arrays = (nodes, parts)
        return self._side_arrays

    def freeze(self) -> OwnerVector:
        """The owner vector as it stands, read-only; the same object until
        the map is next written."""
        frozen = self._frozen
        if frozen is None:
            dense = self._dense.view()
            dense.flags.writeable = False
            frozen = self._frozen = OwnerVector(dense, *self._side_table())
            self._shared = True
        return frozen

    def nodes(self) -> np.ndarray:
        """Every placed id, ascending, read off the live vector: unlike a
        :meth:`freeze`, it leaves the vector for the next write to keep."""
        nodes = np.flatnonzero(self._dense != UNKNOWN)
        if self._side:
            nodes = np.sort(np.concatenate([nodes, self._side_table()[0]]))
        return nodes

    def owners_of(self, nodes: np.ndarray) -> np.ndarray:
        """:meth:`OwnerVector.owners_of` on the live vector, unfrozen."""
        return OwnerVector(self._dense, *self._side_table()).owners_of(nodes)

    def partition_of(self, node: int) -> Optional[int]:
        """Partition of ``node`` or ``None`` when unassigned."""
        owners = self._owners
        if 0 <= node < len(owners):
            owner = owners[node]
            return None if owner == UNKNOWN else owner
        return self._side.get(node)

    def is_assigned(self, node: int) -> bool:
        """Whether ``node`` has been placed."""
        return self.partition_of(node) is not None

    __contains__ = is_assigned

    def size(self, partition: int) -> int:
        """Number of nodes currently on ``partition``."""
        self._validate(partition)
        return self._sizes[partition]

    def pim_sizes(self) -> List[int]:
        """Node counts of the PIM partitions only (index = partition id)."""
        return self._sizes[: self.num_partitions]

    def host_size(self) -> int:
        """Number of nodes on the host partition."""
        return self._sizes[HOST_PARTITION]

    def pim_total(self) -> int:
        """Number of nodes on all PIM partitions together (O(1))."""
        return self._count - self._sizes[HOST_PARTITION]

    def __len__(self) -> int:
        return self._count

    def _validate(self, partition: int) -> None:
        if partition != HOST_PARTITION and not 0 <= partition < self.num_partitions:
            raise ValueError(
                f"partition {partition} out of range "
                f"(0..{self.num_partitions - 1} or HOST_PARTITION)"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PartitionMap(partitions={self.num_partitions}, "
            f"assigned={self._count}, host={self.host_size()})"
        )


class StreamingPartitioner(ABC):
    """Base class for partitioners that decide placements edge by edge.

    A :class:`~repro.core.system.Moctopus` holds the one its
    ``_build_placement()`` returns: the policy places every node, and
    its :meth:`record`, :meth:`capture_state` and :meth:`restore_state`
    are what a durability directory keeps of it.
    """

    #: The policy's name, as a durability directory records it (:meth:`record`).
    name: str
    #: Whether the node migrator repairs this policy's placements (the
    #: adaptive half of greedy-adaptive partitioning): a system reports
    #: misplaced nodes and migrates them after a query only then.
    migrates = False
    #: The dynamic capacity constraint's proportion, for a policy that has one.
    capacity_factor: Optional[float] = None
    #: Nodes promoted to the host because they became high-degree (only
    #: labor division promotes).
    promotions = 0

    def __init__(self, num_partitions: int) -> None:
        self.num_partitions = num_partitions
        self.partition_map = PartitionMap(num_partitions)
        #: Placements that followed a node's first neighbor (locality wins).
        self.greedy_placements = 0
        #: Placements diverted by a capacity constraint or the lack of a
        #: placed neighbor.
        self.fallback_placements = 0

    @property
    def pim_policy(self) -> "StreamingPartitioner":
        """The policy placing the nodes that live on PIM modules: its
        counters, and whether the node migrator repairs it."""
        return self

    @abstractmethod
    def assign_node(self, node: int, first_neighbor: Optional[int] = None) -> int:
        """Place a node seen for the first time; return its partition."""

    def assign_nodes(
        self, nodes: List[int], first_neighbors: List[Optional[int]]
    ) -> List[int]:
        """Place a run of distinct new nodes in order, as one
        :meth:`assign_node` call each; return their partitions."""
        return list(map(self.assign_node, nodes, first_neighbors))

    def ingest_edge(self, src: int, dst: int) -> Tuple[int, Optional[int]]:
        """Observe the edge ``src -> dst``; place unseen endpoints.

        Returns the source's partition after the edge and before it
        (``None`` when the edge placed it), reading each endpoint's owner
        once.  The source is placed first (its first neighbor is the
        destination); the destination's first neighbor is the source —
        this mirrors the paper's Figure 1 where a new node's partition is
        derived from the first edge that mentions it.
        """
        partition_of = self.partition_map.partition_of
        previous = src_partition = partition_of(src)
        if src_partition is None:
            src_partition = self.assign_node(src, first_neighbor=dst)
        if partition_of(dst) is None:
            self.assign_node(dst, first_neighbor=src)
        return src_partition, previous

    def partition_of(self, node: int) -> Optional[int]:
        """Partition of ``node`` or ``None`` when unassigned."""
        return self.partition_map.partition_of(node)

    # ------------------------------------------------------------------
    # Durability: the placement record, checkpoint capture / restore
    # ------------------------------------------------------------------
    def record(self) -> Dict[str, object]:
        """The placement's own parameters, as a durability directory
        records them (``config.json`` and every checkpoint manifest).

        Replay re-runs placement, so recovery refuses a directory whose
        record differs from the recovering class's.  The keys are the
        config fields placement once was.
        """
        return {
            "pim_placement": self.name,
            "enable_migration": self.migrates,
            "capacity_factor": self.capacity_factor,
            "high_degree_threshold": None,
        }

    def capture_state(self) -> Dict[str, object]:
        """What future placement decisions depend on, beyond the
        ``node_partition_vector`` itself (a checkpoint takes that from
        its published epoch's frozen owner vector): the observed
        out-degrees as sorted ``(node, degree)`` array rows (none here)
        and the placement counters."""
        return {
            "out_degrees": np.empty((0, 2), dtype=np.int64),
            "greedy_placements": self.greedy_placements,
            "fallback_placements": self.fallback_placements,
            "promotions": self.promotions,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Rebuild policy state from a capture plus its ``assignments``
        (a two-column int array); the policy must be freshly built."""
        if len(self.partition_map):
            raise RuntimeError("restore_state requires an empty partitioner")
        assignments = state["assignments"]
        self.partition_map.assign_new(assignments[:, 0].tolist(), assignments[:, 1].tolist())
        self.greedy_placements = int(state["greedy_placements"])
        self.fallback_placements = int(state["fallback_placements"])


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

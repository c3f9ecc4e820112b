"""A read-only graph view over a system's own storages.

A loaded :class:`~repro.core.system.Moctopus` keeps each edge once — in
the row of the PIM module (or the host) that owns its source node.
:class:`StoredGraphView` answers the :class:`~repro.graph.digraph.
ReadableGraph` questions (reference evaluators, partition metrics,
``has_edge``) straight from those rows, routed by the node partition
vector, so the system needs no second adjacency structure.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.hetero_storage import HeterogeneousGraphStorage
from repro.core.local_storage import LocalGraphStorage
from repro.graph.digraph import DiGraph, Edge, LabeledEdge
from repro.partition.base import HOST_PARTITION, PartitionMap

#: Node ids :meth:`StoredGraphView.nodes` turns into ``int``s at a time.
_CHUNK = 4096


class StoredGraphView:
    """Partition map + module/host storages, read as one directed graph.

    *Live*: it holds references, not a copy, and always reflects the
    storages' current contents.  It has no mutators.  Nodes are the
    assigned nodes of the partition map, listed in ascending id order
    (entries within a row keep storage order), so every listing is
    deterministic whatever order updates arrived in.
    """

    __slots__ = ("_partition_map", "_module_storages", "_host_storage")

    def __init__(
        self,
        partition_map: PartitionMap,
        module_storages: Sequence[LocalGraphStorage],
        host_storage: HeterogeneousGraphStorage,
    ) -> None:
        self._partition_map = partition_map
        self._module_storages = module_storages
        self._host_storage = host_storage

    def _storage_of(self, node: int):
        """The storage holding ``node``'s row (``None`` when unplaced)."""
        partition = self._partition_map.partition_of(node)
        if partition is None:
            return None
        if partition == HOST_PARTITION:
            return self._host_storage
        return self._module_storages[partition]

    @property
    def num_nodes(self) -> int:
        """Number of stored graph nodes."""
        return len(self._partition_map)

    @property
    def num_edges(self) -> int:
        """Number of stored edges (the storages' own counters)."""
        return self._host_storage.num_edges + sum(
            storage.num_edges for storage in self._module_storages
        )

    def __len__(self) -> int:
        return len(self._partition_map)

    def __contains__(self, node: int) -> bool:
        return node in self._partition_map

    def has_node(self, node: int) -> bool:
        """Whether ``node`` is placed on some computing node."""
        return node in self._partition_map

    def successors_with_labels(self, node: int) -> List[Tuple[int, int]]:
        """Next hops of ``node`` as ``(dst, label)`` pairs."""
        storage = self._storage_of(node)
        return [] if storage is None else storage.next_hops_with_labels(node)

    def successors(self, node: int) -> List[int]:
        """Next-hop node identifiers of ``node``."""
        storage = self._storage_of(node)
        return [] if storage is None else storage.next_hops(node)

    def out_degree(self, node: int) -> int:
        """Number of outgoing edges of ``node`` (0 for unknown nodes)."""
        storage = self._storage_of(node)
        return 0 if storage is None else storage.row_length(node)

    def has_edge(self, src: int, dst: int) -> bool:
        """Whether the edge ``src -> dst`` is stored."""
        storage = self._storage_of(src)
        return storage is not None and storage.has_edge(src, dst)

    def edge_label(self, src: int, dst: int) -> Optional[int]:
        """Label of edge ``src -> dst`` or ``None`` if absent."""
        return dict(self.successors_with_labels(src)).get(dst)

    def nodes(self) -> Iterator[int]:
        """Iterate over node identifiers in ascending order: the placed ids
        as the call finds them, turned into ``int``s a chunk at a time."""
        ids = self._partition_map.nodes()
        return chain.from_iterable(
            ids[start : start + _CHUNK].tolist() for start in range(0, len(ids), _CHUNK)
        )

    def labeled_edges(self) -> Iterator[LabeledEdge]:
        """Iterate over ``(src, dst, label)`` triples, sources ascending."""
        for src in self.nodes():
            for dst, label in self.successors_with_labels(src):
                yield (src, dst, label)

    def edges(self) -> Iterator[Edge]:
        """Iterate over ``(src, dst)`` pairs, sources ascending."""
        for src, dst, _ in self.labeled_edges():
            yield (src, dst)

    def copy(self) -> DiGraph:
        """An independent, mutable :class:`DiGraph` of the stored graph."""
        return DiGraph.copy_of(self)

"""Columnar bulk load: a graph's edge stream, one chunk at a time.

The paper's radical greedy heuristic places a node once, at the first
edge that mentions it, and labor division moves a node at most once,
when its out-degree passes the high-degree threshold.  A bulk load
therefore makes one placement decision per node and one promotion per
hub, however many edges it stores.  :func:`bulk_load` finds those
decisions with numpy, a chunk of
:data:`~repro.graph.stream.EDGE_CHUNK_ROWS` edges at a time, and makes
exactly them, in stream order, through the policies' own
``assign_node`` and ``PartitionMap.assign``.  The partition map (its
order, version and journal included), the observed out-degrees and the
placement counters are therefore what feeding the edges one at a time
through :meth:`~repro.core.partitioner.GraphPartitioner.ingest_edge`
leaves behind.

The edges are then stored per source: a source's slice of the chunk is
appended to its module row with one ``frombytes``; a row whose source
crosses the threshold inside the chunk takes the edges before the
crossing, then moves through the migrator's own ``promote_to_host``;
every later edge of a hub row goes through the host protocol's
``insert_edge``, so host slot positions and LIFO free lists are the
per-edge ones.  ``tests/model.py`` keeps the per-edge loop as the
oracle this is held to.
"""

from __future__ import annotations

from itertools import filterfalse, repeat
from typing import Iterable, List, Tuple

import numpy as np

from repro.core.hetero_storage import HeterogeneousGraphStorage
from repro.core.local_storage import LocalGraphStorage
from repro.core.node_migrator import NodeMigrator
from repro.core.partitioner import GraphPartitioner
from repro.partition.base import HOST_PARTITION

#: Event code of a threshold crossing.  A first mention is coded by its
#: side of the edge (0 source, 1 destination), so within one edge the
#: codes sort in the per-edge path's order: source, destination, crossing.
_CROSSING = 2


def bulk_load(
    partitioner: GraphPartitioner,
    module_storages: List[LocalGraphStorage],
    host_storage: HeterogeneousGraphStorage,
    migrator: NodeMigrator,
    chunks: Iterable[np.ndarray],
    nodes: List[int],
) -> None:
    """Load edge ``chunks`` and then the isolated ``nodes`` of a graph.

    ``chunks`` are ``int64`` ``(k, 3)`` arrays of ``(src, dst, label)``
    rows in stream order; the graph's edges are distinct pairs.
    ``nodes`` is the graph's node list: the nodes no edge placed are
    placed after the last chunk, in its order.
    """
    loader = _BulkLoader(partitioner, module_storages, host_storage, migrator, nodes)
    for chunk in chunks:
        loader.load_chunk(chunk)
    partition_map = partitioner.partition_map
    for node in filterfalse(partition_map.is_assigned, nodes):
        loader.storage_of(partitioner.assign_node(node)).ensure_row(node)


class _BulkLoader:
    """The placement and storage halves of one load."""

    def __init__(
        self,
        partitioner: GraphPartitioner,
        module_storages: List[LocalGraphStorage],
        host_storage: HeterogeneousGraphStorage,
        migrator: NodeMigrator,
        nodes: List[int],
    ) -> None:
        self._partitioner = partitioner
        self._labor = partitioner.labor_division
        self._modules = module_storages
        self._host = host_storage
        self._migrator = migrator
        #: The graph's own ``int`` objects by value: every dict key the
        #: load creates is one of them, not a fresh ``int`` per chunk.
        self._canonical = dict(zip(nodes, nodes))

    def storage_of(self, partition: int):
        return self._host if partition == HOST_PARTITION else self._modules[partition]

    def load_chunk(self, chunk: np.ndarray) -> None:
        """Place, then store, one chunk of edges."""
        srcs = chunk[:, 0]
        # The edges grouped by source, each group in stream order.
        order = np.argsort(srcs, kind="stable")
        grouped = srcs[order]
        first_of_group = np.ones(len(chunk), dtype=bool)
        np.not_equal(grouped[1:], grouped[:-1], out=first_of_group[1:])
        starts = np.flatnonzero(first_of_group)
        counts = np.diff(starts, append=len(chunk))
        sources = grouped[starts].tolist()

        labor = self._labor
        if labor is None:
            # Every source's edges go to its module row.
            cutoffs = counts
            crossing_edges = np.empty(0, dtype=np.int64)
        else:
            degrees = labor.out_degrees(sources)
            crossings = labor.crossings(degrees, counts)
            # Per source, how many of its edges its module row takes:
            # all of them, those before the crossing, or none (a hub).
            cutoffs = np.where(
                crossings >= 0,
                crossings,
                np.where(degrees > labor.high_degree_threshold, 0, counts),
            )
            hubs = np.flatnonzero(crossings >= 0)
            crossing_edges = order[starts[hubs] + crossings[hubs]]
        new_nodes, promoted = self._place(chunk, crossing_edges)
        if labor is not None:
            # New nodes enter the observed degrees in placement order, as
            # one edge at a time would have entered them.
            labor.observe(new_nodes, repeat(0))
            labor.observe(sources, (degrees + counts).tolist())
        self._store(chunk, order, starts, counts, sources, cutoffs, promoted)

    def _place(
        self, chunk: np.ndarray, crossing_edges: np.ndarray
    ) -> Tuple[List[int], List[Tuple[int, int]]]:
        """Make the chunk's placement decisions in per-edge order.

        A node is placed at its first mention, the source of an edge
        before its destination (each next to the other, as its first
        neighbor), and a source is promoted at the edge that takes it
        past the threshold, after that edge's placements.  New rows are
        created as the per-edge path created them: in stream order, the
        destination's before the source's within one edge.  Returns the
        placed nodes and the ``(node, module)`` promotions, each in order.
        """
        partitioner = self._partitioner
        partition_map = partitioner.partition_map
        canonical = self._canonical
        # Endpoints in stream order: src0, dst0, src1, dst1, ...
        ends = chunk[:, :2].reshape(-1)
        ids, first = np.unique(ends, return_index=True)
        placed = np.fromiter(
            map(partition_map.is_assigned, ids.tolist()), dtype=bool, count=len(ids)
        )
        mentions = np.sort(first[~placed])
        # One sort key per decision: 3 x edge + its event code.
        keys = np.concatenate(
            [3 * (mentions >> 1) + (mentions & 1), 3 * crossing_edges + _CROSSING]
        )
        event_nodes = np.concatenate([ends[mentions], chunk[crossing_edges, 0]])
        # A mention's first neighbor is the edge's other endpoint; a
        # crossing has none (its entries are never read).
        neighbors = np.concatenate([ends[mentions ^ 1], crossing_edges])
        sequence = np.argsort(keys)

        new_nodes: List[int] = []
        new_parts: List[int] = []
        promoted = []
        for key, node, neighbor in zip(
            keys[sequence].tolist(),
            event_nodes[sequence].tolist(),
            neighbors[sequence].tolist(),
        ):
            node = canonical.get(node, node)
            if key % 3 == _CROSSING:
                promoted.append((node, partition_map.partition_of(node)))
                self._labor.promote(node)
                continue
            new_nodes.append(node)
            new_parts.append(partitioner.assign_node(node, first_neighbor=neighbor))
        for index in np.argsort(mentions ^ 1).tolist():
            self.storage_of(new_parts[index]).ensure_row(new_nodes[index])
        return new_nodes, promoted

    def _store(
        self,
        chunk: np.ndarray,
        order: np.ndarray,
        starts: np.ndarray,
        counts: np.ndarray,
        sources: List[int],
        cutoffs: np.ndarray,
        promoted: List[Tuple[int, int]],
    ) -> None:
        """Store the chunk's edges: module slices, promotions, hub edges."""
        owners = dict(promoted)
        partition_of = self._partitioner.partition_of
        pairs = memoryview(np.ascontiguousarray(chunk[order, 1:])).cast("B")
        for source, start, cutoff in zip(
            sources, (16 * starts).tolist(), (16 * cutoffs).tolist()
        ):
            if cutoff:
                owner = owners.get(source)
                if owner is None:
                    owner = partition_of(source)
                self._modules[owner].append_edges(source, pairs[start : start + cutoff])
        for node, module in promoted:
            self._migrator.promote_to_host(node, module)

        # Every edge at or past its group's cutoff belongs to a hub row.
        rank = np.arange(len(chunk)) - np.repeat(starts, counts)
        hosted = order[rank >= np.repeat(cutoffs, counts)]
        if hosted.size:
            canonical = self._canonical
            dsts = chunk[hosted, 1].tolist()
            insert_edge = self._host.insert_edge
            for src, dst, label in zip(
                chunk[hosted, 0].tolist(),
                map(canonical.get, dsts, dsts),
                chunk[hosted, 2].tolist(),
            ):
                insert_edge(src, dst, label)

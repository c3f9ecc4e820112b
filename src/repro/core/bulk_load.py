"""Columnar bulk load: a graph's edge table, one chunk at a time.

The paper's radical greedy heuristic places a node once, at the first
edge that mentions it, and labor division moves a node at most once,
when its out-degree passes the high-degree threshold.  A bulk load
therefore makes one placement decision per node and one promotion per
hub, however many edges it stores.  :func:`bulk_load` finds those
decisions with numpy, a chunk of
:data:`~repro.graph.stream.EDGE_CHUNK_ROWS` edges at a time, and makes
exactly them, in stream order: the placements between two promotions
are one run of the policy's own ``assign_nodes``, and a promotion is
the labor-division wrapper's ``promote``.  The partition map (its
order, version and journal included), the observed out-degrees and the
placement counters are therefore what feeding the edges one at a time
through :meth:`~repro.core.partitioner.GraphPartitioner.ingest_edge`
leaves behind.

The module rows are stored as columns: every module accumulates the
rows each chunk creates on it and the table positions of the edges its
rows take, and after the last chunk builds its CSR base from them in
one stable sort by source
(:meth:`~repro.core.local_storage.LocalGraphStorage.load_csr`), so no
module row ever becomes a buffer.  A row whose source crosses the
threshold inside the chunk takes the edges before the crossing; then
the chunk's promoted rows leave each module's columns together, in the
form ``remove_row`` returns a row, for the host's ``insert_row`` in
promotion order, and the later edges of each hub row enter it in one
``load_edges`` call, which lays them out as per-edge ``insert_edge``
would.  ``tests/model.py`` keeps the per-edge
loop as the oracle this is held to.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Tuple

import numpy as np

from repro.core.hetero_storage import HeterogeneousGraphStorage
from repro.core.local_storage import LocalGraphStorage
from repro.core.node_migrator import NodeMigrator
from repro.core.partitioner import GraphPartitioner
from repro.core.snapshot import ranges
from repro.graph.stream import array_chunks

_NO_IDS = np.empty(0, dtype=np.int64)


def bulk_load(
    partitioner: GraphPartitioner,
    module_storages: List[LocalGraphStorage],
    host_storage: HeterogeneousGraphStorage,
    migrator: NodeMigrator,
    table: np.ndarray,
    nodes: List[int],
) -> None:
    """Load an edge ``table`` and then the isolated ``nodes`` of a graph
    into an empty system.

    ``table`` holds ``(src, dst, label)`` rows in stream order and has
    passed :func:`~repro.graph.stream.require_loadable`.  ``nodes`` is
    the graph's node list: the nodes no edge placed are placed after the
    last edge, in its order.
    """
    loader = _BulkLoader(partitioner, module_storages, host_storage, migrator, table, nodes)
    for chunk in array_chunks(table):
        loader.load_chunk(chunk)
    loader.load_isolated(nodes)
    loader.store_module_rows()


def _group_by_source(srcs: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges grouped by source, each group in stream order:
    ``(order, starts, counts)`` — group ``g`` is
    ``order[starts[g]:starts[g] + counts[g]]``, sources ascending."""
    order = np.argsort(srcs, kind="stable")
    grouped = srcs[order]
    first_of_group = np.ones(len(srcs), dtype=bool)
    np.not_equal(grouped[1:], grouped[:-1], out=first_of_group[1:])
    starts = np.flatnonzero(first_of_group)
    return order, starts, np.diff(starts, append=len(srcs))


class _ModuleColumns:
    """One module's rows as the load accumulates them: per chunk, the ids
    of the rows it created there and the table positions of the edges
    its rows took, in stream order per row."""

    def __init__(self) -> None:
        self.rows: List[np.ndarray] = []
        self.edges: List[np.ndarray] = []

    def take_rows(self, nodes: List[int], table: np.ndarray) -> np.ndarray:
        """Remove the rows of ``nodes`` under one mask; the table
        positions of their edges, each row's in stream order."""
        rows = np.concatenate([_NO_IDS, *self.rows])
        edges = np.concatenate([_NO_IDS, *self.edges])
        srcs = table[edges, 0]
        taken = srcs == nodes[0]
        kept = rows != nodes[0]
        for node in nodes[1:]:
            taken |= srcs == node
            kept &= rows != node
        self.rows = [rows[kept]]
        self.edges = [edges[~taken]]
        return edges[taken]

    def store(self, storage: LocalGraphStorage, table: np.ndarray) -> None:
        """Make the rows here ``storage``'s base."""
        srcs, dsts, labels = table[np.concatenate([_NO_IDS, *self.edges])].T
        # One stable sort by source groups each row's edges, in order.
        order = np.argsort(srcs, kind="stable")
        rows = np.sort(np.concatenate([_NO_IDS, *self.rows]))
        indptr = np.append(np.searchsorted(srcs[order], rows), len(srcs))
        storage.load_csr(rows, indptr, dsts[order], labels[order])


class _BulkLoader:
    """The placement and storage halves of one load."""

    def __init__(
        self,
        partitioner: GraphPartitioner,
        module_storages: List[LocalGraphStorage],
        host_storage: HeterogeneousGraphStorage,
        migrator: NodeMigrator,
        table: np.ndarray,
        nodes: List[int],
    ) -> None:
        self._partitioner = partitioner
        self._labor = partitioner.labor_division
        self._modules = module_storages
        self._columns = [_ModuleColumns() for _ in module_storages]
        self._host = host_storage
        self._migrator = migrator
        self._table = table
        #: Table position of the current chunk's first edge.
        self._offset = 0
        #: The graph's own ``int`` objects by value: every dict key the
        #: load creates is one of them, not a fresh ``int`` per chunk.
        self._canonical = dict(zip(nodes, nodes))
        #: Ids of the nodes this load has placed: the system started
        #: empty, so these are all the placed nodes.
        self._placed = np.empty(0, dtype=np.int64)

    def load_chunk(self, chunk: np.ndarray) -> None:
        """Place, then store, one chunk of edges."""
        order, starts, counts = _group_by_source(chunk[:, 0])
        sources = chunk[order[starts], 0]
        source_list = sources.tolist()

        labor = self._labor
        if labor is None:
            # Every source's edges go to its module row.
            cutoffs = counts
            crossing_edges = np.empty(0, dtype=np.int64)
        else:
            degrees = labor.out_degrees(source_list)
            crossings = labor.crossings(degrees, counts)
            # Per source, how many of its edges its module row takes:
            # all of them, those before the crossing, or none (a hub).
            cutoffs = np.where(
                crossings >= 0,
                crossings,
                np.where(degrees > labor.high_degree_threshold, 0, counts),
            )
            hubs = np.flatnonzero(crossings >= 0)
            crossing_edges = np.sort(order[starts[hubs] + crossings[hubs]])

        rows, promoted = self._place(chunk, sources, starts, cutoffs, crossing_edges)
        if labor is not None:
            labor.observe(source_list, (degrees + counts).tolist())
        self._store_rows(*rows, order)
        self._promote_rows(promoted)
        self._store_hub_edges(source_list, starts, counts, cutoffs, order, chunk)
        self._offset += len(chunk)

    def _place(
        self,
        chunk: np.ndarray,
        sources: np.ndarray,
        starts: np.ndarray,
        cutoffs: np.ndarray,
        crossing_edges: np.ndarray,
    ) -> Tuple[tuple, List[Tuple[int, int]]]:
        """Place the chunk's new nodes and promote its crossing sources.

        Returns the module rows to grow before any promotion moves one —
        ``(ids, parts, starts, lengths, created)`` for :meth:`_store_rows`,
        the ``created`` new rows first, then the earlier rows that take
        edges — and the ``(node, module)`` promotions in order.
        """
        mentions, new_ids, neighbors = self._first_mentions(chunk)
        new_list = new_ids.tolist()
        nodes = list(map(self._canonical.get, new_list, new_list))
        # Which new nodes are sources here, and which sources are earlier
        # nodes whose module rows take edges (read before any promotion).
        position = np.searchsorted(sources, new_ids).clip(max=len(sources) - 1)
        is_source = sources[position] == new_ids
        is_new = np.zeros(len(sources), dtype=bool)
        is_new[position[is_source]] = True
        earlier = np.flatnonzero(~is_new & (cutoffs > 0))
        earlier_nodes = sources[earlier].tolist()
        earlier_owners = list(map(self._partitioner.partition_of, earlier_nodes))

        parts, promoted = self._decide(
            nodes,
            neighbors,
            mentions >> 1,
            chunk[crossing_edges, 0].tolist(),
            crossing_edges,
        )
        if self._labor is not None:
            # New nodes enter the observed degrees in placement order, as
            # one edge at a time would have entered them.
            self._labor.observe(nodes, repeat(0))

        row_ids = np.concatenate([new_ids, sources[earlier]])
        row_parts = np.array(parts + earlier_owners, dtype=np.int64)
        row_starts = np.concatenate([starts[position], starts[earlier]])
        row_lengths = np.concatenate(
            [np.where(is_source, cutoffs[position], 0), cutoffs[earlier]]
        )
        return (row_ids, row_parts, row_starts, row_lengths, len(new_ids)), promoted

    def _first_mentions(
        self, chunk: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, List[int]]:
        """The chunk's first mentions of unplaced nodes, which join the
        placed table: their positions (ascending) in the endpoint stream
        ``src0, dst0, src1, dst1, ...``, their ids, and the other
        endpoint of each one's edge (its first neighbor)."""
        ends = chunk[:, :2].reshape(-1)
        unseen = np.flatnonzero(np.isin(ends, self._placed, invert=True))
        ids, first = np.unique(ends[unseen], return_index=True)
        self._placed = np.concatenate([self._placed, ids])
        mentions = np.sort(unseen[first])
        return mentions, ends[mentions], ends[mentions ^ 1].tolist()

    def _decide(
        self,
        nodes: List[int],
        neighbors: List[int],
        mention_edges: np.ndarray,
        crossing_nodes: List[int],
        crossing_edges: np.ndarray,
    ) -> Tuple[List[int], List[Tuple[int, int]]]:
        """Make the chunk's placement decisions in per-edge order.

        A node is placed at its first mention, the source of an edge
        before its destination (each next to the other, as its first
        neighbor), and a source is promoted at the edge that takes it
        past the threshold, after that edge's placements.  ``nodes`` are
        the first mentions in order and ``mention_edges`` their edges;
        ``crossing_nodes`` cross at ``crossing_edges``, ascending.  The
        placements between two promotions are one run of the policy's
        ``assign_nodes``.  Returns the nodes' partitions and the
        ``(node, module)`` promotions in order.
        """
        partitioner = self._partitioner
        canonical = self._canonical
        parts: List[int] = []
        promoted = []
        start = 0
        cuts = np.searchsorted(mention_edges, crossing_edges, side="right").tolist()
        for cut, node in zip(cuts, crossing_nodes):
            if cut > start:
                parts += partitioner.assign_nodes(nodes[start:cut], neighbors[start:cut])
                start = cut
            node = canonical.get(node, node)
            promoted.append((node, partitioner.partition_of(node)))
            self._labor.promote(node)
        if len(nodes) > start:
            parts += partitioner.assign_nodes(nodes[start:], neighbors[start:])
        return parts, promoted

    def _store_rows(
        self,
        ids: np.ndarray,
        parts: np.ndarray,
        starts: np.ndarray,
        lengths: np.ndarray,
        created: int,
        edges: np.ndarray,
    ) -> None:
        """Add each row to its module's columns: row ``ids[i]``, new when
        ``i < created``, is on module ``parts[i]`` and takes the chunk's
        edges ``edges[starts[i]:starts[i] + lengths[i]]``."""
        by_module = np.argsort(parts, kind="stable")
        lengths = lengths[by_module]
        # The rows' edges end to end in module order, as table positions.
        positions = self._offset + edges[ranges(starts[by_module], lengths)]
        row_bounds = np.searchsorted(
            parts[by_module], np.arange(len(self._columns) + 1)
        ).tolist()
        edge_bounds = np.concatenate([[0], np.cumsum(lengths)])[row_bounds].tolist()
        new = by_module < created
        for columns, low, high, edge_low, edge_high in zip(
            self._columns, row_bounds, row_bounds[1:], edge_bounds, edge_bounds[1:]
        ):
            if high > low:
                columns.rows.append(ids[by_module[low:high][new[low:high]]])
                columns.edges.append(positions[edge_low:edge_high])

    def _promote_rows(self, promoted: List[Tuple[int, int]]) -> None:
        """Move the rows of the chunk's ``(node, module)`` promotions to
        the host: each module's promoted rows leave its columns under one
        mask, then the rows enter the host in promotion order."""
        if not promoted:
            return
        by_module: Dict[int, List[int]] = {}
        for node, module in promoted:
            by_module.setdefault(module, []).append(node)
        table = self._table
        positions = np.concatenate(
            [
                self._columns[module].take_rows(nodes, table)
                for module, nodes in by_module.items()
            ]
        )
        # Each row's edges are in stream order; a stable sort by source
        # keeps that order within each row.
        srcs = table[positions, 0]
        order = np.argsort(srcs, kind="stable")
        entries = table[positions[order], 1:]
        dsts, labels = entries[:, 0].tolist(), entries[:, 1].tolist()
        ids = sorted(node for node, _ in promoted)
        bounds = np.searchsorted(srcs[order], ids).tolist() + [len(dsts)]
        rows_of = {
            node: list(zip(dsts[low:high], labels[low:high]))
            for node, low, high in zip(ids, bounds, bounds[1:])
        }
        for node, _ in promoted:
            self._host.insert_row(node, rows_of[node])
        self._migrator.promotions_performed += len(promoted)

    def _store_hub_edges(
        self,
        sources: List[int],
        starts: np.ndarray,
        counts: np.ndarray,
        cutoffs: np.ndarray,
        order: np.ndarray,
        chunk: np.ndarray,
    ) -> None:
        """Insert every edge at or past its group's cutoff into its hub's
        host row, one ``load_edges`` call per hub."""
        hubs = np.flatnonzero(cutoffs < counts)
        if not hubs.size:
            return
        rank = np.arange(len(order)) - np.repeat(starts, counts)
        hosted = order[rank >= np.repeat(cutoffs, counts)]
        dsts = chunk[hosted, 1].tolist()
        dsts = list(map(self._canonical.get, dsts, dsts))
        labels = chunk[hosted, 2].tolist()
        bounds = np.concatenate([[0], np.cumsum(counts[hubs] - cutoffs[hubs])]).tolist()
        load_edges = self._host.load_edges
        for hub, low, high in zip(hubs.tolist(), bounds, bounds[1:]):
            load_edges(sources[hub], dsts[low:high], labels[low:high])

    def load_isolated(self, nodes: List[int]) -> None:
        """Place the ``nodes`` no edge placed, in order, and give each an
        empty row on its partition."""
        ids = np.fromiter(nodes, dtype=np.int64, count=len(nodes))
        unseen = np.flatnonzero(np.isin(ids, self._placed, invert=True))
        # A node listed twice is placed at its first listing.
        unseen = np.sort(unseen[np.unique(ids[unseen], return_index=True)[1]])
        isolated = list(map(nodes.__getitem__, unseen.tolist()))
        parts = self._partitioner.assign_nodes(isolated, [None] * len(isolated))
        zeros = np.zeros(len(isolated), dtype=np.int64)
        self._store_rows(
            ids[unseen], np.array(parts, dtype=np.int64), zeros, zeros, len(isolated), zeros
        )

    def store_module_rows(self) -> None:
        """Build every module's base from its columns."""
        for columns, storage in zip(self._columns, self._modules):
            columns.store(storage, self._table)

"""RedisGraph-like baseline: a single-node GraphBLAS-style engine.

The paper's primary baseline is RedisGraph, an in-memory graph database
that stores the graph as sparse matrices (SuiteSparse:GraphBLAS) and
evaluates path queries with sparse matrix products on one CPU core.
This module reproduces that *behaviour and cost profile* rather than the
code base (a documented substitution):

* the adjacency is kept in sorted per-row arrays, the mutable analogue
  of a CSC/CSR sparse matrix with delta updates;
* a batch k-hop query expands the batch frontier hop by hop with
  row gathers — every distinct frontier row is a dependent random access
  that falls out of cache once the matrix exceeds the modelled LLC,
  which is precisely the "memory wall" behaviour the paper measures;
* an edge update must locate the row, scan/shift the sorted row array,
  and fix up the internal index — all on the single host core, with no
  PIM parallelism to hide it.

Every public operation returns an
:class:`~repro.pim.stats.ExecutionStats` whose only non-zero component
is ``host_time``, so the benchmark harness can compare engines on one
axis.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.graph.digraph import DEFAULT_LABEL, DiGraph
from repro.pim.cost_model import CostModel
from repro.pim.stats import ExecutionStats
from repro.pim.system import PIMSystem
from repro.rpq.query import BatchResult, KHopQuery, RPQuery

#: Bytes per stored matrix entry (column index + label).
BYTES_PER_ENTRY = 12
#: Bytes of per-row overhead (row pointer + length).
BYTES_PER_ROW = 16


class RedisGraphEngine:
    """Single-node sparse-matrix graph engine with a host-only cost model."""

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        label_names: Optional[Dict[int, str]] = None,
    ) -> None:
        self.cost_model = cost_model or CostModel()
        # A single-module platform: only the host component is ever charged.
        self._platform = PIMSystem(self.cost_model.with_modules(1))
        self._label_names = label_names or {}
        #: Sorted next-hop arrays per row, plus a parallel label map.
        self._rows: Dict[int, List[int]] = {}
        #: Sorted in-neighbor arrays per row.  RedisGraph maintains the
        #: transpose of every relationship matrix so that reverse
        #: traversals stay fast; keeping it up to date is a large part of
        #: the update cost the paper measures.
        self._in_rows: Dict[int, List[int]] = {}
        self._labels: Dict[Tuple[int, int], int] = {}
        self._num_edges = 0

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(
        cls,
        graph: DiGraph,
        cost_model: Optional[CostModel] = None,
        label_names: Optional[Dict[int, str]] = None,
    ) -> "RedisGraphEngine":
        """Build an engine and bulk-load ``graph`` (no simulated cost)."""
        engine = cls(cost_model=cost_model, label_names=label_names)
        engine.load_graph(graph)
        return engine

    def load_graph(self, graph: DiGraph) -> None:
        """Bulk-load a graph without charging simulated time."""
        for src, dst, label in graph.labeled_edges():
            self._insert_edge_data(src, dst, label)
        for node in graph.nodes():
            self._rows.setdefault(node, [])

    def _insert_edge_data(self, src: int, dst: int, label: int) -> bool:
        row = self._rows.setdefault(src, [])
        position = bisect.bisect_left(row, dst)
        if position < len(row) and row[position] == dst:
            self._labels[(src, dst)] = label
            return False
        row.insert(position, dst)
        in_row = self._in_rows.setdefault(dst, [])
        in_row.insert(bisect.bisect_left(in_row, src), src)
        self._labels[(src, dst)] = label
        self._rows.setdefault(dst, [])
        self._in_rows.setdefault(src, [])
        self._num_edges += 1
        return True

    def _delete_edge_data(self, src: int, dst: int) -> bool:
        row = self._rows.get(src)
        if row is None:
            return False
        position = bisect.bisect_left(row, dst)
        if position >= len(row) or row[position] != dst:
            return False
        del row[position]
        in_row = self._in_rows.get(dst, [])
        in_position = bisect.bisect_left(in_row, src)
        if in_position < len(in_row) and in_row[in_position] == src:
            del in_row[in_position]
        self._labels.pop((src, dst), None)
        self._num_edges -= 1
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of stored nodes."""
        return len(self._rows)

    @property
    def num_edges(self) -> int:
        """Number of stored edges."""
        return self._num_edges

    def has_edge(self, src: int, dst: int) -> bool:
        """Whether ``src -> dst`` is stored."""
        return (src, dst) in self._labels

    def next_hops(self, node: int) -> List[int]:
        """Next hops of ``node`` (sorted)."""
        return list(self._rows.get(node, ()))

    def matrix_bytes(self) -> int:
        """Approximate resident size of the forward plus transpose matrices."""
        return 2 * (
            len(self._rows) * BYTES_PER_ROW + self._num_edges * BYTES_PER_ENTRY
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def batch_khop(
        self, sources: Iterable[int], hops: int
    ) -> Tuple[BatchResult, ExecutionStats]:
        """Batch k-hop query evaluated with hop-by-hop row gathers."""
        query = KHopQuery(hops=hops, sources=list(sources))
        operation = self._platform.begin_operation()
        working_set = max(self.matrix_bytes(), 1)
        # Frontier as node -> set of query rows (the transpose of Q).
        frontier: Dict[int, Set[int]] = {}
        for row, source in enumerate(query.sources):
            if source in self._rows:
                frontier.setdefault(source, set()).add(row)
        results: List[Set[int]] = [set() for _ in query.sources]

        for hop in range(query.hops):
            with operation.phase(f"mxm {hop + 1}"):
                next_frontier: Dict[int, Set[int]] = {}
                rows_touched = 0
                streamed = 0
                items = 0
                for node, query_rows in frontier.items():
                    row = self._rows.get(node, [])
                    rows_touched += 1
                    streamed += len(row) * BYTES_PER_ENTRY
                    for destination in row:
                        items += len(query_rows)
                        next_frontier.setdefault(destination, set()).update(query_rows)
                operation.host.random_accesses(rows_touched, working_set)
                operation.host.stream_bytes(streamed)
                operation.host.process_items(items)
                frontier = next_frontier
            if not frontier:
                break

        with operation.phase("reduce"):
            total = 0
            for node, query_rows in frontier.items():
                for row in query_rows:
                    results[row].add(node)
                    total += 1
            operation.host.process_items(total)

        stats = operation.finish()
        stats.add_counter("results", sum(len(dests) for dests in results))
        return BatchResult.from_sets(list(query.sources), results), stats

    def execute(self, query) -> Tuple[BatchResult, ExecutionStats]:
        """Run a :class:`KHopQuery` or a general :class:`RPQuery`."""
        if isinstance(query, KHopQuery):
            return self.batch_khop(query.sources, query.hops)
        if isinstance(query, RPQuery):
            return self._execute_rpq(query)
        raise TypeError(f"unsupported query type {type(query).__name__}")

    def _execute_rpq(self, query: RPQuery) -> Tuple[BatchResult, ExecutionStats]:
        dfa = query.dfa()
        operation = self._platform.begin_operation()
        working_set = max(self.matrix_bytes(), 1)
        results: List[Set[int]] = [set() for _ in query.sources]
        frontier: Dict[int, Set[Tuple[int, int]]] = {}
        seen: Set[Tuple[int, Tuple[int, int]]] = set()
        for row, source in enumerate(query.sources):
            if source not in self._rows:
                continue
            context = (row, dfa.start)
            frontier.setdefault(source, set()).add(context)
            seen.add((source, context))
            if dfa.is_accepting(dfa.start):
                results[row].add(source)

        iteration = 0
        while frontier:
            iteration += 1
            with operation.phase(f"mxm {iteration}"):
                next_frontier: Dict[int, Set[Tuple[int, int]]] = {}
                rows_touched = 0
                streamed = 0
                items = 0
                for node, contexts in frontier.items():
                    row = self._rows.get(node, [])
                    rows_touched += 1
                    streamed += len(row) * BYTES_PER_ENTRY
                    for destination in row:
                        label = self._labels.get((node, destination), DEFAULT_LABEL)
                        label_string = self._label_names.get(label, str(label))
                        for context in contexts:
                            items += 1
                            query_row, state = context
                            next_state = dfa.step(state, label_string)
                            if next_state is None:
                                continue
                            next_context = (query_row, next_state)
                            key = (destination, next_context)
                            if key in seen:
                                continue
                            seen.add(key)
                            if dfa.is_accepting(next_state):
                                results[query_row].add(destination)
                            next_frontier.setdefault(destination, set()).add(next_context)
                operation.host.random_accesses(rows_touched, working_set)
                operation.host.stream_bytes(streamed)
                operation.host.process_items(items)
                frontier = next_frontier

        stats = operation.finish()
        stats.add_counter("results", sum(len(dests) for dests in results))
        return BatchResult.from_sets(list(query.sources), results), stats

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    #: Dependent random accesses paid by one edge update: node-index
    #: lookups for both endpoints, locating the row in the forward matrix
    #: and in the transpose, the edge-id map, and the delta-matrix entry.
    RANDOM_ACCESSES_PER_UPDATE = 6

    def insert_edges(
        self, edges: List[Tuple[int, int]], labels: Optional[List[int]] = None
    ) -> ExecutionStats:
        """Insert a batch of edges on the single host core.

        Each insertion updates the forward matrix *and* its transpose
        (duplicate check, positional insert with a shift) after resolving
        both endpoints through the node index — the full update path of a
        general-purpose graph database, which is what the paper compares
        against.
        """
        operation = self._platform.begin_operation()
        working_set = max(self.matrix_bytes(), 1)
        with operation.phase("insert"):
            for index, (src, dst) in enumerate(edges):
                label = labels[index] if labels else DEFAULT_LABEL
                out_length = len(self._rows.get(src, ()))
                in_length = len(self._in_rows.get(dst, ()))
                operation.host.random_accesses(
                    self.RANDOM_ACCESSES_PER_UPDATE, working_set
                )
                operation.host.stream_bytes(
                    (out_length + in_length) * BYTES_PER_ENTRY
                )
                operation.host.process_items(max(1, (out_length + in_length) // 2))
                self._insert_edge_data(src, dst, label)
        stats = operation.finish()
        stats.add_counter("updates", len(edges))
        return stats

    def delete_edges(self, edges: List[Tuple[int, int]]) -> ExecutionStats:
        """Delete a batch of edges on the single host core."""
        operation = self._platform.begin_operation()
        working_set = max(self.matrix_bytes(), 1)
        with operation.phase("delete"):
            for src, dst in edges:
                out_length = len(self._rows.get(src, ()))
                in_length = len(self._in_rows.get(dst, ()))
                # Deletion pays a full pass over both rows: GraphBLAS-style
                # engines tombstone the entry and compact the row, touching
                # every remaining element in the forward and transpose rows.
                operation.host.random_accesses(
                    self.RANDOM_ACCESSES_PER_UPDATE, working_set
                )
                operation.host.stream_bytes(
                    (out_length + in_length) * BYTES_PER_ENTRY
                )
                operation.host.process_items(max(1, out_length + in_length))
                self._delete_edge_data(src, dst)
        stats = operation.finish()
        stats.add_counter("updates", len(edges))
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RedisGraphEngine(nodes={self.num_nodes}, edges={self.num_edges})"
        )

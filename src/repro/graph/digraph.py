"""Directed graph with adjacency-list storage.

:class:`DiGraph` is the in-memory substrate every engine in this
reproduction builds on.  It is intentionally simple: nodes are integer
identifiers, edges are directed and optionally carry an integer label
(regular path queries match over edge labels).  The structure keeps
out-adjacency per node, maintains degree counts incrementally, and
supports the dynamic workload of the paper (streams of edge insertions
and deletions).
"""

from __future__ import annotations

from itertools import chain
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Set,
    Tuple,
    runtime_checkable,
)

import numpy as np

Edge = Tuple[int, int]
LabeledEdge = Tuple[int, int, int]

#: Default edge label used when the caller does not care about labels
#: (the paper's k-hop workload is label-agnostic).
DEFAULT_LABEL = 0


@runtime_checkable
class ReadableGraph(Protocol):
    """The read side of a labeled directed graph.

    What the reference evaluators and the partition metrics consume.
    :class:`DiGraph` satisfies it, and so does the live view a
    :class:`~repro.core.system.Moctopus` exposes over its own storages
    (``system.graph``) — which is why a loaded system needs no second
    adjacency structure to be checked against an oracle.
    """

    @property
    def num_nodes(self) -> int:
        ...

    @property
    def num_edges(self) -> int:
        ...

    def nodes(self) -> Iterator[int]:
        ...

    def edges(self) -> Iterator[Edge]:
        ...

    def labeled_edges(self) -> Iterator[LabeledEdge]:
        ...

    def successors(self, node: int) -> List[int]:
        ...

    def successors_with_labels(self, node: int) -> List[Tuple[int, int]]:
        ...

    def has_node(self, node: int) -> bool:
        ...

    def has_edge(self, src: int, dst: int) -> bool:
        ...

    def edge_label(self, src: int, dst: int) -> Optional[int]:
        ...

    def out_degree(self, node: int) -> int:
        ...

    def copy(self) -> "DiGraph":
        ...

    def __len__(self) -> int:
        ...

    def __contains__(self, node: int) -> bool:
        ...


class DiGraph:
    """A mutable directed graph with optional edge labels.

    The adjacency of each node is stored as an insertion-ordered mapping
    ``dst -> label``.  Insertion order matters to the reproduction: the
    paper's *radical greedy* partitioning heuristic assigns a node
    according to its **first** neighbor, so the order in which edges
    arrived must be observable.

    Parameters
    ----------
    num_nodes:
        Optional number of nodes to pre-register (``0 .. num_nodes - 1``).
        Nodes referenced by later edge insertions are added lazily either
        way.
    """

    def __init__(self, num_nodes: int = 0) -> None:
        self._adj: Dict[int, Dict[int, int]] = {}
        self._in_degree: Dict[int, int] = {}
        self._num_edges = 0
        for node in range(num_nodes):
            self.add_node(node)

    # ------------------------------------------------------------------
    # Node operations
    # ------------------------------------------------------------------
    def add_node(self, node: int) -> bool:
        """Register ``node``; return ``True`` if it was new."""
        if node in self._adj:
            return False
        self._adj[node] = {}
        self._in_degree.setdefault(node, 0)
        return True

    def has_node(self, node: int) -> bool:
        """Return whether ``node`` exists in the graph."""
        return node in self._adj

    def remove_node(self, node: int) -> None:
        """Remove ``node`` and every edge incident to it.

        Removing a node that does not exist raises :class:`KeyError`,
        mirroring dictionary semantics.
        """
        out_neighbors = list(self._adj[node])
        for dst in out_neighbors:
            self.remove_edge(node, dst)
        # Remove incoming edges by scanning all sources; acceptable for the
        # rare node-removal path (the paper's workload is edge-centric).
        for src in list(self._adj):
            if node in self._adj[src]:
                self.remove_edge(src, node)
        del self._adj[node]
        self._in_degree.pop(node, None)

    def nodes(self) -> Iterator[int]:
        """Iterate over node identifiers in insertion order."""
        return iter(self._adj)

    @property
    def num_nodes(self) -> int:
        """Number of registered nodes."""
        return len(self._adj)

    # ------------------------------------------------------------------
    # Edge operations
    # ------------------------------------------------------------------
    def add_edge(self, src: int, dst: int, label: int = DEFAULT_LABEL) -> bool:
        """Insert the directed edge ``src -> dst``.

        Returns ``True`` if the edge was new, ``False`` if it already
        existed (in which case only the label is refreshed).  Endpoints
        are registered lazily, matching the paper's model where a node's
        existence is implied by the first edge that mentions it.
        """
        self.add_node(src)
        self.add_node(dst)
        row = self._adj[src]
        if dst in row:
            row[dst] = label
            return False
        row[dst] = label
        self._in_degree[dst] = self._in_degree.get(dst, 0) + 1
        self._num_edges += 1
        return True

    def remove_edge(self, src: int, dst: int) -> bool:
        """Delete the edge ``src -> dst``; return ``True`` if it existed."""
        row = self._adj.get(src)
        if row is None or dst not in row:
            return False
        del row[dst]
        self._in_degree[dst] -= 1
        self._num_edges -= 1
        return True

    def has_edge(self, src: int, dst: int) -> bool:
        """Return whether the edge ``src -> dst`` exists."""
        row = self._adj.get(src)
        return row is not None and dst in row

    def edge_label(self, src: int, dst: int) -> Optional[int]:
        """Return the label of edge ``src -> dst`` or ``None`` if absent."""
        row = self._adj.get(src)
        if row is None:
            return None
        return row.get(dst)

    def edges(self) -> Iterator[Edge]:
        """Iterate over ``(src, dst)`` pairs in insertion order."""
        for src, row in self._adj.items():
            for dst in row:
                yield (src, dst)

    def labeled_edges(self) -> Iterator[LabeledEdge]:
        """Iterate over ``(src, dst, label)`` triples in insertion order."""
        for src, row in self._adj.items():
            for dst, label in row.items():
                yield (src, dst, label)

    def edge_table(self) -> np.ndarray:
        """:meth:`labeled_edges` as an ``(n, 3)`` ``int64`` array.

        Each column is read straight out of the rows into one
        preallocated table; no per-edge tuple is built.
        """
        rows = self._adj.values()
        table = np.empty((self._num_edges, 3), dtype=np.int64)
        degrees = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        sources = np.fromiter(self._adj, dtype=np.int64, count=len(rows))
        table[:, 0] = np.repeat(sources, degrees)
        table[:, 1] = np.fromiter(
            chain.from_iterable(rows), dtype=np.int64, count=self._num_edges
        )
        table[:, 2] = np.fromiter(
            chain.from_iterable(map(dict.values, rows)),
            dtype=np.int64,
            count=self._num_edges,
        )
        return table

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return self._num_edges

    # ------------------------------------------------------------------
    # Neighborhood access
    # ------------------------------------------------------------------
    def successors(self, node: int) -> List[int]:
        """Next-hop node identifiers of ``node`` in insertion order."""
        row = self._adj.get(node)
        if row is None:
            return []
        return list(row)

    def successors_with_labels(self, node: int) -> List[Tuple[int, int]]:
        """Next hops of ``node`` as ``(dst, label)`` pairs."""
        row = self._adj.get(node)
        if row is None:
            return []
        return list(row.items())

    def first_neighbor(self, node: int) -> Optional[int]:
        """The first neighbor ever inserted for ``node`` (or ``None``).

        The radical greedy partitioner assigns a new node to the partition
        of its first neighbor, so this accessor is part of the public
        surface rather than an implementation detail.
        """
        row = self._adj.get(node)
        if not row:
            return None
        return next(iter(row))

    def out_degree(self, node: int) -> int:
        """Number of outgoing edges of ``node`` (0 for unknown nodes)."""
        row = self._adj.get(node)
        return 0 if row is None else len(row)

    def in_degree(self, node: int) -> int:
        """Number of incoming edges of ``node`` (0 for unknown nodes)."""
        return self._in_degree.get(node, 0)

    def degree_histogram(self) -> Dict[int, int]:
        """Mapping ``out_degree -> number of nodes`` with that degree."""
        histogram: Dict[int, int] = {}
        for node in self._adj:
            degree = len(self._adj[node])
            histogram[degree] = histogram.get(degree, 0) + 1
        return histogram

    def high_degree_nodes(self, threshold: int) -> Set[int]:
        """Nodes whose out-degree strictly exceeds ``threshold``.

        The paper classifies nodes with out-degree exceeding 16 as
        high-degree; the threshold is a parameter here so the labor
        division ablation can sweep it.
        """
        return {node for node, row in self._adj.items() if len(row) > threshold}

    def high_degree_fraction(self, threshold: int) -> float:
        """Fraction of nodes that are high-degree under ``threshold``."""
        if not self._adj:
            return 0.0
        return len(self.high_degree_nodes(threshold)) / len(self._adj)

    # ------------------------------------------------------------------
    # Bulk construction / conversion helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, edges: Iterable[Edge], num_nodes: int = 0) -> "DiGraph":
        """Build a graph from an iterable of ``(src, dst)`` pairs."""
        graph = cls(num_nodes=num_nodes)
        for src, dst in edges:
            graph.add_edge(src, dst)
        return graph

    @classmethod
    def from_labeled_edges(
        cls, edges: Iterable[LabeledEdge], num_nodes: int = 0
    ) -> "DiGraph":
        """Build a graph from an iterable of ``(src, dst, label)`` triples."""
        graph = cls(num_nodes=num_nodes)
        for src, dst, label in edges:
            graph.add_edge(src, dst, label)
        return graph

    @classmethod
    def copy_of(cls, graph: ReadableGraph) -> "DiGraph":
        """An independent, mutable copy of any readable graph."""
        clone = cls()
        for node in graph.nodes():
            clone.add_node(node)
        for src, dst, label in graph.labeled_edges():
            clone.add_edge(src, dst, label)
        return clone

    def copy(self) -> "DiGraph":
        """Return a deep copy of this graph."""
        return DiGraph.copy_of(self)

    def reverse(self) -> "DiGraph":
        """Return a new graph with every edge direction flipped."""
        reversed_graph = DiGraph()
        for node in self._adj:
            reversed_graph.add_node(node)
        for src, dst, label in self.labeled_edges():
            reversed_graph.add_edge(dst, src, label)
        return reversed_graph

    def __contains__(self, node: int) -> bool:
        return node in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DiGraph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"
        )

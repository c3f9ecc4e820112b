"""Update streams and edge tables: what a bulk load and an update batch read.

The paper's graph-update experiment (Figure 6) inserts 64 K randomly
selected new edges and deletes 64 K randomly selected existing edges.
:class:`UpdateStream` produces such batches deterministically.
:func:`edge_table` turns a graph into the one input of a bulk load — an
``(n, 3)`` ``int64`` table of ``(src, dst, label)`` rows that the WAL's
``BOOTSTRAP`` record stores and the columnar loader walks
:func:`array_chunks` at a time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Iterator, List, Tuple

import numpy as np

from repro.checks import require_int64s
from repro.graph.digraph import DiGraph, ReadableGraph

Edge = Tuple[int, int]

#: Edge rows a bulk load places and stores at a time.  Large enough that
#: numpy amortises its per-call cost, small enough that a chunk's
#: transient arrays stay far below the loaded graph's own footprint.
EDGE_CHUNK_ROWS = 8192


def edge_table(graph: ReadableGraph) -> np.ndarray:
    """``graph``'s edges as one read-only ``(n, 3)`` ``int64`` table.

    Row ``i`` is the ``i``-th ``(src, dst, label)`` triple of
    ``graph.labeled_edges()``: placement depends on stream order, so the
    table keeps it.  A :class:`DiGraph` fills the columns straight from
    its rows (:meth:`DiGraph.edge_table`); any other graph is read
    through its edge iterator.
    """
    if isinstance(graph, DiGraph):
        table = graph.edge_table()
    else:
        table = np.fromiter(
            chain.from_iterable(graph.labeled_edges()), dtype=np.int64
        ).reshape(-1, 3)
    table.flags.writeable = False
    return table


def array_chunks(edges: np.ndarray) -> Iterator[np.ndarray]:
    """Row views of an ``(n, 3)`` edge table, :data:`EDGE_CHUNK_ROWS` at
    a time."""
    for start in range(0, len(edges), EDGE_CHUNK_ROWS):
        yield edges[start : start + EDGE_CHUNK_ROWS]


def require_loadable(table: np.ndarray) -> None:
    """Raise :class:`ValueError` unless an edge table can be bulk-loaded.

    Both endpoint columns must hold non-negative node ids
    (:func:`repro.checks.require_int64s`), and no ``(src, dst)`` pair
    may repeat: the loader appends every edge to its row without
    searching it, so a repeated pair would be stored twice.  The pairs
    are checked by sorting one packed key per edge and comparing
    neighbours.
    """
    if not len(table):
        return
    ends = table[:, :2]
    require_int64s("node id", [int(ends.min())], non_negative=True)
    srcs, dsts = table[:, 0], table[:, 1]
    width = int(dsts.max()) + 1
    if int(srcs.max()) * width + width <= np.iinfo(np.int64).max:
        # Built and sorted in place: one edge column's worth of memory.
        keys = srcs * width
        keys += dsts
        keys.sort()
        repeats = np.flatnonzero(keys[1:] == keys[:-1])
        if repeats.size:
            src, dst = divmod(int(keys[repeats[0]]), width)
            raise ValueError(f"edge ({src}, {dst}) appears more than once")
        return
    # Ids too large to pack: order the pairs column by column instead.
    order = np.lexsort((dsts, srcs))
    pairs = ends[order]
    repeats = np.flatnonzero((pairs[1:] == pairs[:-1]).all(axis=1))
    if repeats.size:
        src, dst = pairs[repeats[0]].tolist()
        raise ValueError(f"edge ({src}, {dst}) appears more than once")


class UpdateKind(Enum):
    """Type of a graph update operation."""

    INSERT = "insert"
    DELETE = "delete"


@dataclass(frozen=True, slots=True)
class UpdateOp:
    """A single edge-level update."""

    kind: UpdateKind
    src: int
    dst: int

    @property
    def edge(self) -> Edge:
        """The ``(src, dst)`` pair the update refers to."""
        return (self.src, self.dst)


class UpdateStream:
    """Deterministic generator of insertion/deletion batches for a graph.

    Parameters
    ----------
    graph:
        The graph the updates apply to.  The stream never mutates it; it
        only samples node ids and existing edges from it.
    seed:
        RNG seed for reproducible batches.
    """

    def __init__(self, graph: DiGraph, seed: int = 0) -> None:
        self._graph = graph
        self._rng = random.Random(seed)

    def insertion_batch(self, count: int) -> List[UpdateOp]:
        """``count`` insertions of edges that do not currently exist.

        Endpoints are sampled uniformly from existing nodes; a small
        fraction of brand-new node ids is mixed in so that the
        partitioner's new-node path is exercised, as in a growing graph.
        """
        nodes = list(self._graph.nodes())
        if not nodes:
            raise ValueError("cannot build an insertion batch for an empty graph")
        max_node = max(nodes)
        batch: List[UpdateOp] = []
        attempts = 0
        while len(batch) < count and attempts < count * 20:
            attempts += 1
            if self._rng.random() < 0.05:
                src = max_node + 1 + self._rng.randrange(count)
            else:
                src = nodes[self._rng.randrange(len(nodes))]
            dst = nodes[self._rng.randrange(len(nodes))]
            if src == dst or self._graph.has_edge(src, dst):
                continue
            batch.append(UpdateOp(UpdateKind.INSERT, src, dst))
        return batch

    def deletion_batch(self, count: int) -> List[UpdateOp]:
        """``count`` deletions sampled uniformly from existing edges."""
        edges = list(self._graph.edges())
        if not edges:
            return []
        count = min(count, len(edges))
        sample = self._rng.sample(edges, count)
        return [UpdateOp(UpdateKind.DELETE, src, dst) for src, dst in sample]

    def mixed_batch(self, count: int, insert_fraction: float = 0.5) -> List[UpdateOp]:
        """A shuffled mix of insertions and deletions.

        Parameters
        ----------
        count:
            Total number of operations.
        insert_fraction:
            Fraction of the batch that are insertions.
        """
        if not 0.0 <= insert_fraction <= 1.0:
            raise ValueError("insert_fraction must be within [0, 1]")
        num_inserts = int(count * insert_fraction)
        ops = self.insertion_batch(num_inserts)
        ops += self.deletion_batch(count - num_inserts)
        self._rng.shuffle(ops)
        return ops

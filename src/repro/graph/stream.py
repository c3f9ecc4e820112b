"""Update streams: dynamic-graph workloads for insertion and deletion.

The paper's graph-update experiment (Figure 6) inserts 64 K randomly
selected new edges and deletes 64 K randomly selected existing edges.
:class:`UpdateStream` produces such batches deterministically.
:func:`edge_chunks` cuts a bulk load's edge stream into the ``int64``
chunks the columnar loader and the WAL's ``BOOTSTRAP`` record share.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice
from typing import Iterable, Iterator, List, Tuple

import numpy as np

from repro.graph.digraph import DiGraph, LabeledEdge

Edge = Tuple[int, int]

#: Edge rows a bulk load reads, places and stores at a time — and the
#: rows a ``BOOTSTRAP`` record is decoded in.  Large enough that numpy
#: amortises its per-call cost, small enough that a chunk's transient
#: arrays stay far below the loaded graph's own footprint.
EDGE_CHUNK_ROWS = 8192


def edge_chunks(edges: Iterable[LabeledEdge]) -> Iterator[np.ndarray]:
    """``(src, dst, label)`` triples as ``int64`` ``(k, 3)`` arrays, in
    stream order, :data:`EDGE_CHUNK_ROWS` rows at a time."""
    edges = iter(edges)
    while True:
        chunk = np.fromiter(
            chain.from_iterable(islice(edges, EDGE_CHUNK_ROWS)), dtype=np.int64
        )
        if not chunk.size:
            return
        yield chunk.reshape(-1, 3)


def array_chunks(edges: np.ndarray) -> Iterator[np.ndarray]:
    """Row views of an ``(n, 3)`` edge array, :data:`EDGE_CHUNK_ROWS` at
    a time (the chunks :func:`edge_chunks` would have produced)."""
    for start in range(0, len(edges), EDGE_CHUNK_ROWS):
        yield edges[start : start + EDGE_CHUNK_ROWS]


def require_node_ids(ids: Iterable[int]) -> None:
    """Raise :class:`ValueError` if any node id is negative.

    Node ids index the owner table and ``-1`` marks an empty row slot,
    so every write path checks its ids with this before it logs or
    moves anything.
    """
    lowest = min(ids, default=0)
    if lowest < 0:
        raise ValueError(f"node ids must be non-negative, got {lowest}")


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

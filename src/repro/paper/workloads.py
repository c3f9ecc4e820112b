"""Workload construction for the benchmark harness.

The paper's evaluation setup (Section 4.1):

* batch k-hop path queries with randomly selected start nodes,
  batch size 64 K;
* update batches of 64 K randomly selected edge insertions and
  deletions;
* one UPMEM rank (64 PIM modules) and one dedicated host CPU core with a
  22 MB LLC.

This reproduction scales the graphs down by roughly 1/500 (see
``repro.graph.datasets``), so the workload constructors here scale the
batch sizes, and :func:`repro.pim.scaled_cost_model` the host LLC, by
the same factor to keep every engine in the same operating regime as the
paper (working sets exceed the cache, batches are large relative to the
graph).  The scale knobs are explicit
parameters so higher-fidelity runs just pass larger values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.graph.digraph import DiGraph
from repro.graph.stream import UpdateStream
from repro.rpq.query import KHopQuery, random_source_batch

#: The paper's batch size (64 K queries / 64 K updates).
PAPER_BATCH_SIZE = 64 * 1024
#: The paper's host LLC (22 MB Xeon Silver).
PAPER_LLC_BYTES = 22 * 1024 * 1024
#: Default benchmark batch size (the paper's 64 K scaled down to keep the
#: batch-to-graph ratio in the same regime).
DEFAULT_BATCH_SIZE = 128
#: Default number of PIM modules (one UPMEM rank, as in the paper).
DEFAULT_NUM_MODULES = 64


@dataclass(frozen=True)
class UpdateWorkload:
    """An insertion batch and a deletion batch for one graph."""

    insert_edges: List[Tuple[int, int]]
    delete_edges: List[Tuple[int, int]]

    @property
    def batch_size(self) -> int:
        """Number of operations per batch."""
        return len(self.insert_edges)


def khop_workload(
    graph: DiGraph,
    hops: int,
    batch_size: int = DEFAULT_BATCH_SIZE,
    seed: int = 0,
) -> KHopQuery:
    """Batch k-hop query with randomly selected start nodes."""
    nodes = list(graph.nodes())
    sources = random_source_batch(nodes, batch_size, seed=seed)
    return KHopQuery(hops=hops, sources=sources)


def update_workload(
    graph: DiGraph,
    batch_size: int = DEFAULT_BATCH_SIZE,
    seed: int = 0,
) -> UpdateWorkload:
    """Random insertion and deletion batches for the Figure 6 experiment."""
    stream = UpdateStream(graph, seed=seed)
    inserts = [op.edge for op in stream.insertion_batch(batch_size)]
    deletes = [op.edge for op in stream.deletion_batch(batch_size)]
    return UpdateWorkload(insert_edges=inserts, delete_edges=deletes)

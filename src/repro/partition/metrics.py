"""Partition quality metrics.

The paper's graph partitioning goals are (a) load balance across PIM
modules and (b) graph locality — next hops should live on the same
module as their source so path matching avoids inter-PIM communication.
These metrics quantify both, and the ablation benchmarks report them
alongside simulated latency.

All metrics ignore host-resident nodes unless stated otherwise: the host
partition is deliberately special (it takes the hubs), so including it
in PIM balance numbers would be misleading.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import Dict, List

import numpy as np

from repro.graph.digraph import ReadableGraph
from repro.partition.base import HOST_PARTITION, UNKNOWN, PartitionMap


@dataclass(frozen=True)
class PartitionQuality:
    """Summary of a partitioning of a specific graph."""

    #: Number of PIM partitions.
    num_partitions: int
    #: Nodes on each PIM partition.
    pim_sizes: List[int]
    #: Nodes on the host partition.
    host_nodes: int
    #: Fraction of edges whose endpoints sit on two *different* PIM
    #: partitions (these are the edges that cause IPC during matching).
    edge_cut_fraction: float
    #: Fraction of edges whose destination is co-located with the source
    #: (same PIM module, or source on the host).  Higher is better.
    locality_fraction: float
    #: max(PIM partition size) / mean(PIM partition size); 1.0 is perfect.
    balance_factor: float
    #: Fraction of edges with at least one endpoint on the host.
    host_edge_fraction: float

    def summary(self) -> Dict[str, float]:
        """Flat dictionary for report tables."""
        return {
            "edge_cut_fraction": self.edge_cut_fraction,
            "locality_fraction": self.locality_fraction,
            "balance_factor": self.balance_factor,
            "host_edge_fraction": self.host_edge_fraction,
            "host_nodes": float(self.host_nodes),
        }


def evaluate_partition(graph: ReadableGraph, partition_map: PartitionMap) -> PartitionQuality:
    """Compute :class:`PartitionQuality` for ``graph`` under ``partition_map``.

    Every node of the graph must be assigned; unassigned nodes raise
    ``ValueError`` because quality numbers over a partial assignment are
    meaningless.
    """
    nodes = np.fromiter(graph.nodes(), dtype=np.int64)
    unassigned = nodes[partition_map.owners_of(nodes) == UNKNOWN]
    if len(unassigned):
        raise ValueError(f"node {unassigned[0]} is not assigned to any partition")

    total_edges = cut_edges = local_edges = host_edges = 0
    edges = iter(graph.edges())
    # A few thousand edges at a time: the count allocates nothing edge-sized.
    while len(ends := np.fromiter(chain.from_iterable(islice(edges, 4096)), dtype=np.int64)):
        src, dst = partition_map.owners_of(ends.reshape(-1, 2)).T
        touches_host = (src == HOST_PARTITION) | (dst == HOST_PARTITION)
        total_edges += len(src)
        host_edges += int(np.count_nonzero(touches_host))
        # A host source streams its whole row locally, whatever the destination.
        local_edges += int(np.count_nonzero((src == dst) | (src == HOST_PARTITION)))
        cut_edges += int(np.count_nonzero((src != dst) & ~touches_host))

    pim_sizes = partition_map.pim_sizes()
    mean_size = sum(pim_sizes) / len(pim_sizes)
    balance = (max(pim_sizes) / mean_size) if mean_size > 0 else 1.0

    return PartitionQuality(
        num_partitions=partition_map.num_partitions,
        pim_sizes=pim_sizes,
        host_nodes=partition_map.host_size(),
        edge_cut_fraction=(cut_edges / total_edges) if total_edges else 0.0,
        locality_fraction=(local_edges / total_edges) if total_edges else 1.0,
        balance_factor=balance,
        host_edge_fraction=(host_edges / total_edges) if total_edges else 0.0,
    )


def load_imbalance(loads: List[int]) -> float:
    """max/mean imbalance of arbitrary per-partition load numbers.

    Used on simulated per-module work counters (items processed during a
    query) as well as on node counts.
    """
    if not loads:
        return 1.0
    mean = sum(loads) / len(loads)
    if mean == 0:
        return 1.0
    return max(loads) / mean

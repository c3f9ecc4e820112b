"""Graph partitioning algorithms and quality metrics.

The paper's central design contribution is a PIM-friendly dynamic graph
partitioning algorithm.  This package implements it and the hash
placement it is compared to:

* :class:`HashPartitioner` — the distributed-graph-database default and
  the placement used by the PIM-hash contrast system;
* :class:`RadicalGreedyPartitioner` — the paper's first-neighbor
  heuristic with a dynamic 1.05x capacity constraint;
* :class:`LaborDivisionPartitioner` — wrapper routing high-degree nodes
  to the host partition, composable with either of the above for the
  low-degree remainder;
* :mod:`repro.partition.metrics` — edge cut, locality, balance.

The greedy and adaptive families the partitioner ablation also compares
(LDG, adaptive repartitioning) are evaluation apparatus and live in
:mod:`repro.paper`.
"""

from repro.partition.base import (
    HOST_PARTITION,
    PartitionMap,
    StreamingPartitioner,
    partition_static_graph,
)
from repro.partition.hash_partition import HashPartitioner, stable_node_hash
from repro.partition.radical_greedy import (
    DEFAULT_CAPACITY_FACTOR,
    RadicalGreedyPartitioner,
)
from repro.partition.labor_division import (
    DEFAULT_HIGH_DEGREE_THRESHOLD,
    LaborDivisionPartitioner,
)
from repro.partition.owner_index import OwnerIndex
from repro.partition.metrics import (
    PartitionQuality,
    evaluate_partition,
    load_imbalance,
)

__all__ = [
    "HOST_PARTITION",
    "PartitionMap",
    "StreamingPartitioner",
    "partition_static_graph",
    "HashPartitioner",
    "stable_node_hash",
    "RadicalGreedyPartitioner",
    "DEFAULT_CAPACITY_FACTOR",
    "LaborDivisionPartitioner",
    "DEFAULT_HIGH_DEGREE_THRESHOLD",
    "OwnerIndex",
    "PartitionQuality",
    "evaluate_partition",
    "load_imbalance",
]

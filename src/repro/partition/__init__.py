"""Graph partitioning algorithms and quality metrics.

The paper's central design contribution is a PIM-friendly dynamic graph
partitioning algorithm.  This package implements it alongside the
alternatives it is compared to and combined with:

* :class:`HashPartitioner` — the distributed-graph-database default and
  the placement used by the PIM-hash contrast system;
* :class:`LDGPartitioner` — Linear Deterministic Greedy, the
  representative of the greedy family;
* :class:`AdaptivePartitioner` — hash placement plus iterative
  neighbor-majority migration, the representative of the adaptive
  family;
* :class:`RadicalGreedyPartitioner` — the paper's first-neighbor
  heuristic with a dynamic 1.05x capacity constraint;
* :class:`LaborDivisionPartitioner` — wrapper routing high-degree nodes
  to the host partition, composable with any of the above for the
  low-degree remainder;
* :mod:`repro.partition.metrics` — edge cut, locality, balance.
"""

from repro.partition.base import (
    HOST_PARTITION,
    PartitionMap,
    StreamingPartitioner,
    partition_static_graph,
)
from repro.partition.hash_partition import HashPartitioner, stable_node_hash
from repro.partition.ldg import LDGPartitioner
from repro.partition.adaptive import AdaptivePartitioner
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
    "LDGPartitioner",
    "AdaptivePartitioner",
    "RadicalGreedyPartitioner",
    "DEFAULT_CAPACITY_FACTOR",
    "LaborDivisionPartitioner",
    "DEFAULT_HIGH_DEGREE_THRESHOLD",
    "OwnerIndex",
    "PartitionQuality",
    "evaluate_partition",
    "load_imbalance",
]

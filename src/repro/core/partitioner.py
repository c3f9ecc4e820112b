"""Moctopus's Graph Partitioner component.

Wires the partitioning policies of :mod:`repro.partition` into the
configuration the rest of the system expects:

* with the default configuration, low-degree nodes are placed by the
  radical greedy heuristic (first-neighbor placement with the 1.05x
  dynamic capacity constraint) and high-degree nodes are routed to the
  host by the labor-division wrapper;
* with :meth:`MoctopusConfig.pim_hash_config`, every node is placed by a
  plain hash, reproducing the paper's PIM-hash contrast system.

The partitioner owns the ``node_partition_vector`` (the
:class:`~repro.partition.base.PartitionMap`), which records every
placement decision so new nodes can be assigned in O(1) by consulting
their first neighbor's entry.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import MoctopusConfig
from repro.partition.base import HOST_PARTITION, PartitionMap, StreamingPartitioner
from repro.partition.hash_partition import HashPartitioner
from repro.partition.labor_division import LaborDivisionPartitioner
from repro.partition.radical_greedy import RadicalGreedyPartitioner


class GraphPartitioner:
    """The component deciding which computing node owns each graph node."""

    def __init__(self, config: MoctopusConfig) -> None:
        self._config = config
        if config.pim_placement == "radical_greedy":
            pim_policy: StreamingPartitioner = RadicalGreedyPartitioner(
                config.num_modules, capacity_factor=config.capacity_factor
            )
        else:
            pim_policy = HashPartitioner(config.num_modules)
        self._pim_policy = pim_policy
        #: The labor-division wrapper, ``None`` when labor division is off.
        self.labor_division: Optional[LaborDivisionPartitioner] = None
        self._policy = pim_policy
        if config.labor_division_enabled:
            self.labor_division = self._policy = LaborDivisionPartitioner(
                pim_policy, high_degree_threshold=config.high_degree_threshold
            )
        #: :meth:`partition_of`, bound once: the policies share one
        #: partition map and never rebind it, so the three frames the
        #: method would walk (partitioner -> policy -> map) are one
        #: ``dict.get``.
        self.partition_of = self.partition_map.partition_of

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def ingest_edge(self, src: int, dst: int) -> Tuple[int, int]:
        """Observe an arriving edge and place any unseen endpoint.

        Returns the ``(src_partition, dst_partition)`` pair *after* the
        edge has been taken into account; the source may have just been
        promoted to the host if its degree crossed the threshold.
        """
        return self._policy.ingest_edge(src, dst)

    def assign_node(self, node: int, first_neighbor: Optional[int] = None) -> int:
        """Place an isolated new node (no edge yet)."""
        return self._policy.assign_node(node, first_neighbor=first_neighbor)

    def assign_nodes(
        self, nodes: List[int], first_neighbors: List[Optional[int]]
    ) -> List[int]:
        """Place a run of distinct new nodes in order, as one
        :meth:`assign_node` each (the bulk loader's placements)."""
        return self._policy.assign_nodes(nodes, first_neighbors)

    def partition_of(self, node: int) -> Optional[int]:
        """Partition of ``node`` (``HOST_PARTITION`` for the host, ``None`` if unknown)."""
        return self._policy.partition_of(node)

    def migrate(self, node: int, target_partition: int) -> None:
        """Record that ``node`` now lives on ``target_partition``."""
        self.partition_map.assign(node, target_partition)

    # ------------------------------------------------------------------
    # Checkpoint capture / restore
    # ------------------------------------------------------------------
    def capture_state(self) -> Dict[str, object]:
        """What future placement decisions depend on, beyond the
        ``node_partition_vector`` itself (a checkpoint takes that from
        its published epoch's frozen owner table).

        The labor-division wrapper's observed out-degrees as sorted
        ``(node, degree)`` array rows (they decide future promotions)
        and the placement counters (diagnostics the recovered system
        must keep reporting consistently).
        """
        degrees = np.empty((0, 2), dtype=np.int64)
        if self.labor_division is not None:
            observed = self.labor_division._out_degree
            nodes = np.fromiter(observed.keys(), dtype=np.int64, count=len(observed))
            counts = np.fromiter(observed.values(), dtype=np.int64, count=len(observed))
            order = np.argsort(nodes)
            degrees = np.column_stack([nodes[order], counts[order]])
        return {
            "out_degrees": degrees,
            "greedy_placements": self.greedy_placements(),
            "fallback_placements": self.fallback_placements(),
            "promotions": self.promotions(),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Rebuild policy state from a capture (freshly constructed only).

        ``assignments`` and ``out_degrees`` are two-column int arrays.
        """
        if len(self.partition_map):
            raise RuntimeError("restore_state requires an empty partitioner")
        for node, partition in state["assignments"].tolist():
            self.partition_map.assign(node, partition)
        if self.labor_division is not None:
            self.labor_division._out_degree = dict(state["out_degrees"].tolist())
            self.labor_division.promotions = int(state["promotions"])
        if isinstance(self._pim_policy, RadicalGreedyPartitioner):
            self._pim_policy.greedy_placements = int(state["greedy_placements"])
            self._pim_policy.fallback_placements = int(state["fallback_placements"])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def partition_map(self) -> PartitionMap:
        """The ``node_partition_vector``."""
        return self._policy.partition_map

    @property
    def num_modules(self) -> int:
        """Number of PIM partitions."""
        return self._config.num_modules

    def is_host(self, node: int) -> bool:
        """Whether ``node`` currently lives on the host partition."""
        return self.partition_of(node) == HOST_PARTITION

    def greedy_placements(self) -> int:
        """Placements that followed the first-neighbor heuristic (0 for hash)."""
        if isinstance(self._pim_policy, RadicalGreedyPartitioner):
            return self._pim_policy.greedy_placements
        return 0

    def fallback_placements(self) -> int:
        """Placements diverted by the capacity constraint (0 for hash)."""
        if isinstance(self._pim_policy, RadicalGreedyPartitioner):
            return self._pim_policy.fallback_placements
        return 0

    def promotions(self) -> int:
        """Nodes promoted to the host because they became high-degree."""
        if self.labor_division is not None:
            return self.labor_division.promotions
        return 0

"""Moctopus's Graph Partitioner component.

Wires the placement its system builds (``Moctopus._build_placement``)
into the interface the rest of the system expects.  A
:class:`~repro.core.system.Moctopus` places low-degree nodes by the
radical greedy heuristic (first-neighbor placement with the 1.05x
dynamic capacity constraint), and the labor-division wrapper routes
nodes above out-degree 16 to the host; the evaluation's PIM-hash system
(:mod:`repro.paper`) places every node by a plain hash, without labor
division.

The partitioner owns the ``node_partition_vector`` (the
:class:`~repro.partition.base.PartitionMap`), which records every
placement decision so new nodes can be assigned in O(1) by consulting
their first neighbor's entry.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.partition.base import HOST_PARTITION, PartitionMap, StreamingPartitioner
from repro.partition.labor_division import LaborDivisionPartitioner


class GraphPartitioner:
    """The component deciding which computing node owns each graph node."""

    def __init__(self, placement: StreamingPartitioner) -> None:
        """``placement`` is a PIM placement policy, or a
        :class:`LaborDivisionPartitioner` over one."""
        self._policy = placement
        #: The labor-division wrapper, ``None`` when labor division is off.
        self.labor_division: Optional[LaborDivisionPartitioner] = None
        #: The PIM placement: its counters and whether the node migrator
        #: repairs it (:attr:`StreamingPartitioner.migrates`).
        self.pim_policy = placement
        if isinstance(placement, LaborDivisionPartitioner):
            self.labor_division = placement
            self.pim_policy = placement.pim_partitioner
        #: Partition of a node (``HOST_PARTITION`` for the host, ``None``
        #: if unknown), bound once: the policies share one partition map
        #: and never rebind it, so the three frames the method would walk
        #: (partitioner -> policy -> map) are one ``dict.get``.
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

    def migrate(self, node: int, target_partition: int) -> None:
        """Record that ``node`` now lives on ``target_partition``."""
        self.partition_map.assign(node, target_partition)

    # ------------------------------------------------------------------
    # Durability: the placement record, checkpoint capture / restore
    # ------------------------------------------------------------------
    def record(self) -> Dict[str, object]:
        """The placement's own parameters, as a durability directory
        records them (``config.json`` and every checkpoint manifest).

        Replay re-runs placement, so recovery refuses a directory whose
        record differs from the recovering class's.  The keys are the
        config fields placement once was.
        """
        labor = self.labor_division
        return {
            "pim_placement": self.pim_policy.name,
            "enable_migration": self.pim_policy.migrates,
            "capacity_factor": getattr(self.pim_policy, "capacity_factor", None),
            "high_degree_threshold": None if labor is None else labor.high_degree_threshold,
        }

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
            "greedy_placements": self.pim_policy.greedy_placements,
            "fallback_placements": self.pim_policy.fallback_placements,
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
        self.pim_policy.greedy_placements = int(state["greedy_placements"])
        self.pim_policy.fallback_placements = int(state["fallback_placements"])

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
        return self.pim_policy.num_partitions

    def is_host(self, node: int) -> bool:
        """Whether ``node`` currently lives on the host partition."""
        return self.partition_of(node) == HOST_PARTITION

    def promotions(self) -> int:
        """Nodes promoted to the host because they became high-degree."""
        if self.labor_division is not None:
            return self.labor_division.promotions
        return 0

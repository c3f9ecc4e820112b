"""The PIM-hash contrast system.

The paper's second comparison point: the same PIM platform and the same
matrix-based execution engine as Moctopus, but with the partitioning
scheme that distributed graph databases (G-Tran, ByteGraph) actually
use — every graph node is hash-partitioned across PIM modules.  There is
no labor division (hubs sit on whatever module the hash picked), no
locality-aware placement and no migration (the node migrator does not
repair a :class:`~repro.partition.hash_partition.HashPartitioner`).

Because the execution engine is shared with Moctopus, every difference
in the simulated numbers comes from partitioning alone, which is exactly
the comparison Figures 4 and 5 of the paper make (load imbalance from
skew, and the IPC cost of ignoring locality).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.config import MoctopusConfig
from repro.core.system import Moctopus
from repro.graph.digraph import DiGraph
from repro.partition.base import StreamingPartitioner
from repro.partition.hash_partition import HashPartitioner
from repro.pim.cost_model import CostModel


class PIMHashSystem(Moctopus):
    """Moctopus's engine with hash partitioning and nothing else."""

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        label_names: Optional[Dict[int, str]] = None,
    ) -> None:
        super().__init__(
            config=MoctopusConfig(
                cost_model=cost_model or CostModel(), high_degree_threshold=None
            ),
            label_names=label_names,
        )

    def _build_placement(self) -> StreamingPartitioner:
        return HashPartitioner(self.config.num_modules)

    @classmethod
    def from_graph(
        cls,
        graph: DiGraph,
        cost_model: Optional[CostModel] = None,
        label_names: Optional[Dict[int, str]] = None,
    ) -> "PIMHashSystem":
        """Build a PIM-hash system and bulk-load ``graph``."""
        system = cls(cost_model=cost_model, label_names=label_names)
        system.load_graph(graph)
        return system

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

from repro.core.system import Moctopus
from repro.partition.base import StreamingPartitioner
from repro.partition.hash_partition import HashPartitioner


class PIMHashSystem(Moctopus):
    """Moctopus's engine with hash partitioning and nothing else."""

    def _build_placement(self) -> StreamingPartitioner:
        return HashPartitioner(self.config.num_modules)

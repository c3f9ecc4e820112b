"""Hash partitioning — the scheme of distributed graph databases.

The widely used baseline (G-Tran, ByteGraph, and the paper's *PIM-hash*
contrast system): every graph node is assigned to a computing node by a
consistent hash of its identifier.  Placement is O(1) and needs no
state, but it ignores graph locality entirely (any next hop is on a
random module, so almost every hop of a path query crosses modules) and
it inherits the skew of the graph (a module that happens to own several
hubs becomes the straggler).
"""

from __future__ import annotations

from typing import Optional

from repro.partition.base import StreamingPartitioner

#: Default salt of :func:`stable_node_hash`, the one
#: :class:`HashPartitioner` places with.
HASH_SALT = 0x9E3779B1


def stable_node_hash(node: int, salt: int = HASH_SALT) -> int:
    """Deterministic 64-bit mix of a node id.

    Python's built-in ``hash`` of an ``int`` is the identity, which would
    turn "hash partitioning" into range partitioning and accidentally
    preserve locality for generators that allocate ids contiguously.  A
    Fibonacci/xorshift mix gives the uniform spread a real consistent
    hash would.
    """
    value = (node + salt) & 0xFFFFFFFFFFFFFFFF
    value ^= value >> 33
    value = (value * 0xFF51AFD7ED558CCD) & 0xFFFFFFFFFFFFFFFF
    value ^= value >> 33
    value = (value * 0xC4CEB9FE1A85EC53) & 0xFFFFFFFFFFFFFFFF
    value ^= value >> 33
    return value


class HashPartitioner(StreamingPartitioner):
    """Assign every node to ``stable_node_hash(node) % P``."""

    name = "hash"

    def assign_node(self, node: int, first_neighbor: Optional[int] = None) -> int:
        """Place ``node`` by hashing its identifier (neighbor is ignored)."""
        partition = stable_node_hash(node) % self.num_partitions
        self.partition_map.assign(node, partition)
        return partition

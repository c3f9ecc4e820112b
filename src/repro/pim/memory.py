"""The error a PIM module's full local memory raises.

Each UPMEM PIM module has only 64 MB of local memory, which is why the
master-slave replication scheme used by Neo4j (every computing node
stores the whole graph) is "nearly unfeasible" on PIM, as the paper puts
it.  The simulator enforces that constraint in the module's graph
storage (:class:`~repro.core.local_storage.LocalGraphStorage`, whose
byte count is the module's memory): a write that would overflow it
raises :class:`MemoryCapacityError`, which the partitioner's capacity
constraint is designed to prevent.
"""

from __future__ import annotations


class MemoryCapacityError(RuntimeError):
    """Raised when an allocation would exceed a module's local memory."""

    def __init__(self, requested: int, available: int, capacity: int) -> None:
        super().__init__(
            f"allocation of {requested} bytes exceeds available local memory "
            f"({available} of {capacity} bytes free)"
        )
        self.requested = requested
        self.available = available
        self.capacity = capacity

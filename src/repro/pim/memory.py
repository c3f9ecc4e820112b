"""Local memory capacity accounting for PIM modules.

Each UPMEM PIM module has only 64 MB of local memory, which is why the
master-slave replication scheme used by Neo4j (every computing node
stores the whole graph) is "nearly unfeasible" on PIM, as the paper puts
it.  The simulator enforces that constraint: graph storage engines
allocate their rows against a :class:`LocalMemory` and get a
:class:`MemoryCapacityError` when a module would overflow, which the
partitioner's capacity constraint is designed to prevent.
"""

from __future__ import annotations

from dataclasses import dataclass


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


class LocalMemory:
    """Byte-granular capacity accounting (no address simulation)."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self._used_bytes = 0

    @property
    def used_bytes(self) -> int:
        """Bytes currently allocated."""
        return self._used_bytes

    @property
    def available_bytes(self) -> int:
        """Bytes still free."""
        return self.capacity_bytes - self._used_bytes

    @property
    def utilization(self) -> float:
        """Fraction of capacity in use (0.0 - 1.0)."""
        return self._used_bytes / self.capacity_bytes

    def allocate(self, num_bytes: int) -> None:
        """Reserve ``num_bytes``; raise :class:`MemoryCapacityError` on overflow."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if self._used_bytes + num_bytes > self.capacity_bytes:
            raise MemoryCapacityError(
                requested=num_bytes,
                available=self.available_bytes,
                capacity=self.capacity_bytes,
            )
        self._used_bytes += num_bytes

    def free(self, num_bytes: int) -> None:
        """Release ``num_bytes`` previously allocated."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if num_bytes > self._used_bytes:
            raise ValueError(
                f"freeing {num_bytes} bytes but only {self._used_bytes} are allocated"
            )
        self._used_bytes -= num_bytes

    def reset(self) -> None:
        """Release everything (used when a module is re-provisioned)."""
        self._used_bytes = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LocalMemory(used={self._used_bytes}, "
            f"capacity={self.capacity_bytes})"
        )


@dataclass(frozen=True)
class PIMModule:
    """The part of a PIM module that outlives an operation: its id and
    the capacity account of its local memory, so graph storage capacity
    is enforced across the whole lifetime of the system (the work a
    module is charged lives in the operation that charges it)."""

    module_id: int
    memory: LocalMemory

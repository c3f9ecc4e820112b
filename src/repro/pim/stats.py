"""Execution statistics collected by the PIM simulator.

Every engine in this reproduction produces a :class:`ExecutionStats`
object per operation (a batch query, an update batch, ...).  The object
records how much time was spent in each of the four places the paper's
analysis distinguishes:

* ``host_time``   — work executed on the host CPU core;
* ``cpc_time``    — CPU-PIM transfers (dispatching operators, gathering
  partial results, the ``mwait`` reduction);
* ``ipc_time``    — inter-PIM transfers (next hops owned by another
  module, forwarded through the host);
* ``pim_time``    — the *critical path* over PIM modules, i.e. the sum
  over bulk-synchronous phases of the maximum per-module busy time in
  that phase (modules work in parallel inside a phase).

The total latency is their sum, which is the bottleneck structure the
paper describes (Section 4.2: CPC and reduction become the bottleneck
for large k; Figure 5 reports the IPC component in isolation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class ChannelCounters:
    """Byte and transfer counters for one communication channel."""

    bytes_moved: int = 0
    transfers: int = 0

    def record(self, num_bytes: int, num_transfers: int = 1) -> None:
        """Accumulate a transfer of ``num_bytes``."""
        self.bytes_moved += num_bytes
        self.transfers += num_transfers

    def merge(self, other: "ChannelCounters") -> None:
        """Fold ``other`` into this counter."""
        self.bytes_moved += other.bytes_moved
        self.transfers += other.transfers


@dataclass
class ExecutionStats:
    """Time breakdown and raw counters of one simulated operation."""

    host_time: float = 0.0
    cpc_time: float = 0.0
    ipc_time: float = 0.0
    pim_time: float = 0.0
    #: Raw channel counters (bytes over CPC, bytes over IPC).
    cpc: ChannelCounters = field(default_factory=ChannelCounters)
    ipc: ChannelCounters = field(default_factory=ChannelCounters)
    #: Per-phase maximum module time, in execution order (diagnostic).
    phase_pim_times: List[float] = field(default_factory=list)
    #: Free-form named counters (e.g. ``"migrations"``, ``"results"``).
    counters: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def total_time(self) -> float:
        """End-to-end latency in seconds."""
        return self.host_time + self.cpc_time + self.ipc_time + self.pim_time

    @property
    def total_time_ms(self) -> float:
        """End-to-end latency in milliseconds."""
        return self.total_time * 1e3

    @property
    def ipc_time_ms(self) -> float:
        """IPC component in milliseconds (Figure 5 reports this)."""
        return self.ipc_time * 1e3

    def add_counter(self, name: str, amount: int = 1) -> None:
        """Increment the named free-form counter."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def copy(self) -> "ExecutionStats":
        """An equal :class:`ExecutionStats` sharing no mutable part with this one."""
        return ExecutionStats(
            host_time=self.host_time,
            cpc_time=self.cpc_time,
            ipc_time=self.ipc_time,
            pim_time=self.pim_time,
            cpc=ChannelCounters(self.cpc.bytes_moved, self.cpc.transfers),
            ipc=ChannelCounters(self.ipc.bytes_moved, self.ipc.transfers),
            phase_pim_times=list(self.phase_pim_times),
            counters=dict(self.counters),
        )

    def merge(self, other: "ExecutionStats") -> None:
        """Fold another operation's stats into this one (sequential composition)."""
        self.host_time += other.host_time
        self.cpc_time += other.cpc_time
        self.ipc_time += other.ipc_time
        self.pim_time += other.pim_time
        self.cpc.merge(other.cpc)
        self.ipc.merge(other.ipc)
        self.phase_pim_times.extend(other.phase_pim_times)
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value

    def breakdown(self) -> Dict[str, float]:
        """Dictionary view of the time components (seconds)."""
        return {
            "host_time": self.host_time,
            "cpc_time": self.cpc_time,
            "ipc_time": self.ipc_time,
            "pim_time": self.pim_time,
            "total_time": self.total_time,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            "ExecutionStats("
            f"total={self.total_time_ms:.3f}ms, "
            f"host={self.host_time * 1e3:.3f}ms, "
            f"cpc={self.cpc_time * 1e3:.3f}ms, "
            f"ipc={self.ipc_time * 1e3:.3f}ms, "
            f"pim={self.pim_time * 1e3:.3f}ms)"
        )

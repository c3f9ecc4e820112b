"""The charge ledger: who was charged how much, for one phase or for ever.

Nothing in the simulator executes real code; engines *charge* work —
bytes streamed, random accesses, items processed, kernels launched,
bytes moved over a channel — and the cost model turns the charges into
time.  A :class:`ChargeLedger` is one set of such charges: an open phase
of an :class:`~repro.pim.system.OperationContext` owns an empty one that
is priced when the phase closes, and a :class:`~repro.pim.system.PIMSystem`
owns one of *totals* that every closed phase is merged into once.

Per-module counters are keyed by module id and exist only for modules
that were charged: a module nobody charged was busy for exactly ``0.0``
seconds and has processed exactly ``0`` items, so neither pricing a
phase nor folding it visits the other ``P - 1`` modules.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import DefaultDict

from repro.pim.cost_model import CostModel
from repro.pim.stats import ChannelCounters


@dataclass(slots=True)
class ModuleCounters:
    """Work charged to one PIM module (an UPMEM DPU): a wimpy core
    beside a small local memory."""

    bytes_streamed: int = 0
    accesses_made: int = 0
    items_processed: int = 0
    kernels_launched: int = 0

    def launch_kernel(self) -> None:
        """Charge one operator/kernel launch."""
        self.kernels_launched += 1

    def stream_bytes(self, num_bytes: int) -> None:
        """Charge a sequential scan of ``num_bytes`` of local memory."""
        self.bytes_streamed += num_bytes

    def random_accesses(self, num_accesses: int) -> None:
        """Charge ``num_accesses`` random local-memory accesses (hash lookups)."""
        self.accesses_made += num_accesses

    def process_items(self, num_items: int) -> None:
        """Charge ``num_items`` of per-item instruction work on the core."""
        self.items_processed += num_items

    def busy_time(self, model: CostModel) -> float:
        """Seconds the module needs for the charged work."""
        time = model.pim_stream_time(self.bytes_streamed)
        time += model.pim_random_access_time(self.accesses_made)
        time += model.pim_compute_time(self.items_processed)
        time += self.kernels_launched * model.pim_launch_latency
        return time

    def merge(self, other: "ModuleCounters") -> None:
        """Fold ``other`` into this counter."""
        self.bytes_streamed += other.bytes_streamed
        self.accesses_made += other.accesses_made
        self.items_processed += other.items_processed
        self.kernels_launched += other.kernels_launched


@dataclass(slots=True)
class HostCounters:
    """Work charged to the host: a conventional server CPU with a large
    last-level cache.

    Engines charge three kinds of work to it: sequential streaming
    (scanning a contiguous ``cols_vector`` of a high-degree node, packing
    operator payloads for transfer), dependent random accesses over a
    working set (pointer chasing through adjacency rows — cheap while
    the working set fits the LLC, a DRAM round-trip per access once it
    does not), and per-item instruction work (set insertions during
    reduction, plan bookkeeping).

    The distinction between cache-resident and DRAM-resident random
    access is the crux of the paper's motivation, and it is what lets
    the RedisGraph baseline be competitive on small/cache-friendly
    inputs while losing on large pointer-chasing workloads.
    """

    sequential_bytes: int = 0
    accesses_made: int = 0
    items_processed: int = 0
    #: Largest working set a random-access charge named (per phase; the
    #: totals' high-water mark is not checkpointed).
    working_set_bytes: int = 0

    def stream_bytes(self, num_bytes: int) -> None:
        """Charge a sequential DRAM scan of ``num_bytes``."""
        self.sequential_bytes += num_bytes

    def random_accesses(self, num_accesses: int, working_set_bytes: int) -> None:
        """Charge dependent random accesses over a working set.

        ``working_set_bytes`` is the size of the structure being chased;
        the cost model compares it against the LLC to decide whether each
        access is a cache hit or a DRAM round-trip.  When several charges
        with different working sets land in one phase, the largest
        working set wins (conservative: the mixed access stream behaves
        like its least cacheable component).
        """
        self.accesses_made += num_accesses
        if working_set_bytes > self.working_set_bytes:
            self.working_set_bytes = working_set_bytes

    def process_items(self, num_items: int) -> None:
        """Charge ``num_items`` of per-item instruction work."""
        self.items_processed += num_items

    def busy_time(self, model: CostModel) -> float:
        """Seconds the host needs for the charged work."""
        time = model.host_sequential_time(self.sequential_bytes)
        time += model.host_random_access_time(self.accesses_made, self.working_set_bytes)
        time += model.host_compute_time(self.items_processed)
        return time

    def merge(self, other: "HostCounters") -> None:
        """Fold ``other`` into this counter."""
        self.sequential_bytes += other.sequential_bytes
        self.accesses_made += other.accesses_made
        self.working_set_bytes = max(self.working_set_bytes, other.working_set_bytes)
        self.items_processed += other.items_processed


@dataclass(slots=True)
class ChargeLedger:
    """Charges to every component of the platform.

    Two logical channels connect the components.  **CPC** (CPU-PIM
    communication): the host dispatches operators and payloads to
    modules and gathers partial results back; all modules share roughly
    25 GB/s of CPC bandwidth, so heavy result reduction serialises
    here.  **IPC** (inter-PIM communication): a module needs data owned
    by another module.  UPMEM has no direct module-to-module path — the
    host forwards the data — so IPC is strictly more expensive than CPC
    and the partitioning algorithm's whole purpose is to minimise it.
    """

    #: Counters of the modules charged so far, by module id; indexing
    #: creates a module's counters on first use.
    modules: DefaultDict[int, ModuleCounters] = field(
        default_factory=lambda: defaultdict(ModuleCounters)
    )
    host: HostCounters = field(default_factory=HostCounters)
    cpc: ChannelCounters = field(default_factory=ChannelCounters)
    ipc: ChannelCounters = field(default_factory=ChannelCounters)

    def merge(self, other: "ChargeLedger") -> None:
        """Fold ``other`` into this ledger.

        Every counter is an integer event count, so merged totals are
        bit-identical whatever the order the ledgers were folded in.
        """
        for module_id, counters in other.modules.items():
            self.modules[module_id].merge(counters)
        self.host.merge(other.host)
        self.cpc.merge(other.cpc)
        self.ipc.merge(other.ipc)

    # ------------------------------------------------------------------
    # Manifest form (checkpoints, the worker pool's accounting deltas)
    # ------------------------------------------------------------------
    def to_manifest(self, num_modules: int) -> dict:
        """The charges as plain JSON-able data, one row per module."""
        idle = ModuleCounters()
        rows = []
        for module_id in range(num_modules):
            module = self.modules.get(module_id, idle)  # .get: reading creates nothing
            rows.append([
                module.bytes_streamed,
                module.accesses_made,
                module.items_processed,
                module.kernels_launched,
            ])
        host = self.host
        return {
            "modules": rows,
            "host": [host.sequential_bytes, host.accesses_made, host.items_processed],
            "cpc": [self.cpc.bytes_moved, self.cpc.transfers],
            "ipc": [self.ipc.bytes_moved, self.ipc.transfers],
        }

    @classmethod
    def from_manifest(cls, state: dict) -> "ChargeLedger":
        """The ledger a :meth:`to_manifest` capture describes."""
        ledger = cls(
            host=HostCounters(*(int(value) for value in state["host"])),
            cpc=ChannelCounters(*(int(value) for value in state["cpc"])),
            ipc=ChannelCounters(*(int(value) for value in state["ipc"])),
        )
        for module_id, row in enumerate(state["modules"]):
            if any(row):
                ledger.modules[module_id] = ModuleCounters(*(int(value) for value in row))
        return ledger

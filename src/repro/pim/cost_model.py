"""Cost model of the simulated PIM platform.

The paper implements Moctopus on UPMEM DIMMs and quotes the platform
characteristics measured by Gómez-Luna et al. (2021):

* 2048 PIM modules (DPUs) deliver about **1.28 TB/s** of aggregate
  intra-PIM bandwidth — i.e. roughly **625 MB/s per module** when a
  module streams its own local memory;
* total **CPU-PIM (CPC)** and **inter-PIM (IPC)** bandwidth is only about
  **25 GB/s**, *less than 2 %* of the aggregate intra-PIM bandwidth;
* IPC has no direct path: it is realised by the host CPU forwarding
  data, so an inter-PIM byte pays a PIM→CPU transfer, host handling and
  a CPU→PIM transfer;
* each PIM module has **64 MB** of local memory and a wimpy in-order
  core, so per-item processing is slow but fully parallel across
  modules;
* the host is a Xeon Silver with a **22 MB** LLC: accesses that hit the
  LLC are cheap, pointer-chasing beyond it pays DRAM latency — the
  "memory wall" the paper opens with.

:class:`CostModel` gathers these parameters and converts *event counts*
(bytes moved per channel, items processed per component) into seconds.
The simulator is therefore analytic rather than cycle-accurate: it keeps
exactly the quantities the paper's analysis depends on (who moves how
many bytes over which channel, and the maximum load across modules) and
nothing else.

All returned times are in **seconds**; reports convert to milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict


@dataclass(frozen=True)
class CostModel:
    """Timing parameters of the simulated platform.

    The defaults model the paper's configuration: one UPMEM rank
    (64 PIM modules) plus one dedicated host CPU core.
    """

    # ------------------------------------------------------------------
    # PIM side
    # ------------------------------------------------------------------
    #: Number of PIM modules available to the system (one UPMEM rank).
    num_modules: int = 64
    #: Local memory capacity per module in bytes (UPMEM MRAM: 64 MB).
    module_memory_bytes: int = 64 * 1024 * 1024
    #: Streaming bandwidth of a module over its own local memory (B/s).
    intra_pim_bandwidth: float = 625e6
    #: Extra latency per random (hash-map) access inside a module (s).
    #: UPMEM MRAM accesses take ~100 ns once the DMA is issued.
    pim_random_access_latency: float = 150e-9
    #: Per-item instruction cost on the wimpy PIM core (s).  Covers the
    #: hash lookup / set-insert executed for every gathered next hop.
    pim_item_cost: float = 25e-9
    #: Fixed cost of launching a kernel (operator) on a module (s).
    pim_launch_latency: float = 2e-6

    # ------------------------------------------------------------------
    # Host side
    # ------------------------------------------------------------------
    #: Host last-level cache size in bytes (22 MB Xeon Silver LLC).
    host_llc_bytes: int = 22 * 1024 * 1024
    #: Host DRAM sequential bandwidth (B/s).
    host_sequential_bandwidth: float = 20e9
    #: Host DRAM random access latency (s) — one pointer chase.
    host_random_access_latency: float = 90e-9
    #: Host cache-hit access latency (s).
    host_cache_access_latency: float = 8e-9
    #: Per-item instruction cost on the host core (s); the host core is
    #: roughly an order of magnitude faster than a PIM core per item.
    host_item_cost: float = 2.5e-9

    # ------------------------------------------------------------------
    # Communication
    # ------------------------------------------------------------------
    #: Aggregate CPU-PIM bandwidth shared by all modules (B/s).
    cpc_bandwidth: float = 25e9
    #: Fixed latency per CPC batch transfer (s).
    cpc_transfer_latency: float = 20e-6
    #: Host per-byte handling cost while forwarding IPC traffic (s/B).
    ipc_forward_overhead: float = 1.0 / 25e9

    #: Bytes used to encode one node identifier on the wire and in memory.
    bytes_per_node_id: int = 8

    # ------------------------------------------------------------------
    # Derived helpers
    # ------------------------------------------------------------------
    def with_modules(self, num_modules: int) -> "CostModel":
        """Return a copy of the model with a different module count."""
        if num_modules <= 0:
            raise ValueError("num_modules must be positive")
        return replace(self, num_modules=num_modules)

    # Intra-PIM ---------------------------------------------------------
    def pim_stream_time(self, num_bytes: int) -> float:
        """Time for a module to stream ``num_bytes`` from local memory."""
        return num_bytes / self.intra_pim_bandwidth

    def pim_random_access_time(self, num_accesses: int) -> float:
        """Time for ``num_accesses`` random local-memory accesses."""
        return num_accesses * self.pim_random_access_latency

    def pim_compute_time(self, num_items: int) -> float:
        """Time for the wimpy core to process ``num_items`` items."""
        return num_items * self.pim_item_cost

    # Host --------------------------------------------------------------
    def host_sequential_time(self, num_bytes: int) -> float:
        """Time for the host to stream ``num_bytes`` from DRAM."""
        return num_bytes / self.host_sequential_bandwidth

    def host_random_access_time(self, num_accesses: int, working_set_bytes: int) -> float:
        """Time for ``num_accesses`` dependent accesses over a working set.

        Accesses within an LLC-resident working set cost
        :attr:`host_cache_access_latency`; otherwise each pays a DRAM
        pointer-chase.  This is the memory-wall switch: RedisGraph on a
        small graph lives in cache, on a large graph it does not.
        """
        if working_set_bytes <= self.host_llc_bytes:
            return num_accesses * self.host_cache_access_latency
        return num_accesses * self.host_random_access_latency

    def host_compute_time(self, num_items: int) -> float:
        """Time for the host core to process ``num_items`` items."""
        return num_items * self.host_item_cost

    # Communication ------------------------------------------------------
    def cpc_time(self, num_bytes: int, num_transfers: int = 1) -> float:
        """Time to move ``num_bytes`` over the CPU-PIM channel.

        ``num_transfers`` counts separately launched batch transfers, each
        paying the fixed :attr:`cpc_transfer_latency`.
        """
        return num_bytes / self.cpc_bandwidth + num_transfers * self.cpc_transfer_latency

    def ipc_time(self, num_bytes: int, num_transfers: int = 1) -> float:
        """Time to move ``num_bytes`` between PIM modules.

        IPC is realised by CPU forwarding: PIM→CPU plus CPU→PIM over the
        same shared channel, plus host handling, so it costs more than
        twice a CPC transfer of the same size.
        """
        channel_time = 2.0 * self.cpc_time(num_bytes, num_transfers)
        return channel_time + num_bytes * self.ipc_forward_overhead

    def describe(self) -> Dict[str, float]:
        """Flat parameter dictionary (used in benchmark report headers)."""
        return {
            "num_modules": self.num_modules,
            "module_memory_bytes": self.module_memory_bytes,
            "intra_pim_bandwidth": self.intra_pim_bandwidth,
            "cpc_bandwidth": self.cpc_bandwidth,
            "host_sequential_bandwidth": self.host_sequential_bandwidth,
            "host_llc_bytes": self.host_llc_bytes,
            "host_random_access_latency": self.host_random_access_latency,
            "pim_random_access_latency": self.pim_random_access_latency,
        }


#: Cost model matching the paper's evaluation platform (one UPMEM rank).
UPMEM_RANK = CostModel()

#: Cost model for a whole UPMEM system (2048 modules), for scaling studies.
UPMEM_FULL = CostModel(num_modules=2048)

#: Scale factor of the synthetic datasets relative to the SNAP originals
#: (:mod:`repro.graph.datasets`).
DATASET_SCALE_FRACTION = 1.0 / 125.0


def scaled_cost_model(
    num_modules: int = CostModel.num_modules,
    scale_fraction: float = DATASET_SCALE_FRACTION,
    llc_bytes: int = 32 * 1024,
) -> CostModel:
    """Cost model scaled consistently with the scaled-down datasets.

    Two families of parameters need adjusting when the workload shrinks
    by ~500x; per-byte and per-access costs stay untouched because they
    are intensive quantities:

    * **LLC size** — keeping the 22 MB LLC while shrinking the graphs
      500x would put the RedisGraph baseline entirely in cache, a regime
      the paper never measures.  The default of 32 KB keeps the
      working-set-to-LLC ratio of every trace in the same 1x-10x band as
      the originals against the real 22 MB cache.
    * **Fixed per-operation latencies** (CPC batch-transfer setup, PIM
      kernel launch) — these are amortised over 64 K-query batches in the
      paper; over a 128-query batch they would artificially dominate, so
      they are scaled by the same fraction as the data.
    """
    return CostModel(
        num_modules=num_modules,
        host_llc_bytes=llc_bytes,
        cpc_transfer_latency=CostModel.cpc_transfer_latency * scale_fraction,
        pim_launch_latency=CostModel.pim_launch_latency * scale_fraction,
    )

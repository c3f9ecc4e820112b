"""Simulator of a commodity processing-in-memory platform (UPMEM-like).

The paper evaluates Moctopus on real UPMEM hardware; this reproduction
substitutes an analytic simulator.  The simulator keeps
the quantities that determine PIM performance — bytes moved per channel,
random accesses, and the maximum load across modules in each
bulk-synchronous phase — and converts them into latency with parameters
taken from the published UPMEM characterisation.

Public surface:

* :class:`CostModel`, the presets :data:`UPMEM_RANK` /
  :data:`UPMEM_FULL`, and :func:`scaled_cost_model`, the model scaled
  with the synthetic datasets;
* :class:`PIMSystem`, whose :meth:`~PIMSystem.begin_operation` returns an
  :class:`OperationContext` used to charge work phase by phase;
* :class:`ExecutionStats` with the host/CPC/IPC/PIM time breakdown;
* :class:`MemoryCapacityError`, raised by a module's graph storage
  (:class:`~repro.core.local_storage.LocalGraphStorage`) when a write
  would overflow its 64 MB of local memory.
"""

from repro.pim.cost_model import UPMEM_FULL, UPMEM_RANK, CostModel, scaled_cost_model
from repro.pim.ledger import ChargeLedger, ModuleCounters
from repro.pim.memory import MemoryCapacityError
from repro.pim.stats import ChannelCounters, ExecutionStats
from repro.pim.system import OperationContext, PIMSystem

__all__ = [
    "CostModel",
    "UPMEM_RANK",
    "UPMEM_FULL",
    "scaled_cost_model",
    "ChargeLedger",
    "MemoryCapacityError",
    "ChannelCounters",
    "ModuleCounters",
    "ExecutionStats",
    "OperationContext",
    "PIMSystem",
]

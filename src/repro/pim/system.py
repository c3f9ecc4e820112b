"""The simulated PIM platform: host + modules + interconnect.

:class:`PIMSystem` provides the bulk-synchronous execution abstraction
every engine uses:

.. code-block:: python

    system = PIMSystem(CostModel(num_modules=64))
    op = system.begin_operation()
    with op.phase("smxm hop 1"):
        op.module(3).random_accesses(120)
        op.module(3).process_items(480)
        op.cpc_transfer(num_bytes=4096)
    with op.phase("mwait"):
        op.cpc_transfer(num_bytes=result_bytes, num_transfers=64)
        op.host.process_items(result_items)
    stats = op.finish()

Within a phase all modules work in parallel, so the phase's PIM time is
the **maximum** busy time across modules (this is where load imbalance
hurts: one overloaded module stalls the phase).  Host, CPC and IPC time
accumulate additively.  Phases execute back to back, matching the
paper's map-reduce style dispatch of matrix operators.

An open phase belongs to its operation: its charges go to a
:class:`~repro.pim.ledger.ChargeLedger` only the operation can reach,
priced at the close of the phase over the modules that were charged and
folded once into the platform's totals.  Nothing on the platform changes
while a phase is open, so operations interleaved on one platform account
exactly as if run back to back.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.pim.cost_model import CostModel
from repro.pim.ledger import ChargeLedger, HostCounters, ModuleCounters
from repro.pim.stats import ExecutionStats


# A charge outside a phase would reach no ExecutionStats.
_NO_OPEN_PHASE = "no phase is open: charge work inside `with op.phase(name):`"


class OperationContext:
    """Accounting context of one simulated operation (a batch query, an update...)."""

    def __init__(self, system: "PIMSystem") -> None:
        self._system = system
        #: Number of PIM modules in the system.
        self.num_modules = system.num_modules
        self._stats = ExecutionStats()
        #: Charges of the open phase; ``None`` between phases.
        self._open: Optional[ChargeLedger] = None
        self._finished = False

    # ------------------------------------------------------------------
    # Charging (valid while a phase is open)
    # ------------------------------------------------------------------
    @property
    def host(self) -> HostCounters:
        """The host CPU's counters in the open phase (charge host work here)."""
        if self._open is None:
            raise RuntimeError(_NO_OPEN_PHASE)
        return self._open.host

    def module(self, module_id: int) -> ModuleCounters:
        """Counters of PIM module ``module_id`` in the open phase.

        Only ids ``0 .. P-1`` name a module; ``HOST_PARTITION`` (``-1``)
        in particular is charged through :attr:`host`.
        """
        if self._open is None:
            raise RuntimeError(_NO_OPEN_PHASE)
        if not 0 <= module_id < self.num_modules:
            raise IndexError(
                f"module id {module_id} is outside 0..{self.num_modules - 1}"
            )
        return self._open.modules[module_id]

    def cpc_transfer(self, num_bytes: int, num_transfers: int = 1) -> None:
        """Charge CPU-PIM traffic (host<->module) to the open phase."""
        if self._open is None:
            raise RuntimeError(_NO_OPEN_PHASE)
        self._open.cpc.record(num_bytes, num_transfers)

    def ipc_transfer(self, num_bytes: int, num_transfers: int = 1) -> None:
        """Charge inter-PIM traffic (host-forwarded) to the open phase."""
        if self._open is None:
            raise RuntimeError(_NO_OPEN_PHASE)
        self._open.ipc.record(num_bytes, num_transfers)

    def add_counter(self, name: str, amount: int = 1) -> None:
        """Increment a free-form counter on the operation's stats."""
        self._stats.add_counter(name, amount)

    # ------------------------------------------------------------------
    # Phase lifecycle
    # ------------------------------------------------------------------
    @contextmanager
    def phase(self, name: str = "") -> Iterator["OperationContext"]:
        """Open a bulk-synchronous phase; close it to account its time."""
        if self._finished:
            raise RuntimeError("operation already finished")
        if self._open is not None:
            raise RuntimeError("phases cannot be nested")
        self._open = ChargeLedger()
        try:
            yield self
        finally:
            self._close_phase()

    def _close_phase(self) -> None:
        charges, self._open = self._open, None
        model = self._system.cost_model
        stats = self._stats
        # An uncharged module was busy for exactly 0.0 s, so the maximum
        # over the charged ones is the maximum over the platform.
        pim_time = max(
            [counters.busy_time(model) for counters in charges.modules.values()],
            default=0.0,
        )
        stats.pim_time += pim_time
        stats.phase_pim_times.append(pim_time)
        stats.host_time += charges.host.busy_time(model)
        stats.cpc_time += model.cpc_time(charges.cpc.bytes_moved, charges.cpc.transfers)
        stats.ipc_time += model.ipc_time(charges.ipc.bytes_moved, charges.ipc.transfers)
        stats.cpc.merge(charges.cpc)
        stats.ipc.merge(charges.ipc)
        self._system.totals.merge(charges)

    def finish(self) -> ExecutionStats:
        """Close the operation and return its statistics."""
        if self._open is not None:
            raise RuntimeError("cannot finish an operation while a phase is open")
        self._finished = True
        return self._stats


class PIMSystem:
    """The simulated platform: one host CPU, P PIM modules, shared channels.

    It keeps what outlives an operation: the cost model and the totals
    of everything charged so far.  A module's local memory is its graph
    storage (:class:`~repro.core.local_storage.LocalGraphStorage`), not
    the platform's.  Totals fold once per closed phase and take no lock;
    a platform charged from several threads relies on the serialisation
    its owner already has (the system's under the writer lock, the
    worker pool's under the pool lock).
    """

    def __init__(self, cost_model: Optional[CostModel] = None) -> None:
        self.cost_model = cost_model or CostModel()
        #: Every charge of every closed phase (diagnostics; see
        #: :meth:`capture_lifetime`).
        self.totals = ChargeLedger()

    @property
    def num_modules(self) -> int:
        """Number of PIM modules."""
        return self.cost_model.num_modules

    def begin_operation(self) -> OperationContext:
        """Start accounting a new operation."""
        return OperationContext(self)

    # ------------------------------------------------------------------
    # Checkpoint capture / restore (lifetime accounting)
    # ------------------------------------------------------------------
    def capture_lifetime(self) -> dict:
        """Lifetime counters of every component, as plain JSON-able data.

        Per-operation :class:`ExecutionStats` never depend on these —
        they exist so a recovered system keeps reporting the same
        load-balance and traffic diagnostics it would have shown had it
        never crashed (WAL replay re-charges only the tail's work).
        """
        return self.totals.to_manifest(self.num_modules)

    def restore_lifetime(self, state: dict) -> None:
        """Re-seed the lifetime counters from a checkpoint capture."""
        self.totals = ChargeLedger.from_manifest(state)

    def absorb_lifetime(self, state: dict) -> None:
        """Add a captured lifetime delta onto this platform's counters.

        The parallel serving pool merges worker-side accounting with
        this: each worker task charges a fresh :class:`PIMSystem`, whose
        :meth:`capture_lifetime` is therefore exactly the task's delta,
        and the parent folds the deltas in here, bit-identical to
        charging the same operations on one platform in any order.
        """
        self.totals.merge(ChargeLedger.from_manifest(state))

    def load_report(self) -> List[int]:
        """Lifetime items processed per module (load-balance diagnostic)."""
        charged = self.totals.modules
        return [
            charged[module_id].items_processed if module_id in charged else 0
            for module_id in range(self.num_modules)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PIMSystem(num_modules={self.num_modules})"

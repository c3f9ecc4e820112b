"""The kernel names, the ``"auto"`` rule and the one view of graph state.

The query processor plans a query into a
:class:`~repro.rpq.planner.Plan` and hands it, with a :class:`PlanView`
and a kernel name, to :func:`repro.engine.execute`.  The kernels are
interchangeable: every one must produce identical
:class:`~repro.rpq.query.BatchResult`s *and* identical simulated work
counters (rows touched, bytes streamed, items processed, channel
traffic) for the same plan on the same view —
the paper's figures are derived from those counters, so a faster kernel
must not change what the simulation measures.  They cannot drift apart:
one driver (:func:`repro.engine.driver.execute_plan`) sequences the plan
and charges the platform for all of them; a kernel only supplies the
frontier math.

A :class:`PlanView` is all the graph state a kernel sees — owners,
adjacency snapshots, the accounting platform.  Its one implementation,
:class:`~repro.serve.epoch.EpochView`, reads an epoch's frozen
snapshots (:class:`~repro.core.snapshot.GraphSnapshot`), whether the
execution is live (the current epoch), pinned, session-patched or
pool-attached.  A kernel is a name (``Moctopus.use_engine``):
:func:`repro.engine.execute` builds the per-call kernel object it
names, so there is nothing to share or keep between calls.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from repro.pim.system import PIMSystem
from repro.rpq.planner import Plan

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.snapshot import GraphSnapshot
    from repro.serve.epoch import Epoch

#: Names accepted by :func:`repro.engine.execute` / ``Moctopus.use_engine``.
#: ``"auto"`` selects per call between the scalar and the vectorized
#: kernel.  ``"matrix"`` is a second name for ``"vectorized"``, whose
#: phases pull (masked SpGEMM) by themselves when their work says so; it
#: stays because the end-to-end benchmark's probes name it.
ENGINE_NAMES = ("auto", "python", "vectorized", "matrix")

#: Estimated final-frontier items (``batch size x average out-degree ^
#: expansion phases``) at which the array backends overtake the scalar
#: one.  Below it their fixed per-phase, per-partition numpy overhead
#: dominates; above it the scalar engine's per-item Python work does.
#: See the README's "Execution engines" crossover table.
AUTO_CROSSOVER_ITEMS = 4096

#: One expansion's misplacement reports as ``(nodes, local, remote)``
#: int64 columns — arrays from the kernels through the view to the
#: migrator, never a tuple per node.
ReportColumns = Tuple[np.ndarray, np.ndarray, np.ndarray]


@runtime_checkable
class PlanView(Protocol):
    """The graph state one plan execution runs against.

    Owner lookups, adjacency reads and the accounting platform all come
    from the view, so a backend never asks whether it is running live,
    pinned or patched: an :class:`~repro.serve.epoch.EpochView` answers
    from an epoch's frozen arrays (optionally patched with a session's
    uncommitted writes).  A live query's view folds its totals into the
    system's platform; a pinned one into the reader's own, so unlogged
    reads stay out of the live system's checkpointed counters.  (Phase
    state lives in each operation, not on the platform, so executions
    sharing a platform would still account exactly.)
    """

    #: Accounting platform this view's executions charge.
    pim: PIMSystem

    def owner(self, node: int) -> Optional[int]:
        """Partition owning ``node`` (``None`` when unknown)."""
        ...

    def owners_of(self, nodes: np.ndarray) -> np.ndarray:
        """Vectorized owner lookup (``repro.partition.base.UNKNOWN`` when
        unplaced), as ``int64``."""
        ...

    def snapshot_of(self, partition: int) -> "GraphSnapshot":
        """CSR snapshot of ``partition``'s adjacency segment."""
        ...

    def misplacement_threshold(self, partition: int) -> Optional[float]:
        """Remote-hop fraction above which ``partition`` reports a node
        as misplaced; ``None`` when it detects nothing."""
        ...

    def report_misplaced(self, reports: ReportColumns) -> None:
        """Take one expansion's misplacement reports."""
        ...

    def total_rows(self) -> int:
        """Total adjacency rows in the view."""
        ...

    def total_edges(self) -> int:
        """Total adjacency entries in the view."""
        ...

    def frozen_epoch(self) -> Optional["Epoch"]:
        """The epoch whose frozen statistics describe exactly this view,
        or ``None``: only then may an answer be cached under the epoch's
        id, a plan be shared by query shape, and ``explain()`` cost a
        plan from the epoch's statistics."""
        ...


def choose_engine(
    plan: Plan, batch_size: int, avg_out_degree: float
) -> str:
    """The backend ``"auto"`` runs ``plan`` on: a pure function of the plan
    shape, the batch size and the graph's average out-degree.

    Fixpoint (Kleene) plans re-expand small frontiers for many phases,
    which the scalar engine does with the least overhead at every batch
    size measured.  Fixed-depth plans go to the vectorized engine once
    the estimated final frontier reaches :data:`AUTO_CROSSOVER_ITEMS`.
    """
    if plan.expansions is None:
        return "python"
    try:
        estimate = batch_size * avg_out_degree ** plan.expansions
    except OverflowError:  # a few hundred hops: certainly not small
        return "vectorized"
    return "python" if estimate < AUTO_CROSSOVER_ITEMS else "vectorized"


"""The execution-engine protocol and the wiring both backends share.

The query processor lowers a logical plan into a
:class:`~repro.engine.physical.PhysicalPlan` and hands it to an
:class:`ExecutionEngine`.  Engines are interchangeable: every backend
must produce identical :class:`~repro.rpq.query.BatchResult`s *and*
identical simulated work counters (rows touched, bytes streamed, items
processed, channel traffic) for the same plan on the same system state —
the paper's figures are derived from those counters, so a faster backend
must not change what the simulation measures.

:class:`EngineRuntime` bundles the system components an engine needs;
:func:`create_engine` maps the ``MoctopusConfig.engine`` knob to a
backend instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.engine.physical import FixpointOp, PhysicalPlan
from repro.partition.base import HOST_PARTITION
from repro.pim.stats import ExecutionStats
from repro.pim.system import PIMSystem
from repro.rpq.query import BatchResult, ContextSet

if TYPE_CHECKING:  # pragma: no cover — type-only imports, see note below.
    from repro.core.config import MoctopusConfig
    from repro.core.hetero_storage import HeterogeneousGraphStorage
    from repro.core.local_storage import LocalGraphStorage
    from repro.core.node_migrator import NodeMigrator
    from repro.core.operator_processor import OperatorProcessor
    from repro.core.partitioner import GraphPartitioner
    from repro.core.snapshot import GraphSnapshot

# NOTE: the ``repro.core`` imports above are type-only on purpose.  The
# query processor (a ``repro.core`` module) imports this module, so a
# runtime import of ``repro.core`` here would deadlock whichever package
# is imported second; the runtime only ever touches these objects
# through the :class:`EngineRuntime` fields it is handed.

#: A frontier as the scalar backend sees it: owner partition -> node ->
#: set of query contexts.
Frontier = Dict[int, Dict[int, ContextSet]]

#: Names accepted by :func:`create_engine` / ``MoctopusConfig.engine``.
#: ``"auto"`` selects per call between the scalar and the vectorized
#: backend; ``"matrix"`` runs only when named.
ENGINE_NAMES = ("auto", "python", "vectorized", "matrix")

#: Estimated final-frontier items (``batch size x average out-degree ^
#: expansion phases``) at which the array backends overtake the scalar
#: one.  Below it their fixed per-phase, per-partition numpy overhead
#: dominates; above it the scalar engine's per-item Python work does.
#: See the README's "Execution engines" crossover table.
AUTO_CROSSOVER_ITEMS = 4096


@runtime_checkable
class PlanView(Protocol):
    """A frozen, epoch-pinned substitute for the live system state.

    The serving layer (:mod:`repro.serve`) hands one of these to
    ``ExecutionEngine.execute`` to run a plan against an immutable
    epoch capture instead of the live storages: owner lookups resolve
    against the epoch's frozen partition table, adjacency reads against
    the epoch's (possibly session-patched) CSR snapshots, and simulated
    work is charged to the view's private accounting platform so
    concurrent pinned executions never share mutable phase counters.

    Pinned execution never reports misplacement — the reports would be
    derived from a stale epoch — so both engines skip detection when a
    view is supplied, keeping their outputs bit-identical.
    """

    #: Identifier of the pinned epoch (stamped into query stats).
    epoch_id: int
    #: Private accounting platform for this view's executions.
    pim: PIMSystem

    def owner(self, node: int) -> Optional[int]:
        """Partition owning ``node`` at the pinned epoch (``None`` unknown)."""
        ...

    def owners_of(self, nodes: np.ndarray) -> np.ndarray:
        """Vectorized owner lookup (``OwnerIndex.UNKNOWN`` when unplaced)."""
        ...

    def snapshot_of(self, partition: int) -> "GraphSnapshot":
        """Pinned CSR snapshot of ``partition``'s adjacency segment."""
        ...

    def total_rows(self) -> int:
        """Total adjacency rows across all pinned snapshots."""
        ...

    def total_edges(self) -> int:
        """Total adjacency entries across all pinned snapshots."""
        ...


@dataclass
class EngineRuntime:
    """The system components an execution engine operates on."""

    config: MoctopusConfig
    pim: PIMSystem
    partitioner: GraphPartitioner
    module_storages: List[LocalGraphStorage]
    host_storage: HeterogeneousGraphStorage
    processors: List[OperatorProcessor]
    migrator: NodeMigrator
    label_names: Dict[int, str] = field(default_factory=dict)

    def owner(self, node: int) -> Optional[int]:
        """Partition owning ``node`` (``None`` when unknown)."""
        return self.partitioner.partition_of(node)

    def snapshot_of(self, partition: int) -> GraphSnapshot:
        """CSR snapshot of the storage backing ``partition``."""
        if partition == HOST_PARTITION:
            return self.host_storage.to_csr()
        return self.module_storages[partition].to_csr()

    def total_rows(self) -> int:
        """Total adjacency rows across the live storages."""
        return self.host_storage.num_rows + sum(
            storage.num_rows for storage in self.module_storages
        )

    def total_edges(self) -> int:
        """Total adjacency entries across the live storages."""
        return self.host_storage.num_edges + sum(
            storage.num_edges for storage in self.module_storages
        )


@runtime_checkable
class ExecutionEngine(Protocol):
    """A physical-plan executor (one of the swappable backends)."""

    #: Engine name as selected by ``MoctopusConfig.engine``.
    name: str

    def execute(
        self,
        plan: PhysicalPlan,
        sources: List[int],
        view: Optional[PlanView] = None,
    ) -> Tuple[BatchResult, ExecutionStats]:
        """Run ``plan`` for the batch ``sources`` on the simulated system.

        With ``view`` supplied, the plan executes against the pinned
        epoch capture (frozen owners + snapshots, private accounting)
        instead of the live storages.
        """
        ...


def choose_engine(
    plan: PhysicalPlan, batch_size: int, avg_out_degree: float
) -> str:
    """The backend ``"auto"`` runs ``plan`` on: a pure function of the plan
    shape, the batch size and the graph's average out-degree.

    Fixpoint (Kleene) plans re-expand small frontiers for many phases,
    which the scalar engine does with the least overhead at every batch
    size measured.  Fixed-depth plans go to the vectorized engine once
    the estimated final frontier reaches :data:`AUTO_CROSSOVER_ITEMS`.
    """
    if any(isinstance(op, FixpointOp) for op in plan.ops):
        return "python"
    try:
        estimate = batch_size * avg_out_degree ** plan.max_expansion_phases()
    except OverflowError:  # a few hundred hops: certainly not small
        return "vectorized"
    return "python" if estimate < AUTO_CROSSOVER_ITEMS else "vectorized"


class AutoEngine:
    """Dispatches each plan to the backend :func:`choose_engine` names.

    The backends return identical results and identical simulated
    statistics, so the choice only moves wall-clock time and memory.
    """

    name = "auto"

    def __init__(self, runtime: EngineRuntime) -> None:
        self._runtime = runtime
        self._engines: Dict[str, ExecutionEngine] = {}

    def execute(
        self,
        plan: PhysicalPlan,
        sources: List[int],
        view: Optional[PlanView] = None,
    ) -> Tuple[BatchResult, ExecutionStats]:
        # Both sides answer the same two questions, so one graph and
        # one request choose alike live and pinned.
        stored = view if view is not None else self._runtime
        avg_out_degree = stored.total_edges() / max(1, stored.total_rows())
        batch_size = len(plan.reverse.seeds) if plan.reverse else len(sources)
        name = choose_engine(plan, batch_size, avg_out_degree)
        engine = self._engines.get(name)
        if engine is None:
            engine = self._engines[name] = create_engine(name, self._runtime)
        return engine.execute(plan, sources, view)


def create_engine(name: str, runtime: EngineRuntime) -> ExecutionEngine:
    """Instantiate the backend selected by ``name``."""
    if name == "auto":
        return AutoEngine(runtime)
    if name == "python":
        from repro.engine.python_engine import PythonEngine

        return PythonEngine(runtime)
    if name == "vectorized":
        from repro.engine.vectorized import VectorizedEngine

        return VectorizedEngine(runtime)
    if name == "matrix":
        from repro.engine.matrix_engine import MatrixEngine

        return MatrixEngine(runtime)
    raise ValueError(
        f"unknown execution engine {name!r}; expected one of {ENGINE_NAMES}"
    )

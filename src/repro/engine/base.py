"""The execution-engine protocol and the one view of graph state.

The query processor plans a query into a
:class:`~repro.rpq.planner.Plan` and hands it, with a
:class:`PlanView`, to an :class:`ExecutionEngine`.  Engines are
interchangeable: every backend must produce identical
:class:`~repro.rpq.query.BatchResult`s *and* identical simulated work
counters (rows touched, bytes streamed, items processed, channel
traffic) for the same plan on the same view — the paper's figures are
derived from those counters, so a faster backend must not change what
the simulation measures.  They cannot drift apart: one driver
(:func:`repro.engine.driver.execute_plan`) sequences the plan and
charges the platform for all of them; a backend only supplies the
frontier math.

A :class:`PlanView` is all the graph state a backend sees — owners,
adjacency rows, the accounting platform.  :class:`LiveView` reads the
live storages; a pinned, session-patched or pool-attached
:class:`~repro.serve.epoch.EpochView` reads frozen arrays.  Engines keep
nothing between calls but the label table, so one instance per backend
serves every caller and thread; :func:`create_engine` maps a
``MoctopusConfig.engine`` name to one.
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
    Union,
    runtime_checkable,
)

import numpy as np

from repro.partition.base import HOST_PARTITION
from repro.partition.owner_index import OwnerIndex
from repro.pim.stats import ExecutionStats
from repro.pim.system import PIMSystem
from repro.rpq.planner import Plan
from repro.rpq.query import BatchResult

if TYPE_CHECKING:  # pragma: no cover — type-only imports, see note below.
    from repro.core.hetero_storage import HeterogeneousGraphStorage
    from repro.core.local_storage import LocalGraphStorage
    from repro.core.node_migrator import NodeMigrator
    from repro.core.operator_processor import RowSource
    from repro.core.partitioner import GraphPartitioner
    from repro.core.snapshot import GraphSnapshot
    from repro.serve.epoch import Epoch

# NOTE: the ``repro.core`` imports above are type-only on purpose.  The
# query processor (a ``repro.core`` module) imports this module, so a
# runtime import of ``repro.core`` here would deadlock whichever package
# is imported second; a :class:`LiveView` only ever touches these
# objects through the fields it is handed.

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

#: One expansion's misplacement reports as ``(nodes, local, remote)``
#: int64 columns — arrays from the kernels through the view to the
#: migrator, never a tuple per node.
ReportColumns = Tuple[np.ndarray, np.ndarray, np.ndarray]


@runtime_checkable
class PlanView(Protocol):
    """The graph state one plan execution runs against.

    Owner lookups, adjacency reads and the accounting platform all come
    from the view, so a backend never asks whether it is running live,
    pinned or patched: :class:`LiveView` answers from the live storages,
    an :class:`~repro.serve.epoch.EpochView` from an epoch's frozen
    arrays (optionally patched with a session's uncommitted writes),
    folding its totals into the pinning reader's own platform so
    unlogged reads stay out of the live system's checkpointed counters.  (Phase state lives
    in each operation, not on the platform, so executions sharing a
    platform would still account exactly.)
    """

    #: Accounting platform this view's executions charge.
    pim: PIMSystem

    def owner(self, node: int) -> Optional[int]:
        """Partition owning ``node`` (``None`` when unknown)."""
        ...

    def owners_of(self, nodes: np.ndarray) -> np.ndarray:
        """Vectorized owner lookup (``OwnerIndex.UNKNOWN`` when unplaced)."""
        ...

    def rows_of(self, partition: int) -> "RowSource":
        """``partition``'s adjacency rows as the scalar loop reads them."""
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
        or ``None``: only then may a plan be costed from them, and a
        plan or an answer be cached under the epoch's id."""
        ...


#: The paper's misplacement rule: a node is reported as incorrectly
#: partitioned when more than this fraction of its next hops are remote.
MISPLACEMENT_THRESHOLD = 0.5


@dataclass
class LiveView:
    """The :class:`PlanView` over the live storages.

    Live queries run under the system's writer lock, one at a time, so
    the view's owner index needs no synchronisation of its own.
    """

    pim: PIMSystem
    partitioner: GraphPartitioner
    module_storages: List[LocalGraphStorage]
    host_storage: HeterogeneousGraphStorage
    migrator: NodeMigrator
    #: Version-cached vectorized owner lookups over the partition map.
    _owners: OwnerIndex = field(default_factory=OwnerIndex, repr=False)

    def owner(self, node: int) -> Optional[int]:
        return self.partitioner.partition_of(node)

    def owners_of(self, nodes: np.ndarray) -> np.ndarray:
        # Version-stamped: node placement cannot change mid-query
        # (migrations run after the answer is complete), so every call
        # after a query's first is a no-op.
        self._owners.refresh(self.partitioner.partition_map)
        return self._owners.owners_of(nodes)

    def rows_of(
        self, partition: int
    ) -> Union[LocalGraphStorage, HeterogeneousGraphStorage]:
        """The live storage itself — never ``to_csr()``: a small scalar
        query between migration passes must not pay a snapshot splice."""
        if partition == HOST_PARTITION:
            return self.host_storage
        return self.module_storages[partition]

    def snapshot_of(self, partition: int) -> GraphSnapshot:
        return self.rows_of(partition).to_csr()

    def misplacement_threshold(self, partition: int) -> Optional[float]:
        """:data:`MISPLACEMENT_THRESHOLD` on a module when the node
        migrator repairs the placement; the host detects nothing."""
        if partition == HOST_PARTITION or not self.partitioner.pim_policy.migrates:
            return None
        return MISPLACEMENT_THRESHOLD

    def report_misplaced(self, reports: ReportColumns) -> None:
        self.migrator.report_misplaced(*reports)

    def total_rows(self) -> int:
        return self.host_storage.num_rows + sum(
            storage.num_rows for storage in self.module_storages
        )

    def total_edges(self) -> int:
        return self.host_storage.num_edges + sum(
            storage.num_edges for storage in self.module_storages
        )

    def frozen_epoch(self) -> None:
        """``None``: live state keeps no frozen statistics."""
        return None


@runtime_checkable
class ExecutionEngine(Protocol):
    """A plan executor (one of the swappable backends)."""

    #: Engine name as selected by ``MoctopusConfig.engine``.
    name: str

    def execute(
        self, plan: Plan, sources: List[int], view: PlanView
    ) -> Tuple[BatchResult, ExecutionStats]:
        """Run ``plan`` for the batch ``sources`` against ``view``,
        charging the simulated work to ``view.pim``."""
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


class AutoEngine:
    """Dispatches each plan to the backend :func:`choose_engine` names.

    The backends return identical results and identical simulated
    statistics, so the choice only moves wall-clock time and memory.
    """

    name = "auto"

    def __init__(self, label_names: Dict[int, str]) -> None:
        self._label_names = label_names

    def execute(
        self, plan: Plan, sources: List[int], view: PlanView
    ) -> Tuple[BatchResult, ExecutionStats]:
        # Every view answers the same two questions, so one graph and
        # one request choose alike live and pinned.
        avg_out_degree = view.total_edges() / max(1, view.total_rows())
        name = choose_engine(plan, len(sources), avg_out_degree)
        # Backends keep nothing between calls, so none is kept here.
        return create_engine(name, self._label_names).execute(plan, sources, view)


def create_engine(name: str, label_names: Dict[int, str]) -> ExecutionEngine:
    """Instantiate the backend selected by ``name``.

    ``label_names`` (integer edge label -> query label string) is the
    only thing an engine holds.
    """
    if name == "auto":
        return AutoEngine(label_names)
    if name == "python":
        from repro.engine.python_engine import PythonEngine

        return PythonEngine(label_names)
    if name == "vectorized":
        from repro.engine.vectorized import VectorizedEngine

        return VectorizedEngine(label_names)
    if name == "matrix":
        from repro.engine.matrix_engine import MatrixEngine

        return MatrixEngine(label_names)
    raise ValueError(
        f"unknown execution engine {name!r}; expected one of {ENGINE_NAMES}"
    )

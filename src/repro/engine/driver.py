"""The one runner of plans, and the only code that charges a query.

:func:`repro.engine.execute` runs every :class:`~repro.rpq.planner.Plan`
through :func:`execute_plan`.  The driver owns what the simulation
measures — phase sequencing and naming (``"dispatch"``, ``"smxm <i>"``
or ``"smxm fixpoint <i>"``, ``"mwait"``), the accounting operation on
``view.pim``, the dispatch / expand / route / reduce charges, the
``batch_size`` / ``unknown_sources`` / ``results`` counters and the
misplacement hand-off — and asks a :class:`Kernel` for frontier math
only (diagram: README, "Execution engines").

A kernel is a per-call object: it reads the view, keeps the frontier
representation and the accumulating answer, and reports each expansion's
work as a frozen :class:`ExpandWork`.  It never touches the platform
(lint rule REP008), so bit-identical statistics across kernels follow
from the counts the kernels report, not from a copy of the charging
code per kernel.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    List,
    NamedTuple,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.core.local_storage import BYTES_PER_ENTRY
from repro.core.operators import BYTES_PER_FRONTIER_ITEM, OPERATOR_HEADER_BYTES
from repro.engine.base import PlanView, ReportColumns
from repro.partition.base import HOST_PARTITION
from repro.pim.stats import ExecutionStats
from repro.pim.system import OperationContext
from repro.rpq.planner import Plan
from repro.rpq.query import BatchResult

#: One partition's share of a frontier, in the kernel's representation.
Block = Any
#: A whole frontier: owner partition -> that partition's block.
Blocks = Dict[int, Block]


class ExpandWork(NamedTuple):
    """What one partition's ``smxm`` expansion did, for the driver to charge.

    Frozen, and a tuple rather than a dataclass because one is built per
    partition per phase: a quarter of the cost on small queries' path.
    """

    #: Adjacency-row lookups (random accesses).
    rows_touched: int
    #: Bytes of row data streamed.
    bytes_streamed: int
    #: Frontier items processed (one per item and out-edge).
    items_processed: int
    #: Footprint of the structure the rows were read from (the host's
    #: random-access cost depends on it; modules ignore it).
    working_set_bytes: int
    #: The nodes found misplaced, as ``(nodes, local, remote)`` columns
    #: (``None`` when there are none).
    misplaced: Optional[ReportColumns] = None


@runtime_checkable
class Kernel(Protocol):
    """Frontier math for one plan execution (one instance per call)."""

    def initial_frontier(self) -> Tuple[Blocks, int]:
        """The dispatched frontier and the number of unknown sources."""
        ...

    def items(self, block: Block) -> int:
        """Frontier items (node x context) in ``block``."""
        ...

    def expand(self, partition: int, block: Block) -> Tuple[ExpandWork, Any]:
        """Expand ``partition``'s block; the work done and what it produced."""
        ...

    def route(self, producer: int, produced: Any) -> Tuple[int, int]:
        """Hand ``produced`` to its owners (set semantics, dangling
        destinations dropped, accepting items accumulated); the items
        that crossed the CPC and the IPC channel."""
        ...

    def next_frontier(self) -> Blocks:
        """Everything routed since the last call, merged by owner."""
        ...

    def reduce(self, frontier: Blocks) -> None:
        """Fold the final frontier into the answer (``mwait``)."""
        ...

    def answer(self) -> Tuple[np.ndarray, np.ndarray]:
        """The answer's CSR ``(indptr, indices)`` over the kernel's sources."""
        ...


def execute_plan(
    plan: Plan,
    sources: List[int],
    view: PlanView,
    kernel: Kernel,
) -> Tuple[BatchResult, ExecutionStats]:
    """Run ``plan`` for ``sources`` against ``view`` with ``kernel`` (built
    for this call), charging ``view.pim``.

    Dispatch, then ``plan.expansions`` fused expand+route phases or the
    bounded fixpoint loop, then ``mwait``.
    """
    op = view.pim.begin_operation()
    frontier, unknown = kernel.initial_frontier()
    with op.phase("dispatch"):
        charge_dispatch(op, _items_per_partition(kernel, frontier))
    op.add_counter("batch_size", len(sources))
    op.add_counter("unknown_sources", unknown)

    fixpoint = plan.expansions is None
    phase_name = "smxm fixpoint {}" if fixpoint else "smxm {}"
    drained = False
    for index in range(plan.max_expansion_phases()):
        frontier = _expand_route(
            op, view, kernel, frontier, phase_name.format(index + 1)
        )
        if not frontier:
            drained = True
            break
    if fixpoint:
        # Accepting items accumulated as they were routed; whatever is
        # still in flight at the bound is not part of the answer.
        frontier = {}
    # When a plain expand phase drains the frontier the rest of the plan
    # — the reduce included — is skipped, matching the bulk-synchronous
    # schedule the scalar engine has always used.
    if fixpoint or not drained:
        with op.phase("mwait"):
            charge_reduce(op, _items_per_partition(kernel, frontier))
        kernel.reduce(frontier)

    result = BatchResult(list(sources), *kernel.answer())
    stats = op.finish()
    stats.add_counter("results", result.total_matches)
    return result, stats


def _items_per_partition(kernel: Kernel, frontier: Blocks) -> Dict[int, int]:
    return {
        partition: kernel.items(block) for partition, block in frontier.items()
    }


def _expand_route(
    op: OperationContext,
    view: PlanView,
    kernel: Kernel,
    frontier: Blocks,
    phase_name: str,
) -> Blocks:
    """One fused expand+route phase; returns the next frontier.

    Partitions are visited in sorted order (host first, then modules
    ascending), so the phase's accounting is independent of how the
    frontier was built.
    """
    cpc_items = 0
    ipc_items = 0
    with op.phase(phase_name):
        for partition in sorted(frontier):
            work, produced = kernel.expand(partition, frontier[partition])
            if partition == HOST_PARTITION:
                op.host.random_accesses(work.rows_touched, work.working_set_bytes)
                op.host.stream_bytes(work.bytes_streamed)
                op.host.process_items(work.items_processed)
            else:
                module = op.module(partition)
                # The kernel launches even when every row turns out empty.
                module.launch_kernel()
                module.random_accesses(work.rows_touched)
                module.stream_bytes(work.bytes_streamed)
                module.process_items(work.items_processed)
                if work.misplaced is not None:
                    view.report_misplaced(work.misplaced)
            crossed_cpc, crossed_ipc = kernel.route(partition, produced)
            cpc_items += crossed_cpc
            ipc_items += crossed_ipc
        # Frontier hand-offs are rank-level bulk transfers: one batched
        # gather/scatter pair moves every crossing item of the phase, so
        # only the byte volume — controlled by partition locality —
        # depends on how many items crossed.
        if cpc_items:
            op.cpc_transfer(cpc_items * BYTES_PER_FRONTIER_ITEM, num_transfers=1)
        if ipc_items:
            op.ipc_transfer(ipc_items * BYTES_PER_FRONTIER_ITEM, num_transfers=1)
    return kernel.next_frontier()


# The dispatch and mwait charge formulas are the parity contract between
# the backends: a kernel counts *how many* frontier items sit on each
# partition — that part is representation-specific — and these charge
# exactly the same amounts for the same counts.
def charge_dispatch(
    op: OperationContext, items_per_partition: Dict[int, int]
) -> None:
    """Charge the dispatch phase for an initial frontier.

    The smxm operators for every module ship in one rank-level batched
    CPC scatter (host-owned sources stay put); the host pays per-item
    packing work for the whole batch.
    """
    total_items = sum(items_per_partition.values())
    dispatched_items = sum(
        items
        for partition, items in items_per_partition.items()
        if partition != HOST_PARTITION
    )
    if dispatched_items:
        op.cpc_transfer(
            OPERATOR_HEADER_BYTES + dispatched_items * BYTES_PER_FRONTIER_ITEM,
            num_transfers=1,
        )
    op.host.process_items(total_items)


def charge_reduce(
    op: OperationContext, items_per_partition: Dict[int, int]
) -> None:
    """Charge the ``mwait`` phase for a final frontier.

    Every module streams out and processes its share of the answer, one
    rank-level batched CPC gather brings the partial results back, and
    the host concatenates them (destination nodes are disjoint across
    owners, so the reduction streams sequentially with no dedup).
    """
    total_items = 0
    gathered_items = 0
    for partition in sorted(items_per_partition):
        items = items_per_partition[partition]
        total_items += items
        if partition != HOST_PARTITION and items:
            gathered_items += items
            op.module(partition).process_items(items)
            op.module(partition).stream_bytes(items * BYTES_PER_ENTRY)
    if gathered_items:
        op.cpc_transfer(
            OPERATOR_HEADER_BYTES + gathered_items * BYTES_PER_FRONTIER_ITEM,
            num_transfers=1,
        )
    op.host.stream_bytes(total_items * BYTES_PER_FRONTIER_ITEM)
    op.host.process_items(total_items)

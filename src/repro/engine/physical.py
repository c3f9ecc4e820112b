"""Physical plans: what an execution backend actually runs.

The logical planner (:mod:`repro.rpq.planner`) describes a query as
matrix algebra; a :class:`PhysicalPlan` lowers that description onto the
simulated platform's bulk-synchronous operator vocabulary:

* :class:`DispatchOp` — pack the batch's source nodes into per-owner
  ``smxm`` operators and ship them (one CPC scatter);
* :class:`ExpandOp` — one ``smxm`` phase: every owner expands its share
  of the frontier against its adjacency segment;
* :class:`RouteOp` — hand every produced frontier item to the owner of
  its destination node (free locally, IPC across modules, CPC to/from
  the host) — always paired with the preceding :class:`ExpandOp` inside
  the same bulk-synchronous phase;
* :class:`FixpointOp` — an expand/route pair repeated until the frontier
  drains (Kleene closure), bounded by ``max_iterations``;
* :class:`ReduceOp` — the final ``mwait``: gather per-owner partial
  results and reduce them into the answer matrix.

The lowering is backend-agnostic: every backend's kernel runs the same
:class:`PhysicalPlan` under the one interpreter,
:func:`repro.engine.driver.execute_plan`, which is what makes their
simulated work counters comparable item for item.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.rpq.automaton import DFA
from repro.rpq.planner import ExpandStep, FixpointStep, LogicalPlan


@dataclass(frozen=True)
class DispatchOp:
    """Build the initial frontier and ship per-owner ``smxm`` operators."""


@dataclass(frozen=True)
class ExpandOp:
    """One ``smxm`` frontier expansion, executed as its own phase."""

    phase_name: str


@dataclass(frozen=True)
class RouteOp:
    """Hand produced frontier items to their owners (same phase as expand)."""


@dataclass(frozen=True)
class FixpointOp:
    """Expand/route repeatedly until the frontier drains."""

    #: Phase names are ``"smxm fixpoint <i>"`` with ``i`` starting at 1.
    max_iterations: int


@dataclass(frozen=True)
class ReduceOp:
    """The ``mwait`` operator: gather partial results into the answer."""


PhysicalOp = Union[DispatchOp, ExpandOp, RouteOp, FixpointOp, ReduceOp]


@dataclass(frozen=True)
class ReversePlan:
    """Reverse-direction execution parameters attached to a physical plan.

    A reverse plan runs the *reversed-expression* DFA (already carried by
    ``PhysicalPlan.dfa``) from ``seeds`` — the candidate path end nodes —
    and inverts the matches afterwards.  The dataclass is deliberately
    flat and picklable so the worker pool can ship reverse plans
    unchanged.
    """

    #: Sorted, distinct candidate end nodes the reverse expansion starts from.
    seeds: Tuple[int, ...]


def invert_reverse_results(
    sources: Sequence[int],
    seeds: Sequence[int],
    indptr: np.ndarray,
    indices: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Turn reverse-direction matches back into forward batch results.

    ``indices[indptr[i]:indptr[i+1]]`` holds the *start* nodes reached
    from ``seeds[i]`` along the reversed expression; a forward query from
    ``source`` therefore matches exactly the seeds whose reverse row
    contains it.  Returns the forward CSR pair over ``sources``: one row
    per source in batch order — a source listed twice gets two equal
    rows, a source no seed reached (or unknown to the graph) an empty
    one — each row sorted and duplicate-free.  The driver funnels every
    backend's reverse results through this one helper.
    """
    source_nodes = np.asarray(sources, dtype=np.int64)
    ends = np.repeat(np.asarray(seeds, dtype=np.int64), np.diff(indptr))
    # ``seeds`` are distinct (``ReversePlan.seeds``) and reverse rows are
    # duplicate-free, so every (start, end) pair occurs once; sorted by
    # start then end, each start node's end nodes are one ascending run.
    order = np.lexsort((ends, indices))
    starts, ends = indices[order], ends[order]
    run_lo = np.searchsorted(starts, source_nodes, side="left")
    run_hi = np.searchsorted(starts, source_nodes, side="right")
    counts = run_hi - run_lo
    out_indptr = np.zeros(len(source_nodes) + 1, dtype=np.int64)
    np.cumsum(counts, out=out_indptr[1:])
    gather = np.repeat(run_lo - out_indptr[:-1], counts) + np.arange(
        int(out_indptr[-1]), dtype=np.int64
    )
    return out_indptr, ends[gather]


@dataclass
class PhysicalPlan:
    """A lowered, backend-agnostic operator sequence for one batch query."""

    ops: List[PhysicalOp] = field(default_factory=list)
    #: Whether accepting frontier items accumulate into the result as
    #: they are reached (general RPQs) or only the final frontier counts
    #: (pure k-hop / fixed-length plans).
    accumulate_results: bool = False
    #: Automaton carried by the frontier contexts (``None`` = bare rows).
    dfa: Optional[DFA] = None
    #: Expansion direction (``"forward"`` or ``"reverse"``).  For reverse
    #: plans ``dfa`` is the reversed-expression automaton and ``reverse``
    #: carries the seed nodes; engines invert the matches at the end.
    direction: str = "forward"
    reverse: Optional[ReversePlan] = None

    def max_expansion_phases(self) -> int:
        """Upper bound on the expand/route phases this plan can run.

        Plain :class:`ExpandOp`s count one each; a :class:`FixpointOp`
        counts its iteration bound.  Cost-aware backends (the matrix
        engine's dense-vs-sparse crossover) use this to tell a one-shot
        1-hop plan from a deep traversal whose frontiers will saturate.
        """
        total = 0
        for op in self.ops:
            if isinstance(op, ExpandOp):
                total += 1
            elif isinstance(op, FixpointOp):
                total += op.max_iterations
        return total

    def explain(self) -> str:
        """Human-readable operator listing (one line per op)."""
        lines = []
        if self.direction != "forward":
            seeds = len(self.reverse.seeds) if self.reverse is not None else 0
            lines.append(f"direction: {self.direction} (seeds={seeds})")
        for index, op in enumerate(self.ops):
            if isinstance(op, DispatchOp):
                lines.append(f"{index}: dispatch sources")
            elif isinstance(op, ExpandOp):
                lines.append(f"{index}: expand [{op.phase_name}]")
            elif isinstance(op, RouteOp):
                lines.append(f"{index}: route produced items")
            elif isinstance(op, FixpointOp):
                lines.append(
                    f"{index}: fixpoint expand/route (<= {op.max_iterations} iterations)"
                )
            else:
                lines.append(f"{index}: reduce (mwait)")
        return "\n".join(lines)


def lower_plan(plan: LogicalPlan, default_fixpoint_iterations: int) -> PhysicalPlan:
    """Lower a :class:`LogicalPlan` into a :class:`PhysicalPlan`.

    ``default_fixpoint_iterations`` bounds Kleene closures whose logical
    step carries no explicit bound; the query processor passes the total
    number of stored rows.  DFA-guided plans explore the *product* graph
    — up to ``rows x dfa.num_states`` distinct ``(node, state)`` pairs —
    so the default is scaled by the attached automaton's state count
    here, where every caller gets it; a rows-only bound can drain the
    fixpoint early and silently truncate results (e.g. ``(a/a)*`` over a
    long cycle revisits nodes in different states).  Explicit per-step
    bounds are honoured verbatim.
    """
    default_bound = max(1, default_fixpoint_iterations)
    if plan.dfa is not None:
        default_bound *= max(1, plan.dfa.num_states)
    ops: List[PhysicalOp] = [DispatchOp()]
    expansion_index = 0
    for step in plan.steps:
        if isinstance(step, ExpandStep):
            expansion_index += 1
            ops.append(ExpandOp(phase_name=f"smxm {expansion_index}"))
            ops.append(RouteOp())
        elif isinstance(step, FixpointStep):
            ops.append(
                FixpointOp(max_iterations=step.max_iterations or default_bound)
            )
        else:
            ops.append(ReduceOp())
    reverse = None
    if plan.direction == "reverse":
        if plan.reverse_seeds is None:
            raise ValueError("reverse plans must carry reverse_seeds")
        reverse = ReversePlan(seeds=tuple(plan.reverse_seeds))
    return PhysicalPlan(
        ops=ops,
        accumulate_results=plan.accumulate_results,
        dfa=plan.dfa,
        direction=plan.direction,
        reverse=reverse,
    )

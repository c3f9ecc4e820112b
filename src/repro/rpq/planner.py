"""Planning: from a path query to the one matrix plan every kernel runs.

Moctopus (like RedisGraph) evaluates a batch path query as one chain of
sparse matrix operations, ``ans = Q x Adj x ... x Adj`` (Figure 2): a
dispatch of the source matrix, ``smxm`` expansions that each advance
every pending path by one edge, and a final ``mwait`` that gathers the
per-partition partial results.  A :class:`Plan` is that sentence with
its blanks filled in, and the only plan type there is — the planner
builds it, the plan cache stores it, the worker pool pickles it and
:func:`repro.engine.driver.execute_plan` runs it as it stands.

Every plan has one of two shapes.  The paper's k-hop query and any
fixed-length RPQ are ``expansions`` ``smxm`` phases plus the reduce, the
answer being the final frontier.  Everything else expands to fixpoint
(``expansions is None``), accumulating accepting frontier items as they
are reached.  General RPQs carry their DFA: each phase expands all
in-flight automaton states at once, so the kernels need no other shape.

:func:`plan_query` fixes the shape from the query alone.  Given a
frozen :class:`~repro.serve.epoch.Epoch` it also costs the plan from the
statistics the epoch already carries — the out-degree histogram (average
wildcard fanout), the per-label edge counts (a hop over a rare label is
costed as rare) and the minimized DFA's per-hop live-state sets (the
product-graph frontier caps).  The estimates and the reasoning ride on
the plan as a :class:`PlanDecision` (:meth:`Plan.explain`).  Live
executions and session-patched views have no frozen statistics and get
an uncosted plan of the same shape.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import repeat
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.rpq.automaton import DFA
from repro.rpq.query import KHopQuery, RPQuery


@dataclass(frozen=True)
class GraphCostStats:
    """Planner-facing summary of one epoch's frozen statistics."""

    num_rows: int
    num_edges: int
    avg_out_degree: float
    #: Edge count per resolved label string (engine label semantics:
    #: unnamed integer labels count under ``str(label_id)``).
    label_counts: Dict[str, int]

    @classmethod
    def from_epoch(cls, epoch, label_names: Dict[int, str]) -> "GraphCostStats":
        histogram = epoch.degree_histogram()
        num_rows = int(histogram.sum())
        num_edges = int(
            (np.arange(len(histogram), dtype=np.int64) * histogram).sum()
        )
        counts: Dict[str, int] = {}
        for label_id, count in epoch.label_edge_counts().items():
            name = label_names.get(label_id, str(label_id))
            counts[name] = counts.get(name, 0) + count
        return cls(
            num_rows=num_rows,
            num_edges=num_edges,
            avg_out_degree=num_edges / num_rows if num_rows else 0.0,
            label_counts=counts,
        )

    def label_fanout(self, label: str) -> float:
        """Expected out-edges per frontier node filtered to ``label``."""
        if self.num_rows == 0:
            return 0.0
        return self.label_counts.get(label, 0) / self.num_rows


@dataclass(frozen=True)
class PlanDecision:
    """What the planner estimated for one query, and why."""

    #: Estimated frontier items processed over the whole plan.
    cost: float
    #: Estimated frontier items after each hop.
    hop_estimates: Tuple[float, ...]
    reason: str

    def explain_lines(self) -> List[str]:
        """The decision rendered for :meth:`Plan.explain`."""
        lines = [f"cost: {self.cost:.1f}", f"decision: {self.reason}"]
        if self.hop_estimates:
            estimates = ", ".join(
                f"{estimate:.1f}" for estimate in self.hop_estimates
            )
            lines.append(f"frontier estimates per hop: [{estimates}]")
        return lines


_NO_STATISTICS = PlanDecision(
    cost=0.0,
    hop_estimates=(),
    reason="uncosted (no frozen epoch statistics: live execution or "
           "session-patched view)",
)


@dataclass(frozen=True)
class Plan:
    """One batch query's execution plan; frozen, shared and picklable."""

    #: ``smxm`` phases before the reduce; ``None`` expands to fixpoint
    #: (only a DFA plan does).
    expansions: Optional[int]
    #: Automaton carried by the frontier contexts (``None`` = bare rows,
    #: the k-hop bit-mask path).
    dfa: Optional[DFA] = None
    #: Iteration bound of a fixpoint plan, bound by :func:`lower_plan`.
    fixpoint_bound: Optional[int] = None
    #: The planner's estimates and reasoning (what ``explain()`` prints).
    decision: PlanDecision = _NO_STATISTICS

    @property
    def accumulate_results(self) -> bool:
        """Whether accepting frontier items accumulate into the answer as
        they are reached (fixpoint plans) or only the final frontier
        counts (k-hop and fixed-length plans)."""
        return self.expansions is None

    def max_expansion_phases(self) -> int:
        """Upper bound on the ``smxm`` phases this plan can run.

        Cost-aware kernels (the matrix engine's dense-vs-sparse
        crossover) use it to tell a one-shot 1-hop plan from a deep
        traversal whose frontiers will saturate.
        """
        if self.expansions is not None:
            return self.expansions
        if self.fixpoint_bound is None:
            raise ValueError("fixpoint plan without a bound: see lower_plan()")
        return self.fixpoint_bound

    def explain(self) -> str:
        """Human-readable plan description (one line per phase).

        A DFA plan's expansion lines name the labels its live states can
        leave over at that depth (``any`` past a wildcard arc); a
        fixpoint line names every label of the automaton.
        """
        lines = self.decision.explain_lines()
        dfa = self.dfa
        if self.expansions is None:
            labels = {label for arcs in dfa.transitions.values() for label in arcs}
            steps = [f"smxm fixpoint label={_label_set(labels, bool(dfa.default))}"]
        elif dfa is None:
            steps = ["smxm expand label=any"] * self.expansions
        else:
            steps = [
                f"smxm expand label={_label_set(labels, wildcard)}"
                for labels, wildcard, _ in _live_levels(dfa, self.expansions)
            ]
        steps.append("mwait reduce")
        lines.extend(f"{index}: {step}" for index, step in enumerate(steps))
        return "\n".join(lines)


def _label_set(labels: Set[str], wildcard: bool) -> str:
    return "any" if wildcard else "|".join(sorted(labels)) or "none"


def _live_levels(dfa: DFA, hops: int) -> Iterator[Tuple[Set[str], bool, int]]:
    """What the DFA's live states can leave over, hop by hop.

    Yields ``(labels, wildcard, next states)`` per level: the concrete
    labels with an arc out of a live state, whether any live state has a
    default (any-label) arc, and how many states are live afterwards.
    """
    states = {dfa.start}
    for _ in range(hops):
        labels: Set[str] = set()
        next_states: Set[int] = set()
        wildcard = False
        for state in states:
            arcs = dfa.transitions.get(state, {})
            labels.update(arcs)
            next_states.update(arcs.values())
            default_target = dfa.default.get(state)
            if default_target is not None:
                wildcard = True
                next_states.add(default_target)
        yield labels, wildcard, len(next_states)
        states = next_states


def _estimate_hops(
    dfa: Optional[DFA],
    hops: int,
    stats: GraphCostStats,
    start_size: float,
) -> Tuple[Tuple[float, ...], float]:
    """Per-hop frontier estimates and the total estimated item cost.

    Walks the DFA's live-state sets level by level: a hop whose live
    states only leave over concrete labels is costed with those labels'
    fanouts, a hop with a default (wildcard) arc with the average
    out-degree.  Frontier sizes cap at ``rows x live states`` — the
    product-graph bound — and the cost is the total number of frontier
    items processed (the quantity every kernel charges per phase).
    """
    # A bare k-hop plan is one wildcard state at every depth.
    levels = _live_levels(dfa, hops) if dfa is not None else repeat((set(), True, 1), hops)
    estimates: List[float] = []
    cost = frontier = max(start_size, 0.0)
    for labels, wildcard, live_states in levels:
        fanout = (
            stats.avg_out_degree
            if wildcard
            else sum(stats.label_fanout(label) for label in sorted(labels))
        )
        processed = frontier * fanout
        cost += processed
        frontier = min(processed, float(stats.num_rows) * max(1, live_states))
        estimates.append(frontier)
        if not frontier:
            break
    return tuple(estimates), cost


def plan_query(
    query, epoch=None, label_names: Optional[Dict[int, str]] = None
) -> Plan:
    """The :class:`Plan` for ``query``.

    Without ``epoch`` the plan is structure only.  With one — a frozen
    :class:`~repro.serve.epoch.Epoch`, ``label_names`` naming its integer
    edge labels — the plan is costed from the epoch's statistics.
    """
    if isinstance(query, KHopQuery):
        expansions: Optional[int] = query.hops
        dfa = None
    elif isinstance(query, RPQuery):
        expansions = query.ast().fixed_length()
        dfa = query.dfa()
    else:
        raise TypeError(f"unsupported query type {type(query).__name__}")
    if epoch is None:
        return Plan(expansions, dfa)
    stats = GraphCostStats.from_epoch(epoch, label_names or {})
    batch_size = float(len(query.sources))
    if expansions is None:
        # Kleene plans saturate: every product-graph edge relaxes at
        # most once, so cost ~ edges x states.
        cost = batch_size + float(stats.num_edges) * dfa.num_states
        return Plan(None, dfa, decision=PlanDecision(
            cost, (), "variable-length plans run to fixpoint",
        ))
    estimates, cost = _estimate_hops(dfa, expansions, stats, batch_size)
    reason = (
        "k-hop plans use the bit-mask path" if dfa is None
        else "fixed-length plans expand the DFA hop by hop"
    )
    return Plan(expansions, dfa, decision=PlanDecision(cost, estimates, reason))


def lower_plan(plan: Plan, default_fixpoint_iterations: int) -> Plan:
    """``plan`` bound to a graph of ``default_fixpoint_iterations`` rows.

    Only a fixpoint plan needs binding.  A shortest path to any
    ``(node, state)`` frontier item visits each product-graph vertex at
    most once, so it is no longer than the stored rows times the DFA's
    states, and the kernels' frontier dedup drains the fixpoint as soon
    as an iteration produces nothing new.  The state factor matters: a
    rows-only bound can stop early and silently truncate the answer
    (``(a/a)*`` over a long cycle revisits nodes in different states).
    """
    if plan.expansions is not None:
        return plan
    bound = max(1, default_fixpoint_iterations) * plan.dfa.num_states
    return replace(plan, fixpoint_bound=bound)

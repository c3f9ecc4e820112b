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
product-graph frontier caps) — and, for fixed-length expressions, costs
the *reverse* plan too: the reversed-expression DFA expanded from the
candidate path *end* nodes (the destinations of edges whose label the
query can finish on), the matches inverted afterwards.  Whichever side
is estimated cheaper wins; a query that finishes on a rare label starts
from a tiny seed set and skips the broad forward fan-out entirely.  The
estimates and the reasoning ride on the plan as a :class:`PlanDecision`
(:meth:`Plan.explain`).  Live executions and session-patched views have
no frozen statistics and always plan forward.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import repeat
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.rpq.automaton import DFA, build_dfa
from repro.rpq.query import KHopQuery, RPQuery
from repro.rpq.regex import reverse_expression

#: Reverse expansion must look at least this much cheaper than forward
#: before it is chosen — estimates are coarse, and ties should keep the
#: well-trodden forward path.
_REVERSE_MARGIN = 0.8


@dataclass(frozen=True)
class GraphCostStats:
    """Planner-facing summary of one epoch's frozen statistics."""

    num_rows: int
    num_nodes: int
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
            num_nodes=max(int(epoch.num_nodes), num_rows),
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
    """What the planner estimated for one query, and why it chose as it did."""

    forward_cost: float
    reverse_cost: Optional[float]
    #: Estimated frontier items after each hop of the chosen plan.
    hop_estimates: Tuple[float, ...]
    reason: str

    def explain_lines(self) -> List[str]:
        """The decision rendered for :meth:`Plan.explain`."""
        reverse = (
            f"{self.reverse_cost:.1f}" if self.reverse_cost is not None
            else "n/a"
        )
        lines = [
            f"cost: forward={self.forward_cost:.1f} reverse={reverse}",
            f"decision: {self.reason}",
        ]
        if self.hop_estimates:
            estimates = ", ".join(
                f"{estimate:.1f}" for estimate in self.hop_estimates
            )
            lines.append(f"frontier estimates per hop: [{estimates}]")
        return lines


_NO_STATISTICS = PlanDecision(
    forward_cost=0.0,
    reverse_cost=None,
    hop_estimates=(),
    reason="forward (no frozen epoch statistics: live execution or "
           "session-patched view)",
)


@dataclass(frozen=True)
class Plan:
    """One batch query's execution plan; frozen, shared and picklable."""

    #: ``smxm`` phases before the reduce; ``None`` expands to fixpoint
    #: (only a DFA plan does).
    expansions: Optional[int]
    #: Automaton carried by the frontier contexts (``None`` = bare rows,
    #: the k-hop bit-mask path).  The reversed-expression automaton when
    #: the plan runs from ``reverse_seeds``.
    dfa: Optional[DFA] = None
    #: Iteration bound of a fixpoint plan, bound by :func:`lower_plan`.
    fixpoint_bound: Optional[int] = None
    #: Set when the plan expands against reversed adjacency: the sorted,
    #: distinct candidate path end nodes it starts from (the matches are
    #: inverted back to the batch's sources after it drains).
    reverse_seeds: Optional[Tuple[int, ...]] = None
    #: The planner's estimates and reasoning (what ``explain()`` prints).
    decision: PlanDecision = _NO_STATISTICS

    @property
    def direction(self) -> str:
        """``"reverse"`` when the plan runs from ``reverse_seeds``."""
        return "forward" if self.reverse_seeds is None else "reverse"

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
        seeds = (
            f", seeds={len(self.reverse_seeds)}"
            if self.reverse_seeds is not None
            else ""
        )
        lines = [f"direction: {self.direction}{seeds}", *self.decision.explain_lines()]
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


def accepting_edge_labels(dfa: DFA) -> Tuple[Set[str], bool]:
    """Labels an accepted path can *end* on: ``(labels, wildcard)``.

    ``wildcard`` is true when some state reaches an accepting state via
    its default (any-label) arc, in which case every edge label can be
    final and ``labels`` is moot.
    """
    labels = {
        label
        for arcs in dfa.transitions.values()
        for label, target in arcs.items()
        if target in dfa.accepting
    }
    wildcard = any(target in dfa.accepting for target in dfa.default.values())
    return labels, wildcard


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


def _reverse_seed_nodes(
    epoch,
    labels: Set[str],
    wildcard: bool,
    label_names: Dict[int, str],
) -> Tuple[int, ...]:
    """The candidate path end nodes: destinations of final-label edges."""
    chunks: List[np.ndarray] = []
    for snapshot in epoch.snapshots:
        if len(snapshot.dsts) == 0:
            continue
        if wildcard:
            chunks.append(snapshot.dsts)
            continue
        present = np.unique(snapshot.labels)
        wanted = [
            int(label_id)
            for label_id in present.tolist()
            if label_names.get(label_id, str(label_id)) in labels
        ]
        if not wanted:
            continue
        mask = np.isin(snapshot.labels, wanted)
        chunks.append(snapshot.dsts[mask])
    if not chunks:
        return ()
    return tuple(np.unique(np.concatenate(chunks)).tolist())


def plan_query(
    query, epoch=None, label_names: Optional[Dict[int, str]] = None
) -> Plan:
    """The :class:`Plan` for ``query``.

    Without ``epoch`` the plan is structure only and forward.  With one
    — a frozen :class:`~repro.serve.epoch.Epoch`, ``label_names`` naming
    its integer edge labels — the plan is costed, and a fixed-length RPQ
    runs reverse when that is estimated cheaper by ``_REVERSE_MARGIN``.
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
    label_names = label_names or {}
    stats = GraphCostStats.from_epoch(epoch, label_names)
    batch_size = float(len(query.sources))
    if expansions is None:
        # Kleene plans saturate: every product-graph edge relaxes at
        # most once, so cost ~ edges x states either way; reverse
        # would not shrink it and complicates accumulate semantics.
        forward_cost = batch_size + float(stats.num_edges) * dfa.num_states
        return Plan(None, dfa, decision=PlanDecision(
            forward_cost, None, (),
            "forward (variable-length plans run to fixpoint)",
        ))
    estimates, forward_cost = _estimate_hops(dfa, expansions, stats, batch_size)
    if dfa is None:
        return Plan(expansions, decision=PlanDecision(
            forward_cost, None, estimates,
            "forward (k-hop plans use the bit-mask path)",
        ))
    reverse_cost: Optional[float] = None
    if expansions >= 1 and stats.num_rows > 0:
        final_labels, final_wildcard = accepting_edge_labels(dfa)
        seed_estimate = float(
            stats.num_edges
            if final_wildcard
            else sum(stats.label_counts.get(label, 0) for label in final_labels)
        )
        seed_estimate = min(seed_estimate, float(stats.num_nodes))
        reverse_dfa = build_dfa(reverse_expression(query.ast()))
        reverse_estimates, reverse_cost = _estimate_hops(
            reverse_dfa, expansions, stats, seed_estimate
        )
        if reverse_cost < forward_cost * _REVERSE_MARGIN:
            seeds = _reverse_seed_nodes(
                epoch, final_labels, final_wildcard, label_names
            )
            decision = PlanDecision(
                forward_cost, reverse_cost, reverse_estimates,
                "reverse (accepting side is rarer: "
                f"{len(seeds)} seed end nodes vs "
                f"{batch_size:.0f}-source forward fan-out)",
            )
            return Plan(expansions, reverse_dfa, reverse_seeds=seeds, decision=decision)
    return Plan(expansions, dfa, decision=PlanDecision(
        forward_cost, reverse_cost, estimates,
        "forward (cheaper than reverse expansion)"
        if reverse_cost is not None
        else "forward (reverse not applicable)",
    ))


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

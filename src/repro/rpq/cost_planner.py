"""Cost-based planning: choose how to run a path query before lowering.

The structural planner (:mod:`repro.rpq.planner`) fixes *what* a query
computes; this module decides *how*, using the statistics a pinned
:class:`~repro.serve.epoch.Epoch` already carries:

* the cached out-degree histogram (:meth:`Epoch.degree_histogram`)
  supplies the average fanout of a wildcard expansion;
* the per-label edge counts (:meth:`Epoch.label_edge_counts`) supply
  label-filtered fanouts, so a hop over a rare label is costed as rare;
* the minimized DFA (:func:`~repro.rpq.automaton.minimize_dfa`, applied
  by ``build_dfa``) keeps the per-hop live-state sets — and with them
  the product-graph frontier caps — as small as the language allows.

From those inputs the planner estimates per-hop frontier sizes for the
forward plan and, for fixed-length expressions, for the *reverse* plan:
expanding the reversed-expression DFA from the candidate path *end*
nodes (the destinations of edges whose label the query can finish on)
and inverting the matches afterwards.  Whichever side is estimated
cheaper wins; queries that finish on a rare label start the reverse
expansion from a tiny seed set and skip the broad forward fan-out
entirely.  The decision and the estimates are recorded on the returned
:class:`~repro.rpq.planner.LogicalPlan` as a :class:`PlanDecision`
(surfaced by ``LogicalPlan.explain()``).

Live executions and session-patched views carry no frozen statistics,
so they always plan forward — same structure, no cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.rpq.automaton import DFA, build_dfa
from repro.rpq.planner import (
    ExpandStep,
    LogicalPlan,
    PlanStep,
    ReduceStep,
    plan_query,
)
from repro.rpq.query import KHopQuery
from repro.rpq.regex import ANY_LABEL, reverse_expression

#: Reverse expansion must look at least this much cheaper than forward
#: before it is chosen — estimates are coarse, and ties should keep the
#: well-trodden forward path.
_REVERSE_MARGIN = 0.8


def epoch_of_view(view) -> Optional[object]:
    """The frozen :class:`Epoch` behind ``view`` when its statistics are
    usable for planning, else ``None``.

    Accepts a bare ``Epoch``, an unpatched ``EpochView``, or anything
    else (live runtime state, patched session views) — the latter plan
    forward without a cost model.  Structural checks keep this module
    free of a ``repro.serve`` import.
    """
    if view is None:
        return None
    epoch = getattr(view, "epoch", None)
    if epoch is not None:
        is_patched = getattr(view, "is_patched", None)
        if is_patched is not None and is_patched():
            return None
        return epoch
    if hasattr(view, "reverse_index"):
        return view
    return None


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
    """What the cost-based planner chose for one query, and why."""

    direction: str
    forward_cost: float
    reverse_cost: Optional[float]
    #: Estimated frontier items after each hop of the chosen plan.
    hop_estimates: Tuple[float, ...]
    reason: str

    def explain_lines(self) -> List[str]:
        """The decision rendered for ``LogicalPlan.explain()``."""
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


def _dfa_states(dfa: DFA) -> Set[int]:
    states = {dfa.start} | set(dfa.accepting)
    states.update(dfa.transitions)
    states.update(dfa.default)
    states.update(dfa.default.values())
    for arcs in dfa.transitions.values():
        states.update(arcs.values())
    return states


def accepting_edge_labels(dfa: DFA) -> Tuple[Set[str], bool]:
    """Labels an accepted path can *end* on: ``(labels, wildcard)``.

    ``wildcard`` is true when some state reaches an accepting state via
    its default (any-label) arc, in which case every edge label can be
    final and ``labels`` is moot.
    """
    labels: Set[str] = set()
    wildcard = False
    for state in _dfa_states(dfa):
        default_target = dfa.default.get(state)
        if default_target is not None and default_target in dfa.accepting:
            wildcard = True
        for label, target in dfa.transitions.get(state, {}).items():
            if target in dfa.accepting:
                labels.add(label)
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
    items processed (the quantity both engines charge per phase).
    """
    estimates: List[float] = []
    cost = max(start_size, 0.0)
    frontier = max(start_size, 0.0)
    states: Set[int] = {dfa.start} if dfa is not None else set()
    for _ in range(hops):
        if dfa is not None:
            wildcard = False
            labels: Set[str] = set()
            next_states: Set[int] = set()
            for state in states:
                for label, target in dfa.transitions.get(state, {}).items():
                    labels.add(label)
                    next_states.add(target)
                default_target = dfa.default.get(state)
                if default_target is not None:
                    wildcard = True
                    next_states.add(default_target)
            fanout = (
                stats.avg_out_degree
                if wildcard
                else sum(stats.label_fanout(label) for label in labels)
            )
            cap = float(stats.num_rows) * max(1, len(next_states))
            states = next_states
        else:
            fanout = stats.avg_out_degree
            cap = float(stats.num_rows)
        processed = frontier * fanout
        cost += processed
        frontier = min(processed, cap)
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


class CostBasedPlanner:
    """Plans queries with epoch statistics: direction and bounds.

    Stateless apart from its construction-time label table, so one
    instance is safely shared by every thread of a query processor; all
    per-query state lives on the returned plan.
    """

    def __init__(self, label_names: Optional[Dict[int, str]] = None) -> None:
        self._label_names = label_names or {}

    def plan(self, query, view=None) -> LogicalPlan:
        """A costed :class:`LogicalPlan` for ``query`` against ``view``."""
        base = plan_query(query)
        epoch = epoch_of_view(view)
        if epoch is None:
            base.decision = PlanDecision(
                direction="forward",
                forward_cost=0.0,
                reverse_cost=None,
                hop_estimates=(),
                reason="forward (no frozen epoch statistics: live "
                       "execution or session-patched view)",
            )
            return base
        stats = GraphCostStats.from_epoch(epoch, self._label_names)
        batch_size = float(len(query.sources))

        if isinstance(query, KHopQuery):
            estimates, forward_cost = _estimate_hops(
                None, query.hops, stats, batch_size
            )
            base.decision = PlanDecision(
                direction="forward",
                forward_cost=forward_cost,
                reverse_cost=None,
                hop_estimates=estimates,
                reason="forward (k-hop plans use the bit-mask path)",
            )
            return base

        ast = query.ast()
        if not ast.is_fixed_length():
            # Kleene plans saturate: every product-graph edge relaxes at
            # most once, so cost ~ edges x states either way; reverse
            # would not shrink it and complicates accumulate semantics.
            dfa = base.dfa
            num_states = dfa.num_states if dfa is not None else 1
            forward_cost = batch_size + float(stats.num_edges) * num_states
            base.decision = PlanDecision(
                direction="forward",
                forward_cost=forward_cost,
                reverse_cost=None,
                hop_estimates=(),
                reason="forward (variable-length plans run to fixpoint)",
            )
            return base

        length = ast.fixed_length() or 0
        forward_estimates, forward_cost = _estimate_hops(
            base.dfa, length, stats, batch_size
        )
        reverse_cost: Optional[float] = None
        if length >= 1 and stats.num_rows > 0 and base.dfa is not None:
            final_labels, final_wildcard = accepting_edge_labels(base.dfa)
            seed_estimate = float(
                stats.num_edges
                if final_wildcard
                else sum(
                    stats.label_counts.get(label, 0) for label in final_labels
                )
            )
            seed_estimate = min(seed_estimate, float(stats.num_nodes))
            reverse_dfa = build_dfa(reverse_expression(ast))
            reverse_estimates, reverse_cost = _estimate_hops(
                reverse_dfa, length, stats, seed_estimate
            )
            if reverse_cost < forward_cost * _REVERSE_MARGIN:
                seeds = _reverse_seed_nodes(
                    epoch, final_labels, final_wildcard, self._label_names
                )
                steps: List[PlanStep] = [
                    ExpandStep(label=ANY_LABEL) for _ in range(length)
                ]
                steps.append(ReduceStep())
                plan = LogicalPlan(
                    steps=steps,
                    accumulate_results=False,
                    dfa=reverse_dfa,
                    direction="reverse",
                    reverse_seeds=seeds,
                )
                plan.decision = PlanDecision(
                    direction="reverse",
                    forward_cost=forward_cost,
                    reverse_cost=reverse_cost,
                    hop_estimates=reverse_estimates,
                    reason=(
                        "reverse (accepting side is rarer: "
                        f"{len(seeds)} seed end nodes vs "
                        f"{batch_size:.0f}-source forward fan-out)"
                    ),
                )
                return plan
        base.decision = PlanDecision(
            direction="forward",
            forward_cost=forward_cost,
            reverse_cost=reverse_cost,
            hop_estimates=forward_estimates,
            reason=(
                "forward (cheaper than reverse expansion)"
                if reverse_cost is not None
                else "forward (reverse not applicable)"
            ),
        )
        return base

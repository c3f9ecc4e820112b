"""Reference RPQ evaluator (correctness oracle).

This evaluator computes query answers directly on the in-memory graph,
with no PIM simulation and no partitioning.  It exists so that every
engine in the reproduction — Moctopus, PIM-hash and the RedisGraph-like
baseline — can be checked against a single, independently implemented
source of truth:

* :func:`evaluate_khop` — breadth-first frontier expansion for the
  exact-k-hop semantics of the paper's workload;
* :func:`evaluate_rpq` — product-graph BFS over (graph node, automaton
  state) pairs, the textbook RPQ algorithm.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Set, Tuple

from repro.graph.digraph import ReadableGraph
from repro.rpq.automaton import DFA
from repro.rpq.query import BatchResult, KHopQuery, RPQuery


def evaluate_khop(graph: ReadableGraph, query: KHopQuery) -> BatchResult:
    """Exact-k-hop reachability from every source in the batch.

    Sources that do not exist in the graph yield empty destination sets
    (a query over a missing node matches nothing, it is not an error).
    """
    destinations: List[Set[int]] = []
    for source in query.sources:
        if not graph.has_node(source):
            destinations.append(set())
            continue
        frontier = {source}
        for _ in range(query.hops):
            next_frontier: Set[int] = set()
            for node in frontier:
                next_frontier.update(graph.successors(node))
            frontier = next_frontier
            if not frontier:
                break
        destinations.append(frontier)
    return BatchResult.from_sets(list(query.sources), destinations)


def evaluate_rpq(
    graph: ReadableGraph,
    query: RPQuery,
    label_names: Dict[int, str] = None,
) -> BatchResult:
    """Product-graph BFS evaluation of a general RPQ.

    Parameters
    ----------
    graph:
        The data graph; edge labels are integers.
    query:
        The path query.
    label_names:
        Mapping from integer edge label to the label string used in the
        query expression.  When omitted, integer labels are matched by
        their decimal string and the unlabeled default (0) only matches
        wildcard steps.
    """
    dfa = query.dfa()
    destinations: List[Set[int]] = []
    for source in query.sources:
        destinations.append(_single_source_rpq(graph, dfa, source, label_names))
    return BatchResult.from_sets(list(query.sources), destinations)


def _label_string(label: int, label_names: Dict[int, str] = None) -> str:
    if label_names and label in label_names:
        return label_names[label]
    return str(label)


def _single_source_rpq(
    graph: ReadableGraph,
    dfa: DFA,
    source: int,
    label_names: Dict[int, str] = None,
) -> Set[int]:
    if not graph.has_node(source):
        return set()
    start_state = dfa.start
    visited: Set[Tuple[int, int]] = {(source, start_state)}
    queue = deque([(source, start_state)])
    matched: Set[int] = set()
    if dfa.is_accepting(start_state):
        # Zero-length match: the expression accepts the empty path, so the
        # source itself is a destination (e.g. ``a*``).
        matched.add(source)
    while queue:
        node, state = queue.popleft()
        for successor, label in graph.successors_with_labels(node):
            next_state = dfa.step(state, _label_string(label, label_names))
            if next_state is None:
                continue
            pair = (successor, next_state)
            if pair in visited:
                continue
            visited.add(pair)
            if dfa.is_accepting(next_state):
                matched.add(successor)
            queue.append(pair)
    return matched

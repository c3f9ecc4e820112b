"""Tests for query objects, the planner and the reference evaluator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import DiGraph, random_graph
from repro.rpq import (
    BatchResult,
    KHopQuery,
    RPQuery,
    evaluate_khop,
    evaluate_rpq,
    make_batch_khop,
    plan_query,
    random_source_batch,
)


# ----------------------------------------------------------------------
# Query objects
# ----------------------------------------------------------------------
def test_khop_query_validation_and_conversion():
    query = KHopQuery(hops=2, sources=[1, 2, 3])
    assert query.batch_size == 3
    assert query.expression() == ".{2}"
    assert query.to_rpq().sources == [1, 2, 3]
    with pytest.raises(ValueError):
        KHopQuery(hops=0)


def test_rpq_fixed_length_detection():
    assert RPQuery("a/b", [0]).is_fixed_length()
    assert RPQuery("a/b", [0]).fixed_length() == 2
    assert not RPQuery("a+", [0]).is_fixed_length()
    with pytest.raises(ValueError):
        RPQuery("a+", [0]).fixed_length()


def test_batch_result_accessors():
    result = BatchResult.from_sets([1, 1, 2], [{3}, {4}, set()])
    assert result.total_matches == 2
    assert result.pairs() == {(1, 3), (1, 4)}
    assert result.destinations_of(1) == {4}
    assert result.as_dict() == {1: {3, 4}, 2: set()}


def test_random_source_batch_is_deterministic():
    nodes = list(range(50))
    a = random_source_batch(nodes, 10, seed=3)
    b = random_source_batch(nodes, 10, seed=3)
    assert a == b
    assert len(a) == 10
    assert all(source in nodes for source in a)
    with pytest.raises(ValueError):
        random_source_batch([], 5)


def test_make_batch_khop():
    query = make_batch_khop(range(5), hops=3)
    assert query.hops == 3 and query.batch_size == 5


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------
def test_plan_khop_structure():
    plan = plan_query(KHopQuery(hops=3, sources=[0]))
    assert plan.expansions == 3 and plan.dfa is None
    assert plan.max_expansion_phases() == 3
    assert not plan.accumulate_results
    assert "smxm" in plan.explain()


def test_plan_rpq_fixed_length_uses_expand_chain():
    plan = plan_query(RPQuery("a/b", [0]))
    assert plan.expansions == 2
    assert plan.dfa is not None
    assert not plan.accumulate_results
    assert plan_query(RPQuery("a{0}", [0])).expansions == 0


def test_plan_rpq_variable_length_uses_fixpoint():
    plan = plan_query(RPQuery("a+", [0]))
    assert plan.expansions is None
    assert plan.accumulate_results
    assert "fixpoint" in plan.explain()
    # Nothing can run it before ``lower_plan`` binds it to a graph size.
    with pytest.raises(ValueError):
        plan.max_expansion_phases()


def test_plan_query_dispatch():
    assert plan_query(KHopQuery(hops=1, sources=[0])).expansions == 1
    assert plan_query(RPQuery("a", [0])).expansions == 1
    with pytest.raises(TypeError):
        plan_query("not a query")


def _phase_lines(plan):
    return [line for line in plan.explain().splitlines() if line[0].isdigit()]


def test_explain_names_the_labels_live_at_each_depth():
    assert _phase_lines(plan_query(RPQuery("a/c", [0]))) == [
        "0: smxm expand label=a",
        "1: smxm expand label=c",
        "2: mwait reduce",
    ]
    assert _phase_lines(plan_query(RPQuery("(a|b)/c", [0]))) == [
        "0: smxm expand label=a|b",
        "1: smxm expand label=c",
        "2: mwait reduce",
    ]
    assert _phase_lines(plan_query(KHopQuery(hops=2, sources=[0]))) == [
        "0: smxm expand label=any",
        "1: smxm expand label=any",
        "2: mwait reduce",
    ]
    # A wildcard arc is ``any``; a fixpoint names the whole alphabet.
    assert _phase_lines(plan_query(RPQuery("a/_", [0])))[1] == "1: smxm expand label=any"
    assert _phase_lines(plan_query(RPQuery("a/(b|c)*", [0]))) == [
        "0: smxm fixpoint label=a|b|c",
        "1: mwait reduce",
    ]


# ----------------------------------------------------------------------
# Reference evaluator
# ----------------------------------------------------------------------
def chain_graph(length: int) -> DiGraph:
    return DiGraph.from_edges([(i, i + 1) for i in range(length)])


def test_evaluate_khop_exact_semantics():
    graph = chain_graph(5)
    result = evaluate_khop(graph, KHopQuery(hops=2, sources=[0, 3, 99]))
    assert result.destinations == [{2}, {5}, set()]


def test_evaluate_rpq_with_labels():
    graph = DiGraph()
    graph.add_edge(0, 1, label=1)
    graph.add_edge(1, 2, label=2)
    graph.add_edge(0, 3, label=2)
    label_names = {1: "a", 2: "b"}
    result = evaluate_rpq(graph, RPQuery("a/b", [0]), label_names=label_names)
    assert result.destinations == [{2}]
    result = evaluate_rpq(graph, RPQuery("b", [0]), label_names=label_names)
    assert result.destinations == [{3}]


def test_evaluate_rpq_kleene_includes_source():
    graph = chain_graph(3)
    result = evaluate_rpq(graph, RPQuery(".*", [1]))
    assert result.destinations == [{1, 2, 3}]


def test_evaluate_rpq_plus_excludes_source_unless_cycle():
    graph = DiGraph.from_edges([(0, 1), (1, 0)])
    result = evaluate_rpq(graph, RPQuery(".+", [0]))
    assert result.destinations == [{0, 1}]
    chain = chain_graph(2)
    result = evaluate_rpq(chain, RPQuery(".+", [0]))
    assert result.destinations == [{1, 2}]


def test_khop_equals_rpq_wildcard_expression():
    graph = random_graph(60, 240, seed=8)
    sources = random_source_batch(list(graph.nodes()), 10, seed=1)
    khop = evaluate_khop(graph, KHopQuery(hops=2, sources=sources))
    rpq = evaluate_rpq(graph, RPQuery(".{2}", sources))
    assert khop.destinations == rpq.destinations


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=300), st.integers(min_value=1, max_value=3))
def test_khop_destinations_subset_of_reachable(seed, hops):
    graph = random_graph(40, 160, seed=seed)
    sources = random_source_batch(list(graph.nodes()), 5, seed=seed)
    exact = evaluate_khop(graph, KHopQuery(hops=hops, sources=sources))
    accumulated = evaluate_rpq(graph, RPQuery(".+", sources))
    for exact_set, reach_set in zip(exact.destinations, accumulated.destinations):
        assert exact_set <= reach_set

"""Cost-based planner, plan/result caches, and the bugfix sweep.

Covers the planner protocol end to end:

* the fixpoint-bound regression — ``lower_plan`` must scale its default
  bound by the attached DFA's state count (the product graph visits
  ``rows x states`` pairs, not ``rows``), shown both on the bound plan
  and as an actual truncated answer on a labeled cycle;
* only an unpatched pinned view's plan is costed: live and
  session-patched views plan the same shape without statistics;
* zero-length expressions (``a{0}``, ``(a|b){0}``) across engines and
  oracle;
* the epoch-keyed plan cache and LRU result cache: warm answers are
  bit-identical to cold ones (results *and* per-query counters), hit
  counters land on the separate ``cache_stats`` accumulator, entries
  never survive their epoch, and patched session views bypass caching;
* ``RPQuery`` AST/DFA memoization.
"""

from __future__ import annotations

import random

import pytest

from repro.core import Moctopus, MoctopusConfig
from repro.engine import lower_plan
from repro.graph import DiGraph, random_graph
from repro.pim import CostModel
from repro.rpq import RPQuery, plan_query
from repro.rpq.evaluator import evaluate_rpq

ENGINES = ("python", "vectorized", "matrix", "auto")
LABEL_NAMES = {1: "a", 2: "b", 3: "c"}


def build_system(graph: DiGraph, engine: str = "python", **config_kwargs) -> Moctopus:
    config = MoctopusConfig(
        cost_model=CostModel(num_modules=4),
        engine=engine,
        high_degree_threshold=12,
        **config_kwargs,
    )
    return Moctopus.from_graph(graph, config, label_names=LABEL_NAMES)


def labeled_cycle(length: int, label: int = 1) -> DiGraph:
    graph = DiGraph(num_nodes=length)
    for node in range(length):
        graph.add_edge(node, (node + 1) % length, label=label)
    return graph


def skewed_graph(seed: int = 3) -> DiGraph:
    """Dense ``a``/``b`` noise plus three rare ``c`` edges."""
    rng = random.Random(seed)
    graph = DiGraph(num_nodes=80)
    for _ in range(600):
        src, dst = rng.randrange(80), rng.randrange(80)
        if src != dst:
            graph.add_edge(src, dst, label=rng.choice([1, 1, 1, 1, 2]))
    for src, dst in [(5, 6), (10, 11), (20, 21)]:
        graph.add_edge(src, dst, label=3)
    return graph


def fingerprint(result, stats):
    return (
        [set(dsts) for dsts in result.destinations],
        stats.host_time,
        stats.cpc_time,
        stats.ipc_time,
        stats.pim_time,
        tuple(stats.phase_pim_times),
        dict(stats.counters),
    )


# ----------------------------------------------------------------------
# Fixpoint bound regression (the product-graph bound lives in lower_plan)
# ----------------------------------------------------------------------
def test_lower_plan_scales_default_bound_by_dfa_states():
    plan = plan_query(RPQuery("(a/a)*", sources=[0]))
    assert plan.dfa is not None and plan.dfa.num_states == 2
    assert plan.expansions is None and plan.fixpoint_bound is None
    bound = lower_plan(plan, default_fixpoint_iterations=7)
    # Regression: the default bound used to be taken verbatim (7), which
    # truncates product-graph walks longer than the row count.
    assert bound.fixpoint_bound == 7 * plan.dfa.num_states
    assert bound.max_expansion_phases() == 7 * plan.dfa.num_states


@pytest.mark.parametrize("engine", ENGINES)
def test_unscaled_bound_would_truncate_cycle_closure(engine):
    # On a 5-cycle of ``a`` edges, ``(a/a)*`` reaches every node (the
    # even path lengths 0,2,4,6,8 cover all residues mod 5), but the
    # longest shortest path in the node x state product graph is 8 — more
    # than the 5 stored rows.  With the old row-only default bound the
    # fixpoint drained early and silently returned {0, 2, 4}.
    system = build_system(labeled_cycle(5), engine=engine)
    query = RPQuery("(a/a)*", sources=[0])
    plan = plan_query(query)
    physical = lower_plan(plan, default_fixpoint_iterations=5)
    processor = system._query_processor
    result, _ = processor.engine.execute(physical, query.sources, processor.live)
    oracle = evaluate_rpq(system.graph, query, label_names=LABEL_NAMES)
    assert [set(d) for d in result.destinations] == [
        set(d) for d in oracle.destinations
    ]
    assert result.destinations[0] == {0, 1, 2, 3, 4}


# ----------------------------------------------------------------------
# Costed and uncosted plans
# ----------------------------------------------------------------------
def test_patched_views_and_live_queries_plan_forward():
    system = build_system(skewed_graph())
    processor = system._query_processor
    query = RPQuery("a/c", sources=list(range(40)))
    live = processor.plan(query, processor.live)
    assert "no frozen epoch statistics" in live.decision.reason
    assert live.decision.cost == 0.0
    with system.begin() as session:
        pinned = processor.plan(query, view=session._view())
        assert pinned.decision.cost > 0.0
        assert len(pinned.decision.hop_estimates) == 2
        session.insert_edges([(70, 71)], labels=[3])
        patched = processor.plan(query, view=session._view())
        assert patched.decision == live.decision
    for plan in (live, pinned, patched):
        assert (plan.expansions, plan.dfa) == (2, query.dfa())


# ----------------------------------------------------------------------
# Zero-length expressions
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("expression", ["a{0}", "(a|b){0}", "a{0,2}"])
def test_zero_length_expressions_match_oracle(engine, expression):
    graph = random_graph(28, 90, seed=11)
    system = build_system(graph, engine=engine)
    query = RPQuery(expression, sources=list(range(12)))
    with system.begin() as session:
        result, _ = session.execute(query)
    oracle = evaluate_rpq(system.graph, query, label_names=LABEL_NAMES)
    assert [set(d) for d in result.destinations] == [
        set(d) for d in oracle.destinations
    ]
    if expression != "a{0,2}":
        # A zero-length match relates every existing source to itself.
        for source, destinations in zip(result.sources, result.destinations):
            assert destinations == {source}


# ----------------------------------------------------------------------
# Plan / result caches
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINES)
def test_warm_results_are_bit_identical(engine):
    system = build_system(skewed_graph(), engine=engine)
    processor = system._query_processor
    with system.begin() as session:
        for expression in ("a/c", "a/b", "(a/a)*", "c"):
            query = RPQuery(expression, sources=list(range(30)))
            cold = fingerprint(*session.execute(query))
            warm = fingerprint(*session.execute(query))
            again = fingerprint(*session.execute(query))
            assert cold == warm == again, expression
    counters = processor.cache_stats.counters
    assert counters["result_cache_hits"] >= 8
    assert counters["plan_cache_hits"] >= 0


def test_cache_counters_stay_off_per_query_stats():
    system = build_system(skewed_graph())
    query = RPQuery("a/c", sources=list(range(30)))
    with system.begin() as session:
        _, cold_stats = session.execute(query)
        _, warm_stats = session.execute(query)
    for stats in (cold_stats, warm_stats):
        assert not any("cache" in name for name in stats.counters)
    assert dict(cold_stats.counters) == dict(warm_stats.counters)


def test_cached_stats_are_private_copies():
    system = build_system(skewed_graph())
    query = RPQuery("a/b", sources=[0, 1, 2])
    with system.begin() as session:
        _, first = session.execute(query)
        first.add_counter("caller_scribble", 99)
        _, second = session.execute(query)
    assert "caller_scribble" not in second.counters


def test_caches_can_be_disabled():
    system = build_system(
        skewed_graph(), plan_cache_size=0, result_cache_size=0
    )
    processor = system._query_processor
    query = RPQuery("a/c", sources=list(range(30)))
    with system.begin() as session:
        cold = fingerprint(*session.execute(query))
        warm = fingerprint(*session.execute(query))
    assert cold == warm
    assert not processor.cache_stats.counters


def test_result_cache_evicts_least_recently_used():
    system = build_system(skewed_graph(), result_cache_size=2)
    processor = system._query_processor
    with system.begin() as session:
        a = RPQuery("a", sources=[0])
        b = RPQuery("b", sources=[0])
        c = RPQuery("c", sources=[0])
        session.execute(a)
        session.execute(b)
        session.execute(c)  # evicts the "a" entry
        session.execute(a)  # miss again
    counters = processor.cache_stats.counters
    assert counters["result_cache_misses"] == 4
    assert counters.get("result_cache_hits", 0) == 0


def test_new_epoch_never_sees_cached_answers():
    system = build_system(skewed_graph())
    query = RPQuery("a/c", sources=[19, 20, 21])
    with system.begin() as session:
        before, _ = session.execute(query)
    # Publishing a new epoch (new edges 19 -a-> 20 already exists or
    # not; add a fresh a-edge into the rare-c path) must re-execute: the
    # cache key embeds the epoch id.
    system.insert_edges([(19, 20)], labels=[1])
    with system.begin() as session:
        after, _ = session.execute(query)
    oracle = evaluate_rpq(system.graph, query, label_names=LABEL_NAMES)
    assert [set(d) for d in after.destinations] == [
        set(d) for d in oracle.destinations
    ]
    assert 21 in after.destinations[0]


def test_patched_session_views_bypass_the_result_cache():
    system = build_system(skewed_graph())
    processor = system._query_processor
    query = RPQuery("c", sources=[5, 70])
    with system.begin() as session:
        base, _ = session.execute(query)
        assert base.destinations[1] == set()
        session.insert_edges([(70, 71)], labels=[3])
        patched, _ = session.execute(query)
        assert patched.destinations[1] == {71}
        hits = processor.cache_stats.counters.get("result_cache_hits", 0)
        again, _ = session.execute(query)
        assert again.destinations[1] == {71}
        # The staged-write view must not have produced (or consumed) a
        # cache entry for its divergent answer.
        assert processor.cache_stats.counters.get("result_cache_hits", 0) == hits


# ----------------------------------------------------------------------
# RPQuery memoization
# ----------------------------------------------------------------------
def test_rpquery_ast_and_dfa_are_memoized():
    query = RPQuery("a/b|c", sources=[0])
    assert query.ast() is query.ast()
    assert query.dfa() is query.dfa()


def test_rpquery_memoization_invalidates_on_expression_change():
    query = RPQuery("a/b", sources=[0])
    first_ast, first_dfa = query.ast(), query.dfa()
    query.expression = "a/c"
    assert query.ast() is not first_ast
    assert query.dfa() is not first_dfa
    assert query.fixed_length() == 2


# ----------------------------------------------------------------------
# Facade
# ----------------------------------------------------------------------
def test_system_explain_and_cache_stats_facade():
    system = build_system(skewed_graph())
    text = system.explain(RPQuery("a/c", sources=list(range(40))))
    assert text.splitlines()[0].startswith("cost: ")
    assert "decision: fixed-length plans" in text
    assert "frontier estimates per hop: [" in text
    live = system.explain(RPQuery("a/c", sources=[0]), pinned=False)
    assert "no frozen epoch statistics" in live
    query = RPQuery("a/b", sources=[0, 1])
    with system.begin() as session:
        session.execute(query)
        session.execute(query)
    assert system.cache_stats.counters["result_cache_hits"] == 1

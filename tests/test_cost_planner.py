"""Cost-based planner, plan/result caches, and the bugfix sweep.

Covers the planner protocol end to end:

* the fixpoint-bound regression — ``lower_plan`` must scale its default
  bound by the attached DFA's state count (the product graph visits
  ``rows x states`` pairs, not ``rows``), shown both on the bound plan
  and as an actual truncated answer on a labeled cycle;
* a plan is its query's shape: live, pinned and session-patched views
  plan alike, only ``explain()`` costs a plan (from the epoch it pins
  and the query's batch size, nothing on the execution path does), and
  its text is pinned literally;
* zero-length expressions (``a{0}``, ``(a|b){0}``) across engines and
  oracle;
* the shape-keyed plan cache and the epoch-keyed LRU result cache:
  warm answers are bit-identical to cold ones (results *and* per-query
  counters), hit counters land on the separate ``cache_stats``
  accumulator, a plan serves every epoch and batch size of its shape,
  a result hit plans nothing, results never survive their epoch, and patched session views and
  live queries (which must keep reporting misplaced nodes) bypass
  caching;
* ``RPQuery`` AST/DFA memoization.
"""

from __future__ import annotations

import random

import pytest

from repro.core import Moctopus, MoctopusConfig, query_processor
from repro.engine import execute, lower_plan
from repro.graph import DiGraph, random_graph
from repro.paper import PIMHashSystem, placed_at
from repro.pim import CostModel
from repro.rpq import KHopQuery, RPQuery, cost_plan, plan_query
from repro.rpq import planner
from repro.rpq.evaluator import evaluate_rpq

ENGINES = ("python", "vectorized", "matrix", "auto")
LABEL_NAMES = {1: "a", 2: "b", 3: "c"}


def build_system(graph: DiGraph, engine: str = "python") -> Moctopus:
    config = MoctopusConfig(cost_model=CostModel(num_modules=4))
    system = placed_at(high_degree_threshold=12).from_graph(
        graph, config, label_names=LABEL_NAMES
    )
    system.use_engine(engine)
    return system


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
    view = system._live_view()
    result, _ = execute(
        processor.engine, physical, query.sources, view, processor.label_names
    )
    oracle = evaluate_rpq(system.graph, query, label_names=LABEL_NAMES)
    assert [set(d) for d in result.destinations] == [
        set(d) for d in oracle.destinations
    ]
    assert result.destinations[0] == {0, 1, 2, 3, 4}


# ----------------------------------------------------------------------
# A plan is its shape; only explain() costs it
# ----------------------------------------------------------------------
def test_patched_views_and_live_queries_plan_forward():
    system = build_system(skewed_graph())
    processor = system._query_processor
    query = RPQuery("a/c", sources=list(range(40)))

    def costed(view):
        plan = processor.plan(query, view)
        return plan, cost_plan(
            plan, len(query.sources), view.frozen_epoch(), processor.label_names
        )

    live, live_decision = costed(system._live_view())
    assert "no frozen epoch statistics" in live_decision.reason
    assert live_decision.cost == 0.0
    assert live.explain() == live.explain(live_decision)
    with system.begin() as session:
        pinned, pinned_decision = costed(session._view())
        assert pinned_decision.cost > 0.0
        assert len(pinned_decision.hop_estimates) == 2
        assert system.explain(query) == pinned.explain(pinned_decision)
        session.insert_edges([(70, 71)], labels=[3])
        patched, patched_decision = costed(session._view())
        assert patched_decision == live_decision
    for plan in (live, pinned, patched):
        assert (plan.expansions, plan.dfa) == (2, query.dfa())
    assert live == pinned == patched


def test_execution_computes_no_epoch_statistics(monkeypatch):
    system = build_system(skewed_graph())
    query = RPQuery("a/c", sources=list(range(40)))

    def refuse(*args):
        raise AssertionError("the execution path costed a plan")

    monkeypatch.setattr(planner.GraphCostStats, "from_epoch", refuse)
    system.execute(query)
    system.insert_edges([(70, 71)], labels=[3])
    epoch = system._epochs.current()  # freshly published
    with system.begin() as session:
        assert session.epoch_id == epoch.epoch_id
        session.execute(query)
        session.execute(RPQuery("(a/a)*", sources=[0, 1]))
        session.batch_khop([0, 1, 2], 2)
    with system.serve() as scheduler:
        scheduler.submit(0, 2).result(timeout=10)
        scheduler.submit_rpq(0, "a/c").result(timeout=10)
    assert system._epochs.current() is epoch
    assert epoch._label_edge_counts is None
    monkeypatch.undo()
    system.explain(query)
    assert epoch._label_edge_counts is not None


def test_a_plan_serves_every_epoch_and_batch_size_of_its_shape():
    system = build_system(skewed_graph())
    counters = system._query_processor.cache_stats.counters
    with system.begin() as session:
        session.execute(RPQuery("a/c", sources=list(range(40))))
        assert (counters["plan_cache_misses"], counters.get("plan_cache_hits", 0)) == (1, 0)
        session.execute(RPQuery("a/c", sources=[0, 1]))  # a second batch size
        assert (counters["plan_cache_misses"], counters["plan_cache_hits"]) == (1, 1)
    first_epoch = session.epoch_id
    system.insert_edges([(70, 71)], labels=[3])
    with system.begin() as session:  # a second epoch
        assert session.epoch_id != first_epoch
        session.execute(RPQuery("a/c", sources=list(range(40))))
    assert (counters["plan_cache_misses"], counters["plan_cache_hits"]) == (1, 2)
    assert list(system._query_processor._plan_cache) == [("rpq", "a/c")]


def test_a_result_hit_plans_nothing(monkeypatch):
    """The result cache is looked up before planning: a hit neither reads
    the plan cache nor lowers a plan."""
    system = build_system(skewed_graph())
    counters = system._query_processor.cache_stats.counters
    query = RPQuery("a/c", sources=list(range(40)))
    with system.begin() as session:
        first, _ = session.execute(query)
        plan_counts = (
            counters.get("plan_cache_hits", 0), counters["plan_cache_misses"]
        )
        hits = counters.get("result_cache_hits", 0)
        lowered = []
        real_lower = query_processor.lower_plan

        def counting_lower(*args):
            lowered.append(args)
            return real_lower(*args)

        monkeypatch.setattr(query_processor, "lower_plan", counting_lower)
        second, _ = session.execute(query)
    assert second == first
    assert counters["result_cache_hits"] == hits + 1
    assert (
        counters.get("plan_cache_hits", 0), counters["plan_cache_misses"]
    ) == plan_counts
    assert lowered == []


_UNCOSTED = (
    "cost: 0.0\n"
    "decision: uncosted (no frozen epoch statistics: live execution or "
    "session-patched view)\n"
)
_KHOP = "decision: k-hop plans use the bit-mask path\n"
_FIXED = "decision: fixed-length plans expand the DFA hop by hop\n"
_KLEENE = "decision: variable-length plans run to fixpoint\n"

#: ``(query, explain(), phase lines)`` in the order one system explains
#: them; the last three follow one inserted ``a`` edge (a new epoch).
#: Recorded from the implementation that costed every pinned plan.
EXPLAINED = [
    (KHopQuery(1, list(range(40))),
     "cost: 328.5\n" + _KHOP + "frontier estimates per hop: [80.0]\n",
     "0: smxm expand label=any\n1: mwait reduce"),
    (KHopQuery(1, list(range(8))),
     "cost: 65.7\n" + _KHOP + "frontier estimates per hop: [57.7]\n",
     "0: smxm expand label=any\n1: mwait reduce"),
    (KHopQuery(3, list(range(40))),
     "cost: 1482.5\n" + _KHOP + "frontier estimates per hop: [80.0, 80.0, 80.0]\n",
     "0: smxm expand label=any\n1: smxm expand label=any\n"
     "2: smxm expand label=any\n3: mwait reduce"),
    (RPQuery("c", list(range(8))),
     "cost: 8.3\n" + _FIXED + "frontier estimates per hop: [0.3]\n",
     "0: smxm expand label=c\n1: mwait reduce"),
    (RPQuery("a/c", list(range(40))),
     "cost: 281.0\n" + _FIXED + "frontier estimates per hop: [80.0, 3.0]\n",
     "0: smxm expand label=a\n1: smxm expand label=c\n2: mwait reduce"),
    (RPQuery("a/c", [0]),
     "cost: 7.2\n" + _FIXED + "frontier estimates per hop: [6.0, 0.2]\n",
     "0: smxm expand label=a\n1: smxm expand label=c\n2: mwait reduce"),
    (RPQuery("(a|b)/_/c", list(range(25))),
     "cost: 784.4\n" + _FIXED + "frontier estimates per hop: [80.0, 80.0, 3.0]\n",
     "0: smxm expand label=a|b\n1: smxm expand label=any\n"
     "2: smxm expand label=c\n3: mwait reduce"),
    (RPQuery("a{0}", [0, 1]), "cost: 2.0\n" + _FIXED, "0: mwait reduce"),
    (RPQuery("(a/a)*", list(range(30))),
     "cost: 1184.0\n" + _KLEENE, "0: smxm fixpoint label=a\n1: mwait reduce"),
    (RPQuery("a/(b|c)*", list(range(12))),
     "cost: 1166.0\n" + _KLEENE, "0: smxm fixpoint label=a|b|c\n1: mwait reduce"),
    (KHopQuery(1, list(range(40))),
     "cost: 329.0\n" + _KHOP + "frontier estimates per hop: [80.0]\n",
     "0: smxm expand label=any\n1: mwait reduce"),
    (RPQuery("a/c", list(range(40))),
     "cost: 281.5\n" + _FIXED + "frontier estimates per hop: [80.0, 3.0]\n",
     "0: smxm expand label=a\n1: smxm expand label=c\n2: mwait reduce"),
    (RPQuery("(a/a)*", list(range(30))),
     "cost: 1186.0\n" + _KLEENE, "0: smxm fixpoint label=a\n1: mwait reduce"),
]


def test_explain_prints_the_recorded_text_pinned_and_live():
    system = build_system(skewed_graph())
    for index, (query, header, phases) in enumerate(EXPLAINED):
        if index == 10:
            system.insert_edges([(19, 20)], labels=[1])
        assert system.explain(query) == header + phases, index
        live = system._query_processor.plan(query, system._live_view())
        assert live.explain() == _UNCOSTED + phases, index


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
    assert counters["result_cache_hits"] == 8
    # Every warm run is a result hit, which plans nothing: one plan-cache
    # miss per expression and no plan-cache hit.
    assert counters["plan_cache_misses"] == 4
    assert "plan_cache_hits" not in counters


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


def test_result_cache_evicts_least_recently_used(monkeypatch):
    monkeypatch.setattr(query_processor, "RESULT_CACHE_ENTRIES", 2)
    system = build_system(skewed_graph())
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


def test_a_session_whose_staged_ops_write_no_row_keeps_the_caches():
    """A staged delete of a missing edge writes nothing, so the session's
    view is the pinned epoch and its queries hit the result cache."""
    system = build_system(skewed_graph())
    processor = system._query_processor
    query = RPQuery("c", sources=[5, 70])
    with system.begin() as session:
        session.execute(query)
        session.delete_edges([(70, 10**6)])
        assert session._view().frozen_epoch() is session._epoch
        hits = processor.cache_stats.counters.get("result_cache_hits", 0)
        session.execute(query)
        assert processor.cache_stats.counters.get("result_cache_hits", 0) == hits + 1


def test_live_queries_bypass_the_caches_and_keep_reporting():
    """A live query runs on the current epoch but is never cached: a hit
    would skip the expansion whose misplacement reports drive migration."""
    system = build_system(skewed_graph())
    migrator = system._migrator
    queries = (
        KHopQuery(2, sources=list(range(40))),
        RPQuery("a/b", sources=list(range(40))),
    )
    runs = []
    for _ in range(2):
        migrator.clear_pending()
        outcomes = [
            fingerprint(*system.execute(query, auto_migrate=False))
            for query in queries
        ]
        runs.append((outcomes, migrator.pending_reports))
    (first, first_reports), (second, second_reports) = runs
    assert first == second
    assert first_reports > 0 and second_reports == first_reports
    assert dict(system.cache_stats.counters) == {}


def test_live_queries_charge_the_system_on_every_placement():
    """A PIM-hash system has no migrator to report to, but its live
    queries still fold into its own platform on every call: a repeated
    query is charged again, never answered from the caches."""
    system = PIMHashSystem.from_graph(
        skewed_graph(), MoctopusConfig(cost_model=CostModel(num_modules=4))
    )
    sources = list(range(40))
    system.batch_khop(sources, hops=2)
    once = system.pim.load_report()
    assert sum(once) > 0
    system.batch_khop(sources, hops=2)
    assert system.pim.load_report() == [2 * items for items in once]
    assert dict(system.cache_stats.counters) == {}


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
    live = system._query_processor.plan(RPQuery("a/c", sources=[0]), system._live_view())
    assert "no frozen epoch statistics" in live.explain()
    query = RPQuery("a/b", sources=[0, 1])
    with system.begin() as session:
        session.execute(query)
        session.execute(query)
    assert system.cache_stats.counters["result_cache_hits"] == 1

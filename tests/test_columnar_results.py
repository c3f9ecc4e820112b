"""The columnar result type, end to end.

A :class:`~repro.rpq.query.BatchResult` is one frozen CSR pair from the
engine to the socket.  This suite pins what every layer relies on:

* the row invariant — each row sorted and duplicate-free, both arrays
  frozen ``int64`` — on every engine and every plan shape, against the
  scalar oracle by array equality;
* duplicate sources stay independent rows and unknown / unmatched
  sources stay empty slices, in ``_group_into_results`` (red on a
  source-keyed dict);
* result-cache hits share the entry's arrays and cannot be written;
* results cross the worker-pool process boundary frozen;
* a bulk batch allocates array-sized, not set-sized, memory;
* the ``"auto"`` dispatcher's choice is a pure function of the plan,
  the batch size and the graph statistics, and never changes an answer.
"""

from __future__ import annotations

import dataclasses
import pickle
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from model import placement
from repro.core import Moctopus, MoctopusConfig
from repro.engine import ENGINE_NAMES, choose_engine, lower_plan
from repro.engine.base import AUTO_CROSSOVER_ITEMS
from repro.engine.matrix_engine import PullBitsetKernel
from repro.engine.vectorized import BitsetKernel, _group_into_results
from repro.graph import DiGraph, power_law_graph, random_graph
from repro.parallel.pool import WorkerPool
from repro.pim import PIMSystem, scaled_cost_model
from repro.rpq import KHopQuery, RPQuery, evaluate_khop, evaluate_rpq, plan_query
from repro.rpq.query import BatchResult
from repro.serve.epoch import EpochView
from test_cost_planner import LABEL_NAMES, build_system, skewed_graph

#: A node id no test graph contains.
UNKNOWN = 10_000


def labeled_graph(seed: int = 7) -> DiGraph:
    rng = random.Random(seed)
    graph = DiGraph(num_nodes=60)
    for src, dst in random_graph(60, 420, seed=seed).edges():
        graph.add_edge(src, dst, label=rng.choice([1, 1, 2, 3]))
    return graph


def assert_frozen_sorted_unique(result: BatchResult) -> None:
    for array in (result.indptr, result.indices):
        assert array.dtype == np.int64
        assert not array.flags.writeable
    assert len(result.indptr) == len(result.sources) + 1
    assert result.indptr[0] == 0 and result.indptr[-1] == len(result.indices)
    assert np.all(np.diff(result.indptr) >= 0)
    for start, stop in zip(result.indptr[:-1], result.indptr[1:]):
        assert np.all(np.diff(result.indices[start:stop]) > 0), "row not sorted-unique"


# ----------------------------------------------------------------------
# The invariant, engines x plan shapes
# ----------------------------------------------------------------------
#: Duplicate sources, an unknown source, and enough rows for two words
#: once repeated.
SOURCES = [3, 7, 3, UNKNOWN, 0, 59, 7, 21]

SHAPES = [
    ("khop1", KHopQuery(1, SOURCES)),
    ("khop2", KHopQuery(2, SOURCES)),
    ("khop3", KHopQuery(3, SOURCES * 10)),
    # degree ** hops is past float range: the size estimate must not raise.
    ("khop400", KHopQuery(400, SOURCES)),
    ("fixed", RPQuery("a/b", SOURCES)),
    ("zero-length", RPQuery("a{0}", SOURCES)),
    ("kleene", RPQuery("a/b*", SOURCES)),
]


def oracle_of(graph: DiGraph, query) -> BatchResult:
    if isinstance(query, KHopQuery):
        return evaluate_khop(graph, query)
    return evaluate_rpq(graph, query, label_names=LABEL_NAMES)


@pytest.mark.parametrize("engine", ENGINE_NAMES)
@pytest.mark.parametrize("shape", SHAPES, ids=[name for name, _ in SHAPES])
@pytest.mark.parametrize("pinned", [False, True], ids=["live", "pinned"])
def test_result_invariant(engine, shape, pinned):
    _, query = shape
    graph = labeled_graph()
    system = build_system(graph, engine=engine)
    if pinned:
        with system.begin() as session:
            result, stats = session.execute(query)
    else:
        result, stats = system.execute(query, auto_migrate=False)
    assert_frozen_sorted_unique(result)
    oracle = oracle_of(graph, query)
    assert BatchResult.from_sets(list(query.sources), oracle.destinations) == result
    assert stats.counters["results"] == result.total_matches == int(result.indptr[-1])
    # Duplicate sources are independent, equal rows; the unknown one is empty.
    assert result.destinations[0] == result.destinations[2]
    assert len(result.destinations[3]) == 0


@pytest.mark.parametrize("engine", ENGINE_NAMES)
@pytest.mark.parametrize(
    "expression, final_edges", [("a/c", 3), ("a/d", 0)], ids=["seeded", "zero-seeds"]
)
def test_result_invariant_on_reverse_plans(engine, expression, final_edges):
    """A bulk pinned batch ending on a rare label (``c``: three edges,
    ``d``: none) — the shape reverse expansion from the accepting side
    would favour — runs forward from its sources and matches the oracle."""
    graph = skewed_graph()
    final = expression.rsplit("/", 1)[-1]
    assert sum(
        LABEL_NAMES.get(label) == final for _, _, label in graph.labeled_edges()
    ) == final_edges
    system = build_system(graph, engine=engine)
    query = RPQuery(expression, SOURCES + list(range(30)))
    with system.begin() as session:
        plan = system._query_processor.plan(query, view=session._view())
        # No seeds, no reversed automaton: the plan runs the query's own DFA.
        assert [field.name for field in dataclasses.fields(plan)] == [
            "expansions", "dfa", "fixpoint_bound"
        ]
        assert plan.dfa is query.dfa()
        result, stats = session.execute(query)
    assert_frozen_sorted_unique(result)
    oracle = evaluate_rpq(graph, query, label_names=LABEL_NAMES)
    assert BatchResult.from_sets(list(query.sources), oracle.destinations) == result
    assert stats.counters["results"] == result.total_matches
    assert result.destinations[0] == result.destinations[2]
    assert len(result.destinations[3]) == 0


def test_auto_matches_scalar_on_a_bulk_batch():
    """Past the crossover ``"auto"`` runs an array engine: same answer, same stats."""
    graph = random_graph(300, 2400, seed=5)
    sources = [random.Random(1).randrange(300) for _ in range(128)]
    outcomes = {}
    for engine in ("python", "auto"):
        system = build_system(graph, engine=engine)
        result, stats = system.batch_khop(sources, 3)
        outcomes[engine] = (result, stats.breakdown(), dict(stats.counters))
        outcomes[engine] += (placement(system._partitioner.partition_map),)
    plan = lower_plan(plan_query(KHopQuery(3, sources)), 300)
    assert choose_engine(plan, len(sources), 2400 / 300) != "python"
    assert outcomes["auto"] == outcomes["python"]


# ----------------------------------------------------------------------
# The bit-mask reduce against per-row Python sets
# ----------------------------------------------------------------------
BITSET_KERNELS = {"vectorized": BitsetKernel, "matrix": PullBitsetKernel}


@settings(max_examples=60, deadline=None)
@given(
    kernel=st.sampled_from(sorted(BITSET_KERNELS)),
    num_rows=st.sampled_from([1, 63, 64, 65, 512]),
    data=st.data(),
)
def test_bitset_reduce_matches_per_row_sets(kernel, num_rows, data):
    """Rows land in their own ascending slices for every word count, with
    empty rows anywhere and blocks split over owners in any order."""
    system = build_system(labeled_graph(), engine=kernel)
    sources = [3] * num_rows  # the reduce reads only their count
    live = system._live_view()
    plan = system._query_processor.plan(KHopQuery(1, sources), live)
    instance = BITSET_KERNELS[kernel](plan, sources, live)
    # Per frontier node: the rows it answers (any subset, maybe none).
    nodes = data.draw(st.lists(st.integers(0, 300), unique=True, max_size=40))
    row = st.integers(0, num_rows - 1)
    rows_of = {node: data.draw(st.sets(row, max_size=6)) for node in nodes}
    owner_of = {node: data.draw(st.integers(-1, 2)) for node in nodes}
    frontier = {}
    for owner in sorted(set(owner_of.values()), reverse=True):
        members = sorted(node for node in nodes if owner_of[node] == owner)
        masks = np.zeros((len(members), instance._num_words), dtype=np.uint64)
        for position, node in enumerate(members):
            for bit in rows_of[node]:
                masks[position, bit // 64] |= np.uint64(1) << np.uint64(bit % 64)
        frontier[owner] = (np.asarray(members, dtype=np.int64), masks)
    instance.reduce(frontier)
    indptr, indices = instance.answer()
    expected = [
        sorted(node for node in nodes if bit in rows_of[node]) for bit in range(num_rows)
    ]
    assert indptr.dtype == indices.dtype == np.int64
    assert len(indptr) == num_rows + 1 and indptr[0] == 0
    assert [
        indices[start:stop].tolist() for start, stop in zip(indptr[:-1], indptr[1:])
    ] == expected


@pytest.mark.parametrize("engine", ["vectorized", "matrix"])
@pytest.mark.parametrize("batch", [1, 63, 64, 65, 512])
def test_khop_batches_around_the_word_boundary(engine, batch):
    """Duplicated and unknown sources through the whole engine, at the
    batch sizes where the mask gains a word."""
    graph = labeled_graph()
    rng = random.Random(batch)
    sources = [rng.choice([rng.randrange(60), 3, UNKNOWN]) for _ in range(batch)]
    system = build_system(graph, engine=engine)
    for hops in (1, 2):
        result, _ = system.batch_khop(sources, hops, auto_migrate=False)
        assert_frozen_sorted_unique(result)
        oracle = evaluate_khop(graph, KHopQuery(hops, sources))
        assert BatchResult.from_sets(sources, oracle.destinations) == result
    # A frontier that drains before the reduce: all rows empty.
    lonely = DiGraph(num_nodes=4)
    lonely.add_edge(0, 1)
    result, _ = build_system(lonely, engine=engine).batch_khop([0, 1, 2] * 30, 2)
    assert result.total_matches == 0 and len(result.indptr) == 91


# ----------------------------------------------------------------------
# Duplicate / unknown / empty rows in the two grouping helpers
# ----------------------------------------------------------------------
def test_group_into_results_keeps_rows_independent():
    rows = np.array([2, 0, 2, 2, 0, 3], dtype=np.int64)
    nodes = np.array([9, 5, 4, 9, 5, 1], dtype=np.int64)
    indptr, indices = _group_into_results(rows, nodes, num_rows=5)
    assert indptr.tolist() == [0, 1, 1, 3, 4, 4]
    assert indices.tolist() == [5, 4, 9, 1]


def test_group_into_results_of_nothing_is_all_empty_rows():
    empty = np.empty(0, dtype=np.int64)
    indptr, indices = _group_into_results(empty, empty, num_rows=3)
    assert indptr.tolist() == [0, 0, 0, 0]
    assert len(indices) == 0


# ----------------------------------------------------------------------
# The view that replaced List[Set[int]]
# ----------------------------------------------------------------------
def test_destination_rows_behave_like_the_sets_they_replace():
    result = BatchResult.from_sets([1, 1, 2], [{9, 3}, [4, 4], set()])
    assert_frozen_sorted_unique(result)
    assert result.destinations == [{3, 9}, {4}, set()]
    assert [{3, 9}, {4}, set()] == result.destinations
    assert result.destinations != [{3}, {4}, set()]
    row = result.destinations_of(0)
    assert row == {3, 9} and {3, 9} == row and row != {3}
    assert list(row) == [3, 9] and all(type(node) is int for node in row)
    assert 9 in row and 4 not in row and "9" not in row
    assert 9.0 in row and 9.5 not in row and float("nan") not in row
    assert {3} <= row and row <= {3, 9, 11} and row & {9, 10} == {9}
    assert len(result.destinations[-1]) == 0 and not result.destinations[-1]
    assert result.destinations[0:2] == [{3, 9}, {4}]
    assert result.destinations[::-1] == [set(), {4}, {3, 9}]
    assert result.destinations[3:] == []
    with pytest.raises(IndexError):
        result.destinations[3]
    with pytest.raises(ValueError):
        result.indices[0] = 1


def test_building_a_result_leaves_the_callers_arrays_writeable():
    indptr = np.array([0, 2], dtype=np.int64)
    indices = np.array([4, 8], dtype=np.int64)
    result = BatchResult([1], indptr, indices)
    assert np.shares_memory(result.indices, indices)  # still zero-copy
    assert not result.indices.flags.writeable
    assert indptr.flags.writeable and indices.flags.writeable


def test_results_unpickle_frozen():
    result = BatchResult.from_sets([5, 6], [{2, 1}, {3}])
    clone = pickle.loads(pickle.dumps(result))
    assert clone == result
    assert_frozen_sorted_unique(clone)


# ----------------------------------------------------------------------
# Copy-free result cache
# ----------------------------------------------------------------------
def test_cache_hits_share_the_entrys_frozen_arrays():
    system = build_system(labeled_graph(), engine="auto")
    processor = system._query_processor
    view = EpochView(system._epochs.current(), PIMSystem(system.config.cost_model))
    query = KHopQuery(2, [0, 1, 2])
    first, first_stats = processor.execute_on_view(query, view)
    (entry, entry_stats), = processor._result_cache.values()
    hit, hit_stats = processor.execute_on_view(query, view)
    assert system.cache_stats.counters["result_cache_hits"] == 1
    for result in (first, hit):
        assert np.shares_memory(result.indices, entry.indices)
        assert np.shares_memory(result.indptr, entry.indptr)
    with pytest.raises(ValueError):
        hit.indices[0] = 1
    # The mutable parts are each caller's own.
    hit_stats.add_counter("stamped", 1)
    hit.sources.append(99)
    again, again_stats = processor.execute_on_view(query, view)
    assert again == first and "stamped" not in again_stats.counters
    assert "stamped" not in entry_stats.counters and first_stats is not entry_stats


# ----------------------------------------------------------------------
# Worker pool round trip
# ----------------------------------------------------------------------
def test_pool_results_arrive_frozen():
    graph = labeled_graph()
    system = build_system(graph, engine="vectorized")
    query = KHopQuery(2, SOURCES)
    with WorkerPool(system, workers=1) as pool:
        result, _, _ = pool.execute(query)
    assert_frozen_sorted_unique(result)
    assert result == evaluate_khop(graph, query)
    assert system._epochs.pins() == 0


# ----------------------------------------------------------------------
# Memory: arrays, not sets
# ----------------------------------------------------------------------
def test_bulk_khop_allocates_under_16_bytes_per_match():
    """A 512-source 3-hop on the benchmark's smoke graph (set results:
    ~115 B/match; an answer assembled from per-word chunks: ~19): the
    reduce may hold one 8-byte copy of the answer plus small transients."""
    graph = power_law_graph(1200, edges_per_node=4, skew=0.6, reciprocity=0.3, seed=13)
    system = Moctopus.from_graph(graph, MoctopusConfig(cost_model=scaled_cost_model()))
    rng = random.Random(1)
    sources = [rng.randrange(1200) for _ in range(512)]
    system.batch_khop(sources, 3, auto_migrate=False)  # builds the CSR snapshots
    tracemalloc.start()
    try:
        result, _ = system.batch_khop(sources, 3, auto_migrate=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.total_matches > 100_000
    assert peak / result.total_matches < 16


# ----------------------------------------------------------------------
# The dispatcher
# ----------------------------------------------------------------------
def _khop_plan(hops: int):
    return lower_plan(plan_query(KHopQuery(hops, [0])), 1000)


def _rpq_plan(expression: str):
    return lower_plan(plan_query(RPQuery(expression, [0])), 1000)


def test_choose_engine_is_a_pure_function_of_plan_size_and_degree():
    shapes = {
        "khop1": lambda: _khop_plan(1),
        "khop3": lambda: _khop_plan(3),
        "fixed": lambda: _rpq_plan("a/b/a"),
        "kleene": lambda: _rpq_plan("(b/c)+"),
    }
    table = {
        (name, batch, degree): choose_engine(build(), batch, degree)
        for name, build in shapes.items()
        for batch in (1, 16, 512)
        for degree in (5.6, 100.0)
    }
    # Equal inputs (a freshly lowered, equal plan) give the equal answer.
    for (name, batch, degree), choice in table.items():
        assert choose_engine(shapes[name](), batch, degree) == choice
    # Small requests and every fixpoint stay scalar; bulk ones go to arrays.
    assert table["khop1", 512, 5.6] == "python"       # 512 * 5.6 < crossover
    assert table["khop3", 1, 5.6] == "python"
    assert table["khop3", 512, 5.6] == "vectorized"
    assert table["khop3", 512, 100.0] == "vectorized"
    assert table["fixed", 16, 5.6] == "python"
    assert table["fixed", 512, 5.6] == "vectorized"
    assert table["fixed", 512, 100.0] == "vectorized"
    assert {table["kleene", b, d] for b in (1, 16, 512) for d in (5.6, 100.0)} == {"python"}


def test_choose_engine_crossover_is_at_the_documented_constant():
    plan = _khop_plan(2)
    degree = 8.0
    at = AUTO_CROSSOVER_ITEMS // 64            # batch * 8**2 == crossover
    assert choose_engine(plan, at - 1, degree) == "python"
    assert choose_engine(plan, at, degree) == "vectorized"
    # Past float range the estimate is "bulk", not an OverflowError.
    assert choose_engine(_khop_plan(400), 1, 10.0) == "vectorized"


def test_auto_engine_reads_only_request_and_graph_size(monkeypatch):
    """Live and pinned executions of one request on one graph choose alike."""
    import repro.engine.base as base

    seen = []
    real = base.choose_engine

    def spy(plan, batch_size, avg_out_degree):
        seen.append((batch_size, round(avg_out_degree, 6)))
        return real(plan, batch_size, avg_out_degree)

    monkeypatch.setattr(base, "choose_engine", spy)
    graph = labeled_graph()
    system = build_system(graph, engine="auto")
    system.batch_khop(SOURCES, 2, auto_migrate=False)
    with system.begin() as session:
        session.batch_khop(SOURCES, 2)
    expected = (len(SOURCES), round(graph.num_edges / graph.num_nodes, 6))
    assert seen == [expected, expected]
    # The live view and a pinned view expose the same two totals.
    live = system._live_view()
    with system.begin() as session:
        view = session._view()
        assert view.total_rows() == live.total_rows()
        assert view.total_edges() == live.total_edges() == graph.num_edges

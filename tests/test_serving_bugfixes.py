"""Regression tests of the serving-layer bugfix sweep.

Each test here was red on the code it now guards:

* result-cache hits used to run their O(result-size) deep copy *inside*
  ``_cache_lock``, serializing every concurrent reader behind the
  slowest copy (and blocking writers);
* a failed coalesced batch used to fan the *same* exception instance to
  every waiter, so concurrent ``raise`` statements raced on the shared
  ``__traceback__``;
* a non-integer hop count (``2.0``) was admitted and coalesced with
  integer 2-hop callers (``("khop", 2.0) == ("khop", 2)``), failing
  their whole batch;
* a non-integer source (``1.5``) answered ``[]`` on the scalar kernel
  and node 1's row on the array kernels, raised ``IndexError`` in a
  session, and was admitted by the scheduler, failing the integer
  callers coalesced with it;
* plus the ``submit()``/``close()`` race and the
  abandoned-``outcome(timeout=...)`` contract.
"""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest

from repro.core import Moctopus, MoctopusConfig
from repro.engine import ENGINE_NAMES
from repro.graph import random_graph
from repro.pim import CostModel, ExecutionStats
from repro.rpq import KHopQuery, RPQuery, evaluate_khop, evaluate_rpq
from repro.rpq.regex import RegexSyntaxError
from repro.pim.system import PIMSystem
from repro.serve import BatchScheduler
from repro.serve.epoch import EpochView
from repro.serve.scheduler import ServingFuture

LABEL_NAMES = {1: "a", 2: "b", 3: "c"}


def build_system(**config_kwargs) -> Moctopus:
    graph = random_graph(26, 90, seed=11)
    config = MoctopusConfig(
        cost_model=CostModel(num_modules=4),
        high_degree_threshold=8,
        **config_kwargs,
    )
    return Moctopus.from_graph(graph, config, label_names=LABEL_NAMES)


# ----------------------------------------------------------------------
# Bugfix 1: cache hits must not serialize behind the cache lock
# ----------------------------------------------------------------------
def test_concurrent_cache_hits_do_not_serialize(monkeypatch):
    """Two threads hitting the same cache entry must copy concurrently.

    The copies rendezvous on a barrier *inside* the stats copy: if either
    thread still held ``_cache_lock`` while copying (the old bug), the
    other could never reach the barrier and the wait would break.
    """
    system = build_system()
    qp = system._query_processor
    epoch = EpochView(
        system._epochs.current(), PIMSystem(system.config.cost_model)
    )
    query = KHopQuery(hops=2, sources=(0, 1))
    expected = qp.execute_on_view(query, epoch)  # prime the cache
    barrier = threading.Barrier(2)
    gate_open = threading.Event()

    real_copy = ExecutionStats.copy

    def instrumented_copy(stats):
        if gate_open.is_set():
            barrier.wait(timeout=5)  # both copiers must be in here at once
        return real_copy(stats)

    monkeypatch.setattr(ExecutionStats, "copy", instrumented_copy)
    results = {}
    errors = []

    def hit(name):
        try:
            results[name] = qp.execute_on_view(query, epoch)
        except BaseException as error:  # noqa: BLE001 - recorded for assert
            errors.append(error)

    gate_open.set()
    threads = [
        threading.Thread(target=hit, args=(name,)) for name in ("a", "b")
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not errors, f"concurrent cache hits failed: {errors!r}"
    for result, stats in results.values():
        assert result.destinations == expected[0].destinations
    hits = qp.cache_stats.counters.get("result_cache_hits", 0)
    assert hits >= 2


def test_cache_hit_still_refreshes_lru_order():
    """Moving the copy out of the lock must not drop the LRU touch."""
    system = build_system(result_cache_size=4)
    qp = system._query_processor
    epoch = EpochView(
        system._epochs.current(), PIMSystem(system.config.cost_model)
    )
    old = KHopQuery(hops=1, sources=(0,))
    newer = KHopQuery(hops=2, sources=(0,))
    qp.execute_on_view(old, epoch)
    qp.execute_on_view(newer, epoch)
    order_before = list(qp._result_cache)
    assert len(order_before) == 2
    qp.execute_on_view(old, epoch)  # cache hit must refresh recency
    order_after = list(qp._result_cache)
    assert order_after == [order_before[1], order_before[0]]


# ----------------------------------------------------------------------
# Bugfix 2: failed batches fan out per-waiter exception copies
# ----------------------------------------------------------------------
def test_failed_group_raises_distinct_instances_per_waiter():
    original = RuntimeError("batch exploded")
    future = ServingFuture(0, hops=2)
    future._fail(original)
    raised = []
    raised_lock = threading.Lock()

    def wait():
        try:
            future.outcome(timeout=5)
        except RuntimeError as error:
            with raised_lock:
                raised.append(error)

    threads = [threading.Thread(target=wait) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert len(raised) == 6
    assert all(str(error) == "batch exploded" for error in raised)
    # Each waiter got its own replica, chained to the shared original —
    # whose traceback no concurrent re-raise ever mutated.
    assert len({id(error) for error in raised}) == 6
    assert all(error is not original for error in raised)
    assert all(error.__cause__ is original for error in raised)
    assert original.__traceback__ is None


def test_scheduler_failure_fans_out_distinct_instances():
    system = build_system()
    boom = ValueError("engine fault injected")

    def exploding_execute(query, view, engine=None):
        raise boom

    system._query_processor.execute_on_view = exploding_execute
    with BatchScheduler(system, autostart=False) as scheduler:
        futures = [scheduler.submit(source, 2) for source in range(3)]
        scheduler._worker.start()
        raised = []
        for future in futures:
            with pytest.raises(ValueError) as excinfo:
                future.outcome(timeout=10)
            raised.append(excinfo.value)
    assert len({id(error) for error in raised}) == 3
    assert all(error.__cause__ is boom for error in raised)
    assert all(str(error) == str(boom) for error in raised)


def test_uncopyable_error_falls_back_to_shared_instance():
    class Stubborn(Exception):
        def __init__(self, a, b):  # copy.copy? works via __reduce__...
            super().__init__(a, b)
            self.a = a
            self.b = b

        def __copy__(self):
            raise TypeError("I refuse to be copied")

    original = Stubborn(1, 2)
    future = ServingFuture(0, hops=1)
    future._fail(original)
    with pytest.raises(Stubborn) as excinfo:
        future.result(timeout=5)
    assert excinfo.value is original  # fallback: never mask the failure


# ----------------------------------------------------------------------
# submit()/close() race and abandoned-timeout contract
# ----------------------------------------------------------------------
def test_submit_close_race_fails_future_instead_of_hanging():
    # close() lands *during* submit(), after the closed-flag check but
    # before the enqueue: the stranded future must fail, not hang.
    system = build_system()
    scheduler = BatchScheduler(system, autostart=False)
    real_put = scheduler._queue.put

    def closing_put(item, *args, **kwargs):
        scheduler._queue.put = real_put  # close() itself may enqueue
        scheduler.close()
        return real_put(item, *args, **kwargs)

    scheduler._queue.put = closing_put
    future = scheduler.submit(0, 2)
    with pytest.raises(RuntimeError):
        future.result(timeout=5)


def test_close_then_submit_refuses_cleanly():
    system = build_system()
    scheduler = BatchScheduler(system, autostart=False)
    future = scheduler.submit(0, 2)  # admitted before close
    scheduler.close()
    with pytest.raises(RuntimeError):
        future.result(timeout=5)  # stranded future was failed, not lost
    with pytest.raises(RuntimeError):
        scheduler.submit(1, 2)


def test_outcome_timeout_abandons_then_late_resolve_is_clean():
    future = ServingFuture(3, hops=2)
    with pytest.raises(TimeoutError):
        future.outcome(timeout=0.01)
    # The batch lands *after* the waiter gave up: nothing crashes, the
    # outcome is recorded, and any later waiter still gets it.
    from repro.pim.stats import ExecutionStats

    future._resolve({7, 8}, ExecutionStats())
    assert future.done()
    destinations, stats = future.outcome(timeout=1)
    assert destinations == {7, 8}
    assert future.result(timeout=1) == {7, 8}


def test_add_done_callback_immediate_and_deferred():
    from repro.pim.stats import ExecutionStats

    deferred_calls = []
    future = ServingFuture(0, hops=1)
    future.add_done_callback(deferred_calls.append)
    assert deferred_calls == []  # not settled yet
    future._resolve({1}, ExecutionStats())
    assert deferred_calls == [future]
    immediate_calls = []
    future.add_done_callback(immediate_calls.append)  # already settled
    assert immediate_calls == [future]
    failed = ServingFuture(0, hops=1)
    failed._fail(RuntimeError("x"))
    failed_calls = []
    failed.add_done_callback(failed_calls.append)
    assert failed_calls == [failed]


# ----------------------------------------------------------------------
# submit_rpq: expression groups through the scheduler
# ----------------------------------------------------------------------
def test_submit_rpq_matches_oracle_and_coalesces():
    system = build_system()
    oracle_graph = system.graph
    with BatchScheduler(system, autostart=False) as scheduler:
        khop_futures = [scheduler.submit(source, 2) for source in (0, 1)]
        rpq_futures = [
            scheduler.submit_rpq(source, ".+") for source in (2, 3)
        ]
        scheduler._worker.start()
        for source, future in zip((2, 3), rpq_futures):
            destinations, stats = future.outcome(timeout=10)
            oracle = evaluate_rpq(
                oracle_graph, RPQuery(".+", [source]), label_names=LABEL_NAMES
            )
            assert destinations == set(oracle.destinations_of(0))
            assert stats.counters["coalesced_queries"] == 2
        for future in khop_futures:
            future.outcome(timeout=10)
        # One window, two groups: ("khop", 2) and ("rpq", ".+").
        assert scheduler.batches_executed == 2
        assert scheduler.queries_served == 4


def test_submit_rpq_rejects_bad_expression_eagerly():
    system = build_system()
    with BatchScheduler(system, autostart=False) as scheduler:
        with pytest.raises(RegexSyntaxError):
            scheduler.submit_rpq(0, "(((")
        assert scheduler.pending == 0  # nothing was admitted


def test_mixed_wildcard_rpq_group_matches_khop_semantics():
    # ".{2}" through the rpq path must equal hops=2 exact-length
    # semantics from the khop path on the same epoch.
    system = build_system()
    with system.serve() as scheduler:
        khop = scheduler.submit(0, 2).result(timeout=10)
        rpq = scheduler.submit_rpq(0, ".{2}").result(timeout=10)
    assert rpq == khop


# ----------------------------------------------------------------------
# A hop count is an integer >= 1, checked before anything is queued
# ----------------------------------------------------------------------
NON_INTEGER_HOPS = [2.0, math.nan, 0.5, True]


@pytest.mark.parametrize("hops", NON_INTEGER_HOPS, ids=repr)
def test_khop_query_rejects_non_integer_hops(hops):
    with pytest.raises(ValueError, match="hops"):
        KHopQuery(hops=hops, sources=[0])


@pytest.mark.parametrize("hops", NON_INTEGER_HOPS, ids=repr)
def test_submit_rejects_non_integer_hops_before_queueing(hops):
    system = build_system()
    with BatchScheduler(system, autostart=False) as scheduler:
        with pytest.raises(ValueError, match="hops"):
            scheduler.submit(1, hops)
        assert scheduler.pending == 0


def test_float_hops_cannot_fail_integer_callers_in_its_window():
    # 2.0 == 2, so an admitted float would share the integer callers'
    # group and, arriving first, set the hop count their batch runs with.
    system = build_system()
    with BatchScheduler(system, autostart=False) as scheduler:
        with pytest.raises(ValueError):
            scheduler.submit(1, 2.0)
        futures = {source: scheduler.submit(source, 2) for source in (2, 3)}
        scheduler._worker.start()
        for source, future in futures.items():
            oracle = evaluate_khop(system.graph, KHopQuery(hops=2, sources=[source]))
            assert future.result(timeout=10) == set(oracle.destinations_of(0))


# ----------------------------------------------------------------------
# A query source is an integer node id, checked before anything runs
# ----------------------------------------------------------------------
NON_INTEGER_SOURCES = [1.5, 1.0, math.nan, True, "1", 2**63]


@pytest.mark.parametrize("engine", ENGINE_NAMES)
@pytest.mark.parametrize("source", NON_INTEGER_SOURCES, ids=repr)
def test_non_integer_sources_raise_on_every_engine(engine, source):
    system = build_system(engine=engine)
    with pytest.raises(ValueError, match="source"):
        system.batch_khop([source], 1)
    with pytest.raises(ValueError, match="source"):
        system.execute(RPQuery("a", [0, source]))
    with system.begin() as session:
        with pytest.raises(ValueError, match="source"):
            session.batch_khop([source], 1)
        with pytest.raises(ValueError, match="source"):
            session.execute(RPQuery("a", [source]))
    assert system._epochs.pins() == 0


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_numpy_negative_and_unknown_sources_stay_legal(engine):
    system = build_system(engine=engine)
    expected, _ = system.batch_khop([1], 1)
    for sources in ([np.int64(1)], [np.int32(1)]):
        result, _ = system.batch_khop(sources, 1)
        assert result.destinations == expected.destinations
    result, _ = system.batch_khop([-1, 10_000, -(2**63), 2**63 - 1], 1)
    assert result.total_matches == 0 and len(result.destinations) == 4


@pytest.mark.parametrize("source", NON_INTEGER_SOURCES, ids=repr)
def test_submit_rejects_non_integer_sources_before_queueing(source):
    system = build_system()
    with BatchScheduler(system, autostart=False) as scheduler:
        with pytest.raises(ValueError, match="source"):
            scheduler.submit(source, 1)
        with pytest.raises(ValueError, match="source"):
            scheduler.submit_rpq(source, "a")
        assert scheduler.pending == 0


def test_float_source_cannot_fail_integer_callers_in_its_window():
    # The scalar kernel (and so "auto" on small batches) indexed the
    # owner table with the float and failed the whole coalesced batch.
    system = build_system(engine="python")
    with BatchScheduler(system, autostart=False) as scheduler:
        with pytest.raises(ValueError):
            scheduler.submit(1.5, 1)
        assert scheduler.pending == 0
        futures = {source: scheduler.submit(source, 1) for source in (0, 2, 3, 4)}
        scheduler._worker.start()
        for source, future in futures.items():
            oracle = evaluate_khop(system.graph, KHopQuery(hops=1, sources=[source]))
            assert future.result(timeout=10) == set(oracle.destinations_of(0))
        assert scheduler.batches_executed == 1

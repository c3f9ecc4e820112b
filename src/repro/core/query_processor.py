"""The Query Processor: a thin coordinator over the execution engines.

The processor's job is planning and delegation, not data movement:

1. a query is planned into a matrix-based logical plan — structurally by
   :mod:`repro.rpq.planner` (``k`` expand steps plus a reduce for the
   paper's k-hop workload, a DFA-guided fixpoint for general RPQs), and,
   for epoch-pinned executions, costed by
   :mod:`repro.rpq.cost_planner`, which may flip a fixed-length plan to
   *reverse* expansion from the rarer accepting side;
2. the logical plan is lowered again into a
   :class:`~repro.engine.physical.PhysicalPlan` of bulk-synchronous
   dispatch / expand / route / reduce operators;
3. the physical plan is handed, with the view to run it against, to
   the :class:`~repro.engine.base.ExecutionEngine` selected by
   ``MoctopusConfig.engine`` — the scalar ``"python"`` backend, one of
   the numpy backends, or the ``"auto"`` dispatcher choosing among them
   per call — which executes it on the simulated platform and returns
   the answer matrix plus the execution statistics.

:meth:`QueryProcessor.execute_on_view` is the one entry point: live
queries pass :attr:`QueryProcessor.live` (the
:class:`~repro.engine.base.LiveView` over the storages), sessions and
the scheduler pass a pinned :class:`~repro.serve.epoch.EpochView`.
Engines keep no state between calls, so the processor hands out one
shared instance per backend (:meth:`QueryProcessor.engine_named`).

All backends implement the same operator semantics (see
:mod:`repro.engine`): the smxm phases where partitioning quality turns
into time, the mwait reduction, and the misplacement reports handed to
the node migrator off the query's critical path.

Epoch-pinned executions additionally go through two caches that are
correct by construction because their keys embed the epoch id — a new
epoch can never observe a stale entry:

* a **plan cache** mapping ``(epoch id, query shape, batch size)`` to
  the lowered :class:`PhysicalPlan` (plans are immutable, so cached
  plans are shared, not copied);
* a **result cache** mapping ``(epoch id, query shape, exact sources,
  engine)`` to ``(result, stats)``.  A :class:`BatchResult` is two
  frozen arrays, so the entry, the first caller and every hit share
  them without copying; only the small, mutable
  :class:`ExecutionStats` is copied per insert and per hit, because
  callers stamp counters into the stats they receive.  Cached answers —
  results *and* simulated counters — are therefore bit-identical to an
  uncached execution.

Hit/miss counters accumulate on :attr:`QueryProcessor.cache_stats`
(a separate :class:`ExecutionStats`), never on per-query stats, so the
per-query observables stay identical between cold and warm runs.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.core.config import MoctopusConfig
from repro.engine.base import ExecutionEngine, LiveView, create_engine
from repro.engine.physical import PhysicalPlan, lower_plan
from repro.pim.stats import ExecutionStats
from repro.rpq.cost_planner import CostBasedPlanner, epoch_of_view
from repro.rpq.planner import LogicalPlan
from repro.rpq.query import BatchResult, KHopQuery, RPQuery

__all__ = ["QueryProcessor"]


def _shared_outcome(
    outcome: Tuple[BatchResult, ExecutionStats]
) -> Tuple[BatchResult, ExecutionStats]:
    """A second owner's handle on ``outcome`` (cache entry or cache hit).

    The answer's frozen arrays are shared as they are — no per-match
    work.  The two small mutable parts are copied: the ``sources`` list,
    and the stats, because callers stamp counters into the stats they
    receive.
    """
    result, stats = outcome
    return (
        BatchResult(list(result.sources), result.indptr, result.indices),
        copy.deepcopy(stats),
    )


class QueryProcessor:
    """Plans batch path queries and delegates them to an execution engine."""

    def __init__(
        self,
        config: MoctopusConfig,
        live: LiveView,
        label_names: Optional[Dict[int, str]] = None,
    ) -> None:
        self._config = config
        #: The view live (unpinned) queries execute against.
        self.live = live
        #: Integer edge label -> query label string.
        self.label_names: Dict[int, str] = label_names or {}
        self._engines: Dict[str, ExecutionEngine] = {}
        self.engine: ExecutionEngine = self.engine_named(config.engine)
        self.planner = CostBasedPlanner(label_names=self.label_names)
        #: Cache hit/miss counters.  Deliberately *not* merged into any
        #: per-query :class:`ExecutionStats` — per-query observables must
        #: stay bit-identical between cold and warm executions.
        self.cache_stats = ExecutionStats()
        self._cache_lock = threading.Lock()
        self._plan_cache: "OrderedDict[Tuple, PhysicalPlan]" = OrderedDict()
        self._result_cache: "OrderedDict[Tuple, Tuple[BatchResult, ExecutionStats]]" = (
            OrderedDict()
        )

    @property
    def engine_name(self) -> str:
        """Name of the active execution backend."""
        return self.engine.name

    def use_engine(self, name: str) -> None:
        """Swap the execution backend (used by benchmarks and tests)."""
        self.engine = self.engine_named(name)

    def engine_named(self, name: str) -> ExecutionEngine:
        """The shared instance of backend ``name``.

        Engines hold nothing but the label table, so live callers,
        sessions and the scheduler all run on the same one.
        """
        engine = self._engines.get(name)
        if engine is None:
            engine = self._engines[name] = create_engine(name, self.label_names)
        return engine

    # ------------------------------------------------------------------
    # The entry point
    # ------------------------------------------------------------------
    def execute_on_view(
        self, query, view, engine: Optional[ExecutionEngine] = None
    ) -> Tuple[BatchResult, ExecutionStats]:
        """Plan ``query`` and execute it against ``view``.

        ``view`` is :attr:`live` for a live query, or a pinned
        :class:`~repro.serve.epoch.EpochView` (frozen owners and
        snapshots, private accounting platform).  Only an unpatched
        pinned view has frozen statistics, so only it gets cost-based
        direction and the epoch-keyed caches; the live view and
        session-patched views plan forward and always execute.
        ``engine`` defaults to the processor's configured backend.
        """
        if engine is None:
            engine = self.engine
        epoch = epoch_of_view(view)
        physical = self.lower(query, view=view)
        result_key = None
        if epoch is not None and self._config.result_cache_size > 0:
            result_key = (
                epoch.epoch_id,
                self._query_key(query),
                tuple(query.sources),
                engine.name,
            )
            with self._cache_lock:
                cached = self._result_cache.get(result_key)
                if cached is not None:
                    self._result_cache.move_to_end(result_key)
                    self.cache_stats.add_counter("result_cache_hits")
                else:
                    self.cache_stats.add_counter("result_cache_misses")
            if cached is not None:
                # Outside the lock, so concurrent hits never serialize.
                return _shared_outcome(cached)
        outcome = engine.execute(physical, query.sources, view)
        if result_key is not None:
            entry = _shared_outcome(outcome)
            with self._cache_lock:
                self._result_cache[result_key] = entry
                self._result_cache.move_to_end(result_key)
                while len(self._result_cache) > self._config.result_cache_size:
                    self._result_cache.popitem(last=False)
        return outcome

    # ------------------------------------------------------------------
    # Lowering and delegation
    # ------------------------------------------------------------------
    def plan(self, query, view=None) -> LogicalPlan:
        """Cost-based logical plan for ``query`` (see ``explain()``)."""
        if not isinstance(query, (KHopQuery, RPQuery)):
            raise TypeError(f"unsupported query type {type(query).__name__}")
        return self.planner.plan(query, view=view)

    def lower(self, query, view) -> "PhysicalPlan":
        """Plan and lower ``query`` without executing it.

        ``view`` is anything with a ``total_rows()`` (the live view, a
        pinned :class:`~repro.serve.epoch.EpochView`, or a bare
        :class:`~repro.serve.epoch.Epoch`): fixpoint bounds derive from
        its row count, and with an epoch behind it the cost-based
        planner consults the epoch's frozen statistics.
        The parallel worker pool lowers here once and ships the
        resulting picklable plan to its worker processes, so every
        process executes exactly the plan an in-process pinned
        execution would.

        Lowered plans are cached per ``(epoch id, query shape, batch
        size)`` — epoch-keyed, so an entry can never outlive the data it
        was planned against.  Batch size is part of the key because the
        direction decision depends on how many sources amortize the
        forward fan-out.
        """
        epoch = epoch_of_view(view)
        plan_key = None
        if epoch is not None and self._config.plan_cache_size > 0:
            plan_key = (
                epoch.epoch_id,
                self._query_key(query),
                len(query.sources),
            )
            with self._cache_lock:
                cached = self._plan_cache.get(plan_key)
                if cached is not None:
                    self._plan_cache.move_to_end(plan_key)
                    self.cache_stats.add_counter("plan_cache_hits")
                    return cached
                self.cache_stats.add_counter("plan_cache_misses")
        plan = self.plan(query, view=view)
        physical = lower_plan(
            plan,
            default_fixpoint_iterations=self._max_fixpoint_iterations(view),
        )
        if plan_key is not None:
            with self._cache_lock:
                self._plan_cache[plan_key] = physical
                self._plan_cache.move_to_end(plan_key)
                while len(self._plan_cache) > self._config.plan_cache_size:
                    self._plan_cache.popitem(last=False)
        return physical

    @staticmethod
    def _query_key(query) -> Tuple:
        """Cache-key fragment identifying what a query computes."""
        if isinstance(query, KHopQuery):
            return ("khop", query.hops)
        if isinstance(query, RPQuery):
            return ("rpq", query.expression)
        raise TypeError(f"unsupported query type {type(query).__name__}")

    @staticmethod
    def _max_fixpoint_iterations(view) -> int:
        """Row-count bound on Kleene-closure iterations.

        A shortest path to any ``(node, state)`` frontier item visits
        each product-graph vertex at most once, so it is no longer than
        the number of stored rows times the number of DFA states; the
        frontier-dedup in both engines then drains the fixpoint as soon
        as an iteration produces nothing new.  This method contributes
        the row half — ``lower_plan`` scales the default bound by the
        attached DFA's state count, completing the product-graph bound.
        The rows counted are the view's: frozen for a pinned execution,
        live otherwise.
        """
        return max(1, view.total_rows())

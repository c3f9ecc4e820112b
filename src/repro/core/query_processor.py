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
3. the physical plan is handed to the
   :class:`~repro.engine.base.ExecutionEngine` selected by
   ``MoctopusConfig.engine`` — the scalar ``"python"`` backend, one of
   the numpy backends, or the ``"auto"`` dispatcher choosing among them
   per call — which executes it on the simulated platform and returns
   the answer matrix plus the execution statistics.

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
from typing import Dict, List, Optional, Tuple

from repro.core.config import MoctopusConfig
from repro.core.hetero_storage import HeterogeneousGraphStorage
from repro.core.local_storage import LocalGraphStorage
from repro.core.node_migrator import NodeMigrator
from repro.core.operator_processor import OperatorProcessor
from repro.core.partitioner import GraphPartitioner
from repro.engine.base import EngineRuntime, ExecutionEngine, Frontier, create_engine
from repro.engine.physical import PhysicalPlan, lower_plan
from repro.pim.stats import ExecutionStats
from repro.pim.system import PIMSystem
from repro.rpq.cost_planner import CostBasedPlanner, epoch_of_view
from repro.rpq.planner import LogicalPlan, plan_query
from repro.rpq.query import BatchResult, KHopQuery, RPQuery

__all__ = ["QueryProcessor", "Frontier"]


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
        pim_system: PIMSystem,
        partitioner: GraphPartitioner,
        module_storages: List[LocalGraphStorage],
        host_storage: HeterogeneousGraphStorage,
        operator_processors: List[OperatorProcessor],
        node_migrator: NodeMigrator,
        label_names: Optional[Dict[int, str]] = None,
        engine: Optional[str] = None,
    ) -> None:
        self._config = config
        self._runtime = EngineRuntime(
            config=config,
            pim=pim_system,
            partitioner=partitioner,
            module_storages=module_storages,
            host_storage=host_storage,
            processors=operator_processors,
            migrator=node_migrator,
            label_names=label_names or {},
        )
        self.engine: ExecutionEngine = create_engine(
            engine or config.engine, self._runtime
        )
        self.planner = CostBasedPlanner(
            label_names=label_names or {},
            direction=config.planner_direction,
        )
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
        self.engine = create_engine(name, self._runtime)

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def execute_khop(self, query: KHopQuery) -> Tuple[BatchResult, ExecutionStats]:
        """Execute a batch k-hop query (the paper's workload)."""
        return self._run(plan_query(query), query.sources)

    def execute_rpq(self, query: RPQuery) -> Tuple[BatchResult, ExecutionStats]:
        """Execute a general regular path query."""
        return self._run(plan_query(query), query.sources)

    def execute_on_view(
        self, query, view, engine: Optional[ExecutionEngine] = None
    ) -> Tuple[BatchResult, ExecutionStats]:
        """Plan ``query`` and execute it against a pinned epoch view.

        The serving layer's entry point: planning and lowering are the
        same as the live path, but the physical plan runs on ``view``
        (frozen owners and snapshots, private accounting platform) via a
        per-session ``engine`` instance.  When no engine is supplied a
        fresh one is created for the call — pinned executions must never
        share the live engine's scratch state with concurrent live
        queries.
        """
        epoch = epoch_of_view(view)
        physical = self.lower(query, view=view)
        engine_name = engine.name if engine is not None else self.engine.name
        result_key = None
        if epoch is not None and self._config.result_cache_size > 0:
            result_key = (
                epoch.epoch_id,
                self._query_key(query),
                tuple(query.sources),
                engine_name,
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
        if engine is None:
            engine = create_engine(engine_name, self._runtime)
        outcome = engine.execute(physical, query.sources, view=view)
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

    def lower(self, query, view=None) -> "PhysicalPlan":
        """Plan and lower ``query`` without executing it.

        ``view`` is anything with a ``total_rows()`` (a pinned
        :class:`~repro.serve.epoch.EpochView`, or a bare
        :class:`~repro.serve.epoch.Epoch`): the cost-based planner then
        consults the epoch's frozen statistics and fixpoint bounds
        derive from the frozen row counts instead of the live storages.
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
            default_fixpoint_iterations=self._max_fixpoint_iterations(
                plan, view=view
            ),
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

    def _run(
        self, plan: LogicalPlan, sources: List[int]
    ) -> Tuple[BatchResult, ExecutionStats]:
        physical = lower_plan(
            plan,
            default_fixpoint_iterations=self._max_fixpoint_iterations(plan),
        )
        return self.engine.execute(physical, sources)

    def _max_fixpoint_iterations(self, plan: LogicalPlan, view=None) -> int:
        """Row-count bound on Kleene-closure iterations.

        A shortest path to any ``(node, state)`` frontier item visits
        each product-graph vertex at most once, so it is no longer than
        the number of stored rows times the number of DFA states; the
        frontier-dedup in both engines then drains the fixpoint as soon
        as an iteration produces nothing new.  This method contributes
        the row half — ``lower_plan`` scales the default bound by the
        attached DFA's state count, completing the product-graph bound.
        Pinned executions bound against the view's frozen row counts
        instead of the live ones.
        """
        stored = view if view is not None else self._runtime
        return max(1, stored.total_rows())

"""The Query Processor: a thin coordinator over the execution engines.

The processor's job is planning and delegation, not data movement:

1. a query is planned into the one :class:`~repro.rpq.planner.Plan`
   (:mod:`repro.rpq.planner`): ``k`` ``smxm`` expansions plus the
   ``mwait`` reduce for the paper's k-hop workload and fixed-length
   RPQs, a DFA-guided fixpoint for the rest — costed from the view's
   frozen epoch when it has one, and bound to the view's row count;
2. the plan is handed, with the view to run it against, to the current
   :class:`~repro.engine.base.ExecutionEngine` — the ``"auto"``
   dispatcher a system starts on, choosing per call between the scalar
   ``"python"`` backend and the vectorized one, or the kernel
   ``Moctopus.use_engine`` pinned — which executes it on the simulated
   platform and returns the answer matrix plus the execution
   statistics.

:meth:`QueryProcessor.execute_on_view` is the one entry point: live
queries pass :attr:`QueryProcessor.live` (the
:class:`~repro.engine.base.LiveView` over the storages), sessions and
the scheduler pass a pinned :class:`~repro.serve.epoch.EpochView`.
Engines keep no state between calls, so the processor holds one
instance, :attr:`QueryProcessor.engine`, and every caller shares it; a
session or a scheduler keeps the one that was current when it started.

All backends implement the same operator semantics (see
:mod:`repro.engine`): the smxm phases where partitioning quality turns
into time, the mwait reduction, and the misplacement reports handed to
the node migrator off the query's critical path.

Executions whose view answers :meth:`PlanView.frozen_epoch` (pinned,
unpatched) additionally go through two caches that are correct by
construction because their keys embed the epoch id — a new epoch can
never observe a stale entry.  Both are bounded least-recently-used maps
(:data:`PLAN_CACHE_ENTRIES`, :data:`RESULT_CACHE_ENTRIES`):

* a **plan cache** mapping ``(epoch id, query shape, batch size)`` to
  the :class:`Plan` (plans are frozen, so cached plans are shared, not
  copied);
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
When an epoch retires, :meth:`QueryProcessor.forget_epoch` drops its
entries from both caches.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.engine.base import ExecutionEngine, LiveView, PlanView, create_engine
from repro.pim.stats import ExecutionStats
from repro.rpq.planner import Plan, lower_plan, plan_query
from repro.rpq.query import BatchResult, KHopQuery, RPQuery

__all__ = ["PLAN_CACHE_ENTRIES", "QueryProcessor", "RESULT_CACHE_ENTRIES"]

#: Bound of the epoch-keyed plan cache (entries).
PLAN_CACHE_ENTRIES = 128
#: Bound of the epoch-keyed result cache (entries).
RESULT_CACHE_ENTRIES = 256


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
        stats.copy(),
    )


class _LruCache(OrderedDict):
    """A bounded least-recently-used map counting ``<name>_hits`` /
    ``<name>_misses``; callers hold the processor's cache lock."""

    def __init__(self, name: str, capacity: int, counters: ExecutionStats) -> None:
        super().__init__()
        self._hits, self._misses = f"{name}_hits", f"{name}_misses"
        self._capacity = capacity
        self._counters = counters

    def lookup(self, key):
        """The entry under ``key``, now the most recent, or ``None``."""
        entry = self.get(key)
        if entry is None:
            self._counters.add_counter(self._misses)
        else:
            self.move_to_end(key)
            self._counters.add_counter(self._hits)
        return entry

    def insert(self, key, entry) -> None:
        """Store ``entry`` as the most recent, evicting past the bound."""
        self[key] = entry
        self.move_to_end(key)
        while len(self) > self._capacity:
            self.popitem(last=False)


class QueryProcessor:
    """Plans batch path queries and delegates them to an execution engine."""

    def __init__(
        self, live: LiveView, label_names: Optional[Dict[int, str]] = None
    ) -> None:
        #: The view live (unpinned) queries execute against.
        self.live = live
        #: Integer edge label -> query label string.
        self.label_names: Dict[int, str] = label_names or {}
        #: The kernel every caller runs on.
        self.engine: ExecutionEngine = create_engine("auto", self.label_names)
        #: Cache hit/miss counters.  Deliberately *not* merged into any
        #: per-query :class:`ExecutionStats` — per-query observables must
        #: stay bit-identical between cold and warm executions.
        self.cache_stats = ExecutionStats()
        self._cache_lock = threading.Lock()
        self._plan_cache = _LruCache("plan_cache", PLAN_CACHE_ENTRIES, self.cache_stats)
        self._result_cache = _LruCache(
            "result_cache", RESULT_CACHE_ENTRIES, self.cache_stats
        )

    def use_engine(self, name: str) -> None:
        """Swap the execution backend (``Moctopus.use_engine``)."""
        self.engine = create_engine(name, self.label_names)

    def forget_epoch(self, epoch_id: int) -> None:
        """Drop the plan and result entries of a retired epoch.

        Epoch ids are never reused, so such an entry could never hit
        again; left alone it would hold an LRU slot (and a result's
        arrays) until newer entries pushed it out.
        """
        with self._cache_lock:
            for cache in (self._plan_cache, self._result_cache):
                for key in [key for key in cache if key[0] == epoch_id]:
                    del cache[key]

    # ------------------------------------------------------------------
    # The entry point
    # ------------------------------------------------------------------
    def execute_on_view(
        self, query, view: PlanView, engine: Optional[ExecutionEngine] = None
    ) -> Tuple[BatchResult, ExecutionStats]:
        """Plan ``query`` and execute it against ``view``.

        ``view`` is :attr:`live` for a live query, or a pinned
        :class:`~repro.serve.epoch.EpochView` (frozen owners and
        snapshots, the pinning reader's own totals platform).  Only an
        unpatched pinned view has frozen statistics, so only it gets a
        costed plan and the epoch-keyed caches; the live view and
        session-patched views plan uncosted and always execute.
        ``engine`` defaults to the processor's current backend; a session
        or a scheduler passes the one it captured when it started.
        """
        if engine is None:
            engine = self.engine
        plan = self.plan(query, view)
        epoch = view.frozen_epoch()
        result_key = None
        if epoch is not None:
            result_key = (
                epoch.epoch_id,
                self._query_key(query),
                tuple(query.sources),
                engine.name,
            )
            with self._cache_lock:
                cached = self._result_cache.lookup(result_key)
            if cached is not None:
                # Outside the lock, so concurrent hits never serialize.
                return _shared_outcome(cached)
        outcome = engine.execute(plan, query.sources, view)
        if result_key is not None:
            entry = _shared_outcome(outcome)
            with self._cache_lock:
                self._result_cache.insert(result_key, entry)
        return outcome

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, query, view: PlanView) -> Plan:
        """The plan ``query`` runs as against ``view``, without running it.

        Costed from the view's frozen epoch when it has one (structure
        only otherwise), with fixpoint bounds derived from
        the view's row count — frozen for a pinned execution, live
        otherwise.  ``explain()`` renders this plan, and the parallel
        worker pool plans here once and ships the picklable result to
        its worker processes, so every process executes exactly the plan
        an in-process pinned execution would.

        Plans are cached per ``(epoch id, query shape, batch size)`` —
        epoch-keyed, so an entry can never outlive the data it was
        planned against.  Batch size is part of the key because the cost
        estimates scale with it.
        """
        epoch = view.frozen_epoch()
        plan_key = None
        if epoch is not None:
            plan_key = (
                epoch.epoch_id,
                self._query_key(query),
                len(query.sources),
            )
            with self._cache_lock:
                cached = self._plan_cache.lookup(plan_key)
            if cached is not None:
                return cached
        plan = lower_plan(
            plan_query(query, epoch, self.label_names), view.total_rows()
        )
        if plan_key is not None:
            with self._cache_lock:
                self._plan_cache.insert(plan_key, plan)
        return plan

    @staticmethod
    def _query_key(query) -> Tuple:
        """Cache-key fragment identifying what a query computes."""
        if isinstance(query, KHopQuery):
            return ("khop", query.hops)
        if isinstance(query, RPQuery):
            return ("rpq", query.expression)
        raise TypeError(f"unsupported query type {type(query).__name__}")

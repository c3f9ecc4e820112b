"""The Query Processor: plans a query and runs it on the current kernel.

The processor's job is planning and delegation, not data movement:

1. a query is planned into the one :class:`~repro.rpq.planner.Plan`
   (:mod:`repro.rpq.planner`): ``k`` ``smxm`` expansions plus the
   ``mwait`` reduce for the paper's k-hop workload and fixed-length
   RPQs, a DFA-guided fixpoint for the rest — the query's shape, bound
   to the view's row count;
2. the plan is handed, with the view to run it against, to
   :func:`repro.engine.execute` under a kernel name — ``"auto"``, which
   a system starts on and which chooses per call between the scalar
   ``"python"`` kernel and the vectorized one, or the kernel
   ``Moctopus.use_engine`` pinned — which executes it on the simulated
   platform and returns the answer matrix plus the execution
   statistics.

:meth:`QueryProcessor.execute_on_view` is the one entry point, and
every caller passes an :class:`~repro.serve.epoch.EpochView`: a live
query a ``live`` one over the current epoch, charged to the system and
reporting misplacement to the node migrator when the placement migrates
(``Moctopus._live_view``); sessions and the scheduler a pinned one.
The kernel is a plain string, :attr:`QueryProcessor.engine`; a session
or a scheduler keeps the one that was current when it started.

All kernels implement the same operator semantics (see
:mod:`repro.engine`): the smxm phases where partitioning quality turns
into time, the mwait reduction, and the misplacement reports handed to
the node migrator off the query's critical path.

Executions whose view answers :meth:`PlanView.frozen_epoch` (pinned,
unpatched) additionally go through two bounded least-recently-used
caches (:data:`PLAN_CACHE_ENTRIES`, :data:`RESULT_CACHE_ENTRIES`):

* a **plan cache** mapping the query shape to its unlowered
  :class:`Plan`.  A plan is a function of the shape alone, so one entry
  serves every epoch and every batch size; each call lowers it with the
  view's row count.  No cost estimate is made here: only ``explain()``
  costs a plan (:func:`~repro.rpq.planner.cost_plan`);
* a **result cache** mapping ``(epoch id, query shape, exact sources,
  kernel name)`` to ``(result, stats)`` — correct by construction
  because the key embeds the epoch id, so a new epoch can never observe
  a stale entry.  It is looked up before planning: a hit neither plans
  nor lowers.  A :class:`BatchResult` is two frozen arrays, so the entry,
  the first caller and every hit share them without copying; only the
  small, mutable :class:`ExecutionStats` is copied per insert and per
  hit, because callers stamp counters into the stats they receive.
  Cached answers — results *and* simulated counters — are therefore
  bit-identical to an uncached execution.

Hit/miss counters accumulate on :attr:`QueryProcessor.cache_stats`
(a separate :class:`ExecutionStats`), never on per-query stats, so the
per-query observables stay identical between cold and warm runs.
When an epoch retires, :meth:`QueryProcessor.forget_epoch` drops its
result entries.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.engine import ENGINE_NAMES, PlanView, execute
from repro.pim.stats import ExecutionStats
from repro.rpq.planner import Plan, lower_plan, plan_query
from repro.rpq.query import BatchResult, KHopQuery, RPQuery

__all__ = ["PLAN_CACHE_ENTRIES", "QueryProcessor", "RESULT_CACHE_ENTRIES"]

#: Bound of the shape-keyed plan cache (entries).
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
    """Plans batch path queries and runs them on the kernel it names."""

    def __init__(self, label_names: Optional[Dict[int, str]] = None) -> None:
        #: Integer edge label -> query label string.
        self.label_names: Dict[int, str] = label_names or {}
        #: Name of the kernel every caller runs on (an ``ENGINE_NAMES``
        #: entry); only :meth:`use_engine` sets it.
        self.engine = "auto"
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
        """Swap the execution kernel (``Moctopus.use_engine``)."""
        if name not in ENGINE_NAMES:
            raise ValueError(
                f"unknown execution engine {name!r}; expected one of {ENGINE_NAMES}"
            )
        self.engine = name

    def forget_epoch(self, epoch_id: int) -> None:
        """Drop the result entries of a retired epoch.

        Epoch ids are never reused, so such an entry could never hit
        again; left alone it would hold an LRU slot (and a result's
        arrays) until newer entries pushed it out.
        """
        with self._cache_lock:
            cache = self._result_cache
            for key in [key for key in cache if key[0] == epoch_id]:
                del cache[key]

    # ------------------------------------------------------------------
    # The entry point
    # ------------------------------------------------------------------
    def execute_on_view(
        self, query, view: PlanView, engine: Optional[str] = None
    ) -> Tuple[BatchResult, ExecutionStats]:
        """Plan ``query`` and execute it against ``view``.

        ``view`` is an :class:`~repro.serve.epoch.EpochView`: frozen
        owners and snapshots, and the platform its totals fold into.
        Only a view answering :meth:`~repro.engine.base.PlanView.frozen_epoch`
        goes through the caches, the result cache first, so a hit plans
        nothing; a live view (charged to the system's own platform) and
        a session-patched view always plan and execute.
        ``engine`` (a kernel name) defaults to the processor's current
        one; a session or a scheduler passes the one it captured when
        it started.
        """
        if engine is None:
            engine = self.engine
        epoch = view.frozen_epoch()
        result_key = None
        if epoch is not None:
            result_key = (
                epoch.epoch_id,
                self._query_key(query),
                tuple(query.sources),
                engine,
            )
            with self._cache_lock:
                cached = self._result_cache.lookup(result_key)
            if cached is not None:
                # Outside the lock, so concurrent hits never serialize.
                return _shared_outcome(cached)
        plan = self.plan(query, view)
        outcome = execute(engine, plan, query.sources, view, self.label_names)
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

        The query's shape with its fixpoint bound derived from the
        view's row count.  ``explain()`` renders this plan, and the
        parallel worker pool plans here once and ships the picklable
        result to its worker processes, so every process executes
        exactly the plan an in-process pinned execution would.

        A view with a frozen epoch reads the shape from the plan cache,
        keyed by the shape alone; live and patched views plan afresh.
        """
        key = self._query_key(query)
        frozen = view.frozen_epoch() is not None
        plan = None
        if frozen:
            with self._cache_lock:
                plan = self._plan_cache.lookup(key)
        if plan is None:
            plan = plan_query(query)
            if frozen:
                with self._cache_lock:
                    self._plan_cache.insert(key, plan)
        return lower_plan(plan, view.total_rows())

    @staticmethod
    def _query_key(query) -> Tuple:
        """Cache-key fragment identifying what a query computes."""
        if isinstance(query, KHopQuery):
            return ("khop", query.hops)
        if isinstance(query, RPQuery):
            return ("rpq", query.expression)
        raise TypeError(f"unsupported query type {type(query).__name__}")

"""The batch scheduler: coalescing admission control for concurrent readers.

The paper's system is built around *batch* path queries — one ``smxm``
cascade answers many sources at once — but concurrent clients each ask
for one source at a time.  :class:`BatchScheduler` bridges the two: it
admits client queries into a **bounded queue** (backpressure instead of
unbounded memory growth) and a single worker drains the queue in
windows of up to :data:`BATCH_WINDOW` queries, coalescing every
compatible query (same hop count) into one engine-level
:class:`~repro.rpq.query.KHopQuery` executed against the latest
published epoch.  A drain takes what is already queued and never waits
for more.  Eight clients asking 2-hop questions cost one batched plan
execution, not eight — which is where the serving layer's throughput
multiplier comes from.

Every coalesced batch pins the newest epoch for exactly one execution,
so scheduled queries always observe a consistent published state while
the writer keeps publishing behind them.

With ``parallel=N`` (``Moctopus.serve(parallel=N)``) the scheduler
scatters each window's per-hops batches across a
:class:`~repro.parallel.pool.WorkerPool` of ``N`` child processes —
zero-copy readers of shared-memory epoch exports — and gathers the
results in submission order, so concurrent hop-groups execute on real
cores instead of time-slicing one GIL.
Results, statistics and epoch stamps are bit-identical to in-process
execution (the differential suite proves it on both engines).  The
scheduler, and its pool, run on the system's kernel as it was when the
scheduler was built.
"""

from __future__ import annotations

import copy
import queue
import threading
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.checks import require_int, require_int64s
from repro.pim.stats import ExecutionStats
from repro.pim.system import PIMSystem
from repro.rpq.query import DestinationRow, KHopQuery, RPQuery
from repro.serve.epoch import EpochView

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.system import Moctopus

#: Upper bound on how many queued client queries one drain coalesces.
BATCH_WINDOW = 16

#: Default bound of the admission queue: how many client queries may
#: wait before a further submission blocks or is refused.
DEFAULT_QUEUE_DEPTH = 64


class SchedulerSaturated(RuntimeError):
    """Raised when the admission queue is full and the caller won't wait."""


class ResultGate:
    """One-shot outcome cell shared by serving futures and pool tickets.

    First outcome wins (the close/submit race resolves to whichever
    settles first); waiting re-raises a failure.  Subclasses define the
    payload shape and the public accessors.

    A waiter that times out simply abandons the gate: a later outcome is
    recorded but never delivered to that caller (and is still available
    to any other waiter), so a timed-out client can be answered by a
    slow batch without crashing anything.
    """

    def __init__(self, pending: str = "result") -> None:
        self._event = threading.Event()
        self._payload = None
        self._error: Optional[BaseException] = None
        self._pending = pending
        #: Guards the settle-once transition and the callback list; held
        #: only for pointer swaps, never while running callbacks.
        self._gate_lock = threading.Lock()
        self._callbacks: List[Callable[["ResultGate"], None]] = []

    def _settle(self, payload) -> None:
        with self._gate_lock:
            if self._event.is_set():
                return  # first outcome wins
            self._payload = payload
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def _fail(self, error: BaseException) -> None:
        with self._gate_lock:
            if self._event.is_set():
                return
            self._error = error
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def add_done_callback(
        self, callback: Callable[["ResultGate"], None]
    ) -> None:
        """Run ``callback(self)`` once an outcome is recorded.

        Invoked immediately when the gate is already settled, otherwise
        from whichever thread settles it — the bridge an event loop uses
        (``loop.call_soon_threadsafe`` inside the callback) to await a
        threaded future without blocking a loop thread per query.
        """
        with self._gate_lock:
            if not self._event.is_set():
                self._callbacks.append(callback)
                return
        callback(self)

    def done(self) -> bool:
        """Whether an outcome (answer or failure) has been recorded."""
        return self._event.is_set()

    def _replicate_error(self) -> BaseException:
        """A per-waiter copy of the recorded failure.

        One failed batch fans out to every waiter of the group; raising
        the *shared* instance from concurrent ``_wait`` calls would make
        unrelated threads race on its ``__traceback__``.  Each waiter
        therefore gets a fresh copy chained (``__cause__``) to the
        original; exceptions that refuse to copy fall back to the shared
        instance rather than masking the failure.
        """
        error = self._error
        try:
            replica = copy.copy(error)
        except Exception:  # pragma: no cover - exotic uncopyable errors
            return error
        if replica is error or type(replica) is not type(error):
            return error  # pragma: no cover - copy() no-op'd
        replica.__traceback__ = None
        return replica

    def _wait(self, timeout: Optional[float]):
        if not self._event.wait(timeout):
            raise TimeoutError(f"{self._pending} not answered within timeout")
        if self._error is not None:
            replica = self._replicate_error()
            if replica is self._error:  # pragma: no cover - fallback path
                raise self._error
            raise replica from self._error
        return self._payload


class ServingFuture(ResultGate):
    """Handle for one admitted query; resolves when its batch executes.

    Carries either a hop count (the paper's k-hop workload) or a path
    expression (general RPQs); the scheduler coalesces futures with the
    same :attr:`group_key` into one engine-level batch.
    """

    def __init__(
        self,
        source: int,
        hops: Optional[int] = None,
        expression: Optional[str] = None,
    ) -> None:
        super().__init__(pending="query")
        if (hops is None) == (expression is None):
            raise ValueError("exactly one of hops/expression is required")
        # Checked before admission: a float source or a float hop count
        # 2.0 would ride in the integer callers' coalesced batch and fail
        # it for all of them.
        require_int64s("source", (source,))
        if hops is not None:
            require_int("hops", hops, 1)
        self.source = source
        self.hops = hops
        self.expression = expression

    @property
    def group_key(self) -> Tuple[str, object]:
        """Coalescing key: queries with equal keys share one batch."""
        if self.expression is not None:
            return ("rpq", self.expression)
        return ("khop", self.hops)

    def _resolve(
        self, destinations: DestinationRow, stats: ExecutionStats
    ) -> None:
        self._settle((destinations, stats))

    def result(self, timeout: Optional[float] = None) -> DestinationRow:
        """Destination set of the query (blocks until resolved).

        A read-only set view of this query's row in the coalesced
        batch's answer — sorted, shared, never copied.
        """
        destinations, _ = self.outcome(timeout=timeout)
        return destinations

    def outcome(
        self, timeout: Optional[float] = None
    ) -> Tuple[DestinationRow, ExecutionStats]:
        """``(destinations, batch stats)`` — stats are shared across the
        coalesced batch this query rode in."""
        return self._wait(timeout)


class BatchScheduler:
    """Coalesces concurrent client k-hop queries into engine batches."""

    def __init__(
        self,
        system: "Moctopus",
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        autostart: bool = True,
        parallel: int = 0,
    ) -> None:
        self._system = system
        config = system.config
        require_int("queue_depth", queue_depth, 1)
        require_int("parallel", parallel, 0)
        self._queue: "queue.Queue[Optional[ServingFuture]]" = queue.Queue(
            maxsize=queue_depth
        )
        #: Worker-process pool for ``parallel=N`` scatter/gather
        #: (``None`` = execute windows in-process on the drain thread).
        self._pool = None
        self._gatherer: Optional[threading.Thread] = None
        self._scattered: Optional["queue.Queue"] = None
        #: Totals sink of in-process execution: charged by the drain
        #: thread alone, so it folds without a lock, and apart from the
        #: live system's checkpointed totals (scheduled reads are not
        #: logged).  Pool mode charges it for expression groups only
        #: (k-hop windows account on the pool's platform).
        self._pim = PIMSystem(config.cost_model)
        #: Kernel name of in-process group execution (pool mode still
        #: needs it for expression groups, which stay on the drain
        #: thread): the system's kernel as it is now.
        self._engine = system._query_processor.engine
        if parallel:
            # Imported lazily: repro.parallel sits above repro.serve.
            from repro.parallel.pool import WorkerPool

            self._pool = WorkerPool(system, parallel)
            # Scatter/gather pipeline: the drain thread keeps scattering
            # new windows while this bounded queue of in-flight groups
            # is gathered — in submission order — by a dedicated thread,
            # so workers never idle between windows.  The bound is the
            # backpressure that keeps in-flight work proportional to the
            # pool, not to the admission queue.
            self._scattered = queue.Queue(maxsize=2 * parallel)
            self._gatherer = threading.Thread(
                target=self._gather, name="moctopus-batch-gatherer",
                daemon=True,
            )
            self._gatherer.start()
        self._closed = threading.Event()
        #: Serializes ``close()``: concurrent/double closes must not race
        #: the drain thread or tear down the pool twice.
        self._close_lock = threading.Lock()
        self._worker = threading.Thread(
            target=self._run, name="moctopus-batch-scheduler", daemon=True
        )
        #: Scheduler-level counters (thread-safe under the GIL: single
        #: writer — the worker thread).
        self.batches_executed = 0
        self.queries_served = 0
        if autostart:
            self._worker.start()

    @property
    def parallel_workers(self) -> int:
        """Worker processes behind this scheduler (0 = in-process)."""
        return self._pool.workers if self._pool is not None else 0

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def submit(
        self,
        source: int,
        hops: int,
        block: bool = True,
        timeout: Optional[float] = None,
    ) -> ServingFuture:
        """Admit one single-source k-hop query.

        With ``block=False`` (or on timeout) a full queue raises
        :class:`SchedulerSaturated` — the bounded-admission contract.
        """
        return self._admit(ServingFuture(source, hops=hops), block, timeout)

    def submit_rpq(
        self,
        source: int,
        expression: str,
        block: bool = True,
        timeout: Optional[float] = None,
    ) -> ServingFuture:
        """Admit one single-source regular path query.

        Queries with the same expression coalesce into one engine-level
        :class:`~repro.rpq.query.RPQuery` batch, exactly as equal-hops
        k-hop queries do.  The expression is parsed here so a syntax
        error surfaces synchronously at the caller, not inside the drain
        thread.
        """
        RPQuery(expression=expression).ast()  # validate eagerly
        return self._admit(
            ServingFuture(source, expression=expression), block, timeout
        )

    def _admit(
        self, future: ServingFuture, block: bool, timeout: Optional[float]
    ) -> ServingFuture:
        if self._closed.is_set():
            raise RuntimeError("scheduler is closed")
        try:
            self._queue.put(future, block=block, timeout=timeout)
        except queue.Full:
            raise SchedulerSaturated(
                f"admission queue full ({self._queue.maxsize} waiting queries)"
            ) from None
        # close() may have raced us between the flag check and the put;
        # if the worker is already gone, nothing will ever drain this
        # future — fail it instead of letting result() block forever.
        if self._closed.is_set() and not self._worker.is_alive():
            future._fail(RuntimeError("scheduler closed during submit"))
        return future

    def query(self, source: int, hops: int) -> DestinationRow:
        """Blocking convenience wrapper: submit and wait for the answer."""
        return self.submit(source, hops).result()

    @property
    def pending(self) -> int:
        """Admitted queries waiting in the queue (approximate gauge)."""
        return self._queue.qsize()

    def close(self, timeout: Optional[float] = 5.0) -> None:
        """Stop the worker after draining already-admitted queries.

        Idempotent and safe to call concurrently.  The close lock is
        held only to *mark* the scheduler closed (and wake the worker);
        every blocking step — thread joins, the stranded-future drain,
        pool teardown — runs outside it, so a concurrent closer (or any
        other path touching the lock) is never stalled behind a
        multi-second join (REP001: mark under the lock, act outside).
        Each post-mark step is idempotent, so concurrent closers can
        run them in parallel; queries already admitted when ``close()``
        is called are still drained and answered by the worker before
        it exits.
        """
        with self._close_lock:
            if not self._closed.is_set():
                self._closed.set()
                try:
                    self._queue.put_nowait(None)  # wake the worker early
                except queue.Full:
                    pass  # the worker's poll loop notices the flag anyway
        if self._worker.is_alive():
            self._worker.join(timeout)
        if self._worker.is_alive() and self._pool is not None:
            # In pool mode a drain thread that outlives the join is
            # almost certainly wedged *on the pool* — blocked
            # scattering into a full pipeline behind a hung worker.
            # Closing the pool fails every in-flight ticket, which
            # unblocks the gatherer and then the drain thread; an
            # in-process drain (below) needs no such push and is
            # left to finish on its own.
            self._pool.close()
            self._worker.join(timeout)
        # Fail anything that slipped into the queue after the
        # worker's final drain (the submit()/close() race) — no
        # caller may be left blocking on a future nobody will
        # resolve.  Only when the worker is really gone: if the join
        # merely timed out mid-batch, the still-running worker will
        # drain (and answer) the queue itself, and stealing its
        # items would spuriously fail admitted queries.  Concurrent
        # closers may interleave here; ``get_nowait`` and ``_fail``
        # are both safe to race.
        if self._worker.is_alive():
            return
        while True:
            try:
                stranded = self._queue.get_nowait()
            except queue.Empty:
                break
            if stranded is not None:
                stranded._fail(
                    RuntimeError("scheduler closed before execution")
                )
        if self._gatherer is not None and self._gatherer.is_alive():
            # Everything the drain thread scattered is already in the
            # pipeline queue; the sentinel lands behind it, so the
            # gatherer resolves every in-flight group before exiting.
            # A second closer's extra sentinel is left unread if the
            # gatherer already exited, so never block on a full
            # pipeline forever.
            try:
                self._scattered.put(None, timeout=timeout)
            except queue.Full:  # pragma: no cover - wedged pipeline
                pass
            self._gatherer.join(timeout)
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "BatchScheduler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            try:
                first = self._queue.get(timeout=0.05)
            except queue.Empty:
                if self._closed.is_set():
                    return
                continue
            if first is None:
                if self._closed.is_set() and self._queue.empty():
                    return
                continue
            window: List[ServingFuture] = [first]
            while len(window) < BATCH_WINDOW:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is None:
                    continue
                window.append(item)
            self._execute_window(window)
            if self._closed.is_set() and self._queue.empty():
                return

    def _execute_window(self, window: List[ServingFuture]) -> None:
        """Group a drained window by query shape and run one batch each.

        In-process mode executes the groups back to back on this
        thread; with a worker pool the k-hop groups are *scattered*
        first — one task per group, round-robin across the workers, all
        in flight at once — and gathered in submission order, so the
        window's groups execute concurrently on separate processes.
        Expression (RPQ) groups stay on this thread by choice, not by
        protocol — :meth:`WorkerPool.submit` ships any plan — and
        scattering them waits for a ``parallel > 0`` workload to measure
        it on.
        """
        by_key: Dict[Tuple[str, object], List[ServingFuture]] = {}
        for future in window:
            by_key.setdefault(future.group_key, []).append(future)
        groups = sorted(by_key.items())
        for key, group in groups:
            if self._pool is None or key[0] == "rpq":
                try:
                    self._execute_group(key, group)
                except BaseException as error:
                    for future in group:
                        future._fail(error)
                continue
            try:
                ticket = self._pool.submit_khop(
                    key[1], [future.source for future in group]
                )
            except BaseException as error:
                for future in group:
                    future._fail(error)
                continue
            self._scattered.put((group, ticket))

    def _gather(self) -> None:
        """Resolve scattered groups in submission order (pool mode)."""
        while True:
            item = self._scattered.get()
            if item is None:
                return
            group, ticket = item
            try:
                result, stats, epoch_id = ticket.outcome()
            except BaseException as error:
                for future in group:
                    future._fail(error)
                continue
            self._account_group(epoch_id, stats, len(group))
            for row, future in enumerate(group):
                future._resolve(result.destinations_of(row), stats)

    def _account_group(self, epoch_id: int, stats, group_size: int) -> None:
        """Stamp and count one executed group (in-process or pooled).

        One shared implementation keeps the stats of both execution
        paths bit-identical: the same counters are added in the same
        order whether the batch ran on this thread or on a worker
        process.
        """
        stats.add_counter("epoch", epoch_id)
        stats.add_counter("coalesced_queries", group_size)
        self._system._epochs.note_served(epoch_id, group_size)
        self.batches_executed += 1
        self.queries_served += group_size

    def _execute_group(
        self, key: Tuple[str, object], group: List[ServingFuture]
    ) -> None:
        manager = self._system._epochs
        epoch = manager.pin()
        try:
            view = EpochView(epoch, self._pim)
            kind, detail = key
            sources = [future.source for future in group]
            if kind == "khop":
                query = KHopQuery(hops=detail, sources=sources)
            else:
                query = RPQuery(expression=detail, sources=sources)
            result, stats = self._system._query_processor.execute_on_view(
                query, view, self._engine
            )
            self._account_group(epoch.epoch_id, stats, len(group))
            for row, future in enumerate(group):
                future._resolve(result.destinations_of(row), stats)
        finally:
            manager.unpin(epoch)

"""The persistent multi-process worker pool for epoch-pinned execution.

:class:`WorkerPool` is the process-level analogue of the in-process
:class:`~repro.serve.scheduler.BatchScheduler` worker: child processes
attach exported epochs (:mod:`repro.parallel.shm`) zero-copy, rebuild
:class:`~repro.serve.epoch.EpochView`\\ s locally, and execute the exact
:class:`~repro.rpq.planner.Plan` the parent planned — same
plan, same frozen arrays, same engine code — so results *and* simulated
statistics are bit-identical to in-process pinned execution.

Protocol (per-worker FIFO task queues, one shared result queue):

* ``("epoch", manifest)`` — broadcast before any task referencing the
  epoch; the worker attaches the shared segment (idempotent);
* ``("exec", task_id, epoch_id, plan, sources)`` — run one batch on
  the kernel current when the pool was built; replies ``("done",
  task_id, worker_id, result, stats, lifetime_delta)`` where the result
  crosses the process boundary as its two CSR buffers (re-frozen on
  arrival, never per-row sets) and the delta is the fresh per-task
  :class:`~repro.pim.system.PIMSystem`'s lifetime capture, merged by the
  parent into its own accounting platform (bit-identical integer
  counters, order-independent);
* ``("retire", epoch_id)`` — detach and acknowledge; the parent unlinks
  the segment only after **every** worker has acknowledged, and only
  then releases the epoch's pin — shared-memory lifetime is exactly the
  pin's lifetime;
* ``("stop",)`` — detach everything and exit.

Because the queues are FIFO per worker, an ``exec`` can never overtake
the ``epoch`` broadcast it depends on.  Worker death is detected by the
parent's collector thread, which fails every outstanding ticket instead
of letting callers block forever.
"""

from __future__ import annotations

import multiprocessing
import queue
import sys
import threading
import traceback
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.checks import require_int
from repro.pim.stats import ExecutionStats
from repro.pim.system import PIMSystem
from repro.rpq.query import BatchResult, KHopQuery
from repro.serve.epoch import EpochView
from repro.serve.scheduler import ResultGate
from repro.parallel.shm import (
    SegmentGuard,
    attach_epoch,
    export_epoch,
    reap_stale_segments,
)

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.system import Moctopus
    from repro.serve.epoch import Epoch


class WorkerPoolError(RuntimeError):
    """A worker failed (raised during execution, or died outright)."""


class PoolTicket(ResultGate):
    """Handle for one scattered batch; resolves when its worker replies."""

    def __init__(self, task_id: int, epoch_id: int) -> None:
        super().__init__(pending="pool batch")
        self.task_id = task_id
        #: Id of the (exported) epoch the batch is pinned to.
        self.epoch_id = epoch_id

    def _resolve(self, result: BatchResult, stats: ExecutionStats) -> None:
        self._settle((result, stats))

    def outcome(
        self, timeout: Optional[float] = None
    ) -> Tuple[BatchResult, ExecutionStats, int]:
        """``(result, stats, epoch_id)`` — blocks until the worker replies."""
        result, stats = self._wait(timeout)
        return result, stats, self.epoch_id


# ----------------------------------------------------------------------
# Child process
#
# Everything below the marker runs inside worker *processes*, where the
# parent's coverage tracer cannot see it — hence the no-cover pragmas.
# The logic itself is still proven in-process: attach/detach round-trips
# and view execution are exercised directly by tests/test_parallel_serving.py,
# and the loop's observable protocol by every pool test.
# ----------------------------------------------------------------------
def _detach(attached: Dict[int, tuple], epoch_id: int) -> None:  # pragma: no cover
    """Drop a cached epoch and close its mapping (views must die first)."""
    entry = attached.pop(epoch_id, None)
    if entry is None:
        return
    epoch, segment = entry
    del entry, epoch  # release the numpy views into the mapping
    try:
        segment.close()
    except BufferError:  # pragma: no cover - straggler view
        pass


def _execute_task(  # pragma: no cover - runs in the worker process
    worker_id: int,
    config,
    attached: Dict[int, tuple],
    engine,
    message: tuple,
    result_queue,
) -> None:
    """Run one scattered batch and reply.

    A dedicated function (not inline in the worker loop) so every
    reference to the attached epoch — the view, the result — dies when
    it returns: a lingering local in the loop would keep numpy views
    into the shared mapping alive across a later ``retire`` and block
    the detach's ``close()``.
    """
    _, task_id, epoch_id, plan, sources = message
    try:
        epoch, _segment = attached[epoch_id]
        # A fresh platform per task (it allocates nothing per module)
        # makes its lifetime capture exactly the task's accounting
        # delta (see absorb_lifetime).
        pim = PIMSystem(config.cost_model)
        view = EpochView(epoch, pim)
        result, stats = engine.execute(plan, sources, view)
        result_queue.put(
            ("done", task_id, worker_id, result, stats,
             pim.capture_lifetime())
        )
    except BaseException:
        result_queue.put(
            ("error", task_id, worker_id, traceback.format_exc())
        )


def worker_main(  # pragma: no cover - runs in the worker process
    worker_id: int,
    config,
    engine_name: str,
    label_names: Dict[int, str],
    task_queue,
    result_queue,
) -> None:
    """Entry point of one pool worker process."""
    from repro.engine.base import create_engine

    # Engines keep nothing between calls, so one serves every task.
    engine = create_engine(engine_name, label_names)
    attached: Dict[int, tuple] = {}
    while True:
        message = task_queue.get()
        kind = message[0]
        if kind == "stop":
            for epoch_id in list(attached):
                _detach(attached, epoch_id)
            result_queue.put(("stopped", worker_id))
            return
        if kind == "epoch":
            manifest = message[1]
            if manifest.epoch_id not in attached:
                attached[manifest.epoch_id] = attach_epoch(manifest)
        elif kind == "retire":
            epoch_id = message[1]
            _detach(attached, epoch_id)
            result_queue.put(("retired", worker_id, epoch_id))
        else:  # ("exec", task_id, epoch_id, plan, sources)
            _execute_task(
                worker_id, config, attached, engine, message, result_queue
            )
        # Nothing epoch-shaped may survive the iteration (see
        # ``_execute_task``); ``message`` itself is plain data.
        del message


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class _Export:
    """One exported epoch: its pin, its segment, and its bookkeeping."""

    __slots__ = ("epoch", "segment", "manifest", "inflight", "retiring", "acks")

    def __init__(self, epoch: "Epoch", segment, manifest) -> None:
        self.epoch = epoch
        self.segment = segment
        self.manifest = manifest
        #: Tasks currently scattered against this epoch.
        self.inflight = 0
        #: Whether a retire broadcast is in flight.
        self.retiring = False
        #: Workers that have acknowledged the retire so far.
        self.acks = 0


class WorkerPool:
    """Scatters epoch-pinned batches across persistent worker processes."""

    def __init__(self, system: "Moctopus", workers: int) -> None:
        self.workers = require_int("workers", workers, 1)
        self._system = system
        self._epochs = system._epochs
        config = system.config
        self._engine_name = system.engine_name
        # On Linux, ``fork`` starts in milliseconds and shares the
        # parent's loaded interpreter; workers only ever touch their
        # queues, the shared segments and numpy, so inherited locks
        # are harmless.  Everywhere else — notably macOS, where
        # CPython moved the default to spawn because fork-without-
        # exec in a threaded process can abort in system frameworks
        # — the platform-safe choice is spawn.
        available = multiprocessing.get_all_start_methods()
        method = (
            "fork"
            if sys.platform.startswith("linux") and "fork" in available
            else "spawn"
        )
        self._ctx = multiprocessing.get_context(method)
        # Collect whatever a crashed sibling may have leaked before
        # creating segments of our own.
        reap_stale_segments()
        self._guard = SegmentGuard()
        #: Parent-side merged accounting platform: worker lifetime
        #: deltas fold in here, bit-identically to in-process serving.
        self.pim = PIMSystem(config.cost_model)
        self._lock = threading.Lock()
        self._task_queues = [self._ctx.Queue() for _ in range(workers)]
        self._results = self._ctx.Queue()
        label_names = system._query_processor.label_names
        self._processes = [
            self._ctx.Process(
                target=worker_main,
                args=(
                    worker_id,
                    config,
                    self._engine_name,
                    dict(label_names),
                    task_queue,
                    self._results,
                ),
                daemon=True,
                name=f"moctopus-pool-worker-{worker_id}",
            )
            for worker_id, task_queue in enumerate(self._task_queues)
        ]
        # The resource tracker must exist *before* the workers start, or
        # each child spawns a private tracker on its first attach and
        # every private tracker later reports the (parent-unlinked)
        # segments as leaked.  With the parent's tracker inherited, all
        # register/unregister traffic multiplexes one pipe where causal
        # order (attach happens-before detach-ack happens-before unlink)
        # keeps the books balanced.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - non-POSIX platforms
            pass
        for process in self._processes:
            process.start()
        self._exports: Dict[int, _Export] = {}
        #: Epoch id of the newest export (the only one new work targets).
        self._current_export_id: Optional[int] = None
        self._tickets: Dict[int, PoolTicket] = {}
        self._next_task = 0
        self._next_worker = 0
        self._closed = False
        self._broken: Optional[WorkerPoolError] = None
        self._stopped_acks = 0
        self._collector = threading.Thread(
            target=self._collect, name="moctopus-pool-collector", daemon=True
        )
        self._collector.start()

    # ------------------------------------------------------------------
    # Export lifecycle (pin -> export -> retire -> unlink -> unpin)
    # ------------------------------------------------------------------
    def _acquire_export_slot(self) -> _Export:
        """Reserve one in-flight slot on an export of the latest epoch.

        The returned export has had ``inflight`` incremented under the
        lock, which is what keeps it from being retired between here
        and the task enqueue.  The expensive half — copying every
        snapshot into a fresh shared segment — runs *outside* the lock,
        so the collector thread can keep settling results and retire
        acks while an export is being built; a concurrent builder that
        loses the install race simply unlinks its copy.
        """
        while True:
            with self._lock:
                if self._closed:
                    raise RuntimeError("worker pool is closed")
                if self._broken is not None:
                    raise self._broken
                epoch = self._epochs.pin()
                export = self._exports.get(epoch.epoch_id)
                if export is not None:
                    # The export already holds this epoch's pin.
                    self._epochs.unpin(epoch)
                    export.inflight += 1
                    return export
            # Latest epoch not exported yet: build the segment without
            # blocking the pool (our pin keeps the epoch alive).
            segment, manifest = export_epoch(epoch)
            self._guard.add(segment.name)
            closed = False
            installed: Optional[_Export] = None
            with self._lock:
                if self._closed:
                    closed = True
                else:
                    installed = self._exports.get(epoch.epoch_id)
                    if installed is None:
                        export = _Export(epoch, segment, manifest)
                        self._exports[epoch.epoch_id] = export
                        self._current_export_id = epoch.epoch_id
                        for task_queue in self._task_queues:
                            task_queue.put(("epoch", manifest))
                        self._retire_stale()
                        export.inflight += 1
                        return export
                    if installed.retiring:
                        # The racing winner was itself superseded and is
                        # already detaching — start over on the newest.
                        installed = None
                    else:
                        installed.inflight += 1
            # Lost the install race (or the pool closed underneath us):
            # drop our copy and the extra pin.
            segment.close()
            try:
                segment.unlink()
            except OSError:  # pragma: no cover - unlink race
                pass
            self._guard.discard(segment.name)
            self._epochs.unpin(epoch)
            if closed:
                raise RuntimeError("worker pool is closed")
            if installed is not None:
                return installed

    def _release_export_slot(self, epoch_id: int) -> None:
        """Return an unused reserved slot.  Holds the lock."""
        export = self._exports.get(epoch_id)
        if export is not None:
            export.inflight -= 1
            self._maybe_retire(epoch_id)

    def _retire_stale(self) -> None:
        """Broadcast retires for idle superseded exports.  Holds the lock."""
        for epoch_id in list(self._exports):
            self._maybe_retire(epoch_id)

    def _maybe_retire(self, epoch_id: int) -> None:
        """Retire one export if superseded and drained.  Holds the lock.

        Called both when a newer epoch is exported and when an export's
        last in-flight task settles — an export busy at supersede time
        would otherwise be skipped once and never revisited, pinning its
        epoch (and holding its segment) until the next publish or pool
        close.
        """
        export = self._exports.get(epoch_id)
        if (
            export is None
            or epoch_id == self._current_export_id
            or export.inflight > 0
            or export.retiring
        ):
            return
        export.retiring = True
        export.acks = 0
        for task_queue in self._task_queues:
            task_queue.put(("retire", epoch_id))

    def _finish_retire(self, epoch_id: int) -> None:
        """Unlink after the last detach ack, then drop the pin.  Holds the lock."""
        export = self._exports.pop(epoch_id, None)
        if export is None:
            return
        export.segment.close()
        try:
            export.segment.unlink()
        except FileNotFoundError:  # pragma: no cover - reaper race
            pass
        self._guard.discard(export.segment.name)
        self._epochs.unpin(export.epoch)

    def exported_epoch_ids(self) -> List[int]:
        """Ids of the epochs currently exported (diagnostics/tests)."""
        with self._lock:
            return sorted(self._exports)

    # ------------------------------------------------------------------
    # Scatter / gather
    # ------------------------------------------------------------------
    def submit_khop(self, hops: int, sources: List[int]) -> PoolTicket:
        """Scatter one coalesced k-hop batch to the next worker."""
        return self.submit(KHopQuery(hops=hops, sources=list(sources)))

    def submit(self, query) -> PoolTicket:
        """Scatter one batch query against the latest published epoch."""
        export = self._acquire_export_slot()
        try:
            # Plan in the parent so every process executes the exact
            # plan in-process pinned execution would (identical fixpoint
            # bounds derived from the epoch's frozen row counts).  Pure
            # computation — deliberately outside the pool lock.
            plan = self._system._query_processor.plan(
                query, EpochView(export.epoch, self._system.pim)
            )
        except BaseException:
            with self._lock:
                self._release_export_slot(export.epoch.epoch_id)
            raise
        with self._lock:
            if self._closed:
                self._release_export_slot(export.epoch.epoch_id)
                raise RuntimeError("worker pool is closed")
            task_id = self._next_task
            self._next_task += 1
            ticket = PoolTicket(task_id, export.epoch.epoch_id)
            self._tickets[task_id] = ticket
            worker_id = self._next_worker
            self._next_worker = (self._next_worker + 1) % self.workers
            self._task_queues[worker_id].put(
                (
                    "exec",
                    task_id,
                    export.epoch.epoch_id,
                    plan,
                    list(query.sources),
                )
            )
            return ticket

    def execute(
        self, query, timeout: float = 60.0
    ) -> Tuple[BatchResult, ExecutionStats, int]:
        """Blocking convenience wrapper: submit one batch and gather it."""
        return self.submit(query).outcome(timeout=timeout)

    # ------------------------------------------------------------------
    # The collector thread
    # ------------------------------------------------------------------
    def _settle_task(self, task_id: int) -> Optional[PoolTicket]:
        """Pop a ticket and release its inflight slot.  Holds the lock."""
        ticket = self._tickets.pop(task_id, None)
        if ticket is None:
            return None
        export = self._exports.get(ticket.epoch_id)
        if export is not None:
            export.inflight -= 1
            # The last drained task of a superseded export retires it.
            self._maybe_retire(ticket.epoch_id)
        return ticket

    def _collect(self) -> None:
        while True:
            try:
                message = self._results.get(timeout=0.2)
            except queue.Empty:
                if self._check_liveness():
                    return
                continue
            kind = message[0]
            if kind == "done":
                _, task_id, _worker_id, result, stats, lifetime = message
                with self._lock:
                    ticket = self._settle_task(task_id)
                    if ticket is not None:
                        # Only work whose caller can observe the answer
                        # is merged — a straggler reply for a ticket the
                        # liveness check already failed must not skew
                        # the parent's accounting.
                        self.pim.absorb_lifetime(lifetime)
                if ticket is not None:
                    ticket._resolve(result, stats)
            elif kind == "error":
                _, task_id, worker_id, trace = message
                with self._lock:
                    ticket = self._settle_task(task_id)
                if ticket is not None:
                    ticket._fail(
                        WorkerPoolError(
                            f"worker {worker_id} failed:\n{trace}"
                        )
                    )
            elif kind == "retired":
                _, _worker_id, epoch_id = message
                with self._lock:
                    export = self._exports.get(epoch_id)
                    if export is not None and export.retiring:
                        export.acks += 1
                        if export.acks >= self.workers:
                            self._finish_retire(epoch_id)
            elif kind == "stopped":
                self._stopped_acks += 1
                if self._stopped_acks >= self.workers:
                    return

    def _check_liveness(self) -> bool:
        """Fail outstanding work if workers died; return True to exit."""
        if self._closed:
            return all(not process.is_alive() for process in self._processes)
        dead = [
            process
            for process in self._processes
            if not process.is_alive() and process.exitcode not in (0, None)
        ]
        if dead:
            error = WorkerPoolError(
                "worker process(es) died: "
                + ", ".join(
                    f"{process.name} (exit {process.exitcode})"
                    for process in dead
                )
            )
            with self._lock:
                self._broken = error
                tickets = list(self._tickets.values())
                self._tickets.clear()
                # Failed tickets still occupied in-flight slots; release
                # them or their (superseded) exports can never retire.
                for ticket in tickets:
                    self._release_export_slot(ticket.epoch_id)
            for ticket in tickets:
                ticket._fail(error)
        return False

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self, timeout: float = 10.0) -> None:
        """Stop the workers, unlink every segment, release every pin.

        Idempotent and safe to call from any thread.  Workers that fail
        to exit in ``timeout`` are terminated; segments are unlinked
        either way (the kernel keeps the mapping alive for any straggler
        until it really exits).
        """
        with self._lock:
            if self._closed:
                already_closed = True
            else:
                already_closed = False
                self._closed = True
                for task_queue in self._task_queues:
                    task_queue.put(("stop",))
        if already_closed:
            self._collector.join(timeout)
            return
        self._collector.join(timeout)
        for process in self._processes:
            process.join(timeout=max(0.1, timeout / self.workers))
        for process in self._processes:
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(timeout=1.0)
        with self._lock:
            tickets = list(self._tickets.values())
            self._tickets.clear()
            for epoch_id in list(self._exports):
                self._finish_retire(epoch_id)
        for ticket in tickets:
            ticket._fail(RuntimeError("worker pool closed"))
        self._guard.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkerPool(workers={self.workers}, engine={self._engine_name!r}, "
            f"exports={len(self._exports)})"
        )

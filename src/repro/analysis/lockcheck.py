"""Runtime lock-order checking: instrumented locks + a global order graph.

The static rules catch lock-discipline bugs whose *shape* is visible in
the AST; this module catches the dynamic ones — inconsistent lock
acquisition orders (potential ABBA deadlocks) and blocking operations
performed while holding a lock — by actually watching the locks at
runtime.

How it works
------------

:func:`install` monkeypatches ``threading.Lock``/``threading.RLock``
with factories returning :class:`InstrumentedLock` wrappers.  Every
wrapper records, per thread, the stack of locks currently held; when a
thread *attempts* a blocking acquire of lock ``B`` while holding lock
``A``, the checker adds the edge ``A -> B`` (with the acquisition
stack) to a global **lock-order graph**.  A cycle in that graph means
two code paths take the same locks in opposite orders — the classic
ABBA deadlock, detected from *observed orderings* without any run
having to actually deadlock.  Recording at attempt time (not success)
also catches the fully contended interleaving where neither nested
acquire ever succeeds because each thread holds what the other wants.

The checker additionally wraps ``threading.Thread.join`` and blocking
``queue.Queue.get``/``put``: performing either while holding an
instrumented lock is recorded as a **hazard** (the dynamic twin of
static rule REP001 — ``close()`` joining its worker under
``_close_lock`` was exactly this).

Locks created *before* :func:`install` stay uninstrumented, so the
checker naturally scopes to objects built inside the checked region.
Wrappers implement the full ``Condition`` integration protocol
(``_release_save``/``_acquire_restore``/``_is_owned``), so
``threading.Condition``, ``threading.Event`` and ``queue.Queue`` built
on instrumented locks behave exactly as before.

Usage
-----

.. code-block:: python

    from repro.analysis.lockcheck import lock_order_checker

    with lock_order_checker() as checker:
        run_concurrent_workload()
    assert checker.cycles() == []
    assert checker.hazards == []

The test suite runs the serving, parallel, net and durability suites
under this via the ``REPRO_LOCKCHECK=1`` fixture in
``tests/conftest.py``; the CI ``analysis`` job sets the variable.
"""

from __future__ import annotations

import _thread
import contextlib
import queue as queue_module
import threading
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

#: Frames of context captured per edge/hazard (enough to attribute,
#: cheap enough to take on every nested acquisition).
_STACK_DEPTH = 12


def _capture_stack() -> str:
    frames = traceback.extract_stack(limit=_STACK_DEPTH + 4)[:-3]
    return "".join(traceback.format_list(frames))


def _creation_site() -> str:
    """File:line of the lock's creation (skipping this module's frames)."""
    for frame in reversed(traceback.extract_stack()):
        filename = frame.filename
        if "lockcheck" in filename or filename.startswith("<"):
            continue
        if filename.endswith(("threading.py", "queue.py")):
            continue
        return f"{filename}:{frame.lineno}"
    return "<unknown>"


@dataclass
class Hazard:
    """One blocking operation performed while holding a lock."""

    kind: str
    held: Tuple[str, ...]
    stack: str

    def render(self) -> str:
        held = ", ".join(self.held)
        return f"{self.kind} while holding [{held}]\n{self.stack}"


@dataclass
class _Edge:
    """One observed ordering: ``src`` held while ``dst`` acquired."""

    src_site: str
    dst_site: str
    stack: str
    count: int = 1


class LockOrderChecker:
    """The global acquisition graph + hazard log of one checked region."""

    def __init__(self) -> None:
        # Raw (never-instrumented) mutex: the checker must not observe
        # itself, and must be usable from inside lock wrappers.
        self._mutex = _thread.allocate_lock()
        self._held = threading.local()
        #: (id(src), id(dst)) -> edge metadata.  Nodes enter the graph
        #: lazily, only when they participate in a nested acquisition —
        #: uncontended single-lock code adds nothing.
        self._edges: Dict[Tuple[int, int], _Edge] = {}
        self._sites: Dict[int, str] = {}
        self.hazards: List[Hazard] = []
        self.locks_created = 0
        self.acquisitions = 0

    # ------------------------------------------------------------------
    # Wrapper callbacks
    # ------------------------------------------------------------------
    def _held_stack(self) -> List["InstrumentedLock"]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    def _record_edges(self, lock: "InstrumentedLock") -> None:
        held = self._held_stack()
        if not held:
            return
        stack = _capture_stack()
        with self._mutex:
            for holder in held:
                key = (id(holder), id(lock))
                if key[0] == key[1]:
                    continue
                edge = self._edges.get(key)
                if edge is None:
                    self._sites[id(holder)] = holder.site
                    self._sites[id(lock)] = lock.site
                    self._edges[key] = _Edge(
                        holder.site, lock.site, stack
                    )
                else:
                    edge.count += 1

    def note_attempt(self, lock: "InstrumentedLock") -> None:
        """Record ordering edges for a *blocking* acquisition attempt.

        Edges are recorded before the inner acquire, not after it
        succeeds: in a genuinely contended ABBA interleaving neither
        thread's nested acquire ever succeeds (each holds what the
        other wants), so success-only recording would miss exactly the
        runs that demonstrate the deadlock.  The attempt is what
        establishes the ordering.
        """
        self._record_edges(lock)

    def note_acquired(
        self, lock: "InstrumentedLock", edges_recorded: bool = False
    ) -> None:
        if not edges_recorded:
            # Successful non-blocking trylock: the ordering was real
            # even though a failed trylock would have been harmless.
            self._record_edges(lock)
        with self._mutex:
            self.acquisitions += 1
        self._held_stack().append(lock)

    def note_released(self, lock: "InstrumentedLock") -> None:
        held = self._held_stack()
        # Released in LIFO order almost always; tolerate out-of-order.
        for index in range(len(held) - 1, -1, -1):
            if held[index] is lock:
                del held[index]
                return

    def note_blocking(self, kind: str) -> None:
        """Record a blocking operation if any instrumented lock is held."""
        held = self._held_stack()
        if not held:
            return
        hazard = Hazard(
            kind=kind,
            held=tuple(lock.site for lock in held),
            stack=_capture_stack(),
        )
        with self._mutex:
            self.hazards.append(hazard)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def cycles(self) -> List[List[str]]:
        """Every elementary cycle of the observed lock-order graph.

        A returned cycle is a list of creation-site names
        ``[A, B, ..., A]`` meaning the program acquired those locks in
        an order that can deadlock if the involved threads interleave.
        Detection is a plain iterative DFS over lock *instances* (two
        locks from the same source line are still distinct nodes), so a
        nested acquisition of two gates created at one site is not a
        false self-cycle.
        """
        with self._mutex:
            adjacency: Dict[int, List[int]] = {}
            for (src, dst) in self._edges:
                adjacency.setdefault(src, []).append(dst)
            sites = dict(self._sites)
        cycles: List[List[str]] = []
        seen_cycles: Set[Tuple[int, ...]] = set()
        visited: Set[int] = set()
        for start in adjacency:
            if start in visited:
                continue
            stack: List[Tuple[int, int]] = [(start, 0)]
            path: List[int] = []
            on_path: Set[int] = set()
            while stack:
                node, edge_index = stack[-1]
                if edge_index == 0:
                    path.append(node)
                    on_path.add(node)
                neighbors = adjacency.get(node, [])
                if edge_index < len(neighbors):
                    stack[-1] = (node, edge_index + 1)
                    neighbor = neighbors[edge_index]
                    if neighbor in on_path:
                        cycle_ids = path[path.index(neighbor):] + [neighbor]
                        canonical = self._canonical(cycle_ids[:-1])
                        if canonical not in seen_cycles:
                            seen_cycles.add(canonical)
                            cycles.append(
                                [sites.get(n, "?") for n in cycle_ids]
                            )
                    elif neighbor not in visited:
                        stack.append((neighbor, 0))
                else:
                    stack.pop()
                    path.pop()
                    on_path.discard(node)
                    visited.add(node)
        return cycles

    @staticmethod
    def _canonical(cycle_ids: List[int]) -> Tuple[int, ...]:
        """Rotation-invariant identity of a cycle."""
        pivot = cycle_ids.index(min(cycle_ids))
        return tuple(cycle_ids[pivot:] + cycle_ids[:pivot])

    def edge_count(self) -> int:
        with self._mutex:
            return len(self._edges)

    def report(self) -> str:
        """Human-readable summary: cycles first, then hazards."""
        lines = [
            f"lock-order checker: {self.locks_created} locks created, "
            f"{self.acquisitions} acquisitions, {self.edge_count()} "
            f"order edges"
        ]
        cycles = self.cycles()
        if cycles:
            lines.append(f"POTENTIAL DEADLOCKS: {len(cycles)} cycle(s)")
            for cycle in cycles:
                lines.append("  cycle: " + " -> ".join(cycle))
                with self._mutex:
                    for (src, dst), edge in self._edges.items():
                        if (
                            edge.src_site in cycle
                            and edge.dst_site in cycle
                        ):
                            lines.append(
                                f"    {edge.src_site} -> {edge.dst_site} "
                                f"(seen {edge.count}x), first at:"
                            )
                            lines.extend(
                                "      " + frame
                                for frame in edge.stack.splitlines()
                            )
        else:
            lines.append("no lock-order cycles observed")
        if self.hazards:
            lines.append(f"HAZARDS: {len(self.hazards)}")
            for hazard in self.hazards:
                lines.append("  " + hazard.kind + " while holding "
                             + ", ".join(hazard.held))
        else:
            lines.append("no lock-held-across-blocking hazards")
        return "\n".join(lines)


class InstrumentedLock:
    """A ``threading.Lock``/``RLock`` stand-in that reports to a checker.

    Implements the full lock protocol *plus* the private hooks
    ``threading.Condition`` probes for (``_release_save``,
    ``_acquire_restore``, ``_is_owned``), so conditions, events and
    queues built on an instrumented lock keep exact stdlib semantics.
    """

    def __init__(
        self, checker: LockOrderChecker, inner, site: str, reentrant: bool
    ) -> None:
        self._checker = checker
        self._inner = inner
        self.site = site
        self._reentrant = reentrant
        self._owner: Optional[int] = None
        self._count = 0

    # -- core lock protocol -------------------------------------------
    def acquire(self, blocking: bool = True, timeout: float = -1):
        me = _thread.get_ident()
        if self._reentrant and self._owner == me:
            acquired = self._inner.acquire(blocking, timeout)
            if acquired:
                self._count += 1
            return acquired
        attempted = False
        if blocking:
            self._checker.note_attempt(self)
            attempted = True
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._owner = me
            self._count = 1
            self._checker.note_acquired(self, edges_recorded=attempted)
        return acquired

    def release(self) -> None:
        me = _thread.get_ident()
        if self._reentrant and self._owner == me and self._count > 1:
            self._count -= 1
            self._inner.release()
            return
        # Bookkeeping before the physical release: once the inner lock
        # is free another thread may acquire and re-own this wrapper.
        self._owner = None
        self._count = 0
        self._checker.note_released(self)
        self._inner.release()

    def locked(self) -> bool:
        inner_locked = getattr(self._inner, "locked", None)
        if inner_locked is not None:
            return inner_locked()
        # _thread.RLock grew .locked() only in 3.12; fall back to our
        # ownership bookkeeping on older interpreters.
        return self._owner is not None

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "RLock" if self._reentrant else "Lock"
        return f"<Instrumented{kind} {self.site}>"

    # -- threading.Condition integration ------------------------------
    def _is_owned(self) -> bool:
        return self._owner == _thread.get_ident()

    def _release_save(self):
        """Fully release (however deep the RLock count) for a cond wait."""
        count = self._count
        self._owner = None
        self._count = 0
        self._checker.note_released(self)
        if self._reentrant:
            return (count, self._inner._release_save())
        self._inner.release()
        return count

    def _acquire_restore(self, state) -> None:
        self._checker.note_attempt(self)
        if self._reentrant:
            count, inner_state = state
            self._inner._acquire_restore(inner_state)
        else:
            count = state
            self._inner.acquire()
        self._owner = _thread.get_ident()
        self._count = count
        self._checker.note_acquired(self, edges_recorded=True)


# ----------------------------------------------------------------------
# Installation (monkeypatching)
# ----------------------------------------------------------------------
_active: Optional[LockOrderChecker] = None
_saved: Dict[str, object] = {}
_install_mutex = _thread.allocate_lock()


def active_checker() -> Optional[LockOrderChecker]:
    """The currently installed checker (``None`` when not installed)."""
    return _active


def install(checker: Optional[LockOrderChecker] = None) -> LockOrderChecker:
    """Patch ``threading``/``queue`` so new locks are instrumented.

    Returns the active checker.  Nested installs are rejected — the
    graph is global state and two checked regions must not interleave.
    """
    global _active
    with _install_mutex:
        if _active is not None:
            raise RuntimeError("lock-order checker already installed")
        checker = checker or LockOrderChecker()
        _saved["Lock"] = threading.Lock
        _saved["RLock"] = threading.RLock
        _saved["Thread.join"] = threading.Thread.join
        _saved["Queue.get"] = queue_module.Queue.get
        _saved["Queue.put"] = queue_module.Queue.put

        def _make_lock():
            checker.locks_created += 1
            return InstrumentedLock(
                checker, _saved["Lock"](), _creation_site(), reentrant=False
            )

        def _make_rlock():
            checker.locks_created += 1
            return InstrumentedLock(
                checker, _saved["RLock"](), _creation_site(), reentrant=True
            )

        original_join = _saved["Thread.join"]
        original_get = _saved["Queue.get"]
        original_put = _saved["Queue.put"]

        def _join(self, timeout=None):
            checker.note_blocking(f"Thread.join({self.name})")
            return original_join(self, timeout)

        def _get(self, block=True, timeout=None):
            if block and timeout != 0:
                checker.note_blocking("Queue.get(block=True)")
            return original_get(self, block, timeout)

        def _put(self, item, block=True, timeout=None):
            # Only a *bounded* queue can block on put.
            if block and self.maxsize > 0:
                checker.note_blocking("Queue.put(block=True)")
            return original_put(self, item, block, timeout)

        threading.Lock = _make_lock
        threading.RLock = _make_rlock
        threading.Thread.join = _join
        queue_module.Queue.get = _get
        queue_module.Queue.put = _put
        _active = checker
        return checker


def uninstall() -> None:
    """Restore the stdlib factories (idempotent)."""
    global _active
    with _install_mutex:
        if _active is None:
            return
        threading.Lock = _saved.pop("Lock")
        threading.RLock = _saved.pop("RLock")
        threading.Thread.join = _saved.pop("Thread.join")
        queue_module.Queue.get = _saved.pop("Queue.get")
        queue_module.Queue.put = _saved.pop("Queue.put")
        _active = None


@contextlib.contextmanager
def lock_order_checker():
    """Context manager: install, yield the checker, always uninstall."""
    checker = install()
    try:
        yield checker
    finally:
        uninstall()

"""Shared-memory export/attach of pinned serving epochs.

A published :class:`~repro.serve.epoch.Epoch` is already the perfect
unit of multi-process fan-out: every array in it is frozen
(``writeable=False``) and every consumer is a pure reader.  This module
moves those arrays into one :mod:`multiprocessing.shared_memory`
segment per epoch so worker *processes* can execute epoch-pinned plans
against them **zero-copy** — the child maps the segment and wraps numpy
views over it; no serialization of the graph ever crosses a process
boundary.

The wire format is the epoch's own layout: a segment is a flat ``int64``
heap holding the epoch's :class:`~repro.core.snapshot.CSRHeap` in its
flat layout (:meth:`~repro.core.snapshot.CSRHeap.arrays`), then the
owner vector's ``int16`` array (padded to whole elements) and its side
table, and the :class:`EpochManifest` — a small picklable description
shipped over the pool's task queue — records each array as an
``(offset, length)`` pair: the offset in segment elements, the length
in the array's own.  :func:`attach_epoch` builds the ``CSRHeap`` (as a
load does), the :class:`~repro.partition.base.OwnerVector` and the
``Epoch`` (as a publish does) over read-only views of the mapped
segment.

Crash-safe cleanup
------------------
POSIX shared memory outlives its creator, so a killed parent would leak
``/dev/shm`` segments forever.  Every exporting process keeps a **guard
file** in the temp directory listing the segments it currently owns
(rewritten atomically on every create/unlink); :func:`reap_stale_segments`
scans the guard files of *dead* processes and unlinks whatever they left
behind.  The pool calls the reaper on startup, so one surviving process
eventually collects any crashed sibling's segments.
"""

from __future__ import annotations

import atexit
import json
import os
import secrets
import tempfile
import threading
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.core.snapshot import CSRHeap
from repro.partition.base import OWNER_DTYPE, OwnerVector
from repro.serve.epoch import Epoch

#: Every exported array shares this dtype (offsets are in elements).
SEGMENT_DTYPE = np.dtype("<i8")

_GUARD_PREFIX = "moctopus-shm-"
_GUARD_SUFFIX = ".guard"


@dataclass(frozen=True)
class EpochManifest:
    """Picklable description of one exported epoch.

    Everything a worker needs to rebuild the epoch locally: the segment
    name and where each array lives in it — the heap's by field name, the
    owner vector's as ``dense``, ``side_nodes`` and ``side_parts`` — as
    ``(offset, length)`` pairs: the offset in ``SEGMENT_DTYPE`` elements,
    the length in the array's own.
    """

    segment: str
    epoch_id: int
    num_nodes: int
    heap: Dict[str, Tuple[int, int]]
    owners: Dict[str, Tuple[int, int]]
    total_elements: int


# ----------------------------------------------------------------------
# Export (parent side)
# ----------------------------------------------------------------------
def export_epoch(
    epoch: Epoch, segment_name: str = None
) -> Tuple[shared_memory.SharedMemory, EpochManifest]:
    """Copy ``epoch``'s frozen arrays into one fresh shared segment.

    Returns the created (still attached) segment and the manifest to
    ship to workers.  The caller owns the segment's lifetime: it must
    hold the epoch's pin for as long as the manifest circulates and
    ``unlink()`` the segment when the last worker has detached (the
    :class:`~repro.parallel.pool.WorkerPool` ties both to the epoch
    pin/unpin protocol).
    """
    chunks: List[np.ndarray] = []
    offset = 0

    def place(array: np.ndarray) -> Tuple[int, int]:
        nonlocal offset
        span = (offset, len(array))
        if array.dtype == OWNER_DTYPE:  # the owner vector, in whole elements
            padded = np.zeros(-(-array.nbytes // SEGMENT_DTYPE.itemsize), SEGMENT_DTYPE)
            padded.view(OWNER_DTYPE)[: len(array)] = array
            array = padded
        array = np.ascontiguousarray(array, dtype=SEGMENT_DTYPE)
        chunks.append(array)
        offset += len(array)
        return span

    heap = {name: place(array) for name, array in epoch.heap.arrays().items()}
    owners = {
        name: place(getattr(epoch.owners, name))
        for name in ("dense", "side_nodes", "side_parts")
    }

    if segment_name is None:
        segment_name = (
            f"moctopus-{os.getpid()}-{secrets.token_hex(4)}-e{epoch.epoch_id}"
        )
    segment = shared_memory.SharedMemory(
        create=True,
        name=segment_name,
        # At least one element so even a degenerate (empty) epoch maps
        # to a buffer ``frombuffer`` accepts.
        size=max(1, offset) * SEGMENT_DTYPE.itemsize,
    )
    mapped = np.frombuffer(segment.buf, dtype=SEGMENT_DTYPE)
    cursor = 0
    for chunk in chunks:
        mapped[cursor : cursor + len(chunk)] = chunk
        cursor += len(chunk)
    del mapped  # drop the buffer view so close()/unlink() can't be blocked

    manifest = EpochManifest(
        segment=segment.name,
        epoch_id=epoch.epoch_id,
        num_nodes=epoch.num_nodes,
        heap=heap,
        owners=owners,
        total_elements=offset,
    )
    return segment, manifest


# ----------------------------------------------------------------------
# Attach (worker side)
# ----------------------------------------------------------------------
def attach_epoch(
    manifest: EpochManifest,
) -> Tuple[Epoch, shared_memory.SharedMemory]:
    """Rebuild a pinned :class:`Epoch` zero-copy over a mapped segment.

    Every array of the returned epoch is a read-only numpy view into
    the shared mapping; the caller must keep the returned segment
    object alive as long as the epoch is in use and ``close()`` it
    (after dropping the epoch) when told to detach.

    Resource-tracker bookkeeping: every process of a multiprocessing
    family multiplexes one tracker pipe, and the tracker's cache is a
    per-type *set* — so the exporter's create registers the name once,
    worker attaches are idempotent re-registers that land (by causal
    message order: attach happens-before the detach ack happens-before
    the unlink) *between* the create and the exporter's unlink, and the
    unlink's unregister balances the books.  Nothing here may
    unregister manually: any extra unregister races the exporter's and
    spams the tracker with KeyErrors.
    """
    segment = shared_memory.SharedMemory(name=manifest.segment)
    mapped = np.frombuffer(segment.buf, dtype=SEGMENT_DTYPE)
    mapped.flags.writeable = False  # read-only views, like any published epoch

    def view(span: Tuple[int, int], dtype: np.dtype = SEGMENT_DTYPE) -> np.ndarray:
        offset, length = span
        return mapped[offset:].view(dtype)[:length]

    owners = manifest.owners
    epoch = Epoch(
        epoch_id=manifest.epoch_id,
        heap=CSRHeap.from_arrays(**{name: view(span) for name, span in manifest.heap.items()}),
        owners=OwnerVector(
            view(owners["dense"], OWNER_DTYPE),
            view(owners["side_nodes"]),
            view(owners["side_parts"]),
        ),
        num_nodes=manifest.num_nodes,
    )
    return epoch, segment


# ----------------------------------------------------------------------
# Crash-safe cleanup (guard files)
# ----------------------------------------------------------------------
def _guard_directory() -> str:
    return tempfile.gettempdir()


def _proc_start_token(pid: int) -> str:
    """A token identifying this *incarnation* of ``pid`` (or ``""``).

    A bare pid is not enough to decide whether a guard file's owner is
    dead: the kernel recycles pids, and a recycled pid would make a
    crashed owner look alive forever, permanently leaking its segments.
    On Linux the process start time (field 22 of ``/proc/<pid>/stat``)
    disambiguates; elsewhere the empty token degrades to the plain
    pid-liveness check.
    """
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            data = handle.read()
        # The comm field may contain spaces/parens; everything after the
        # *last* ") " is space-separated, starting at field 3 (state).
        tail = data.rsplit(b") ", 1)[1].split()
        return tail[19].decode("ascii")  # field 22 overall = starttime
    except (OSError, IndexError):  # pragma: no cover - non-Linux
        return ""


@dataclass
class SegmentGuard:
    """Atomic on-disk ledger of the segments this process currently owns.

    The ledger exists purely for *crash* cleanup: a clean close unlinks
    the segments and removes the ledger, while a killed process leaves
    both behind for :func:`reap_stale_segments` to collect.  An
    ``atexit`` hook covers the middle ground (interpreter exit without
    an explicit close).
    """

    path: str = ""
    _segments: Set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        if not self.path:
            self.path = os.path.join(
                _guard_directory(),
                f"{_GUARD_PREFIX}{os.getpid()}-{secrets.token_hex(4)}"
                f"{_GUARD_SUFFIX}",
            )
        # Exporters add() from builder threads while the pool's collector
        # discard()s retired segments: the set mutation and the ledger
        # rewrite must be atomic with respect to each other, or a torn
        # ledger could hide a live segment from the crash reaper.
        self._lock = threading.Lock()
        self._write()
        atexit.register(self._atexit)

    def _write(self) -> None:
        """Serialize the ledger (caller holds ``self._lock``)."""
        payload = json.dumps(
            {
                "pid": os.getpid(),
                "start": _proc_start_token(os.getpid()),
                "segments": sorted(self._segments),
            }
        )
        tmp_path = self.path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(payload)
        os.replace(tmp_path, self.path)

    def add(self, segment_name: str) -> None:
        """Record a freshly created segment."""
        with self._lock:
            self._segments.add(segment_name)
            self._write()

    def discard(self, segment_name: str) -> None:
        """Forget an unlinked segment."""
        with self._lock:
            self._segments.discard(segment_name)
            self._write()

    def close(self) -> None:
        """Remove the ledger (every owned segment has been unlinked)."""
        atexit.unregister(self._atexit)
        with self._lock:
            try:
                os.remove(self.path)
            except FileNotFoundError:
                pass

    def _atexit(self) -> None:  # pragma: no cover - interpreter teardown
        for name in list(self._segments):
            _unlink_segment(name)
        self.close()


def _unlink_segment(name: str) -> bool:
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    except OSError:  # pragma: no cover - e.g. EACCES on a foreign segment
        # A multi-user temp directory can surface another user's dead
        # guard; their 0600 segments are not ours to reap, and failing
        # to reap must never break *this* process's pool startup.
        return False
    segment.close()
    try:
        segment.unlink()
    except OSError:  # pragma: no cover - unlink race
        return False
    return True


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - foreign live process
        return True
    return True


def reap_stale_segments() -> List[str]:
    """Unlink segments whose owning process died without cleaning up.

    Scans every guard file in the temp directory; ledgers of live
    processes are left alone, ledgers of dead ones have their listed
    segments unlinked and the ledger removed.  Returns the names of the
    segments actually reaped.  Safe to call concurrently — unlink races
    resolve to one winner and the losers see ``FileNotFoundError``.
    """
    reaped: List[str] = []
    directory = _guard_directory()
    for name in os.listdir(directory):
        if not (name.startswith(_GUARD_PREFIX) and name.endswith(_GUARD_SUFFIX)):
            continue
        path = os.path.join(directory, name)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                ledger = json.load(handle)
            pid = int(ledger["pid"])
            started = str(ledger.get("start", ""))
            segments = list(ledger.get("segments", []))
        except (OSError, ValueError, KeyError):
            continue  # torn write of a live guard; its owner will rewrite
        if _pid_alive(pid):
            # Same pid, but the same *process*?  A recycled pid must not
            # shield a dead owner's segments forever.
            if not started or _proc_start_token(pid) == started:
                continue
        for segment_name in segments:
            if _unlink_segment(segment_name):
                reaped.append(segment_name)
        try:
            os.remove(path)
        except OSError:  # pragma: no cover - concurrent reaper / foreign
            pass  # owner in a sticky temp dir; retried by later reapers
    return reaped

"""Durability: write-ahead logging, checkpoints and crash recovery.

Layout of a durability directory (``MoctopusConfig.durability_dir``)::

    <dir>/
      config.json    the writer's config and placement record
      lock           empty; the open system holds an exclusive flock on it
      wal/           wal-00000000.seg, wal-00000001.seg, ...
      checkpoints/   ckpt-<lsn>/{state.npz, manifest.json}

:class:`DurabilityController` is the thin glue a live
:class:`~repro.core.system.Moctopus` drives: it owns the
:class:`~repro.durability.wal.WriteAheadLog`, counts applied batches,
and runs the background :class:`~repro.durability.checkpoint.
CheckpointDaemon` when ``checkpoint_interval_batches`` is set.  The
recovery entry point is :func:`repro.durability.recovery.recover`
(surfaced as ``Moctopus.recover``).
"""

from __future__ import annotations

import fcntl
import json
import os
import threading
from typing import TYPE_CHECKING, BinaryIO, Dict, Optional, Sequence, Tuple

from repro.durability import wal as wal_log
from repro.durability.checkpoint import (
    CheckpointDaemon,
    CheckpointError,
    capture_checkpoint,
    checkpoint_dir_path,
    config_to_dict,
    latest_checkpoint,
    persist_checkpoint,
    retained_checkpoint_lsns,
)
from repro.durability.wal import (
    CorruptWalError,
    WalGapError,
    WriteAheadLog,
    prune_segments,
    scan_wal,
)
from repro.graph.stream import UpdateOp

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    import numpy as np

    from repro.core.config import MoctopusConfig
    from repro.core.system import Moctopus

__all__ = [
    "CONFIG_MANIFEST",
    "LOCK_FILE",
    "CheckpointError",
    "CorruptWalError",
    "DurabilityController",
    "WalGapError",
    "WriteAheadLog",
    "config_to_dict",
    "latest_checkpoint",
    "lock_directory",
    "prune_segments",
    "read_config_manifest",
    "retained_checkpoint_lsns",
    "scan_wal",
    "wal_directory",
    "write_config_manifest",
]


def wal_directory(durability_dir: str) -> str:
    """WAL segment directory under a durability root."""
    return os.path.join(durability_dir, "wal")


#: Name of the config echo written when a durability directory is first
#: initialized, so ``Moctopus.recover`` can rebuild with the writer's
#: configuration, and check its placement, even when the crash predates
#: the first checkpoint.
CONFIG_MANIFEST = "config.json"

#: Name of a durability directory's lock file: empty, and held under an
#: exclusive ``flock`` by the one system open on the directory.
LOCK_FILE = "lock"


def lock_directory(durability_dir: str) -> BinaryIO:
    """Take ``durability_dir``'s lock; closing the returned handle
    releases it.

    A second system on the same directory — fresh or recovered, in this
    process or another — would append behind the first one's back, and
    one of the two would lose acknowledged writes, so it is refused with
    a :class:`RuntimeError` naming the directory.  ``flock``, not
    ``lockf``: ``flock`` locks on two handles conflict within one
    process too, and the kernel drops the lock when its holder dies, so
    a crashed writer never strands its directory.
    """
    handle = open(os.path.join(durability_dir, LOCK_FILE), "ab")
    try:
        fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        handle.close()
        raise RuntimeError(
            f"durability directory {durability_dir!r} is open in another "
            "system; close() that one first"
        ) from None
    return handle


def write_config_manifest(
    durability_dir: str, config: "MoctopusConfig", placement: Dict
) -> None:
    """Persist the writer's config echo and placement record
    (write-if-absent, atomic)."""
    path = os.path.join(durability_dir, CONFIG_MANIFEST)
    if os.path.exists(path):
        return
    payload = json.dumps(
        {"format": 1, "config": config_to_dict(config), "placement": placement},
        sort_keys=True,
    ).encode("utf-8")
    tmp_path = path + ".tmp"
    with open(tmp_path, "wb", buffering=0) as handle:
        wal_log.wal_write(handle, payload)
    os.replace(tmp_path, path)


def read_config_manifest(durability_dir: str) -> Optional[Dict]:
    """The ``config.json`` of ``durability_dir``: its ``config`` echo
    and, unless an older writer wrote it, its ``placement`` record
    (``None`` when unreadable)."""
    path = os.path.join(durability_dir, CONFIG_MANIFEST)
    try:
        with open(path, "rb") as handle:
            data = json.loads(handle.read().decode("utf-8"))
    except (OSError, ValueError):
        return None
    if data.get("format") != 1 or "config" not in data:
        return None
    return data


class DurabilityController:
    """Per-system durability state: the WAL, counters, and the daemon."""

    def __init__(
        self,
        system: "Moctopus",
        config: "MoctopusConfig",
        resume_lsn: Optional[int] = None,
        lock: Optional[BinaryIO] = None,
    ) -> None:
        self._system = system
        self._config = config
        root = config.durability_dir
        os.makedirs(self.checkpoint_directory(root), exist_ok=True)
        #: The directory's lock (:func:`lock_directory`; recovery takes it
        #: before it reads the log and hands it over), held until close().
        self.lock = lock if lock is not None else lock_directory(root)
        try:
            # Recovery already scanned the log, truncated the torn tail and
            # applied everything through resume_lsn; passing it through
            # lets the appender skip a second full CRC scan of the history.
            self.wal = WriteAheadLog(
                wal_directory(root),
                segment_bytes=config.wal_segment_bytes,
                fsync=config.wal_fsync,
                resume_lsn=resume_lsn,
            )
        except BaseException:
            self.lock.close()
            raise
        try:
            if resume_lsn is None and self.wal.last_lsn != 0:
                # A fresh system attaching over existing history would
                # append a second bootstrap and make the log unreplayable.
                # This is almost always a restart that should have
                # recovered instead.
                raise CorruptWalError(
                    f"durability directory {root!r} already holds a log "
                    f"(lsn {self.wal.last_lsn}); open it with "
                    "Moctopus.recover() instead of constructing a new system"
                )
            write_config_manifest(root, config, system._partitioner.record())
        except BaseException:
            self.wal.close()
            self.lock.close()
            raise
        #: Batches applied since the last checkpoint (daemon trigger).
        self.batches_since_checkpoint = 0
        #: Serializes whole checkpoint passes (a manual ``checkpoint()``
        #: racing the daemon) without involving the writer lock.
        self._checkpoint_mutex = threading.Lock()
        #: Last exception the background checkpointer swallowed (``None``
        #: when healthy); the daemon retries on the next interval and the
        #: flag clears on the next successful checkpoint.
        self.last_checkpoint_error: Optional[Exception] = None
        #: Set (to the causing exception) when post-apply journaling
        #: failed: the in-memory state has then moved past the durable
        #: history, so further logging would record batches against a
        #: baseline recovery can no longer reconstruct.  All log hooks
        #: refuse until the process restarts through ``recover()``.
        self.failed: Optional[BaseException] = None
        self._daemon: Optional[CheckpointDaemon] = None
        if config.checkpoint_interval_batches > 0:
            self._daemon = CheckpointDaemon(self)
            self._daemon.start()

    @staticmethod
    def checkpoint_directory(durability_dir: str) -> str:
        """Checkpoint directory under a durability root."""
        return os.path.join(durability_dir, "checkpoints")

    # ------------------------------------------------------------------
    # Logging hooks (called by the system, under its writer lock)
    # ------------------------------------------------------------------
    def _check_healthy(self) -> None:
        if self.failed is not None:
            raise CorruptWalError(
                "durability failed earlier (in-memory state moved past the "
                "durable history); restart via Moctopus.recover()"
            ) from self.failed

    def log_bootstrap(self, table: "np.ndarray", nodes: Sequence[int]) -> int:
        """Write-ahead the initial bulk load (its edge table and nodes)."""
        self._check_healthy()
        return self.wal.append_bootstrap(table, nodes)

    def log_batch(
        self, ops: Sequence[UpdateOp], labels: Optional[Sequence[int]]
    ) -> int:
        """Write-ahead one update batch (call before applying).

        A failure here is retryable: nothing has been applied yet (the
        appender repairs its own torn tail on the next attempt), so the
        caller's state and the durable history still agree.
        """
        self._check_healthy()
        return self.wal.append_batch(ops, labels)

    def log_abort(self, aborted_lsn: int, cause: BaseException) -> int:
        """Compensate a write-ahead batch whose apply raised.

        Also latches the controller as failed: the raising
        ``apply_batch`` may have partially mutated in-memory state, so
        later batches would be logged against a baseline replay cannot
        reconstruct (recovery skips the aborted batch *entirely*).  The
        durable history stays recoverable — it just ends here.
        """
        self._check_healthy()
        try:
            lsn = self.wal.append_abort(aborted_lsn)
        except BaseException as error:
            # Even the compensation failed: without the latch, the next
            # batch would bury the un-compensated record mid-log where
            # recovery's implicit-abort fallback (tail records only) can
            # no longer reach it.
            self.failed = error
            raise
        self.failed = cause
        return lsn

    def log_migrations(self, moves: Sequence[Tuple[int, int, int]]) -> int:
        """Journal one maintenance pass's applied moves (redo).

        Unlike :meth:`log_batch`, this runs *after* the moves mutated
        state.  If the append fails, the live system has advanced past
        what the log can reconstruct — so the controller latches
        ``failed`` and refuses all further logging rather than let later
        batches be recorded against an owner table recovery will never
        rebuild (silent divergence).
        """
        self._check_healthy()
        try:
            return self.wal.append_migrations(moves)
        except BaseException as error:
            self.failed = error
            raise

    def note_batch_applied(self) -> None:
        """Bump the checkpoint trigger after a batch finished applying."""
        self.batches_since_checkpoint += 1
        interval = self._config.checkpoint_interval_batches
        if (
            self._daemon is not None
            and interval > 0
            and self.batches_since_checkpoint >= interval
        ):
            self._daemon.notify()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint_now(self) -> str:
        """Write a checkpoint of the current state (synchronous).

        The writer lock is held only for the *capture* (cheap: frozen
        epoch arrays plus counter copies); the serialization, disk
        writes, fsyncs and WAL pruning all run with the lock released,
        so updates and live queries are never stalled behind checkpoint
        I/O.  After a successful checkpoint, WAL segments that every
        retained checkpoint already covers are pruned — both the
        on-disk footprint and recovery's replay stay bounded by the
        checkpoint cadence instead of growing with total history.
        """
        self._check_healthy()
        root = self._config.durability_dir
        ckpt_dir = self.checkpoint_directory(root)
        with self._checkpoint_mutex:
            with self._system._serve_lock:
                lsn = self.wal.last_lsn
                self.batches_since_checkpoint = 0
                if os.path.exists(checkpoint_dir_path(ckpt_dir, lsn)):
                    self.last_checkpoint_error = None
                    return checkpoint_dir_path(ckpt_dir, lsn)
                manifest, arrays = capture_checkpoint(self._system)
            path = persist_checkpoint(
                manifest, arrays, ckpt_dir, lsn, fsync=self._config.wal_fsync
            )
            self.last_checkpoint_error = None
            retained = retained_checkpoint_lsns(ckpt_dir)
            if retained:
                prune_segments(wal_directory(root), min(retained))
            return path

    def checkpoint_if_due(self) -> Optional[str]:
        """Daemon entry point: checkpoint when the interval elapsed."""
        interval = self._config.checkpoint_interval_batches
        if interval <= 0 or self.batches_since_checkpoint < interval:
            return None
        return self.checkpoint_now()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the daemon, close the log and release the directory."""
        if self._daemon is not None:
            self._daemon.stop()
            self._daemon = None
        self.wal.close()
        self.lock.close()

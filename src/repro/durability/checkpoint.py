"""Snapshot checkpoints: bounded-replay anchors for recovery.

A checkpoint is a full-fidelity serialization of everything a recovered
system needs to continue **bit-identically**:

* the frozen CSR arrays of every storage, captured through
  :meth:`~repro.serve.epoch.EpochManager.publish` — the checkpoint
  barrier — so the arrays are exactly a published epoch (consistent by
  construction: publishing and the writer path share one lock);
* the heterogeneous storage's positional internals (slot layout,
  capacities, free-list order) that a CSR view cannot express but the
  split update protocol's future costs depend on — the ``hx_*`` arrays,
  built by :meth:`~repro.core.hetero_storage.HeterogeneousGraphStorage.
  capture_arrays` from the rows' slot buffers laid end to end;
* the ``node_partition_vector``, read off the same epoch's frozen owner
  table (``p_assignments``), the labor-division degree counters, and the
  placement/migration counters;
* the simulated platform's lifetime counters and the epoch numbering,
  so diagnostics and epoch ids stay continuous across a crash.

On disk a checkpoint is a directory ``ckpt-<lsn>`` holding ``state.npz``
(the arrays) and ``manifest.json`` (scalars, counters, the config echo,
the placement record and the WAL position the checkpoint covers).  Both
files are written into a ``.tmp`` sibling first and the directory is
renamed into place last, so a crash mid-checkpoint leaves either the
previous checkpoint or a ``.tmp`` orphan — never a half-readable
"latest".  All writes go
through :func:`repro.durability.wal.wal_write` so the fault-injection
harness can tear a checkpoint at any byte.

Capture holds the writer lock, so it builds arrays only from arrays and
buffers (no per-edge Python objects), and every array it returns is a
private copy or a frozen epoch array — none aliases a live row.
Restore is the mirror image: module rows and host vectors are filled
with ``frombytes`` slices of the checkpoint's arrays.  The array names,
dtypes and contents are those of ``CHECKPOINT_FORMAT`` 1 since it was
introduced; ``tests/data/ckpt_pr16`` keeps a directory written before
rows became buffers recoverable.

The background checkpoint daemon (:class:`CheckpointDaemon`) watches the
batch counter and writes a checkpoint under the system's writer lock
every ``MoctopusConfig.checkpoint_interval_batches`` applied batches.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import shutil
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.snapshot import GraphSnapshot
from repro.durability import wal as wal_log
from repro.partition.base import HOST_PARTITION

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.config import MoctopusConfig
    from repro.core.system import Moctopus

#: On-disk format version (bump on incompatible layout changes).
CHECKPOINT_FORMAT = 1
#: How many finished checkpoints to keep (older ones are pruned).
CHECKPOINT_RETENTION = 2

_CKPT_PREFIX = "ckpt-"
_STATE_FILE = "state.npz"
_MANIFEST_FILE = "manifest.json"


@dataclass
class CheckpointState:
    """A loaded checkpoint, ready to be restored into a fresh system."""

    lsn: int
    manifest: Dict
    arrays: Dict[str, np.ndarray]
    path: str


class CheckpointError(RuntimeError):
    """A checkpoint directory failed validation on load."""


# ----------------------------------------------------------------------
# Capture
# ----------------------------------------------------------------------
def _snapshot_arrays(prefix: str, snapshot: GraphSnapshot, arrays: Dict) -> Dict:
    arrays[f"{prefix}_node_ids"] = snapshot.node_ids
    arrays[f"{prefix}_indptr"] = snapshot.indptr
    arrays[f"{prefix}_dsts"] = snapshot.dsts
    arrays[f"{prefix}_labels"] = snapshot.labels
    arrays[f"{prefix}_local_counts"] = snapshot.local_counts
    return {
        "bytes_per_entry": snapshot.bytes_per_entry,
        "working_set_bytes": snapshot.working_set_bytes,
        "num_edges": snapshot.num_edges,
    }


def capture_checkpoint(system: "Moctopus") -> Tuple[Dict, Dict[str, np.ndarray]]:
    """Gather a checkpoint's manifest and arrays (caller holds the lock)."""
    epoch = system._epochs.publish()
    arrays: Dict[str, np.ndarray] = {}
    storages_meta = []
    for module_id in range(epoch.num_modules):
        storages_meta.append(
            _snapshot_arrays(f"m{module_id}", epoch.snapshots[module_id], arrays)
        )
    host_meta = _snapshot_arrays(
        "host", epoch.snapshot_of(HOST_PARTITION), arrays
    )

    for name, array in system._host_storage.capture_arrays().items():
        arrays[f"hx_{name}"] = array

    # The published epoch's frozen owner table *is* the
    # ``node_partition_vector``, already as sorted arrays.
    arrays["p_assignments"] = np.column_stack(epoch.owners.table())
    partition = system._partitioner.capture_state()
    arrays["ld_out_degrees"] = partition["out_degrees"]
    pending = np.asarray(
        system._migrator.capture_pending(), dtype=np.int64
    ).reshape(-1, 3)
    arrays["mig_pending"] = pending

    manifest = {
        "format": CHECKPOINT_FORMAT,
        "config": config_to_dict(system.config),
        "placement": system._partitioner.record(),
        "num_modules": epoch.num_modules,
        "num_nodes": epoch.num_nodes,
        "num_edges": epoch.num_edges,
        "storages": storages_meta,
        "host_storage": host_meta,
        "partition_counters": {
            "greedy_placements": partition["greedy_placements"],
            "fallback_placements": partition["fallback_placements"],
            "promotions": partition["promotions"],
            "migrations_performed": system._migrator.migrations_performed,
            "promotions_performed": system._migrator.promotions_performed,
            "batches_applied": system._update_processor.batches_applied,
        },
        "pim": system.pim.capture_lifetime(),
        "published_epochs": system._epochs.published_epochs,
    }
    return manifest, arrays


def config_to_dict(config: "MoctopusConfig") -> Dict:
    """The config as JSON, with durability paths stripped.

    The durability directory is a property of where the log *lives*,
    not of the logical system state; recovery re-attaches it from the
    recover() call site so a checkpoint directory can be moved or
    copied wholesale.
    """
    data = dataclasses.asdict(config)
    data.pop("durability_dir", None)
    return data


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------
def checkpoint_dir_path(directory: str, lsn: int) -> str:
    """Final path of the checkpoint covering the WAL prefix up to ``lsn``."""
    return os.path.join(directory, f"{_CKPT_PREFIX}{lsn:016d}")


def _write_file(path: str, payload: Union[bytes, memoryview], fsync: bool) -> None:
    # Resolved through the module so the fault-injection harness's
    # monkeypatch of ``wal.wal_write`` also tears checkpoint writes.
    with open(path, "ab", buffering=0) as handle:
        wal_log.wal_write(handle, payload)
        if fsync:
            # repro: noqa REP003 — file-handle fsync has no funnel; the
            # payload above went through wal_write (the crash axis).
            os.fsync(handle.fileno())


def _fsync_directory(path: str) -> None:
    # Resolved through the wal module (the shared durable-write hook
    # surface) so the fault-injection harness's monkeypatch of
    # ``wal.fsync_directory`` also crashes checkpoint directory fsyncs.
    wal_log.fsync_directory(path)


def persist_checkpoint(
    manifest: Dict,
    arrays: Dict[str, np.ndarray],
    directory: str,
    lsn: int,
    fsync: bool = False,
) -> str:
    """Write an already-captured checkpoint to disk.

    This is the I/O half of checkpointing and needs **no lock**: the
    captured arrays are frozen epoch snapshots and private copies, so
    the writer can keep applying batches while the serialization runs.
    ``fsync`` extends the system's power-loss contract to checkpoints:
    file contents and directory entries are forced to stable storage
    before the rename publishes the checkpoint — callers prune WAL
    segments on the strength of it, so under ``wal_fsync`` the
    checkpoint must be at least as durable as the log it retires.
    Returns the finished checkpoint's path.
    """
    final_path = checkpoint_dir_path(directory, lsn)
    if os.path.exists(final_path):
        # Re-checkpointing the same prefix (e.g. idle interval): the
        # existing capture is already equivalent.
        return final_path
    manifest = dict(manifest)
    manifest["lsn"] = lsn
    tmp_path = final_path + ".tmp"
    if os.path.exists(tmp_path):
        shutil.rmtree(tmp_path)
    os.makedirs(tmp_path)
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    # A view of the buffer, not a second full copy of the payload; it is
    # released before the buffer is dropped.
    with buffer.getbuffer() as payload:
        _write_file(os.path.join(tmp_path, _STATE_FILE), payload, fsync)
    _write_file(
        os.path.join(tmp_path, _MANIFEST_FILE),
        json.dumps(manifest, sort_keys=True).encode("utf-8"),
        fsync,
    )
    if fsync:
        _fsync_directory(tmp_path)
    os.replace(tmp_path, final_path)
    if fsync:
        _fsync_directory(directory)
    _prune(directory)
    return final_path


def write_checkpoint(
    system: "Moctopus", directory: str, lsn: int, fsync: bool = False
) -> str:
    """Capture and persist a checkpoint in one call (caller holds the lock).

    Convenience composition of :func:`capture_checkpoint` and
    :func:`persist_checkpoint`; the live controller splits the two so
    only the capture runs under the writer lock.
    """
    if os.path.exists(checkpoint_dir_path(directory, lsn)):
        return checkpoint_dir_path(directory, lsn)
    manifest, arrays = capture_checkpoint(system)
    return persist_checkpoint(manifest, arrays, directory, lsn, fsync=fsync)


def _prune(directory: str) -> None:
    """Drop finished checkpoints past the retention bound, and orphans."""
    finished = sorted(
        name
        for name in os.listdir(directory)
        if name.startswith(_CKPT_PREFIX) and not name.endswith(".tmp")
    )
    for name in finished[:-CHECKPOINT_RETENTION]:
        shutil.rmtree(os.path.join(directory, name), ignore_errors=True)
    for name in os.listdir(directory):
        if name.endswith(".tmp"):
            shutil.rmtree(os.path.join(directory, name), ignore_errors=True)


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def load_checkpoint(path: str) -> CheckpointState:
    """Load and validate one checkpoint directory."""
    manifest_path = os.path.join(path, _MANIFEST_FILE)
    state_path = os.path.join(path, _STATE_FILE)
    try:
        with open(manifest_path, "rb") as handle:
            manifest = json.loads(handle.read().decode("utf-8"))
        with open(state_path, "rb") as handle:
            with np.load(io.BytesIO(handle.read())) as bundle:
                arrays = {key: bundle[key] for key in bundle.files}
    except (OSError, ValueError, KeyError) as error:
        raise CheckpointError(f"unreadable checkpoint at {path}: {error}")
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"unsupported checkpoint format {manifest.get('format')!r}"
        )
    return CheckpointState(
        lsn=int(manifest["lsn"]), manifest=manifest, arrays=arrays, path=path
    )


def retained_checkpoint_lsns(directory: str) -> List[int]:
    """LSNs of the finished checkpoints on disk, oldest first."""
    if not os.path.isdir(directory):
        return []
    return sorted(
        int(name[len(_CKPT_PREFIX) :])
        for name in os.listdir(directory)
        if name.startswith(_CKPT_PREFIX) and not name.endswith(".tmp")
    )


def latest_checkpoint(directory: str) -> Optional[CheckpointState]:
    """The newest *valid* checkpoint under ``directory`` (``None`` if none).

    A finished-looking directory that fails validation is skipped (not
    deleted) and the next older one is tried — a torn manifest must
    never mask an older good checkpoint.
    """
    if not os.path.isdir(directory):
        return None
    finished = sorted(
        (
            name
            for name in os.listdir(directory)
            if name.startswith(_CKPT_PREFIX) and not name.endswith(".tmp")
        ),
        reverse=True,
    )
    for name in finished:
        try:
            return load_checkpoint(os.path.join(directory, name))
        except CheckpointError:
            continue
    return None


# ----------------------------------------------------------------------
# Restore
# ----------------------------------------------------------------------
def _snapshot_from_arrays(prefix: str, meta: Dict, arrays: Dict) -> GraphSnapshot:
    return GraphSnapshot(
        node_ids=arrays[f"{prefix}_node_ids"],
        indptr=arrays[f"{prefix}_indptr"],
        dsts=arrays[f"{prefix}_dsts"],
        labels=arrays[f"{prefix}_labels"],
        local_counts=arrays[f"{prefix}_local_counts"],
        bytes_per_entry=int(meta["bytes_per_entry"]),
        working_set_bytes=int(meta["working_set_bytes"]),
    )


def restore_into(system: "Moctopus", state: CheckpointState) -> None:
    """Restore a checkpoint into a freshly constructed ``system``.

    The storages and the partitioner are rebuilt in place (the
    processors, migrator and engine runtime keep their references), the
    snapshot caches are seeded with the checkpoint's frozen arrays, and
    the lifetime/diagnostic counters resume where the crashed process
    left them.  Restore fidelity is validated against the manifest's
    recorded working-set and edge totals — a mismatch means the capture
    and restore code drifted apart, and failing loudly here beats
    diverging silently later.
    """
    manifest, arrays = state.manifest, state.arrays
    num_modules = int(manifest["num_modules"])
    if num_modules != system.num_modules:
        raise CheckpointError(
            f"checkpoint has {num_modules} modules, system has "
            f"{system.num_modules}"
        )

    for module_id in range(num_modules):
        meta = manifest["storages"][module_id]
        storage = system._module_storages[module_id]
        storage.restore_rows(_snapshot_from_arrays(f"m{module_id}", meta, arrays))
        if storage.num_edges != int(meta["num_edges"]):
            raise CheckpointError(
                f"module {module_id} restored {storage.num_edges} edges, "
                f"checkpoint recorded {meta['num_edges']}"
            )

    host_meta = manifest["host_storage"]
    system._host_storage.restore_arrays(
        {
            name[len("hx_") :]: array
            for name, array in arrays.items()
            if name.startswith("hx_")
        },
        base=_snapshot_from_arrays("host", host_meta, arrays),
    )
    expected_ws = int(host_meta["working_set_bytes"])
    actual_ws = max(system._host_storage.total_bytes(), 1)
    if actual_ws != expected_ws:
        raise CheckpointError(
            f"host storage restored working set {actual_ws}, checkpoint "
            f"recorded {expected_ws}"
        )

    counters = manifest["partition_counters"]
    system._partitioner.restore_state(
        {
            "assignments": arrays["p_assignments"],
            "out_degrees": arrays["ld_out_degrees"],
            "greedy_placements": counters["greedy_placements"],
            "fallback_placements": counters["fallback_placements"],
            "promotions": counters["promotions"],
        }
    )
    system._migrator.migrations_performed = int(counters["migrations_performed"])
    system._migrator.promotions_performed = int(counters["promotions_performed"])
    system._update_processor.batches_applied = int(counters["batches_applied"])
    system._migrator.restore_pending(arrays["mig_pending"])

    for name in ("num_nodes", "num_edges"):
        if getattr(system, name) != int(manifest[name]):
            raise CheckpointError(
                f"restored {name} is {getattr(system, name)}, checkpoint "
                f"recorded {manifest[name]}"
            )

    system.pim.restore_lifetime(manifest["pim"])
    system._epochs.restore_published_count(int(manifest["published_epochs"]))
    system._epochs.mark_stale()


# ----------------------------------------------------------------------
# The background checkpointer
# ----------------------------------------------------------------------
class CheckpointDaemon(threading.Thread):
    """Writes checkpoints off the update path, under the writer lock.

    The update path only bumps a counter and sets an event; this thread
    wakes, takes the system's writer lock (so the capture is a
    consistent epoch — the same barrier the synchronous path uses) and
    writes the checkpoint.  Losing a checkpoint to a crash is always
    safe: recovery just replays a longer WAL tail.
    """

    def __init__(self, controller) -> None:
        super().__init__(name="moctopus-checkpointer", daemon=True)
        self._controller = controller
        self._wake = threading.Event()
        self._shutdown = False

    def notify(self) -> None:
        """Signal that the batch counter may have crossed the interval."""
        self._wake.set()

    def stop(self) -> None:
        """Ask the daemon to exit and wait for it."""
        self._shutdown = True
        self._wake.set()
        self.join(timeout=10.0)

    def run(self) -> None:  # pragma: no cover - exercised via liveness test
        while True:
            self._wake.wait()
            self._wake.clear()
            if self._shutdown:
                return
            try:
                self._controller.checkpoint_if_due()
            except Exception as error:
                # A transient failure (disk full, permissions) must not
                # kill the daemon: skipping a checkpoint is always safe
                # (recovery just replays a longer tail).  The error is
                # surfaced on the controller and retried next interval.
                self._controller.last_checkpoint_error = error

"""Crash recovery: latest checkpoint + WAL tail replay.

Recovery rebuilds a system that is **bit-identical** to what an
uncrashed process would hold after applying the same durable prefix:

0. take the directory's lock (:func:`repro.durability.lock_directory`),
   so no other system appends while this one reads the log, and hand it
   to the recovered system;
1. load the newest *valid* checkpoint (torn or missing manifests are
   skipped; no checkpoint means "replay everything");
2. restore it into a freshly constructed system of the recovering class
   (storages, hetero internals, partition vector, degree counters,
   pending misplacement reports, lifetime accounting, epoch numbering),
   after checking that the class places nodes as the directory records;
3. scan the WAL, verifying every record CRC; a torn final record (the
   append the crash interrupted) is truncated, damage anywhere else is
   a hard :class:`~repro.durability.wal.CorruptWalError`;
4. replay the records past the checkpoint's LSN **through the real code
   paths** — bootstrap re-runs the bulk loader over the original edge
   table, update batches re-run ``UpdateProcessor.apply_batch`` (so
   placements, promotions and byte accounting re-derive exactly), and
   migration journal entries redo their row moves verbatim;
5. re-attach the durability controller so the recovered system resumes
   appending at the next LSN in the same directory.

Why this is exact: ``apply_batch`` is deterministic given the state it
observes, the checkpoint restores *all* of that state, and migration
decisions — the one non-replayable input (they depend on volatile
misplacement reports) — are journaled as outcomes rather than
re-derived.
"""

from __future__ import annotations

import dataclasses
import os
from typing import TYPE_CHECKING, Optional, Type

from repro.durability import checkpoint as ckpt
from repro.durability.wal import (
    RT_ABORT,
    RT_BATCH,
    RT_BOOTSTRAP,
    RT_MIGRATIONS,
    CorruptWalError,
    WalGapError,
    decode_abort,
    decode_batch,
    decode_bootstrap,
    decode_migrations,
    scan_wal,
    truncate_torn_tail,
)

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.config import MoctopusConfig
    from repro.core.system import Moctopus


def _config_from_dict(data: dict) -> "MoctopusConfig":
    from repro.core.config import MoctopusConfig
    from repro.pim.cost_model import CostModel

    # Knobs an older writer's echo may carry (``engine``,
    # ``plan_cache_size``, ``result_cache_size``, ...) have since been
    # retired; they configured nothing replay depends on.  The placement
    # knobs among them are the directory's placement record
    # (:func:`_check_placement`).
    known = {field.name for field in dataclasses.fields(MoctopusConfig)}
    data = {name: value for name, value in data.items() if name in known}
    cost_model = CostModel(**data.pop("cost_model"))
    return MoctopusConfig(cost_model=cost_model, **data)


def _check_placement(system: "Moctopus", echo: dict, durability_dir: str) -> None:
    """Refuse to replay under a placement other than the writer's.

    ``echo`` is a checkpoint manifest or ``config.json``: its
    ``placement`` record, or — in a directory written while placement
    was configurable — the placement fields of its ``config`` echo.
    Replay re-runs placement, so a class that places otherwise would
    diverge from the writer.
    """
    own = system._partitioner.record()
    recorded = {**echo["config"], **echo.get("placement", {})}
    differ = [name for name in own if name in recorded and recorded[name] != own[name]]
    if differ:
        raise ValueError(
            f"cannot recover {durability_dir!r}: it records "
            + ", ".join(f"{name}={recorded[name]!r}" for name in differ)
            + f", and {type(system).__name__} places with "
            + ", ".join(f"{name}={own[name]!r}" for name in differ)
        )


def recover(
    durability_dir: str,
    config: Optional["MoctopusConfig"] = None,
    system_class: Optional[Type["Moctopus"]] = None,
) -> "Moctopus":
    """Rebuild the system persisted under ``durability_dir`` as an
    instance of ``system_class`` (default :class:`~repro.core.system.
    Moctopus`).

    ``config`` defaults to the writer's own configuration — echoed in
    the newest checkpoint, or in the ``config.json`` manifest written
    when the directory was first initialized (so even a crash before the
    first checkpoint recovers under the right platform shape).  Replay
    is only bit-exact when the effective config matches the writing
    process's, so only pass an override that does.  The directory's
    placement record must match ``system_class``'s placement, or a
    :class:`ValueError` names the parameters that differ.  The recovered
    system runs on ``"auto"``, whatever kernel the writer had pinned:
    kernels are state-identical, so ``Moctopus.use_engine`` may swap it
    at any time.  A directory another open system holds is refused with
    a :class:`RuntimeError`.
    """
    from repro.durability import lock_directory

    os.makedirs(durability_dir, exist_ok=True)
    lock = lock_directory(durability_dir)
    try:
        system, config, applied, implicit_aborts = _recover_locked(
            durability_dir, config, system_class
        )
        system._attach_durability(config, resume_lsn=applied, lock=lock)
    except BaseException:
        lock.close()
        raise
    for lsn in sorted(implicit_aborts):
        system._durability.log_abort(
            lsn, RuntimeError("batch apply failed during recovery replay")
        )
        system._durability.failed = None
    return system


def _recover_locked(
    durability_dir: str,
    config: Optional["MoctopusConfig"],
    system_class: Optional[Type["Moctopus"]],
) -> tuple:
    """Restore and replay, holding the directory's lock: returns the
    system, its config, the last applied LSN and the implicit aborts."""
    from repro.core.config import MoctopusConfig
    from repro.durability import (
        DurabilityController,
        read_config_manifest,
        wal_directory,
    )

    if system_class is None:
        from repro.core.system import Moctopus as system_class

    state = ckpt.latest_checkpoint(
        DurabilityController.checkpoint_directory(durability_dir)
    )
    echo = state.manifest if state is not None else read_config_manifest(durability_dir)
    if config is None:
        config = MoctopusConfig() if echo is None else _config_from_dict(echo["config"])
    if config.durability_dir != durability_dir:
        config = dataclasses.replace(config, durability_dir=durability_dir)
    # Build the skeleton with durability detached: replay must not
    # re-append the records it is consuming.
    blank_config = dataclasses.replace(config, durability_dir=None)
    system = system_class(config=blank_config)
    if echo is not None:
        _check_placement(system, echo, durability_dir)

    records, torn = scan_wal(wal_directory(durability_dir))
    if torn is not None:
        truncate_torn_tail(torn)

    # Batches whose apply raised in the writing process were compensated
    # with an ABORT marker; replaying them would re-raise the same
    # (deterministic) error and make the directory unrecoverable.  One
    # window escapes the marker: the crash landed *between* the batch
    # append and the abort append.  Such a batch is necessarily the
    # final record (the writer latches durability off after any abort),
    # so if replaying the tail record raises, it is treated as an
    # implicit abort — the rebuild restarts with that LSN skipped and a
    # real marker is appended once durability re-attaches.
    implicit_aborts: set = set()
    while True:
        try:
            applied = _rebuild(system, state, records, implicit_aborts)
            break
        except _TailApplyError as failure:
            implicit_aborts.add(failure.lsn)
            system = system_class(config=blank_config)
    return system, config, applied, implicit_aborts


class _TailApplyError(Exception):
    """Replaying the final, un-compensated tail record raised."""

    def __init__(self, lsn: int, cause: BaseException) -> None:
        super().__init__(f"tail record {lsn} failed to apply: {cause!r}")
        self.lsn = lsn
        self.cause = cause


def _rebuild(system: "Moctopus", state, records, skip: set) -> int:
    """One restore-and-replay pass onto a freshly built ``system``;
    returns the last applied LSN."""
    applied = 0
    if state is not None:
        ckpt.restore_into(system, state)
        applied = state.lsn

    aborted = {
        decode_abort(record.payload)
        for record in records
        if record.record_type == RT_ABORT
    } | skip
    last_lsn = max((record.lsn for record in records), default=0)
    for record in records:
        if record.lsn <= applied:
            # Duplicate delivery (a re-read or re-copied segment):
            # replay is idempotent by LSN.
            continue
        if record.lsn != applied + 1:
            raise WalGapError(
                f"WAL jumps from lsn {applied} to {record.lsn}; a segment "
                "is missing"
            )
        if record.record_type != RT_ABORT and record.lsn not in aborted:
            try:
                _replay(system, record.record_type, record.payload)
            except (CorruptWalError, ckpt.CheckpointError):
                raise
            except Exception as error:
                if record.record_type == RT_BATCH and record.lsn == last_lsn:
                    raise _TailApplyError(record.lsn, error)
                raise
        applied = record.lsn
    if state is not None and applied < state.lsn:
        raise CorruptWalError(
            f"checkpoint covers lsn {state.lsn} but the log ends at {applied}"
        )
    return applied


def _replay(system: "Moctopus", record_type: int, payload: bytes) -> None:
    if record_type == RT_BOOTSTRAP:
        table, nodes = decode_bootstrap(payload)
        system._bulk_load(table, nodes)
    elif record_type == RT_BATCH:
        ops, labels = decode_batch(payload)
        with system._serve_lock:
            system._update_processor.apply_batch(ops, labels=labels)
            system._epochs.mark_stale()
    elif record_type == RT_MIGRATIONS:
        moves = decode_migrations(payload)
        with system._serve_lock:
            for node, source, target in moves:
                system._migrator.replay_move(node, source, target)
            # The pass that produced this record consumed every pending
            # report (applied or skipped); reports restored from the
            # checkpoint must not survive its replay.
            system._migrator.clear_pending()
            system._epochs.mark_stale()
    else:
        raise CorruptWalError(f"unknown WAL record type {record_type}")

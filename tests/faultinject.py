"""Deterministic crash-point fault injection for the durability suite.

Every durable byte a Moctopus system writes — WAL records *and*
checkpoint files — goes through one function,
:func:`repro.durability.wal.wal_write`, and every durable *directory
entry* (WAL segment creation, checkpoint publication) through its
sibling :func:`repro.durability.wal.fsync_directory`.  The harness
swaps both for counting wrappers that kill the "process" (raises
:class:`SimulatedCrash`) at a chosen write or directory fsync,
optionally after only a prefix of the payload has reached the file.
Because the write sequence of a fixed workload is deterministic,
enumerating ``(index, tear mode)`` pairs visits **every** WAL/checkpoint
boundary, including torn records, torn checkpoints and unsynced
directory entries — no timing, no randomness.

The other half of the harness is the equivalence check: a
:func:`fingerprint` captures exactly the state the acceptance criteria
name — the CSR snapshot arrays of every storage (values *and*
byte-accounting constants), the owner table, the placement/migration
counters and the graph totals — and :func:`assert_fingerprints_equal`
diffs two of them with a useful message.  Volatile state (pending
misplacement reports, lifetime platform counters, epoch ids) is
deliberately excluded: it never influences query results or
per-operation statistics, which the tests compare separately.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.snapshot import row_buffer
from repro.core.system import Moctopus
from repro.durability import wal as wal_module
from repro.partition.owner_index import OwnerIndex
from repro.pim.stats import ExecutionStats

#: Tear modes: crash before any byte, after half the payload, or after
#: the full payload but before the append "returns" (the next write is
#: the one that never happens).
TEAR_BEFORE = "before"
TEAR_PARTIAL = "partial"
TEAR_AFTER = "after"
TEAR_MODES = (TEAR_BEFORE, TEAR_PARTIAL, TEAR_AFTER)


class SimulatedCrash(Exception):
    """The injected process death (escapes the system call under test)."""


class FaultInjector:
    """Monkeypatch the durable-write hooks to crash at a chosen boundary.

    Two independent crash axes, both 0-based and both discoverable with
    a counting dry run:

    * ``target``/``mode`` — byte writes through ``wal_write`` (WAL
      records and checkpoint files), torn with ``TEAR_PARTIAL``;
    * ``fsync_target``/``fsync_mode`` — directory fsyncs through
      ``fsync_directory`` (segment creation, checkpoint publication —
      the power-loss directory-entry contract).  A directory fsync has
      no payload to tear, so ``TEAR_PARTIAL`` behaves like
      ``TEAR_BEFORE``.

    Use as a context manager.  With no targets it only counts, so a dry
    run discovers how many crash points a workload has:

    .. code-block:: python

        with FaultInjector() as counter:
            run_workload(...)
        for index in range(counter.writes_seen):
            for mode in TEAR_MODES:
                with FaultInjector(target=index, mode=mode):
                    with pytest.raises(SimulatedCrash):
                        run_workload(...)
                recovered = Moctopus.recover(path)
    """

    def __init__(
        self,
        target: Optional[int] = None,
        mode: str = TEAR_BEFORE,
        fsync_target: Optional[int] = None,
        fsync_mode: str = TEAR_BEFORE,
    ) -> None:
        if mode not in TEAR_MODES or fsync_mode not in TEAR_MODES:
            raise ValueError(f"unknown tear mode {mode!r}/{fsync_mode!r}")
        self.target = target
        self.mode = mode
        self.fsync_target = fsync_target
        self.fsync_mode = fsync_mode
        self.writes_seen = 0
        self.fsyncs_seen = 0
        self._original = None
        self._original_fsync = None

    def __enter__(self) -> "FaultInjector":
        self._original = wal_module.wal_write
        self._original_fsync = wal_module.fsync_directory

        def injected(handle, payload: bytes) -> None:
            index = self.writes_seen
            self.writes_seen += 1
            if self.target is not None and index == self.target:
                if self.mode == TEAR_PARTIAL:
                    self._original(handle, payload[: len(payload) // 2])
                elif self.mode == TEAR_AFTER:
                    self._original(handle, payload)
                raise SimulatedCrash(
                    f"injected crash at write {index} ({self.mode})"
                )
            self._original(handle, payload)

        def injected_fsync(path: str) -> None:
            index = self.fsyncs_seen
            self.fsyncs_seen += 1
            if self.fsync_target is not None and index == self.fsync_target:
                if self.fsync_mode == TEAR_AFTER:
                    self._original_fsync(path)
                raise SimulatedCrash(
                    f"injected crash at directory fsync {index} "
                    f"({self.fsync_mode})"
                )
            self._original_fsync(path)

        wal_module.wal_write = injected
        wal_module.fsync_directory = injected_fsync
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        wal_module.wal_write = self._original
        wal_module.fsync_directory = self._original_fsync


# ----------------------------------------------------------------------
# State fingerprints
# ----------------------------------------------------------------------
def public_rows(storage):
    """``(node, row buffer)`` pairs re-packed from a storage's public
    reads — the input of ``model.build_snapshot_reference`` that owes nothing
    to how the storage keeps its rows."""
    return [
        (node, row_buffer(storage.next_hops_with_labels(node)))
        for node in storage.rows()
    ]


def fingerprint(system: Moctopus) -> Dict:
    """The durable-equivalence view of a system's state."""
    snapshots = []
    storages = list(system._module_storages) + [system._host_storage]
    for storage in storages:
        snapshot = storage.to_csr()
        snapshots.append(
            {
                "node_ids": snapshot.node_ids.copy(),
                "indptr": snapshot.indptr.copy(),
                "dsts": snapshot.dsts.copy(),
                "labels": snapshot.labels.copy(),
                "local_counts": snapshot.local_counts.copy(),
                "bytes_per_entry": snapshot.bytes_per_entry,
                "working_set_bytes": snapshot.working_set_bytes,
            }
        )
    # The literal "same OwnerIndex" criterion: refresh an index from the
    # live partition map and take its canonical (nodes, partitions) form.
    owner_index = OwnerIndex()
    owner_index.refresh(system._partitioner.partition_map)
    owner_nodes, owner_parts = owner_index.table()
    return {
        "snapshots": snapshots,
        "owners": list(zip(owner_nodes.tolist(), owner_parts.tolist())),
        "partition_statistics": system.partition_statistics(),
        "batches_applied": system._update_processor.batches_applied,
        "num_nodes": system.num_nodes,
        "num_edges": system.num_edges,
    }


def assert_fingerprints_equal(actual: Dict, expected: Dict, context: str) -> None:
    """Bit-exact comparison of two fingerprints with a located message."""
    assert actual["owners"] == expected["owners"], f"{context}: owner table differs"
    assert (
        actual["partition_statistics"] == expected["partition_statistics"]
    ), f"{context}: partition statistics differ"
    assert actual["num_nodes"] == expected["num_nodes"], f"{context}: node count"
    assert actual["num_edges"] == expected["num_edges"], f"{context}: edge count"
    assert actual["batches_applied"] == expected["batches_applied"], (
        f"{context}: applied-batch counter differs"
    )
    for index, (left, right) in enumerate(
        zip(actual["snapshots"], expected["snapshots"])
    ):
        for key in ("node_ids", "indptr", "dsts", "labels", "local_counts"):
            assert np.array_equal(left[key], right[key]), (
                f"{context}: storage {index} array {key!r} differs"
            )
        for key in ("bytes_per_entry", "working_set_bytes"):
            assert left[key] == right[key], (
                f"{context}: storage {index} {key} differs "
                f"({left[key]} != {right[key]})"
            )


def assert_stats_equal(
    actual: ExecutionStats, expected: ExecutionStats, context: str
) -> None:
    """Bit-exact comparison of two per-operation statistics objects."""
    assert actual.breakdown() == expected.breakdown(), (
        f"{context}: time breakdown differs"
    )
    assert actual.counters == expected.counters, f"{context}: counters differ"
    assert (
        actual.cpc.bytes_moved == expected.cpc.bytes_moved
        and actual.cpc.transfers == expected.cpc.transfers
    ), f"{context}: CPC traffic differs"
    assert (
        actual.ipc.bytes_moved == expected.ipc.bytes_moved
        and actual.ipc.transfers == expected.ipc.transfers
    ), f"{context}: IPC traffic differs"
    assert actual.phase_pim_times == expected.phase_pim_times, (
        f"{context}: phase PIM times differ"
    )


# ----------------------------------------------------------------------
# Workload scripting
# ----------------------------------------------------------------------
#: A workload step:
#:   ("batch",  ops, labels)    -> apply_updates            (1 WAL record)
#:   ("qm",     sources, hops)  -> query (no migration) +
#:                                 run_maintenance          (0-1 records)
#:   ("checkpoint",)            -> system.checkpoint()      (0 records)
Step = Tuple


def run_step(system: Moctopus, step: Step) -> Optional[ExecutionStats]:
    """Execute one workload step on ``system``."""
    kind = step[0]
    if kind == "batch":
        _, ops, labels = step
        return system.apply_updates(list(ops), labels=labels)
    if kind == "qm":
        _, sources, hops = step
        system.batch_khop(list(sources), hops, auto_migrate=False)
        system.run_maintenance()
        return None
    if kind == "checkpoint":
        system.checkpoint()
        return None
    raise ValueError(f"unknown step kind {kind!r}")


def run_reference(
    graph, steps: List[Step], config
) -> Tuple[Moctopus, List[Dict], List[int]]:
    """Run the workload with durability off, capturing per-LSN fingerprints.

    Returns ``(system, fingerprints, cumulative_records)`` where
    ``fingerprints[lsn]`` is the state after the durable prefix of
    ``lsn`` records (index 0 = the empty system) and
    ``cumulative_records[k]`` is how many records the durable run will
    have appended once step ``k`` (0 = the bootstrap) completed.  The
    reference derives record counts without any I/O: a bootstrap or
    batch step always appends one record, a maintenance pass appends one
    exactly when it migrated something — both runs are in lockstep, so
    the counts agree.
    """
    system = Moctopus(config=config)
    fingerprints = [fingerprint(system)]
    cumulative = []

    system.load_graph(graph)
    fingerprints.append(fingerprint(system))
    cumulative.append(1)

    for step in steps:
        if step[0] == "batch":
            run_step(system, step)
            fingerprints.append(fingerprint(system))
            cumulative.append(cumulative[-1] + 1)
        elif step[0] == "qm":
            _, sources, hops = step
            system.batch_khop(list(sources), hops, auto_migrate=False)
            # A maintenance pass journals a record whenever it consumed
            # reports (even zero-move passes: replaying the empty record
            # clears checkpoint-restored reports the pass already ate).
            had_reports = system._migrator.pending_reports > 0
            moved, _ = system.run_maintenance()
            if moved or had_reports:
                fingerprints.append(fingerprint(system))
                cumulative.append(cumulative[-1] + 1)
            else:
                cumulative.append(cumulative[-1])
        elif step[0] == "checkpoint":
            cumulative.append(cumulative[-1])
        else:
            raise ValueError(f"unknown step kind {step[0]!r}")
    return system, fingerprints, cumulative


def run_durable(graph, steps: List[Step], config) -> Moctopus:
    """Run the whole workload with durability on (may raise SimulatedCrash).

    On a crash the partially-run system is abandoned exactly as a dead
    process would leave it — its in-memory state is discarded without
    ``close()`` and only the bytes already written survive.
    """
    system = Moctopus(config=config)
    system.load_graph(graph)
    for step in steps:
        run_step(system, step)
    return system


def resume_index(cumulative: List[int], applied_lsn: int) -> int:
    """First step whose effects are *not* covered by ``applied_lsn``.

    ``cumulative[k]`` counts records through step ``k`` (k=0 is the
    bootstrap); a step is covered when its records are all durable.
    Steps that append nothing (clean maintenance passes, checkpoints)
    are idempotent to skip or re-run — re-running keeps both systems in
    lockstep, so resume re-executes everything past the last covered
    record-producing step.
    """
    for index, count in enumerate(cumulative):
        if count > applied_lsn:
            return index
    return len(cumulative)

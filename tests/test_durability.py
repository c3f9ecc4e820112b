"""Durability suite: WAL + checkpoint + recovery, proven by fault injection.

The headline test is the **crash matrix**: one deterministic workload
(bulk load, labelled mixed update batches, query+maintenance passes,
checkpoints) is killed at every durable write boundary — before, midway
through, and right after each WAL record and each checkpoint file — and
after every kill ``Moctopus.recover()`` must produce a system
bit-identical to an uncrashed reference at the corresponding durable
prefix: same CSR snapshot arrays, same owner table, same counters.  The
recovered system then replays the rest of the workload and must land on
the uncrashed reference's final state, answer the same queries with the
same per-operation statistics on both engines, and agree with the
pure-python :class:`tests.model.ReferenceModel` oracle.

Around the matrix sit the WAL edge cases (empty log, checkpoint-only
recovery, torn final record, duplicate segment replay, corruption and
gap detection), the checkpoint lifecycle (daemon liveness, retention,
atomicity), and a hypothesis stateful machine interleaving
apply/checkpoint/crash/recover/query against the oracle on both
engines.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.core import Moctopus, MoctopusConfig
from repro.durability import (
    CorruptWalError,
    DurabilityController,
    WalGapError,
    latest_checkpoint,
    wal_directory,
)
from repro.durability.checkpoint import CheckpointError
from repro.durability.wal import (
    decode_bootstrap,
    encode_bootstrap,
    list_segments,
    scan_wal,
)
from repro.graph import DiGraph, power_law_graph, stream
from repro.graph.stream import UpdateKind, UpdateOp, UpdateStream
from repro.net import MoctopusClient
from repro.paper import PIMHashSystem, placed_at
from repro.pim import CostModel

from faultinject import (
    TEAR_MODES,
    FaultInjector,
    SimulatedCrash,
    assert_fingerprints_equal,
    assert_stats_equal,
    crash,
    fingerprint,
    resume_index,
    run_durable,
    run_reference,
    run_step,
)
from model import ReferenceModel

ENGINES = ("python", "vectorized", "matrix")


def _config(tmp_path=None, **overrides):
    defaults = dict(
        cost_model=CostModel(num_modules=4),
        durability_dir=str(tmp_path) if tmp_path is not None else None,
        # Tiny segments so the matrix workload spans several files and
        # recovery exercises rotation + multi-segment scans.
        wal_segment_bytes=2048,
        # The daemon is exercised by its own liveness test; the matrix
        # checkpoints explicitly so its write sequence is deterministic.
        checkpoint_interval_batches=0,
    )
    defaults.update(overrides)
    return MoctopusConfig(**defaults)


def _workload(seed=7):
    """The deterministic crash-matrix workload (graph + scripted steps).

    Besides generic mixed batches, the script deliberately churns the
    *host-resident* hub rows after each checkpoint — deletes punch holes
    into their ``cols_vector`` free lists and the following inserts
    refill them, so any restore that loses slot positions, capacities or
    free-list order shifts the host snapshot's entry order and fails the
    bit-identity assertions.
    """
    graph = power_law_graph(num_nodes=90, edges_per_node=3, skew=0.85, seed=seed)
    stream = UpdateStream(graph, seed=seed + 1)
    hubs = sorted(graph.high_degree_nodes(16))[:2]
    assert hubs, "workload graph must contain host-resident hubs"
    # A PIM-resident node close to the high-degree threshold: the edges
    # inserted *after* the first checkpoint only push it over when the
    # recovered partitioner still remembers the degree it had observed
    # before — a restore that loses degree counters skips the promotion
    # and fails the owner-table assertions.
    promo = next(
        node
        for node in sorted(graph.nodes())
        if node not in hubs and 10 <= graph.out_degree(node) <= 14
    )
    promo_inserts = [
        UpdateOp(UpdateKind.INSERT, promo, 2000 + extra) for extra in range(7)
    ]

    def hub_churn(offset):
        ops = []
        for hub in hubs:
            victims = graph.successors(hub)[offset : offset + 2]
            ops.extend(UpdateOp(UpdateKind.DELETE, hub, dst) for dst in victims)
            ops.extend(
                UpdateOp(UpdateKind.INSERT, hub, 1000 + offset * 10 + extra)
                for extra in range(3)
            )
        return ops

    steps = []
    steps.append(("batch", stream.mixed_batch(24), None))
    steps.append(("qm", [0, 1, 2, 3, 4, 5], 2))
    inserts = stream.insertion_batch(10)
    steps.append(("batch", inserts, [(index % 3) + 1 for index in range(len(inserts))]))
    steps.append(("checkpoint",))
    steps.append(("batch", hub_churn(0) + promo_inserts, None))
    steps.append(("batch", stream.mixed_batch(24), None))
    steps.append(("qm", [6, 7, 8, 9] + hubs, 3))
    steps.append(("batch", stream.deletion_batch(12), None))
    steps.append(("checkpoint",))
    steps.append(("batch", hub_churn(3), None))
    steps.append(("batch", stream.mixed_batch(16), None))
    return graph, steps


def _oracle(graph: DiGraph, steps) -> ReferenceModel:
    """Replay the workload's updates on the pure-python oracle."""
    model = ReferenceModel.from_digraph(graph)
    for step in steps:
        if step[0] != "batch":
            continue
        _, ops, labels = step
        for index, op in enumerate(ops):
            if op.kind is UpdateKind.INSERT:
                model.insert(op.src, op.dst, labels[index] if labels else 0)
            else:
                model.delete(op.src, op.dst)
    return model


def _compare_queries(recovered, reference, model, context):
    """Same results, same per-operation stats, and oracle agreement."""
    probes = [([0, 1, 2, 3], 1), ([4, 5, 6], 2), ([0, 7, 8, 9, 10], 3)]
    for sources, hops in probes:
        got, got_stats = recovered.batch_khop(sources, hops, auto_migrate=False)
        want, want_stats = reference.batch_khop(sources, hops, auto_migrate=False)
        assert got == want, f"{context}: khop({sources}, {hops}) results differ"
        assert_stats_equal(
            got_stats, want_stats, f"{context}: khop({sources}, {hops})"
        )
        assert got.destinations == model.khop(sources, hops), (
            f"{context}: khop({sources}, {hops}) disagrees with the oracle"
        )


# ----------------------------------------------------------------------
# The crash matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINES)
def test_crash_matrix(engine, tmp_path):
    """Kill the pipeline at every durable write boundary; recovery must be exact."""
    graph, steps = _workload()
    reference, fingerprints, cumulative = run_reference(
        graph, steps, _config(), engine=engine
    )
    model = _oracle(graph, steps)
    final = fingerprint(reference)

    # Dry run: discover the deterministic write sequence.
    dry_dir = tmp_path / "dry"
    with FaultInjector() as counter:
        system = run_durable(graph, steps, _config(dry_dir), engine=engine)
    system.close()
    total_writes = counter.writes_seen
    assert total_writes >= len(steps), "workload produced too few crash points"

    # The uncrashed control: recovery of a cleanly closed run is exact.
    control = Moctopus.recover(str(dry_dir))
    assert_fingerprints_equal(fingerprint(control), final, "uncrashed control")
    control.close()

    for write_index in range(total_writes):
        for mode in TEAR_MODES:
            context = f"engine={engine} crash@write{write_index}/{mode}"
            crash_dir = tmp_path / f"crash-{write_index}-{mode}"
            with FaultInjector(target=write_index, mode=mode):
                with pytest.raises(SimulatedCrash):
                    run_durable(graph, steps, _config(crash_dir), engine=engine)

            # The config is passed explicitly: before the first durable
            # checkpoint there is no manifest to infer it from, and
            # replay is only exact under the writer's configuration.
            recovered = Moctopus.recover(str(crash_dir), config=_config(crash_dir))
            recovered.use_engine(engine)
            applied = recovered.durable_lsn
            assert 0 <= applied < len(fingerprints), context
            assert_fingerprints_equal(
                fingerprint(recovered), fingerprints[applied], context
            )

            # Replay the rest of the workload; the recovered system must
            # land exactly on the uncrashed reference's final state.
            resume = resume_index(cumulative, applied)
            if resume == 0:
                recovered.load_graph(graph)
                resume = 1
            for step in steps[resume - 1 :]:
                run_step(recovered, step)
            assert_fingerprints_equal(fingerprint(recovered), final, context)
            _compare_queries(recovered, reference, model, context)
            recovered.close()
            shutil.rmtree(crash_dir)
    reference.close()


def test_crash_matrix_covers_all_record_kinds(tmp_path):
    """The matrix workload really exercises bootstrap, batches, labels,
    migrations and multi-segment checkpoints — guard the harness itself."""
    graph, steps = _workload()
    full_dir = tmp_path / "full"
    system = run_durable(graph, steps, _config(full_dir))
    system.close()
    records, torn = scan_wal(wal_directory(str(full_dir)))
    assert torn is None
    kinds = {record.record_type for record in records}
    # The bootstrap segment is legitimately pruned once a checkpoint
    # covers it; batches and migration journals must be in the tail.
    assert kinds >= {2, 3}, "expected batch + migration records in the tail"
    assert len(list_segments(wal_directory(str(full_dir)))) > 1
    state = latest_checkpoint(
        DurabilityController.checkpoint_directory(str(full_dir))
    )
    assert state is not None and state.lsn > 0

    # Before any checkpoint, the bootstrap record is present and pruning
    # has not touched the log.
    plain_dir = tmp_path / "plain"
    plain_steps = [step for step in steps if step[0] != "checkpoint"][:2]
    system = run_durable(graph, plain_steps, _config(plain_dir))
    system.close()
    records, _ = scan_wal(wal_directory(str(plain_dir)))
    assert {record.record_type for record in records} >= {1, 2}


# ----------------------------------------------------------------------
# WAL edge cases
# ----------------------------------------------------------------------
def test_empty_log_recovery(tmp_path):
    """Recovering a directory with no records yields an empty, usable system."""
    empty = Moctopus(config=_config(tmp_path))
    empty.close()
    recovered = Moctopus.recover(str(tmp_path), config=_config(tmp_path))
    assert recovered.num_nodes == 0 and recovered.num_edges == 0
    assert recovered.durable_lsn == 0
    recovered.insert_edges([(1, 2), (2, 3)])
    assert recovered.durable_lsn == 1
    recovered.close()
    again = Moctopus.recover(str(tmp_path), config=_config(tmp_path))
    assert again.num_edges == 2
    again.close()


def test_recover_nonexistent_directory(tmp_path):
    """Recovery of a never-written path builds a fresh durable system."""
    target = tmp_path / "brand-new"
    recovered = Moctopus.recover(str(target), config=_config(target))
    assert recovered.num_edges == 0
    recovered.insert_edges([(0, 1)])
    recovered.close()
    assert os.path.isdir(target / "wal")


def test_checkpoint_only_recovery(tmp_path):
    """A checkpoint with no WAL tail restores without replaying anything."""
    graph, steps = _workload(seed=11)
    config = _config(tmp_path)
    system = Moctopus.from_graph(graph, config=config)
    for step in steps[:3]:
        run_step(system, step)
    system.checkpoint()
    lsn = system.durable_lsn
    expected = fingerprint(system)
    expected_load = system.pim.load_report()
    expected_host_items = system.pim.totals.host.items_processed
    expected_epochs = system._epochs.published_epochs
    system.close()

    recovered = Moctopus.recover(str(tmp_path))
    assert recovered.durable_lsn == lsn
    state = latest_checkpoint(
        DurabilityController.checkpoint_directory(str(tmp_path))
    )
    assert state is not None and state.lsn == lsn
    assert_fingerprints_equal(fingerprint(recovered), expected, "checkpoint-only")
    # Diagnostics stay continuous across the crash: lifetime platform
    # counters and epoch numbering resume where the writer left them.
    assert recovered.pim.load_report() == expected_load
    assert recovered.pim.totals.host.items_processed == expected_host_items
    assert recovered._epochs.published_epochs == expected_epochs
    recovered.close()


@pytest.mark.parametrize("cut", [1, 3, 5])
def test_torn_final_record_truncated(tmp_path, cut):
    """A record truncated mid-CRC (or deeper) is dropped and physically
    trimmed; the log stays appendable afterwards."""
    config = _config(tmp_path)
    system = Moctopus(config=config)
    system.insert_edges([(0, 1), (1, 2)])
    system.insert_edges([(2, 3)])
    before = fingerprint(system)
    system.close()

    segment = list_segments(wal_directory(str(tmp_path)))[-1]
    size = os.path.getsize(segment)
    with open(segment, "rb+") as handle:
        handle.truncate(size - cut)

    recovered = Moctopus.recover(str(tmp_path), config=_config(tmp_path))
    # The torn batch (2, 3) is gone; the first batch survives.
    assert recovered.durable_lsn == 1
    assert recovered.num_edges == 2
    assert not recovered.has_edge(2, 3)
    # The tail was physically truncated, and appends resume cleanly.
    recovered.insert_edges([(3, 4)])
    assert recovered.durable_lsn == 2
    recovered.close()
    again = Moctopus.recover(str(tmp_path), config=_config(tmp_path))
    assert again.has_edge(3, 4) and not again.has_edge(2, 3)
    again.close()
    del before


def test_duplicate_segment_replay_idempotent(tmp_path):
    """Records re-delivered in a later segment are skipped by LSN."""
    config = _config(tmp_path)
    system = Moctopus(config=config)
    system.insert_edges([(0, 1), (1, 2), (2, 0)])
    system.delete_edges([(1, 2)])
    expected = fingerprint(system)
    system.close()

    wal_dir = wal_directory(str(tmp_path))
    first = list_segments(wal_dir)[0]
    with open(first, "rb") as handle:
        payload = handle.read()
    # A duplicated segment appears later in scan order than the original.
    with open(os.path.join(wal_dir, "wal-00000099.seg"), "wb") as handle:
        handle.write(payload)

    recovered = Moctopus.recover(str(tmp_path), config=_config(tmp_path))
    assert_fingerprints_equal(fingerprint(recovered), expected, "duplicate segment")
    recovered.close()


def test_corrupt_final_segment_with_committed_records_raises(tmp_path):
    """Damage *inside* the last segment is corruption, not a torn tail.

    A genuine torn tail never has a parseable record after it; damage
    followed by committed records must hard-error instead of silently
    truncating those records away and reusing their LSNs.
    """
    config = _config(tmp_path)
    system = Moctopus(config=config)
    system.insert_edges([(0, 1), (1, 2)])
    system.insert_edges([(2, 3)])
    system.insert_edges([(3, 4)])
    system.close()
    segments = list_segments(wal_directory(str(tmp_path)))
    assert len(segments) == 1
    with open(segments[0], "rb+") as handle:
        handle.seek(10)
        byte = handle.read(1)
        handle.seek(10)
        handle.write(bytes([byte[0] ^ 0xFF]))
    with pytest.raises(CorruptWalError):
        Moctopus.recover(str(tmp_path), config=_config(tmp_path))


def test_a_second_open_of_a_directory_is_refused_until_close(tmp_path):
    """Two systems on one directory lost acknowledged writes: while A was
    open, ``recover`` returned B, B acknowledged ``(5, 6)``, and after
    both closed the directory recovered without it.  Now the directory
    is locked from attach until ``close()``: the second open — recovered
    or fresh — is refused by name, and succeeds once A has closed."""
    directory = str(tmp_path)
    first = Moctopus.from_graph(DiGraph.from_edges([(0, 1)]), _config(tmp_path))
    with pytest.raises(RuntimeError, match=re.escape(repr(directory))):
        Moctopus.recover(directory)
    with pytest.raises(RuntimeError, match=re.escape(repr(directory))):
        Moctopus(config=_config(tmp_path))
    first.insert_edges([(1, 2)])
    first.close()

    second = Moctopus.recover(directory)
    second.insert_edges([(5, 6)])
    second.close()
    third = Moctopus.recover(directory)
    try:
        assert all(third.has_edge(*edge) for edge in [(0, 1), (1, 2), (5, 6)])
    finally:
        third.close()


def test_another_process_cannot_open_a_locked_directory(tmp_path):
    """The lock is an ``flock``: a second process is refused while this
    one holds the directory, and recovers it once this one closed."""
    system = Moctopus.from_graph(DiGraph.from_edges([(0, 1)]), _config(tmp_path))
    script = (
        "import sys\n"
        "from repro.core import Moctopus\n"
        "try:\n"
        "    Moctopus.recover(sys.argv[1]).close()\n"
        "except RuntimeError as error:\n"
        "    sys.exit(f'refused: {error}')\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    command = [sys.executable, "-c", script, str(tmp_path)]
    refused = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
    assert refused.returncode != 0 and "refused" in refused.stderr, refused.stderr
    system.close()
    accepted = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
    assert accepted.returncode == 0, accepted.stderr


def test_fresh_system_refuses_existing_log(tmp_path):
    """Constructing a new system over live history must fail loudly —
    appending a second bootstrap would make the log unreplayable."""
    system = Moctopus(config=_config(tmp_path))
    system.insert_edges([(0, 1)])
    system.close()
    with pytest.raises(CorruptWalError):
        Moctopus(config=_config(tmp_path))
    # The right door is still open.
    recovered = Moctopus.recover(str(tmp_path))
    assert recovered.has_edge(0, 1)
    recovered.close()


def test_recover_without_config_uses_initial_manifest(tmp_path):
    """A crash before the first checkpoint still recovers under the
    writer's configuration, via the config.json written at init."""
    graph, steps = _workload(seed=53)
    system = Moctopus.from_graph(graph, config=_config(tmp_path))
    run_step(system, steps[0])
    expected = fingerprint(system)
    crash(system)  # no checkpoint ever written

    recovered = Moctopus.recover(str(tmp_path))  # note: no config passed
    assert recovered.num_modules == 4
    assert recovered.config.wal_segment_bytes == 2048
    assert_fingerprints_equal(fingerprint(recovered), expected, "config manifest")
    recovered.close()


def test_stale_pending_reports_cleared_by_migration_replay(tmp_path):
    """Reports checkpointed *before* a logged maintenance pass must not
    outlive its replay — the original pass consumed them all."""
    graph, _ = _workload(seed=41)
    system = Moctopus.from_graph(graph, config=_config(tmp_path))
    reference = Moctopus.from_graph(graph, config=_config())
    sources = list(range(0, 30))
    for target in (system, reference):
        target.batch_khop(sources, 2, auto_migrate=False)
    assert system._migrator.pending_reports > 0
    system.checkpoint()          # captures the pending reports
    system.run_maintenance()     # consumes ALL of them, logs the moves
    reference.run_maintenance()
    expected_pending = reference._migrator.capture_pending()
    assert expected_pending == []
    crash(system)  # after the MIGRATIONS record

    recovered = Moctopus.recover(str(tmp_path))
    assert recovered._migrator.capture_pending() == expected_pending
    # A later maintenance pass must migrate nothing the reference didn't.
    moved_recovered, _ = recovered.run_maintenance()
    moved_reference, _ = reference.run_maintenance()
    assert moved_recovered == moved_reference == 0
    assert_fingerprints_equal(
        fingerprint(recovered), fingerprint(reference), "stale pending"
    )
    recovered.close()
    reference.close()


def test_wal_segments_pruned_after_checkpoint(tmp_path):
    """Segments every retained checkpoint covers are deleted; recovery
    (including the fall-back-to-older-checkpoint path) stays exact."""
    config = _config(tmp_path, wal_segment_bytes=1024)
    system = Moctopus(config=config)
    for start in range(0, 160, 4):
        system.insert_edges([(start, start + 1), (start + 1, start + 2)])
    grown = len(list_segments(wal_directory(str(tmp_path))))
    assert grown > 2
    system.checkpoint()
    system.insert_edges([(500, 501)])
    system.checkpoint()
    pruned = len(list_segments(wal_directory(str(tmp_path))))
    assert pruned < grown
    system.insert_edges([(501, 502)])
    expected = fingerprint(system)
    system.close()

    recovered = Moctopus.recover(str(tmp_path))
    assert_fingerprints_equal(fingerprint(recovered), expected, "pruned log")
    recovered.close()

    # Mangle the newest checkpoint: the older one plus the (pruned) tail
    # must still reconstruct everything — pruning never outruns the
    # oldest retained checkpoint.
    ckpt_dir = DurabilityController.checkpoint_directory(str(tmp_path))
    newest = sorted(
        name for name in os.listdir(ckpt_dir) if not name.endswith(".tmp")
    )[-1]
    with open(os.path.join(ckpt_dir, newest, "manifest.json"), "wb") as handle:
        handle.write(b"{ torn")
    fallback = Moctopus.recover(str(tmp_path))
    assert_fingerprints_equal(fingerprint(fallback), expected, "pruned fallback")
    fallback.close()


def test_failed_apply_is_compensated_with_abort_record(tmp_path, monkeypatch):
    """A batch whose apply raises must not poison the log: recovery
    skips the compensated record instead of re-raising forever.  And
    because the failed apply may have left partial in-memory state, the
    writer's durability latches off — the durable history ends at the
    abort, and the way forward is recover()."""
    from repro.core.update_processor import UpdateProcessor

    config = _config(tmp_path)
    system = Moctopus(config=config)
    system.insert_edges([(0, 1), (1, 2)])

    real_apply = UpdateProcessor.apply_batch
    def exploding(self, ops, labels=None):
        raise MemoryError("simulated module overflow")
    monkeypatch.setattr(UpdateProcessor, "apply_batch", exploding)
    with pytest.raises(MemoryError):
        system.insert_edges([(2, 3)])
    monkeypatch.setattr(UpdateProcessor, "apply_batch", real_apply)
    # The poisoned batch got lsn N, the ABORT marker lsn N+1.
    assert system.durable_lsn == 3

    # Further logging refuses: replay skips the aborted batch entirely,
    # so logging against possibly-partial live state would diverge.
    with pytest.raises(CorruptWalError):
        system.insert_edges([(3, 4)])
    system.close()

    recovered = Moctopus.recover(str(tmp_path), config=_config(tmp_path))
    assert recovered.has_edge(0, 1)
    assert not recovered.has_edge(2, 3)
    assert recovered.durable_lsn == 3
    # The recovered system is clean and fully operational again.
    recovered.insert_edges([(3, 4)])
    assert recovered.durable_lsn == 4
    recovered.close()


def test_crash_between_batch_append_and_abort_recovers(tmp_path, monkeypatch):
    """The worst window: the batch record is durable, its apply raised,
    and the process died before the ABORT marker landed.  Recovery must
    treat the failing tail record as an implicit abort (and persist a
    real marker) instead of failing forever."""
    from repro.core.update_processor import UpdateProcessor
    from repro.durability import wal as wal_module

    config = _config(tmp_path)
    system = Moctopus(config=config)
    system.insert_edges([(0, 1), (1, 2)])

    poisoned = [(2, 3)]

    def exploding(self, ops, labels=None):
        if any((op.src, op.dst) in poisoned for op in ops):
            raise MemoryError("simulated module overflow")
        return real_apply(self, ops, labels=labels)

    real_apply = UpdateProcessor.apply_batch
    real_write = wal_module.wal_write

    def no_more_writes(handle, payload):
        raise SimulatedCrash("process died before the abort landed")

    monkeypatch.setattr(UpdateProcessor, "apply_batch", exploding)

    def cut_after_batch(handle, payload):
        # The BATCH record lands; every later write (the ABORT) dies.
        real_write(handle, payload)
        wal_module.wal_write = no_more_writes

    wal_module.wal_write = cut_after_batch
    try:
        with pytest.raises((MemoryError, SimulatedCrash)):
            system.insert_edges(poisoned)
    finally:
        wal_module.wal_write = real_write
        monkeypatch.setattr(UpdateProcessor, "apply_batch", real_apply)
    crash(system)

    # On disk: the poisoned batch is the tail record (lsn 2), with no
    # abort marker after it.  Its replay re-raises, so recovery must
    # implicitly abort it and persist a real marker (lsn 3).
    monkeypatch.setattr(UpdateProcessor, "apply_batch", exploding)
    recovered = Moctopus.recover(str(tmp_path), config=_config(tmp_path))
    monkeypatch.setattr(UpdateProcessor, "apply_batch", real_apply)
    assert recovered.has_edge(0, 1)
    assert not recovered.has_edge(2, 3)
    # A real ABORT marker was persisted, so the *next* recovery needs no
    # implicit-abort retry even with the failure gone.
    assert recovered.durable_lsn == 3
    recovered.insert_edges([(5, 6)])
    assert recovered.durable_lsn == 4
    recovered.close()
    again = Moctopus.recover(str(tmp_path), config=_config(tmp_path))
    assert again.has_edge(5, 6) and not again.has_edge(2, 3)
    again.close()


def test_failed_append_repairs_tail_on_retry(tmp_path):
    """Partial bytes from a failed append are trimmed before the next
    record, so a transient I/O error never strands damage mid-segment."""
    from repro.durability import wal as wal_module

    config = _config(tmp_path)
    system = Moctopus(config=config)
    system.insert_edges([(0, 1)])

    real_write = wal_module.wal_write
    state = {"fail": True}
    def flaky(handle, payload):
        if state["fail"]:
            state["fail"] = False
            real_write(handle, payload[: len(payload) // 2])
            raise OSError("simulated ENOSPC")
        real_write(handle, payload)
    wal_module.wal_write = flaky
    try:
        with pytest.raises(OSError):
            system.insert_edges([(1, 2)])
        # Retry: the appender truncates the torn bytes first.
        system.insert_edges([(1, 2)])
    finally:
        wal_module.wal_write = real_write
    system.insert_edges([(2, 3)])
    expected = fingerprint(system)
    system.close()
    recovered = Moctopus.recover(str(tmp_path), config=_config(tmp_path))
    assert_fingerprints_equal(fingerprint(recovered), expected, "tail repair")
    recovered.close()


def test_failed_migration_journal_latches_durability(tmp_path, monkeypatch):
    """If journaling applied migrations fails, the live state has moved
    past the durable history — further logging must refuse loudly
    instead of silently recording a diverging future."""
    graph, _ = _workload(seed=41)
    system = Moctopus.from_graph(graph, config=_config(tmp_path))
    system.batch_khop(list(range(30)), 2, auto_migrate=False)
    assert system._migrator.pending_reports > 0

    from repro.durability import wal as wal_module
    real_write = wal_module.wal_write
    def broken(handle, payload):
        raise OSError("simulated disk failure")
    wal_module.wal_write = broken
    try:
        with pytest.raises(OSError):
            system.run_maintenance()
    finally:
        wal_module.wal_write = real_write

    with pytest.raises(CorruptWalError):
        system.insert_edges([(0, 1)])
    system.close()
    # The durable prefix (without the lost migrations) still recovers.
    recovered = Moctopus.recover(str(tmp_path), config=_config(tmp_path))
    assert recovered.num_edges > 0
    recovered.close()


def test_zero_move_maintenance_pass_is_journaled(tmp_path):
    """A pass that consumes reports but migrates nothing still journals
    (an empty record), so checkpoint-restored reports cannot outlive it."""
    config = _config(tmp_path)
    system = Moctopus(config=config)
    # Node 0's next hops land on its own module (greedy places dst next
    # to src), so the report resolves to "majority == current": no move.
    system.insert_edges([(0, 1), (0, 2)])
    system._migrator.report_misplaced([0], [0], [2])
    system.checkpoint()  # captures pending = {0}
    lsn_before = system.durable_lsn
    moved, _ = system.run_maintenance()
    assert moved == 0
    assert system.durable_lsn == lsn_before + 1, (
        "zero-move pass must still append its (empty) journal record"
    )
    crash(system)

    recovered = Moctopus.recover(str(tmp_path))
    # Replaying the empty record cleared the checkpoint-restored report.
    assert recovered._migrator.pending_reports == 0
    recovered.close()


def test_resume_detects_unexpected_tail(tmp_path):
    """Appends that land behind recovery's back fail the resume loudly."""
    system = Moctopus(config=_config(tmp_path))
    system.insert_edges([(0, 1)])
    system.close()
    recovered = Moctopus.recover(str(tmp_path), config=_config(tmp_path))
    # A straggler appends to the same directory while `recovered` holds it.
    from repro.durability.wal import RT_BATCH, encode_batch, encode_record

    segment = list_segments(wal_directory(str(tmp_path)))[-1]
    straggler = encode_record(
        RT_BATCH, 2, encode_batch([UpdateOp(UpdateKind.INSERT, 5, 6)], None)
    )
    with open(segment, "ab") as handle:
        handle.write(straggler)
    recovered.close()
    with pytest.raises(CorruptWalError):
        # recover() replays lsn 2 fine, but a *second* stale recovery
        # state must not silently resume past it: simulate by resuming
        # with an out-of-date lsn.
        from repro.durability.wal import WriteAheadLog

        WriteAheadLog(
            wal_directory(str(tmp_path)), segment_bytes=2048, resume_lsn=1
        )


def test_wal_fsync_roundtrip(tmp_path):
    """The power-loss path (fsync'd records, checkpoints and directory
    entries, incl. segment rotation) round-trips bit-exactly."""
    config = _config(tmp_path, wal_fsync=True, wal_segment_bytes=1024)
    system = Moctopus(config=config)
    for start in range(0, 80, 2):
        system.insert_edges([(start, start + 1)])
    assert len(list_segments(wal_directory(str(tmp_path)))) > 1
    system.checkpoint()
    system.insert_edges([(100, 101)])
    expected = fingerprint(system)
    system.close()
    recovered = Moctopus.recover(str(tmp_path))
    assert_fingerprints_equal(fingerprint(recovered), expected, "fsync")
    recovered.close()


def test_dir_fsync_crash_points(tmp_path):
    """Kill the pipeline at every *directory fsync* boundary under
    ``wal_fsync=True`` (segment creation, checkpoint publication):
    recovery must land exactly on a durable prefix of the reference."""
    graph = power_law_graph(num_nodes=40, edges_per_node=2, skew=0.8, seed=5)
    steps = [
        ("batch", [UpdateOp(UpdateKind.INSERT, 50 + i, 60 + i) for i in range(4)], None),
        ("checkpoint",),
        ("batch", [UpdateOp(UpdateKind.INSERT, 70 + i, 80 + i) for i in range(4)], None),
    ]

    def fsync_config(path=None):
        # Small segments force rotation (extra directory-fsync sites).
        return _config(path, wal_fsync=True, wal_segment_bytes=1024)

    _, fingerprints, _ = run_reference(graph, steps, fsync_config())

    dry_dir = tmp_path / "dry"
    with FaultInjector() as counter:
        system = run_durable(graph, steps, fsync_config(dry_dir))
    system.close()
    # Segment creation + rotation + checkpoint tmp/parent fsyncs.
    assert counter.fsyncs_seen >= 3, "workload hit too few fsync points"

    for fsync_index in range(counter.fsyncs_seen):
        for mode in ("before", "after"):
            context = f"crash@dirfsync{fsync_index}/{mode}"
            crash_dir = tmp_path / f"crash-{fsync_index}-{mode}"
            with FaultInjector(fsync_target=fsync_index, fsync_mode=mode):
                with pytest.raises(SimulatedCrash):
                    run_durable(graph, steps, fsync_config(crash_dir))
            recovered = Moctopus.recover(
                str(crash_dir), config=fsync_config(crash_dir)
            )
            applied = recovered.durable_lsn
            assert 0 <= applied < len(fingerprints), context
            assert_fingerprints_equal(
                fingerprint(recovered), fingerprints[applied], context
            )
            recovered.close()
            shutil.rmtree(crash_dir)


def test_daemon_survives_checkpoint_failure(tmp_path, monkeypatch):
    """A transient checkpoint error must not kill the daemon thread."""
    import time

    import repro.durability as durability_pkg

    real = durability_pkg.persist_checkpoint
    failures = {"left": 1}

    def flaky(*args, **kwargs):
        if failures["left"] > 0:
            failures["left"] -= 1
            raise OSError("simulated disk full")
        return real(*args, **kwargs)

    monkeypatch.setattr(durability_pkg, "persist_checkpoint", flaky)
    config = _config(tmp_path, checkpoint_interval_batches=1)
    system = Moctopus(config=config)
    system.insert_edges([(0, 1)])   # first attempt fails in the daemon
    deadline = time.monotonic() + 10.0
    while (
        time.monotonic() < deadline
        and system._durability.last_checkpoint_error is None
    ):
        time.sleep(0.02)
    assert isinstance(system._durability.last_checkpoint_error, OSError)
    assert system._durability._daemon.is_alive()
    system.insert_edges([(1, 2)])   # retry succeeds
    ckpt_dir = DurabilityController.checkpoint_directory(str(tmp_path))
    deadline = time.monotonic() + 10.0
    state = None
    while time.monotonic() < deadline:
        state = latest_checkpoint(ckpt_dir)
        if state is not None:
            break
        time.sleep(0.02)
    assert state is not None, "daemon never recovered from the failure"
    # The health flag clears once a checkpoint succeeds.
    deadline = time.monotonic() + 10.0
    while (
        time.monotonic() < deadline
        and system._durability.last_checkpoint_error is not None
    ):
        time.sleep(0.02)
    assert system._durability.last_checkpoint_error is None
    system.close()


def test_corrupt_middle_segment_raises(tmp_path):
    """Damage before the final record is corruption, not a torn tail."""
    config = _config(tmp_path, wal_segment_bytes=1024)
    system = Moctopus(config=config)
    for start in range(0, 160, 4):
        system.insert_edges([(start, start + 1), (start + 1, start + 2)])
    system.close()
    segments = list_segments(wal_directory(str(tmp_path)))
    assert len(segments) > 1
    with open(segments[0], "rb+") as handle:
        handle.seek(10)
        byte = handle.read(1)
        handle.seek(10)
        handle.write(bytes([byte[0] ^ 0xFF]))
    with pytest.raises(CorruptWalError):
        Moctopus.recover(str(tmp_path))


def test_missing_segment_raises_gap(tmp_path):
    """A vanished middle segment surfaces as an LSN gap, not silence."""
    config = _config(tmp_path, wal_segment_bytes=1024)
    system = Moctopus(config=config)
    for start in range(0, 240, 4):
        system.insert_edges([(start, start + 1), (start + 1, start + 2)])
    system.close()
    segments = list_segments(wal_directory(str(tmp_path)))
    assert len(segments) > 2
    os.remove(segments[1])
    with pytest.raises(WalGapError):
        Moctopus.recover(str(tmp_path))


def test_labels_survive_recovery(tmp_path):
    """Labelled inserts round-trip bit-exactly through log and checkpoint."""
    config = _config(tmp_path)
    system = Moctopus(config=config)
    system.insert_edges([(0, 1), (0, 2), (1, 2)], labels=[3, 1, 2])
    system.checkpoint()
    system.insert_edges([(2, 0)], labels=[7])
    expected = fingerprint(system)
    system.close()
    recovered = Moctopus.recover(str(tmp_path))
    assert_fingerprints_equal(fingerprint(recovered), expected, "labels")
    assert recovered.graph.edge_label(0, 1) == 3
    assert recovered.graph.edge_label(0, 2) == 1
    assert recovered.graph.edge_label(1, 2) == 2
    assert recovered.graph.edge_label(2, 0) == 7
    recovered.close()


@pytest.mark.parametrize("checkpointed", [False, True])
def test_recovery_ignores_retired_config_knobs(tmp_path, checkpointed):
    """A directory written when ``epoch_retention`` and
    ``snapshot_compact_ratio`` were still knobs (they are echoed in
    ``config.json`` and every checkpoint manifest) recovers."""
    system = Moctopus.from_graph(power_law_graph(60, edges_per_node=2, seed=3), _config(tmp_path))
    system.insert_edges([(0, 999)])
    if checkpointed:
        system.checkpoint()
    expected = fingerprint(system)
    system.close()
    echoes = [
        os.path.join(root, name)
        for root, _, names in os.walk(str(tmp_path))
        for name in names
        if name in ("config.json", "manifest.json")
    ]
    assert len(echoes) == 1 + checkpointed
    for path in echoes:
        with open(path) as handle:
            data = json.load(handle)
        data["config"]["epoch_retention"] = 4
        data["config"]["snapshot_compact_ratio"] = 0.25
        with open(path, "w") as handle:
            json.dump(data, handle, sort_keys=True)
    recovered = Moctopus.recover(str(tmp_path))
    assert_fingerprints_equal(fingerprint(recovered), expected, "retired knob")
    recovered.close()


#: A durability directory written by the last tuple-row commit; its
#: config echoes still carry every knob that commit had, placement
#: included: labor division above out-degree 8.
CKPT_FIXTURE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "ckpt_pr16", "durability"
)
#: The class that places as the fixture's writer did.
THRESHOLD_8 = placed_at(high_degree_threshold=8)


def _copy_fixture(directory, **changes) -> str:
    """Copy :data:`CKPT_FIXTURE` to ``directory`` with ``changes`` made to
    both of its config echoes (``config.json`` and the manifest)."""
    shutil.copytree(CKPT_FIXTURE, directory)
    echoes = [
        os.path.join(root, filename)
        for root, _, names in os.walk(str(directory))
        for filename in names
        if filename in ("config.json", "manifest.json")
    ]
    assert len(echoes) == 2
    for path in echoes:
        with open(path) as handle:
            data = json.load(handle)
        assert set(changes) <= set(data["config"])
        data["config"].update(changes)
        with open(path, "w") as handle:
            json.dump(data, handle, sort_keys=True)
    return str(directory)


@pytest.mark.parametrize(
    "name, value", [("pim_placement", "hash"), ("enable_migration", False)]
)
def test_recovery_refuses_a_retired_placement(tmp_path, name, value):
    """A directory written when placement was a knob, under a placement
    the recovering class does not make, is refused rather than replayed
    under radical greedy with migration (the fixture itself, which
    records that class's placement, recovers)."""
    directory = _copy_fixture(tmp_path / "durability", **{name: value})
    with pytest.raises(ValueError, match=rf"records {name}={value!r}, and "):
        THRESHOLD_8.recover(directory)
    THRESHOLD_8.recover(_copy_fixture(tmp_path / "as_written")).close()


def test_recovery_refuses_a_placement_other_than_its_class(tmp_path):
    """The fixture was written with labor division above out-degree 8.
    It recovers through a class that places that way (to the state it
    recorded: ``tests/test_row_buffers.py``); ``Moctopus``, which places
    at 16, refuses it by name before it reads the log."""
    directory = _copy_fixture(tmp_path / "durability")
    before = sorted(os.listdir(os.path.join(directory, "wal")))
    with pytest.raises(ValueError, match="high_degree_threshold=8.*high_degree_threshold=16"):
        Moctopus.recover(directory)
    with pytest.raises(ValueError, match="pim_placement='radical_greedy'"):
        PIMHashSystem.recover(directory)
    assert sorted(os.listdir(os.path.join(directory, "wal"))) == before
    recovered = THRESHOLD_8.recover(directory)
    try:
        assert type(recovered) is THRESHOLD_8
        assert recovered._partitioner.labor_division.high_degree_threshold == 8
    finally:
        recovered.close()


def test_a_directory_records_its_placement_and_recovers_only_through_it(tmp_path):
    """``config.json`` and every checkpoint manifest record the writer's
    placement; a PIM-hash directory recovers as a PIM-hash system, and
    ``Moctopus`` refuses it naming every parameter that differs."""
    graph = power_law_graph(80, edges_per_node=3, seed=5)
    system = PIMHashSystem.from_graph(graph, _config(tmp_path))
    system.insert_edges([(0, 999)])
    system.checkpoint()
    system.insert_edges([(999, 1)])
    expected = fingerprint(system)
    system.close()
    record = {
        "pim_placement": "hash",
        "enable_migration": False,
        "capacity_factor": None,
        "high_degree_threshold": None,
    }
    with open(os.path.join(str(tmp_path), "config.json")) as handle:
        assert json.load(handle)["placement"] == record
    checkpoints = DurabilityController.checkpoint_directory(str(tmp_path))
    (newest,) = os.listdir(checkpoints)
    with open(os.path.join(checkpoints, newest, "manifest.json")) as handle:
        assert json.load(handle)["placement"] == record
    with pytest.raises(ValueError) as refused:
        Moctopus.recover(str(tmp_path))
    assert all(name in str(refused.value) for name in record)
    recovered = PIMHashSystem.recover(str(tmp_path))
    try:
        assert type(recovered) is PIMHashSystem
        assert_fingerprints_equal(fingerprint(recovered), expected, "pim-hash")
    finally:
        recovered.close()


def test_recovery_accepts_retired_kernel_and_cache_settings(tmp_path):
    """The writer's kernel and cache bounds are not state: a directory
    that recorded ``engine="python"`` and a disabled result cache
    recovers, on ``"auto"``, to exactly the fixture's own state."""
    directory = _copy_fixture(tmp_path / "retired", engine="python", result_cache_size=0)
    shutil.copytree(CKPT_FIXTURE, tmp_path / "as_written")
    expected = THRESHOLD_8.recover(str(tmp_path / "as_written"))
    recovered = THRESHOLD_8.recover(directory)
    try:
        assert recovered.engine_name == "auto"
        assert_fingerprints_equal(fingerprint(recovered), fingerprint(expected), "retired")
        assert sorted(recovered.graph.labeled_edges()) == sorted(
            expected.graph.labeled_edges()
        )
        assert recovered.pim.capture_lifetime() == expected.pim.capture_lifetime()
    finally:
        recovered.close()
        expected.close()


def test_auth_token_never_reaches_disk(tmp_path):
    """The front door's settings are arguments of ``listen()``, not
    config fields, so nothing under the durability directory carries
    the auth token (it used to sit in plain text in ``config.json`` and
    in every checkpoint manifest)."""
    token = "tok-5f3a9c1e-never-on-disk"
    with pytest.raises(TypeError):
        MoctopusConfig(net_auth_token=token)
    system = Moctopus.from_graph(
        power_law_graph(60, edges_per_node=2, seed=3), _config(tmp_path)
    )
    with system.listen(port=0, auth_token=token) as server:
        with MoctopusClient("127.0.0.1", server.port, auth_token=token) as cli:
            cli.ping(timeout=5)
        system.insert_edges([(0, 999), (1, 998)])
        system.checkpoint()
    system.close()
    written = [
        os.path.join(root, name)
        for root, _, names in os.walk(str(tmp_path))
        for name in names
    ]
    assert any(name.endswith("manifest.json") for name in written)
    for path in written:
        with open(path, "rb") as handle:
            assert token.encode() not in handle.read(), path


def _bootstrap_payload_from_lists(edges, nodes) -> bytes:
    """The pre-streaming encoder: materialised tuple lists through
    ``np.asarray`` — the byte layout the WAL has always had."""
    edge_array = np.asarray(edges, dtype=np.int64).reshape(len(edges), 3)
    node_array = np.asarray(nodes, dtype=np.int64)
    return (
        struct.pack("<QQ", len(edges), len(nodes))
        + edge_array.tobytes()
        + node_array.tobytes()
    )


def test_streamed_bootstrap_record_is_byte_identical(tmp_path):
    """Building the bulk load's record from its edge table changes no
    byte on disk, and decoding it gives the table back."""
    graph = power_law_graph(300, edges_per_node=3, seed=11)
    for index, (src, dst) in enumerate(list(graph.edges())[::7]):
        graph.add_edge(src, dst, 1 + index % 3)  # relabel: labels matter too
    graph.add_node(100_000)  # isolated: only the node stream carries it
    expected = _bootstrap_payload_from_lists(
        list(graph.labeled_edges()), list(graph.nodes())
    )
    table = stream.edge_table(graph)
    assert encode_bootstrap(table, list(graph.nodes())) == expected
    decoded, nodes = decode_bootstrap(expected)
    assert np.array_equal(decoded, table)
    assert not decoded.flags.writeable
    assert nodes == list(graph.nodes())
    empty = stream.edge_table(DiGraph())
    assert encode_bootstrap(empty, []) == _bootstrap_payload_from_lists([], [])

    system = Moctopus.from_graph(graph, _config(tmp_path))
    expected_state = fingerprint(system)
    system.close()
    records, torn = scan_wal(wal_directory(str(tmp_path)))
    assert torn is None
    assert [record.payload for record in records] == [expected]
    recovered = Moctopus.recover(str(tmp_path))
    assert_fingerprints_equal(fingerprint(recovered), expected_state, "bootstrap")
    recovered.close()


# ----------------------------------------------------------------------
# Engine lockstep
# ----------------------------------------------------------------------
def test_recovery_engine_lockstep(tmp_path):
    """A log written under one engine recovers identically under both."""
    graph, steps = _workload(seed=23)
    config = _config(tmp_path / "store")
    system = Moctopus.from_graph(graph, config=config)
    system.use_engine("python")
    for step in steps:
        run_step(system, step)
    expected = fingerprint(system)
    system.close()
    # One directory holds one open system: the second recovers a copy.
    shutil.copytree(tmp_path / "store", tmp_path / "copy")

    scalar = Moctopus.recover(str(tmp_path / "store"))
    scalar.use_engine("python")
    vectorized = Moctopus.recover(str(tmp_path / "copy"))
    vectorized.use_engine("vectorized")
    assert (scalar.engine_name, vectorized.engine_name) == ("python", "vectorized")
    assert_fingerprints_equal(fingerprint(scalar), expected, "python recovery")
    assert_fingerprints_equal(
        fingerprint(vectorized), expected, "vectorized recovery"
    )
    for sources, hops in [([0, 1, 2], 2), ([3, 4], 3)]:
        got_s, stats_s = scalar.batch_khop(sources, hops, auto_migrate=False)
        got_v, stats_v = vectorized.batch_khop(sources, hops, auto_migrate=False)
        assert got_s == got_v
        assert_stats_equal(stats_s, stats_v, "engine lockstep")
    scalar.close()
    vectorized.close()


def test_vectorized_written_log_recovers(tmp_path):
    """Replay applies a vectorized-written log identically; the writer's
    kernel is not state, so the recovered system starts on ``"auto"``."""
    graph, steps = _workload(seed=31)
    system = Moctopus.from_graph(graph, config=_config(tmp_path))
    system.use_engine("vectorized")
    for step in steps:
        run_step(system, step)
    expected = fingerprint(system)
    system.close()
    recovered = Moctopus.recover(str(tmp_path))
    assert recovered.engine_name == "auto"
    assert_fingerprints_equal(fingerprint(recovered), expected, "vectorized log")
    recovered.close()


# ----------------------------------------------------------------------
# Checkpoint lifecycle
# ----------------------------------------------------------------------
def test_checkpoint_daemon_liveness(tmp_path):
    """The background checkpointer fires once the interval elapses."""
    import time

    config = _config(tmp_path, checkpoint_interval_batches=2)
    system = Moctopus(config=config)
    system.insert_edges([(0, 1)])
    system.insert_edges([(1, 2)])
    ckpt_dir = DurabilityController.checkpoint_directory(str(tmp_path))
    deadline = time.monotonic() + 10.0
    state = None
    while time.monotonic() < deadline:
        state = latest_checkpoint(ckpt_dir)
        if state is not None:
            break
        time.sleep(0.02)
    assert state is not None, "daemon never wrote a checkpoint"
    expected = fingerprint(system)
    system.close()
    recovered = Moctopus.recover(str(tmp_path))
    assert_fingerprints_equal(fingerprint(recovered), expected, "daemon checkpoint")
    recovered.close()


def test_checkpoint_retention_prunes(tmp_path):
    """Only the newest checkpoints stay on disk."""
    config = _config(tmp_path)
    system = Moctopus(config=config)
    for index in range(5):
        system.insert_edges([(index, index + 1)])
        system.checkpoint()
    ckpt_dir = DurabilityController.checkpoint_directory(str(tmp_path))
    finished = [name for name in os.listdir(ckpt_dir) if not name.endswith(".tmp")]
    assert len(finished) <= 2
    system.close()
    recovered = Moctopus.recover(str(tmp_path))
    assert recovered.num_edges == 5
    recovered.close()


def test_invalid_latest_checkpoint_falls_back(tmp_path):
    """A mangled newest checkpoint must not mask an older good one."""
    config = _config(tmp_path)
    system = Moctopus(config=config)
    system.insert_edges([(0, 1)])
    system.checkpoint()
    system.insert_edges([(1, 2)])
    system.checkpoint()
    expected = fingerprint(system)
    system.close()
    ckpt_dir = DurabilityController.checkpoint_directory(str(tmp_path))
    newest = sorted(
        name for name in os.listdir(ckpt_dir) if not name.endswith(".tmp")
    )[-1]
    with open(os.path.join(ckpt_dir, newest, "manifest.json"), "wb") as handle:
        handle.write(b"{ torn")
    recovered = Moctopus.recover(str(tmp_path))
    # The older checkpoint plus WAL tail still reconstructs everything.
    assert_fingerprints_equal(fingerprint(recovered), expected, "fallback")
    recovered.close()


def test_recover_rejects_module_mismatch(tmp_path):
    """A config override that changes the platform shape fails loudly."""
    config = _config(tmp_path)
    system = Moctopus(config=config)
    system.insert_edges([(0, 1)])
    system.checkpoint()
    system.close()
    wrong = _config(tmp_path, cost_model=CostModel(num_modules=8))
    with pytest.raises(CheckpointError):
        Moctopus.recover(str(tmp_path), config=wrong)


def test_close_is_idempotent_and_detaches(tmp_path):
    """close() twice is fine; a closed system refuses later updates
    instead of taking writes nobody logs."""
    config = _config(tmp_path)
    system = Moctopus(config=config)
    system.insert_edges([(0, 1)])
    system.close()
    system.close()
    with pytest.raises(RuntimeError, match="system is closed"):
        system.insert_edges([(1, 2)])
    recovered = Moctopus.recover(str(tmp_path), config=_config(tmp_path))
    assert recovered.has_edge(0, 1) and not recovered.has_edge(1, 2)
    recovered.close()


def test_closed_durable_system_recovers_exactly_its_acknowledged_writes(tmp_path):
    """Every write acknowledged before close() is recovered, and none is
    taken after it: each write path of the closed system raises, and the
    directory recovers to the state of a memory-only run of the script."""
    graph, steps = _workload(seed=23)
    system = run_durable(graph, steps, _config(tmp_path))
    reference = run_durable(
        graph, [step for step in steps if step[0] != "checkpoint"], _config()
    )
    lsn = system.durable_lsn
    system.close()
    absent = (0, max(graph.nodes()) + 1)
    present = next(iter(reference.graph.edges()))
    for write in (
        lambda: system.insert_edges([absent]),
        lambda: system.delete_edges([present]),
        lambda: system.apply_updates([UpdateOp(UpdateKind.INSERT, *absent)]),
        lambda: system.run_maintenance(),
        lambda: system.begin(),
    ):
        with pytest.raises(RuntimeError, match="system is closed"):
            write()

    recovered = Moctopus.recover(str(tmp_path))
    try:
        assert recovered.durable_lsn == lsn
        assert not recovered.has_edge(*absent) and recovered.has_edge(*present)
        assert_fingerprints_equal(
            fingerprint(recovered), fingerprint(reference), "closed, then recovered"
        )
    finally:
        recovered.close()
        reference.close()


def test_pending_misplacement_reports_survive_checkpoint(tmp_path):
    """Reports accumulated before a checkpoint still drive migrations
    after recovery, exactly as they would have without the crash."""
    graph, _ = _workload(seed=41)
    config = _config(tmp_path)
    system = Moctopus.from_graph(graph, config=config)
    reference = Moctopus.from_graph(graph, config=_config())
    sources = list(range(0, 30))
    system.batch_khop(sources, 2, auto_migrate=False)
    reference.batch_khop(sources, 2, auto_migrate=False)
    assert system._migrator.pending_reports > 0, "probe produced no reports"
    system.checkpoint()
    system.close()

    recovered = Moctopus.recover(str(tmp_path))
    assert (
        recovered._migrator.capture_pending()
        == reference._migrator.capture_pending()
    )
    moved_recovered, _ = recovered.run_maintenance()
    moved_reference, _ = reference.run_maintenance()
    assert moved_recovered == moved_reference > 0
    assert_fingerprints_equal(
        fingerprint(recovered), fingerprint(reference), "pending reports"
    )
    recovered.close()
    reference.close()


# ----------------------------------------------------------------------
# Stateful interleaving (hypothesis)
# ----------------------------------------------------------------------
class DurabilityMachine(RuleBasedStateMachine):
    """Random apply/checkpoint/crash/recover/query interleavings.

    The oracle is ``tests.model.ReferenceModel``: every batch the system
    *durably accepted* (``apply_updates`` returned) is mirrored into the
    model, so after any number of crashes and recoveries the system's
    k-hop answers must equal the model's on both the live path and a
    freshly recovered instance.
    """

    engine = "python"

    def __init__(self) -> None:
        super().__init__()
        self.tmpdir = tempfile.mkdtemp(prefix="moctopus-durability-")
        self.config = MoctopusConfig(
            cost_model=CostModel(num_modules=4),
            durability_dir=self.tmpdir,
            wal_segment_bytes=4096,
            checkpoint_interval_batches=0,
        )
        self.system = Moctopus(config=self.config)
        self.system.use_engine(self.engine)
        self.model = ReferenceModel()

    @initialize(seed=st.integers(min_value=0, max_value=2**16))
    def bootstrap(self, seed):
        graph = power_law_graph(
            num_nodes=40, edges_per_node=2, skew=0.8, seed=seed
        )
        self.system.load_graph(graph)
        self.model = ReferenceModel.from_digraph(graph)

    @rule(data=st.data())
    def apply_batch(self, data):
        count = data.draw(st.integers(min_value=1, max_value=12))
        ops = []
        for _ in range(count):
            src = data.draw(st.integers(min_value=0, max_value=45))
            dst = data.draw(st.integers(min_value=0, max_value=45))
            if src == dst:
                dst = (dst + 1) % 46
            insert = data.draw(st.booleans())
            ops.append(
                UpdateOp(
                    UpdateKind.INSERT if insert else UpdateKind.DELETE, src, dst
                )
            )
        self.system.apply_updates(ops)
        for op in ops:
            if op.kind is UpdateKind.INSERT:
                self.model.insert(op.src, op.dst)
            else:
                self.model.delete(op.src, op.dst)

    @rule()
    def checkpoint(self):
        self.system.checkpoint()

    @rule()
    def crash_and_recover(self):
        # A dead process never calls close(): drop the instance on the
        # floor and rebuild purely from disk.
        crash(self.system)
        self.system = Moctopus.recover(self.tmpdir)
        self.system.use_engine(self.engine)

    @rule(hops=st.integers(min_value=1, max_value=3), data=st.data())
    def query(self, hops, data):
        sources = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=45), min_size=1, max_size=5
            )
        )
        result, _ = self.system.batch_khop(sources, hops, auto_migrate=False)
        assert result.destinations == self.model.khop(sources, hops)

    @rule()
    def maintenance(self):
        self.system.run_maintenance()

    def teardown(self):
        try:
            self.system.close()
        finally:
            shutil.rmtree(self.tmpdir, ignore_errors=True)


class DurabilityMachinePython(DurabilityMachine):
    engine = "python"


class DurabilityMachineVectorized(DurabilityMachine):
    engine = "vectorized"


TestDurabilityMachinePython = DurabilityMachinePython.TestCase
TestDurabilityMachinePython.settings = settings(
    max_examples=12, stateful_step_count=24, deadline=None
)
TestDurabilityMachineVectorized = DurabilityMachineVectorized.TestCase
TestDurabilityMachineVectorized.settings = settings(
    max_examples=12, stateful_step_count=24, deadline=None
)

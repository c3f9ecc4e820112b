"""Differential tests of multi-process serving over shared-memory epochs.

The acceptance contract of :mod:`repro.parallel` is *bit-identity*: a
batch scattered to a worker process must return exactly what the same
batch produces in-process on the same pinned epoch — same destination
sets, same simulated statistics, same epoch stamp — and the pool's
merged accounting platform must equal the in-process platform's.  The
suite proves it on both engines by replaying the ``tests/model.py``
oracle sweep through a :class:`~repro.parallel.pool.WorkerPool` under
writer churn, plus lifecycle tests for the shared-memory export
protocol (retire-on-supersede, unlink-on-last-detach, guard-file crash
reaping).
"""

from __future__ import annotations

import glob
import json
import os
import random
import subprocess
import time

import pytest

from model import ReferenceModel
from repro.core import Moctopus, MoctopusConfig
from repro.engine.python_engine import PythonEngine
from repro.graph import random_graph
from repro.parallel import (
    WorkerPool,
    WorkerPoolError,
    attach_epoch,
    export_epoch,
    reap_stale_segments,
)
from repro.parallel.shm import _GUARD_PREFIX, _GUARD_SUFFIX, _guard_directory
from repro.paper import placed_at
from repro.pim import CostModel
from repro.pim.system import PIMSystem
from repro.rpq import RPQuery
from repro.rpq.query import KHopQuery
from repro.serve.epoch import EpochView

ENGINES = ("python", "vectorized", "matrix", "auto")
LABEL_NAMES = {1: "a", 2: "b", 3: "c"}
RPQ_EXPRESSIONS = (".{1}", ".{2}", ".+", "a", "a/b", "(a|b)+")


def build_system(seed: int, engine: str) -> Moctopus:
    graph = random_graph(28, 90, seed=seed)
    config = MoctopusConfig(cost_model=CostModel(num_modules=4))
    system = placed_at(high_degree_threshold=8).from_graph(
        graph, config, label_names=LABEL_NAMES
    )
    system.use_engine(engine)
    return system


def stats_fingerprint(stats):
    """Everything the paper's figures could be derived from."""
    return (
        stats.host_time,
        stats.cpc_time,
        stats.ipc_time,
        stats.pim_time,
        tuple(stats.phase_pim_times),
        stats.cpc.bytes_moved,
        stats.cpc.transfers,
        stats.ipc.bytes_moved,
        stats.ipc.transfers,
        dict(stats.counters),
    )


# ----------------------------------------------------------------------
# Export/attach round trip
# ----------------------------------------------------------------------
def test_export_attach_round_trip():
    """An attached epoch is array-for-array the exported one, zero-copy."""
    system = build_system(0, "vectorized")
    epoch = system._epochs.pin()
    try:
        segment, manifest = export_epoch(epoch)
        try:
            rebuilt, mapping = attach_epoch(manifest)
            assert rebuilt.epoch_id == epoch.epoch_id
            assert rebuilt.num_nodes == epoch.num_nodes
            assert rebuilt.num_edges == epoch.num_edges
            assert rebuilt.num_modules == epoch.num_modules
            assert all(
                ours.same_arrays(theirs)
                for ours, theirs in zip(epoch.snapshots, rebuilt.snapshots)
            )
            before_nodes, before_parts = epoch.owners.table()
            after_nodes, after_parts = rebuilt.owners.table()
            assert before_nodes.tolist() == after_nodes.tolist()
            assert before_parts.tolist() == after_parts.tolist()
            # Attached arrays are read-only views into the mapping.
            assert not rebuilt.snapshots[0].dsts.flags.writeable
            del rebuilt, before_nodes, before_parts, after_nodes, after_parts
            mapping.close()
        finally:
            segment.close()
            segment.unlink()
    finally:
        system._epochs.unpin(epoch)


# ----------------------------------------------------------------------
# The differential pool sweep (bit-identity on both engines)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINES)
def test_pool_differential_sweep(engine):
    """Replay the oracle sweep through the pool: bit-identical results,
    stats, epoch ids and merged accounting vs in-process serving."""
    rng = random.Random(17)
    system = build_system(17, "auto")
    # The pool runs the kernel current when it is built.
    system.use_engine(engine)
    model = ReferenceModel.from_digraph(random_graph(28, 90, seed=17))
    inprocess_pim = PIMSystem(system.config.cost_model)
    pool = WorkerPool(system, workers=2)
    try:
        for step in range(10):
            context = f"(engine={engine} step={step})"
            # Writer churn between query rounds publishes fresh epochs.
            inserts = [
                (rng.randrange(40), rng.randrange(40))
                for _ in range(rng.randint(1, 4))
            ]
            labels = [rng.choice((0, 1, 2, 3)) for _ in inserts]
            system.insert_edges(list(inserts), labels=list(labels))
            for (src, dst), label in zip(inserts, labels):
                model.insert(src, dst, label)
            if rng.random() < 0.4 and model.num_edges:
                deletes = [rng.choice(model.edges())]
                system.delete_edges(list(deletes))
                for src, dst in deletes:
                    model.delete(src, dst)

            for _ in range(3):
                if rng.random() < 0.6:
                    sources = [
                        rng.randrange(45) for _ in range(rng.randint(1, 5))
                    ]
                    hops = rng.randint(1, 3)
                    query = KHopQuery(hops=hops, sources=sources)
                    expected = model.khop(sources, hops)
                else:
                    sources = [
                        rng.randrange(30) for _ in range(rng.randint(1, 3))
                    ]
                    expression = rng.choice(RPQ_EXPRESSIONS)
                    query = RPQuery(expression, sources)
                    expected = model.rpq(expression, sources, LABEL_NAMES)

                pooled, pooled_stats, pooled_epoch = pool.execute(query)

                epoch = system._epochs.pin()
                try:
                    view = EpochView(epoch, inprocess_pim)
                    local, local_stats = (
                        system._query_processor.execute_on_view(query, view)
                    )
                finally:
                    system._epochs.unpin(epoch)

                assert pooled == local, f"results differ {context}"
                assert stats_fingerprint(pooled_stats) == stats_fingerprint(
                    local_stats
                ), f"stats differ {context}"
                assert pooled_epoch == epoch.epoch_id, (
                    f"epoch stamp differs {context}"
                )
                assert pooled.destinations == expected, (
                    f"pool diverged from the oracle {context}"
                )
        # The pool's merged accounting platform is bit-identical to the
        # in-process platform that charged the same executions.
        assert pool.pim.capture_lifetime() == inprocess_pim.capture_lifetime()
    finally:
        pool.close()
    assert system._epochs.pins() == 0, "pool left epoch pins behind"


# ----------------------------------------------------------------------
# The parallel scheduler end to end
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINES)
def test_parallel_scheduler_matches_model(engine):
    system = build_system(3, engine)
    model = ReferenceModel.from_digraph(random_graph(28, 90, seed=3))
    with system.serve(parallel=2) as scheduler:
        assert scheduler.parallel_workers == 2
        futures = [
            (source, hops, scheduler.submit(source, hops))
            for source in range(10)
            for hops in (1, 2)
        ]
        for source, hops, future in futures:
            destinations, stats = future.outcome(timeout=60)
            assert destinations == model.khop([source], hops)[0], (
                f"parallel scheduler diverged at source={source} hops={hops}"
            )
            assert stats.counters.get("coalesced_queries", 0) >= 1
            assert "epoch" in stats.counters
        assert scheduler.queries_served == len(futures)
        assert scheduler.batches_executed < len(futures), (
            "scattered batches should still coalesce"
        )
    # close() tears the pool down: every pin released, nothing shared left.
    assert system._epochs.pins() == 0
    # Idempotent close (and double close via the context manager above).
    scheduler.close()


# ----------------------------------------------------------------------
# Shared-memory lifecycle
# ----------------------------------------------------------------------
def _our_segments() -> list:
    return glob.glob("/dev/shm/moctopus-*") if os.path.isdir("/dev/shm") else []


def test_pool_retires_superseded_exports():
    """Writer churn: old exports are retired (unlinked, unpinned) once
    every worker detaches; only the latest stays resident."""
    system = build_system(9, "vectorized")
    pool = WorkerPool(system, workers=2)
    try:
        for round_id in range(6):
            system.insert_edges([(100 + round_id, 200 + round_id)])
            pool.execute(KHopQuery(hops=1, sources=[0]))
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if len(pool.exported_epoch_ids()) <= 1:
                break
            time.sleep(0.02)
        assert len(pool.exported_epoch_ids()) <= 1, (
            "superseded epoch exports were not retired"
        )
        assert system._epochs.pins() == len(pool.exported_epoch_ids())
    finally:
        pool.close()
    assert system._epochs.pins() == 0
    assert pool.exported_epoch_ids() == []


def test_export_busy_at_supersede_retires_once_drained():
    """An export still executing when a newer epoch is exported must be
    retired when its last in-flight task settles — not held (pin +
    segment) until the next publish or pool close."""
    system = build_system(12, "python")
    pool = WorkerPool(system, workers=2)
    try:
        # A heavy batch keeps epoch A in flight while the writer
        # publishes B and new work exports it (A is skipped as busy).
        slow = pool.submit(KHopQuery(hops=4, sources=list(range(20))))
        system.insert_edges([(0, 300)])
        fast = pool.submit(KHopQuery(hops=1, sources=[0]))
        slow.outcome(timeout=120)
        fast.outcome(timeout=120)
        # Once A drains, its retire must happen with no further publish.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if len(pool.exported_epoch_ids()) <= 1:
                break
            time.sleep(0.02)
        assert len(pool.exported_epoch_ids()) <= 1, (
            "drained superseded export was never retired"
        )
        assert system._epochs.pins() == len(pool.exported_epoch_ids())
    finally:
        pool.close()
    assert system._epochs.pins() == 0


def test_pool_worker_error_propagates(monkeypatch):
    system = build_system(2, "python")
    real_execute = PythonEngine.execute

    def faulty_execute(self, plan, sources, view):
        if sources == [13]:
            raise RuntimeError("kernel fault injected")
        return real_execute(self, plan, sources, view)

    # Patched before the fork, so the worker inherits the fault.
    monkeypatch.setattr(PythonEngine, "execute", faulty_execute)
    pool = WorkerPool(system, workers=1)
    try:
        ticket = pool.submit(KHopQuery(hops=1, sources=[13]))
        with pytest.raises(WorkerPoolError, match="kernel fault injected"):
            ticket.outcome(timeout=30)
        # The pool survives a task failure: later work still completes.
        result, _, _ = pool.execute(KHopQuery(hops=1, sources=[0]))
        assert result.sources == [0]
    finally:
        pool.close()
    assert system._epochs.pins() == 0


def test_reap_stale_segments_collects_dead_owners(tmp_path):
    """A guard file whose owner died has its segments unlinked."""
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(
        create=True, name=f"moctopus-reaptest-{os.getpid()}", size=64
    )
    segment.close()
    # A real, certainly-dead pid: a child that already exited.
    probe = subprocess.Popen(["true"])
    probe.wait()
    guard_path = os.path.join(
        _guard_directory(), f"{_GUARD_PREFIX}{probe.pid}-dead{_GUARD_SUFFIX}"
    )
    with open(guard_path, "w", encoding="utf-8") as handle:
        json.dump({"pid": probe.pid, "segments": [segment.name]}, handle)
    reaped = reap_stale_segments()
    assert segment.name in reaped
    assert not os.path.exists(guard_path)
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=segment.name)


def test_reap_leaves_live_owners_alone(tmp_path):
    """Our own guard files (live pid) must never be reaped."""
    from repro.parallel.shm import SegmentGuard

    guard = SegmentGuard()
    guard.add("moctopus-live-probe")
    try:
        reaped = reap_stale_segments()
        assert "moctopus-live-probe" not in reaped
        assert os.path.exists(guard.path)
    finally:
        guard.discard("moctopus-live-probe")
        guard.close()

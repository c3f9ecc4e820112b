"""Kill-and-recover walkthrough: the write-ahead log in action.

Run with::

    python examples/durable_restart.py

The example starts a durable system in a scratch directory, applies
update batches (checkpointing partway through), then simulates a
process crash — the instance is abandoned without ``close()``, exactly
as ``kill -9`` would leave it: its open files close (the log segment and
the lock on the directory, which a dead process's kernel releases), and
a torn final record is manufactured by truncating the last WAL segment
mid-append.  ``Moctopus.recover``
rebuilds from the newest checkpoint plus the WAL tail, and the round
trip is verified bit-for-bit against an uncrashed twin that applied the
same batches.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro import Moctopus, MoctopusConfig
from repro.durability import wal_directory
from repro.durability.wal import list_segments
from repro.graph import power_law_graph
from repro.graph.stream import UpdateStream
from repro.pim import CostModel


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="moctopus-durable-")
    config = MoctopusConfig(
        cost_model=CostModel(num_modules=8),
        durability_dir=workdir,
        checkpoint_interval_batches=0,   # we checkpoint explicitly below
    )

    # 1. A durable system under a deterministic update workload.
    graph = power_law_graph(num_nodes=800, edges_per_node=4, skew=0.8, seed=3)
    system = Moctopus.from_graph(graph, config)
    print(f"durable store: {workdir}")
    print(f"loaded {system.num_nodes} nodes / {system.num_edges} edges (lsn={system.durable_lsn})")

    stream = UpdateStream(graph, seed=4)
    for round_index in range(6):
        system.apply_updates(stream.mixed_batch(64))
        if round_index == 2:
            path = system.checkpoint()
            print(f"checkpoint written: {os.path.basename(path)}")
    print(f"applied 6 batches, log at lsn={system.durable_lsn}")

    # 2. Crash. No close(), no flush ceremony: only the files the kernel
    #    closes for a dead process close, which releases the directory's
    #    lock (a live writer's lock refuses a second open).  To make it
    #    ugly, tear the final record as a mid-append power cut would.
    system._durability.wal.close()
    system._durability.lock.close()
    last_segment = list_segments(wal_directory(workdir))[-1]
    with open(last_segment, "rb+") as handle:
        handle.truncate(os.path.getsize(last_segment) - 7)
    print("\n-- simulated crash: process gone, final record torn --\n")

    # 3. Recover: newest checkpoint + WAL tail replay, torn tail dropped.
    recovered = Moctopus.recover(workdir)
    print(f"recovered to lsn={recovered.durable_lsn} "
          f"({recovered.num_nodes} nodes / {recovered.num_edges} edges)")

    # The torn record held the 6th batch: build an uncrashed twin on
    # the surviving durable prefix (bootstrap + 5 batches).
    twin = Moctopus.from_graph(
        graph, MoctopusConfig(cost_model=CostModel(num_modules=8))
    )
    replay = UpdateStream(graph, seed=4)
    for _ in range(5):
        twin.apply_updates(replay.mixed_batch(64))

    identical = all(
        a.same_arrays(b)
        for a, b in zip(
            recovered._epochs.current().snapshots, twin._epochs.current().snapshots
        )
    )
    print(f"bit-identical CSR snapshots vs uncrashed twin: {identical}")
    assert identical

    # 4. Business as usual: the recovered system keeps logging.
    result, stats = recovered.batch_khop([0, 1, 2, 3], hops=2)
    print(f"post-recovery 2-hop query: {result.total_matches} matches "
          f"in {stats.total_time_ms:.3f} simulated ms")
    recovered.apply_updates(replay.mixed_batch(64))
    print(f"new batch accepted, log now at lsn={recovered.durable_lsn}")

    recovered.close()
    shutil.rmtree(workdir)
    print("\ndone.")


if __name__ == "__main__":
    main()

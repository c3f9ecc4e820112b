"""Writes ``tests/data/ckpt_pr16``: a durability directory plus the digest
of the state it must recover to.

Run it with the *writing* commit's sources on the path — the committed
directory was written by the commit before adjacency rows became
``array('q')`` buffers (PR 16, tuple rows; ``CHECKPOINT_FORMAT`` 1)::

    PYTHONPATH=<parent checkout>/src python tests/data/make_checkpoint_fixture.py OUT_DIR

``tests/test_row_buffers.py`` recovers a copy of the directory with the
current sources and compares against ``expected.json``: every array a
checkpoint of the final state holds (``capture_checkpoint``), digested.
The workload checkpoints mid-way and leaves two batches in the WAL tail,
so recovery restores the old arrays *and* replays onto them; hub rows are
churned so the checkpoint holds ``cols_vector`` holes whose free-list
order decides where the tail's inserts land, and one query's
misplacement reports are left pending.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np

from repro.core import Moctopus, MoctopusConfig
from repro.durability.checkpoint import capture_checkpoint
from repro.graph import power_law_graph
from repro.graph.stream import UpdateKind, UpdateOp, UpdateStream
from repro.pim import CostModel

MANIFEST_KEYS = ("num_nodes", "num_edges", "storages", "host_storage", "partition_counters")


def array_digest(array: np.ndarray) -> str:
    header = f"{array.dtype.str}{array.shape}".encode()
    return hashlib.sha256(header + np.ascontiguousarray(array).tobytes()).hexdigest()


def state_digest(system: Moctopus) -> dict:
    """Digest of everything a checkpoint of ``system`` would record."""
    with system._serve_lock:
        manifest, arrays = capture_checkpoint(system)
    return {
        "arrays": {name: array_digest(array) for name, array in sorted(arrays.items())},
        "manifest": {key: manifest[key] for key in MANIFEST_KEYS},
    }


def main(out_dir: str) -> None:
    graph = power_law_graph(num_nodes=90, edges_per_node=3, skew=0.85, seed=7)
    stream = UpdateStream(graph, seed=8)
    hubs = sorted(graph.high_degree_nodes(8))[:4]
    directory = os.path.join(out_dir, "durability")
    config = MoctopusConfig(
        cost_model=CostModel(num_modules=4),
        high_degree_threshold=8,
        durability_dir=directory,
        wal_segment_bytes=2048,
        checkpoint_interval_batches=0,
    )
    system = Moctopus.from_graph(graph, config)

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

    system.apply_updates(stream.mixed_batch(24))
    system.batch_khop([0, 1, 2, 3, 4, 5], 2, auto_migrate=False)
    system.run_maintenance()
    inserts = stream.insertion_batch(10)
    system.apply_updates(inserts, labels=[(index % 3) + 1 for index in range(len(inserts))])
    system.apply_updates(hub_churn(0))
    system.apply_updates(  # deletes only: the checkpoint holds mid-vector holes
        [
            UpdateOp(UpdateKind.DELETE, hub, dst)
            for hub in hubs
            for dst in graph.successors(hub)[6:8]
        ]
    )
    system.batch_khop([6, 7, 8, 9] + hubs, 3, auto_migrate=False)  # reports stay pending
    system.checkpoint()
    system.apply_updates(hub_churn(3))
    system.apply_updates(stream.mixed_batch(16))
    expected = state_digest(system)
    system.close()
    with open(os.path.join(out_dir, "expected.json"), "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main(sys.argv[1])

"""Writes ``tests/data/update_golden.json``: the absolute record of the
update path's accounting.

The committed file was recorded at the last commit that still had two
update partitioners (PR 21), where a scratch harness first showed
``record(system)`` equal under ``use_engine("python")`` and
``use_engine("vectorized")``; since then the scalar partitioner is the
only one and ``tests/test_update_processor.py`` asserts the record
exactly.  Re-record (only when a PR changes the charges on purpose)::

    PYTHONPATH=src python tests/data/make_update_golden.py tests/data/update_golden.json

The script is a fixed prefix of hand-built batches — one per rule the
partition phase has to get right — followed by seeded random batches:

* brand-new sources and destinations (the partition vector grows);
* two module-resident sources crossing ``high_degree_threshold`` in one
  batch with inserts *and* deletes already queued for their modules
  (the tombstone requeue);
* delete -> insert of one edge in one batch (batch order per module);
* a brand-new source that promotes within its first batch, so its
  module's ``add`` operator is emptied by the requeue and still
  launches its kernel;
* a delete whose source was never seen (host no-op);
* inserts and deletes on host-resident hub rows.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from typing import Dict, List, Optional, Tuple

from repro.core import Moctopus, MoctopusConfig
from repro.graph import DiGraph
from repro.graph.stream import UpdateKind, UpdateOp
from repro.partition.base import HOST_PARTITION
from repro.pim import CostModel

THRESHOLD = 6
BASE_NODES = 48
HUBS = (0, 1)
#: Module-resident sources of out-degree 2 that batch 1 pushes over the
#: threshold.
CROSSERS = (10, 11)
#: The brand-new source batch 3 places and promotes.
FRESH_HUB = 5000
RANDOM_BATCHES = 34
SEED = 22

Batch = Tuple[List[UpdateOp], Optional[List[int]]]


def insert(src: int, dst: int) -> UpdateOp:
    return UpdateOp(UpdateKind.INSERT, src, dst)


def delete(src: int, dst: int) -> UpdateOp:
    return UpdateOp(UpdateKind.DELETE, src, dst)


def base_graph() -> DiGraph:
    """A ring with one chord per node, plus two hubs over the threshold."""
    edges = []
    for node in range(BASE_NODES):
        edges.append((node, (node + 1) % BASE_NODES))
        edges.append((node, (node * 7 + 3) % BASE_NODES))
    for hub in HUBS:
        edges.extend((hub, 20 + hub + 2 * step) for step in range(THRESHOLD + 3))
    return DiGraph.from_edges(edges)


def build_system() -> Moctopus:
    config = MoctopusConfig(
        cost_model=CostModel(num_modules=8), high_degree_threshold=THRESHOLD
    )
    return Moctopus.from_graph(base_graph(), config)


def script() -> List[Batch]:
    """The ``(ops, labels)`` batches, in order."""
    first, second = CROSSERS
    batches: List[Batch] = [
        # 0: brand-new sources and destinations.
        ([insert(1000 + step, 2000 + step) for step in range(6)], None),
        # 1: both crossers queue a delete and inserts on their modules,
        # interleaved, then cross the threshold.
        (
            [delete(first, first + 1), delete(second, second + 1)]
            + [
                insert(crosser, 3000 + 10 * crosser + step)
                for step in range(THRESHOLD)
                for crosser in CROSSERS
            ]
            + [delete(first, 3000 + 10 * first)],
            None,
        ),
        # 2: delete -> insert of one edge (and the reverse) in one batch.
        (
            [
                delete(12, 13),
                delete(12, 13),
                insert(12, 13),
                insert(14, 4000),
                delete(14, 4000),
            ],
            [0, 0, 5, 6, 0],
        ),
        # 3: a brand-new source alone in its batch promotes.
        ([insert(FRESH_HUB, 30 + step) for step in range(THRESHOLD + 2)], None),
        # 4: a delete on a source no insert ever mentioned.
        ([delete(99_999, 1), insert(15, 16)], None),
        # 5: host-resident sources.
        (
            [insert(HUBS[0], 6000), delete(HUBS[0], 20), insert(HUBS[1], 6001)]
            + [delete(first, 3000 + 10 * first + 1), insert(FRESH_HUB, 6002)],
            [1, 0, 2, 0, 3],
        ),
    ]
    rng = random.Random(SEED)
    known = list(range(BASE_NODES)) + [1000 + step for step in range(6)]
    live: List[Tuple[int, int]] = []
    next_node = 7000
    for index in range(RANDOM_BATCHES):
        ops: List[UpdateOp] = []
        for _ in range(rng.randrange(4, 40)):
            roll = rng.random()
            if roll < 0.15:
                # A node nobody has seen, as source or destination.
                src, dst = next_node, rng.choice(known)
                if rng.random() < 0.5:
                    src, dst = dst, src
                known.append(next_node)
                next_node += 1
                ops.append(insert(src, dst))
                live.append((src, dst))
            elif roll < 0.65 or not live:
                src, dst = rng.choice(known), rng.choice(known)
                ops.append(insert(src, dst))
                live.append((src, dst))
            else:
                ops.append(delete(*live.pop(rng.randrange(len(live)))))
        labels = [rng.randrange(4) for _ in ops] if index % 3 == 0 else None
        batches.append((ops, labels))
    return batches


def state_digest(system: Moctopus) -> str:
    """Partition map and every storage row (contents in stored order)."""
    digest = hashlib.sha256()
    for node in sorted(system.graph.nodes()):
        owner = system.partition_of(node)
        storage = (
            system._host_storage
            if owner == HOST_PARTITION
            else system._module_storages[owner]
        )
        row = storage.next_hops_with_labels(node) if storage.has_row(node) else None
        digest.update(repr((node, owner, row)).encode())
    return digest.hexdigest()


def record(system: Moctopus) -> Dict[str, object]:
    """Run :func:`script` on ``system``; everything the test pins."""
    batches = []
    for ops, labels in script():
        stats = system.apply_updates(ops, labels=labels)
        batches.append(
            {
                "breakdown": stats.breakdown(),
                "counters": dict(stats.counters),
                "cpc_bytes": stats.cpc.bytes_moved,
                "phase_pim_times": list(stats.phase_pim_times),
                "promotions": system.partition_statistics()["promotions"],
            }
        )
    return {
        "batches": batches,
        "partition_statistics": system.partition_statistics(),
        "host_nodes": system.host_node_count(),
        "num_nodes": system.num_nodes,
        "num_edges": system.num_edges,
        "state_sha256": state_digest(system),
    }


if __name__ == "__main__":
    with open(sys.argv[1], "w") as handle:
        json.dump(record(build_system()), handle, indent=1, sort_keys=True)
        handle.write("\n")

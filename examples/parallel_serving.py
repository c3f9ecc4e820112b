"""Multi-process parallel serving over shared-memory epoch snapshots.

``system.serve(parallel=N)`` puts N worker *processes* behind the batch
scheduler: each drained window's coalesced per-hops batches are
scattered across the pool — whose children attach the published epoch's
frozen CSR arrays zero-copy through ``multiprocessing.shared_memory`` —
and gathered in submission order.  Answers, statistics and epoch stamps
are bit-identical to in-process serving; the difference is that batches
execute on real cores instead of time-slicing one GIL.

Run with::

    PYTHONPATH=src python examples/parallel_serving.py
"""

from __future__ import annotations

from repro.core import Moctopus, MoctopusConfig
from repro.graph import random_graph
from repro.pim import CostModel


def main() -> None:
    # The workers run the kernel current when the scheduler starts
    # (``use_engine`` pins it); how many there are is chosen per
    # scheduler with ``serve(parallel=N)`` — ``serve()`` is in-process.
    config = MoctopusConfig(cost_model=CostModel(num_modules=16))
    system = Moctopus.from_graph(random_graph(4000, 16000, seed=7), config)
    system.use_engine("python")

    # Two worker processes; close() (or the context manager) tears the
    # pool down, unlinks the shared segments and releases every pin.
    with system.serve(parallel=2) as scheduler:
        print(f"scheduler backed by {scheduler.parallel_workers} workers")

        # Submit a pipeline of single-source queries; compatible hop
        # counts coalesce into engine batches exactly as in-process
        # serving, then the batches fan out across the pool.
        futures = [
            (source, hops, scheduler.submit(source, hops))
            for source in range(24)
            for hops in (2, 3)
        ]
        for source, hops, future in futures[:4]:
            destinations, stats = future.outcome(timeout=60)
            print(
                f"  {hops}-hop from {source}: {len(destinations)} nodes, "
                f"epoch {stats.counters['epoch']}, "
                f"rode a batch of {stats.counters['coalesced_queries']}"
            )
        for _, _, future in futures[4:]:
            future.result(timeout=60)
        print(
            f"served {scheduler.queries_served} queries in "
            f"{scheduler.batches_executed} scattered batches"
        )

    # A writer keeps publishing while the pool reads: the pool exports
    # each fresh epoch once and retires superseded segments when the
    # last worker detaches.
    with system.serve(parallel=2) as scheduler:
        before = scheduler.query(0, 2)
        system.insert_edges([(0, 3999)])
        after = scheduler.query(0, 2)
        print(
            f"writer churn: answer grew {len(before)} -> {len(after)} "
            "nodes across epochs"
        )

    print(f"open epoch pins after close: {system._epochs.pins()}")


if __name__ == "__main__":
    main()

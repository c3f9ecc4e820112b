"""Concurrent serving walkthrough: epochs, sessions, and the scheduler.

Run with::

    python examples/concurrent_serving.py

The example loads a small social-graph stand-in, then walks the whole
epoch lifecycle: a session pins an epoch and keeps its answers stable
while the writer churns, stages its own updates (read-your-writes),
refreshes, and commits; finally a batch scheduler serves a burst of
concurrent single-source queries from worker threads, coalescing them
into engine-level batches.
"""

from __future__ import annotations

import os
import sys
import threading

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro import Moctopus, MoctopusConfig
from repro.graph import power_law_graph
from repro.pim import CostModel


def main() -> None:
    # 1. A skewed graph with hubs, served by the vectorized backend.
    graph = power_law_graph(num_nodes=2000, edges_per_node=4, skew=0.8, seed=7)
    config = MoctopusConfig(cost_model=CostModel(num_modules=16))
    system = Moctopus.from_graph(graph, config)
    system.use_engine("vectorized")
    print(f"serving {system.num_nodes} nodes / {system.num_edges} edges")

    # 2. Snapshot isolation: pin an epoch, watch the writer move on.
    session = system.begin()
    print(f"\nsession pinned epoch {session.epoch_id}")
    before, _ = session.batch_khop([0, 1, 2], hops=2)

    system.insert_edges([(0, 1999), (1999, 1)])       # the writer advances
    system.delete_edges([(0, 1)])
    print(f"writer published epoch {system.current_epoch_id}")

    after, _ = session.batch_khop([0, 1, 2], hops=2)
    assert after.destinations == before.destinations
    print("pinned session's answers are unchanged (snapshot isolation)")

    # 3. Read-your-writes: staged updates are visible to this session only.
    session.insert_edges([(2, 1777)])
    mine, _ = session.batch_khop([2], hops=1)
    assert 1777 in mine.destinations_of(0)
    live, _ = system.batch_khop([2], hops=1, auto_migrate=False)
    assert 1777 not in live.destinations_of(0)
    print("staged edge 2->1777 visible in-session, invisible to the writer")

    # 4. Refresh: jump to the latest epoch, staged writes ride along.
    session.refresh()
    refreshed, _ = session.batch_khop([0, 2], hops=1)
    assert 1999 in refreshed.destinations_of(0)       # writer's edge
    assert 1777 in refreshed.destinations_of(1)       # still staged
    print(f"refreshed onto epoch {session.epoch_id}; staged writes kept")

    # 5. Commit: the writer applies the staged batch, everyone sees it.
    stats = session.commit()
    live, _ = system.batch_khop([2], hops=1, auto_migrate=False)
    assert 1777 in live.destinations_of(0)
    print(f"committed in {stats.total_time_ms:.3f} simulated ms; "
          f"now at epoch {session.epoch_id}")
    session.close()

    # 6. The batch scheduler: concurrent clients, coalesced execution.
    with system.serve() as scheduler:
        answers = {}
        lock = threading.Lock()

        def client(worker: int) -> None:
            for index in range(24):
                source = (worker * 131 + index * 17) % system.num_nodes
                destinations = scheduler.query(source, hops=2)
                with lock:
                    answers[(worker, source)] = len(destinations)

        workers = [threading.Thread(target=client, args=(w,)) for w in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        print(f"\nscheduler answered {scheduler.queries_served} queries "
              f"in {scheduler.batches_executed} engine batches "
              f"(~{scheduler.queries_served / max(1, scheduler.batches_executed):.1f} "
              f"coalesced per batch)")
    print("per-epoch serving report:", system.serving_report())


if __name__ == "__main__":
    main()

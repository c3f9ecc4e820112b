"""Quickstart: load a graph, run a batch k-hop RPQ, update it, inspect costs.

Run with::

    python examples/quickstart.py

The example builds the synthetic stand-in for the paper's com-amazon
trace, loads it into Moctopus and into the two comparison systems, runs
the paper's k-hop workload on all three, and prints the simulated
latency breakdown (host / CPU-PIM / inter-PIM / PIM time).
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro import Moctopus, MoctopusConfig
from repro.graph import dataset_statistics, load_dataset
from repro.paper import PIMHashSystem, RedisGraphEngine, khop_workload
from repro.pim import scaled_cost_model
from repro.rpq import KHopQuery, evaluate_khop


def main() -> None:
    # 1. Generate the com-amazon stand-in (Table 1, trace #7).
    graph = load_dataset("com-amazon")
    stats = dataset_statistics(graph)
    print(f"graph: {int(stats['nodes'])} nodes, {int(stats['edges'])} edges, "
          f"{stats['high_degree_pct']:.2f}% high-degree nodes")

    # 2. Build the three systems of the paper's evaluation.
    cost_model = scaled_cost_model()
    # A system starts on the "auto" kernel, which picks one per call
    # from the size of the request; moctopus.use_engine("python" |
    # "vectorized") pins one.  Both return bit-identical results and
    # simulated stats, so the choice only changes how fast the
    # reproduction itself runs.
    moctopus = Moctopus.from_graph(graph, MoctopusConfig(cost_model=cost_model))
    pim_hash = PIMHashSystem.from_graph(graph, MoctopusConfig(cost_model=cost_model))
    redisgraph = RedisGraphEngine.from_graph(graph, cost_model=cost_model)

    quality = moctopus.partition_quality()
    print(f"moctopus partitioning: {moctopus.host_node_count()} host-resident hubs, "
          f"locality {quality.locality_fraction:.2f}, balance {quality.balance_factor:.2f}")

    # 3. Run a batch 2-hop path query (the paper's RPQ workload).
    query = khop_workload(graph, hops=2, batch_size=128, seed=1)
    reference = evaluate_khop(graph, KHopQuery(hops=query.hops, sources=query.sources))

    print(f"\nbatch {query.batch_size}x {query.hops}-hop query:")
    for name, system in (("moctopus", moctopus), ("pim-hash", pim_hash),
                         ("redisgraph", redisgraph)):
        result, run_stats = system.batch_khop(query.sources, query.hops)
        assert result == reference, f"{name} returned a wrong answer"
        print(f"  {name:<11} {run_stats.total_time_ms:8.3f} ms  "
              f"(host {run_stats.host_time * 1e3:.3f}, cpc {run_stats.cpc_time * 1e3:.3f}, "
              f"ipc {run_stats.ipc_time * 1e3:.3f}, pim {run_stats.pim_time * 1e3:.3f})")

    # 4. Update the graph: insert and delete a small edge batch.
    new_edges = [(1_000_000 + index, index) for index in range(16)]
    insert_stats = moctopus.insert_edges(new_edges)
    delete_stats = moctopus.delete_edges(new_edges[:8])
    print(f"\nupdates: inserted 16 edges in {insert_stats.total_time_ms:.4f} ms, "
          f"deleted 8 edges in {delete_stats.total_time_ms:.4f} ms")
    print(f"partitioner decisions: {moctopus.partition_statistics()}")

    # 5. Peek at the cost-based planner.  Epoch-pinned executions
    # (sessions, the batch scheduler) are costed against the epoch's
    # frozen degree/label statistics (a per-hop frontier estimate), and
    # repeated queries are answered from epoch-keyed plan/result caches
    # (bit-identical to an uncached run; see moctopus.cache_stats for
    # hit counters).
    print(f"\nplanner view of the 2-hop workload:")
    print(moctopus.explain(KHopQuery(hops=2, sources=query.sources[:8])))


if __name__ == "__main__":
    main()

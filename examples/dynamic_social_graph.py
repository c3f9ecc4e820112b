"""A dynamic social graph: interleaved updates and friend-of-friend queries.

The paper's second workload is graph update (Figure 6): batches of edge
insertions and deletions handled by PIM modules, with high-degree nodes
served by the heterogeneous graph storage.  This example simulates a
social network that keeps growing while answering friend-of-friend
(2-hop) recommendation queries, and reports how Moctopus's update cost
compares with the RedisGraph-like baseline round by round.

Run with::

    python examples/dynamic_social_graph.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro import Moctopus, MoctopusConfig
from repro.graph import UpdateStream, load_dataset
from repro.paper import RedisGraphEngine
from repro.pim import scaled_cost_model
from repro.rpq import KHopQuery, evaluate_khop, random_source_batch


def main() -> None:
    # Start from the com-youtube stand-in (a skewed social graph, trace #5).
    graph = load_dataset("com-youtube", scale=0.5)
    print(f"initial graph: {graph.num_nodes} users, {graph.num_edges} follows, "
          f"{100 * graph.high_degree_fraction(16):.2f}% high-degree users")

    cost_model = scaled_cost_model()
    moctopus = Moctopus.from_graph(graph, MoctopusConfig(cost_model=cost_model))
    redisgraph = RedisGraphEngine.from_graph(graph, cost_model=cost_model)
    stream = UpdateStream(graph, seed=2024)

    total_moctopus_update = 0.0
    total_redis_update = 0.0
    for round_index in range(5):
        # New follows arrive and some old ones are removed.
        inserts = [op.edge for op in stream.insertion_batch(96)]
        deletes = [op.edge for op in stream.deletion_batch(32)]

        moctopus_cost = (moctopus.insert_edges(inserts).total_time
                         + moctopus.delete_edges(deletes).total_time)
        redis_cost = (redisgraph.insert_edges(inserts).total_time
                      + redisgraph.delete_edges(deletes).total_time)
        total_moctopus_update += moctopus_cost
        total_redis_update += redis_cost

        # Friend-of-friend recommendations for a batch of active users.
        sources = random_source_batch(list(moctopus.graph.nodes()), 64,
                                      seed=round_index)
        result, query_stats = moctopus.batch_khop(sources, hops=2)
        expected = evaluate_khop(moctopus.graph, KHopQuery(hops=2, sources=sources))
        assert result == expected

        print(f"round {round_index + 1}: +{len(inserts)}/-{len(deletes)} edges | "
              f"update moctopus {moctopus_cost * 1e3:7.4f} ms vs redisgraph "
              f"{redis_cost * 1e3:7.4f} ms ({redis_cost / moctopus_cost:5.1f}x) | "
              f"fof query {query_stats.total_time_ms:6.3f} ms, "
              f"{result.total_matches} recommendations")

    print(f"\ntotals: moctopus updates {total_moctopus_update * 1e3:.3f} ms, "
          f"redisgraph updates {total_redis_update * 1e3:.3f} ms "
          f"({total_redis_update / total_moctopus_update:.1f}x speedup)")
    print(f"hubs promoted to the host so far: {moctopus.host_node_count()}")
    print(f"partitioner decisions: {moctopus.partition_statistics()}")


if __name__ == "__main__":
    main()

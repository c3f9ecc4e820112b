"""Partitioning study: how placement policy shapes PIM query performance.

This example sweeps the pieces of the paper's partitioning design on one
skewed trace (web-NotreDame) and prints, for each configuration, the
partition quality metrics and the simulated 3-hop batch-query breakdown:

* plain hash partitioning (the PIM-hash contrast system);
* radical greedy without labor division (hubs stay on PIM modules);
* the full Moctopus design (radical greedy + labor division + migration);
* the full design across different PIM module counts, showing how the
  parallel width trades off against communication.

Run with::

    python examples/partitioning_study.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro import Moctopus, MoctopusConfig
from repro.graph import load_dataset
from repro.paper import PIMHashSystem, khop_workload
from repro.partition import RadicalGreedyPartitioner, load_imbalance
from repro.pim import scaled_cost_model
from repro.rpq import KHopQuery, evaluate_khop


class NoLaborDivision(Moctopus):
    """Radical greedy alone: hubs stay on whichever module they landed on.

    A system's placement is whatever its ``_build_placement`` builds, so
    a placement study varies it by overriding that method.
    """

    def _build_placement(self):
        return RadicalGreedyPartitioner(self.config.num_modules)


def run_configuration(name, system, query, reference, auto_migrate=None):
    # One warm-up round lets the greedy-adaptive migration settle.
    system.batch_khop(query.sources[:64], 2, auto_migrate)
    result, stats = system.batch_khop(query.sources, query.hops, auto_migrate)
    assert result == reference, f"{name} produced a wrong answer"
    quality = system.partition_quality()
    imbalance = load_imbalance(system.pim.load_report())
    print(f"  {name:<34} latency {stats.total_time_ms:8.3f} ms "
          f"(pim {stats.pim_time * 1e3:7.3f}, ipc {stats.ipc_time_ms:7.3f}, "
          f"host {stats.host_time * 1e3:7.3f}) | locality {quality.locality_fraction:.2f} "
          f"| host nodes {system.host_node_count():>4} | work imbalance {imbalance:5.2f}")


def main() -> None:
    graph = load_dataset("web-NotreDame")
    print(f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges, "
          f"{100 * graph.high_degree_fraction(16):.2f}% high-degree nodes")
    query = khop_workload(graph, hops=3, batch_size=128, seed=11)
    reference = evaluate_khop(graph, KHopQuery(hops=query.hops, sources=query.sources))

    print("\npolicy sweep (64 PIM modules):")
    cost_model = scaled_cost_model()
    run_configuration(
        "hash partitioning (PIM-hash)",
        PIMHashSystem.from_graph(graph, MoctopusConfig(cost_model=cost_model)),
        query, reference,
    )
    run_configuration(
        "radical greedy, no labor division",
        NoLaborDivision.from_graph(graph, MoctopusConfig(cost_model=cost_model)),
        query, reference,
    )
    run_configuration(
        "radical greedy, no migration",
        Moctopus.from_graph(graph, MoctopusConfig(cost_model=cost_model)),
        query, reference, auto_migrate=False,
    )
    run_configuration(
        "full Moctopus design",
        Moctopus.from_graph(graph, MoctopusConfig(cost_model=cost_model)),
        query, reference,
    )

    print("\nmodule-count sweep (full design):")
    for num_modules in (8, 16, 32, 64, 128):
        config = MoctopusConfig(cost_model=scaled_cost_model(num_modules=num_modules))
        run_configuration(
            f"{num_modules} PIM modules", Moctopus.from_graph(graph, config),
            query, reference,
        )


if __name__ == "__main__":
    main()

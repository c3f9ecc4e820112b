"""Network reachability analysis — the paper's Figure 2 scenario, scaled up.

The paper motivates batch RPQs with a routing-connection graph: given a
set of source IP addresses, find every host reachable within k hops
(``UNWIND [...] AS ipAddr MATCH ({ip: ipAddr})-[2]->(t)``).  This
example builds a graph of routers and links, resolves IP addresses
to node ids, runs batch k-hop queries on Moctopus and checks
them against the reference evaluator.

Run with::

    python examples/network_reachability.py
"""

from __future__ import annotations

import os
import random
import sys
from typing import Dict, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro import Moctopus, MoctopusConfig
from repro.bench import scaled_cost_model
from repro.graph import DiGraph, road_network
from repro.rpq import KHopQuery, evaluate_khop


def build_network(
    num_pops: int = 40, routers_per_pop: int = 48, seed: int = 7
) -> Tuple[DiGraph, Dict[int, str]]:
    """A two-level ISP-like topology: a backbone lattice plus PoP subnets.

    Returns the link graph and every router's IP address.
    """
    rng = random.Random(seed)
    network = DiGraph()
    ips: Dict[int, str] = {}
    backbone = road_network(rows=8, cols=5, seed=seed)  # 40 backbone routers

    def ip_of(node_id: int) -> str:
        return f"10.{node_id // 65536}.{(node_id // 256) % 256}.{node_id % 256}"

    for node in backbone.nodes():
        network.add_node(node)
        ips[node] = ip_of(node)
    for src, dst in backbone.edges():
        network.add_edge(src, dst)

    next_id = backbone.num_nodes
    for pop in range(num_pops):
        gateway = pop  # each backbone router fronts one PoP
        for _ in range(routers_per_pop):
            router = next_id
            next_id += 1
            network.add_node(router)
            ips[router] = ip_of(router)
            network.add_edge(gateway, router)
            network.add_edge(router, gateway)
            # A little intra-PoP meshing.
            if rng.random() < 0.5 and router > backbone.num_nodes + 1:
                peer = rng.randrange(backbone.num_nodes, router)
                network.add_edge(router, peer)
    return network, ips


def main() -> None:
    graph, ips = build_network()
    print(f"network: {graph.num_nodes} routers, {graph.num_edges} links")

    system = Moctopus.from_graph(graph, MoctopusConfig(cost_model=scaled_cost_model()))

    # Pick a batch of monitored source IPs (e.g. suspected compromised hosts).
    rng = random.Random(1)
    monitored_nodes = rng.sample(range(graph.num_nodes), 64)
    monitored_ips = [ips[node] for node in monitored_nodes]

    # Resolve IPs back to node ids exactly as the Cypher UNWIND/MATCH would.
    node_of_ip = {ip: node for node, ip in ips.items()}
    sources = [node_of_ip[ip] for ip in monitored_ips]

    for hops in (1, 2, 3):
        result, stats = system.batch_khop(sources, hops)
        reference = evaluate_khop(graph, KHopQuery(hops=hops, sources=sources))
        assert result == reference
        blast_radius = len(set().union(*result.destinations)) if result.destinations else 0
        print(f"k={hops}: {result.total_matches} matched endpoint pairs, "
              f"{blast_radius} distinct reachable routers, "
              f"simulated latency {stats.total_time_ms:.3f} ms "
              f"(ipc {stats.ipc_time_ms:.3f} ms)")

    # Show one concrete answer like the paper's example output.
    example_ip = monitored_ips[0]
    example_destinations = sorted(result.destinations_of(0))[:8]
    print(f"\nhosts within 3 hops of {example_ip}: "
          f"{[ips[node] for node in example_destinations]} ...")


if __name__ == "__main__":
    main()

"""Deterministic synthetic graph generators.

The paper evaluates on 15 real SNAP graphs.  Those graphs are not
shipped with this reproduction (no network access, hundreds of MB), so
this module provides deterministic generators that produce graphs from
the same *structural families*:

* :func:`road_network` — a 2D lattice with small random perturbations.
  Road networks (roadNet-CA/PA/TX) have essentially bounded degree
  (no high-degree nodes), strong spatial locality, and a huge diameter —
  the regime where the paper's Moctopus keeps winning even for long path
  queries (k = 4, 6, 8).
* :func:`power_law_graph` — a preferential-attachment style generator
  with a tunable skew.  Citation, social, communication and web graphs
  (cit-patents, com-youtube, wiki-Talk, email-EuAll, web-*) are highly
  skewed: a small fraction of nodes has out-degree above the paper's
  high-degree threshold of 16, which is what stresses PIM load balance.
* :func:`community_graph` — a planted-partition generator with dense
  communities and sparse inter-community edges, matching the
  co-purchasing and collaboration graphs (com-amazon, com-DBLP,
  amazon0312/0505/0601) where locality-aware partitioning pays off.

Every generator takes an explicit ``seed`` and uses its own
:class:`random.Random` instance, so dataset construction is reproducible
across processes and Python versions.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Tuple

from repro.graph.digraph import DiGraph

Edge = Tuple[int, int]


def _edges_to_graph(edges: Iterable[Edge], num_nodes: int) -> DiGraph:
    graph = DiGraph(num_nodes=num_nodes)
    for src, dst in edges:
        if src != dst:
            graph.add_edge(src, dst)
    return graph


def road_network(
    rows: int,
    cols: int,
    extra_edge_fraction: float = 0.02,
    seed: int = 0,
) -> DiGraph:
    """Generate a road-network-like directed lattice.

    Each intersection connects to its right and down neighbors in both
    directions (roads are bidirectional), plus a small fraction of random
    "shortcut" edges emulating highways/ramps.  Out-degree is bounded by
    ~4, so the graph has **zero** high-degree nodes under the paper's
    threshold of 16, mirroring roadNet-CA/PA/TX in Table 1.

    Parameters
    ----------
    rows, cols:
        Lattice dimensions; the graph has ``rows * cols`` nodes.
    extra_edge_fraction:
        Number of random shortcut edges as a fraction of node count.
    seed:
        Seed for the shortcut generator.
    """
    rng = random.Random(seed)
    num_nodes = rows * cols
    edges: List[Edge] = []

    def node_id(row: int, col: int) -> int:
        return row * cols + col

    for row in range(rows):
        for col in range(cols):
            current = node_id(row, col)
            if col + 1 < cols:
                right = node_id(row, col + 1)
                edges.append((current, right))
                edges.append((right, current))
            if row + 1 < rows:
                down = node_id(row + 1, col)
                edges.append((current, down))
                edges.append((down, current))

    num_shortcuts = int(num_nodes * extra_edge_fraction)
    for _ in range(num_shortcuts):
        src = rng.randrange(num_nodes)
        dst = rng.randrange(num_nodes)
        if src != dst:
            edges.append((src, dst))
            edges.append((dst, src))

    return _edges_to_graph(edges, num_nodes)


def power_law_graph(
    num_nodes: int,
    edges_per_node: int = 4,
    skew: float = 1.0,
    reciprocity: float = 0.3,
    seed: int = 0,
) -> DiGraph:
    """Generate a skewed graph by preferential attachment.

    New nodes attach ``edges_per_node`` outgoing edges; each target is
    chosen preferentially (proportional to in-degree + 1) with
    probability ``skew`` and uniformly otherwise.  A ``reciprocity``
    fraction of attachments also adds the reverse edge — social and web
    graphs are highly reciprocal, and reciprocity is what gives popular
    nodes a large *out*-degree as well.  Additionally, a fraction of
    *hub* nodes receives a burst of extra outgoing edges so the
    out-degree tail crosses the paper's high-degree threshold of 16; the
    paper's high-degree classification is on out-degree, and load
    imbalance on PIM modules comes from nodes with large next-hop lists.

    Parameters
    ----------
    num_nodes:
        Total number of nodes.
    edges_per_node:
        Outgoing edges attached per newly arriving node.
    skew:
        In ``[0, 1]``; higher values concentrate edges on hubs harder.
    reciprocity:
        Probability that an attachment also adds the reverse edge.
    seed:
        RNG seed.
    """
    if num_nodes < 2:
        raise ValueError("power_law_graph requires at least 2 nodes")
    if not 0.0 <= reciprocity <= 1.0:
        raise ValueError("reciprocity must be within [0, 1]")
    rng = random.Random(seed)
    edges: List[Edge] = []
    # Start from a small seed clique so preferential attachment has targets.
    seed_size = min(edges_per_node + 1, num_nodes)
    targets: List[int] = []
    for src in range(seed_size):
        for dst in range(seed_size):
            if src != dst:
                edges.append((src, dst))
                targets.append(dst)

    for new_node in range(seed_size, num_nodes):
        for _ in range(edges_per_node):
            if targets and rng.random() < skew:
                dst = targets[rng.randrange(len(targets))]
            else:
                dst = rng.randrange(new_node)
            if dst != new_node:
                edges.append((new_node, dst))
                targets.append(dst)
                if rng.random() < reciprocity:
                    edges.append((dst, new_node))

    # Promote a small set of hubs with bursts of outgoing edges so the
    # out-degree tail crosses the paper's high-degree threshold (16).
    num_hubs = max(1, int(num_nodes * 0.02 * skew))
    hub_candidates = rng.sample(range(num_nodes), num_hubs)
    for hub in hub_candidates:
        burst = rng.randint(24, 24 + int(48 * skew))
        for _ in range(burst):
            dst = targets[rng.randrange(len(targets))] if targets else rng.randrange(num_nodes)
            if dst != hub:
                edges.append((hub, dst))

    return _edges_to_graph(edges, num_nodes)


def community_graph(
    num_communities: int,
    community_size: int,
    intra_edges_per_node: int = 5,
    inter_edge_fraction: float = 0.05,
    hub_fraction: float = 0.0,
    seed: int = 0,
) -> DiGraph:
    """Generate a planted-partition ("community") graph.

    Nodes are grouped into ``num_communities`` blocks of
    ``community_size``; most edges stay inside a block (good locality for
    a partitioner to recover), a small fraction crosses blocks.  An
    optional ``hub_fraction`` of nodes receives extra out-edges across the
    whole graph to emulate the moderate skew of collaboration and
    co-purchase graphs.
    """
    rng = random.Random(seed)
    num_nodes = num_communities * community_size
    edges: List[Edge] = []

    for community in range(num_communities):
        base = community * community_size
        for offset in range(community_size):
            src = base + offset
            for _ in range(intra_edges_per_node):
                dst = base + rng.randrange(community_size)
                if dst != src:
                    edges.append((src, dst))

    num_inter = int(num_nodes * inter_edge_fraction)
    for _ in range(num_inter):
        src = rng.randrange(num_nodes)
        dst = rng.randrange(num_nodes)
        if src != dst:
            edges.append((src, dst))

    num_hubs = int(num_nodes * hub_fraction)
    for hub in rng.sample(range(num_nodes), num_hubs) if num_hubs else []:
        burst = rng.randint(20, 60)
        for _ in range(burst):
            dst = rng.randrange(num_nodes)
            if dst != hub:
                edges.append((hub, dst))

    return _edges_to_graph(edges, num_nodes)


def random_graph(num_nodes: int, num_edges: int, seed: int = 0) -> DiGraph:
    """Uniform Erdős–Rényi-style random directed graph (testing helper)."""
    rng = random.Random(seed)
    edges: List[Edge] = []
    for _ in range(num_edges):
        src = rng.randrange(num_nodes)
        dst = rng.randrange(num_nodes)
        if src != dst:
            edges.append((src, dst))
    return _edges_to_graph(edges, num_nodes)

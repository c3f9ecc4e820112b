"""General regular path queries over a labeled knowledge graph.

The paper's evaluation focuses on k-hop queries, but the system (like
any RPQ engine) supports full path regular expressions over edge labels.
This example builds a small synthetic academic knowledge graph —
authors, papers, venues, institutions — and runs labeled RPQs such as
"co-author of a co-author" or "institutions reachable through any chain
of affiliations and collaborations" on Moctopus and on the
RedisGraph-like baseline, verifying both against the reference
evaluator.

Run with::

    python examples/knowledge_graph_rpq.py
"""

from __future__ import annotations

import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro import Moctopus, MoctopusConfig
from repro.graph import DiGraph
from repro.paper import RedisGraphEngine
from repro.pim import scaled_cost_model
from repro.rpq import RPQuery, evaluate_rpq

#: Edge labels, as the integer ids the engines match on.
LABELS = {
    "writes": 1,
    "written_by": 2,
    "published_at": 3,
    "affiliated_with": 4,
    "partner_of": 5,
}

def build_knowledge_graph(
    num_authors: int = 600,
    num_papers: int = 900,
    num_venues: int = 25,
    num_institutions: int = 40,
    seed: int = 42,
) -> DiGraph:
    """Authors write papers, papers appear at venues, authors have affiliations."""
    rng = random.Random(seed)
    graph = DiGraph()
    authors = list(range(num_authors))
    papers = list(range(num_authors, num_authors + num_papers))
    venues = list(range(papers[-1] + 1, papers[-1] + 1 + num_venues))
    institutions = list(range(venues[-1] + 1, venues[-1] + 1 + num_institutions))

    for node in authors + papers + venues + institutions:
        graph.add_node(node)

    for paper in papers:
        num_coauthors = 1 + rng.randrange(4)
        for author in rng.sample(authors, num_coauthors):
            graph.add_edge(author, paper, LABELS["writes"])
            graph.add_edge(paper, author, LABELS["written_by"])
        graph.add_edge(paper, rng.choice(venues), LABELS["published_at"])
    for author in authors:
        graph.add_edge(author, rng.choice(institutions), LABELS["affiliated_with"])
    for institution in institutions:
        if rng.random() < 0.3:
            graph.add_edge(institution, rng.choice(institutions), LABELS["partner_of"])
    return graph


def main() -> None:
    adjacency = build_knowledge_graph()
    label_names = {label: name for name, label in LABELS.items()}
    print(f"knowledge graph: {adjacency.num_nodes} nodes, {adjacency.num_edges} edges")

    moctopus = Moctopus.from_graph(
        adjacency, MoctopusConfig(cost_model=scaled_cost_model()), label_names=label_names
    )
    redisgraph = RedisGraphEngine.from_graph(adjacency, label_names=label_names)

    rng = random.Random(3)
    author_sources = rng.sample(range(600), 32)

    queries = {
        "papers written": "writes",
        "co-authors": "writes/written_by",
        "co-authors of co-authors": "(writes/written_by){2}",
        "venues reachable through collaboration": "(writes/written_by)*/writes/published_at",
        "institutions of co-authors": "writes/written_by/affiliated_with",
        "partner institutions (transitively)": "affiliated_with/partner_of+",
    }

    for description, expression in queries.items():
        query = RPQuery(expression, sources=list(author_sources))
        expected = evaluate_rpq(adjacency, query, label_names=label_names)
        moctopus_result, moctopus_stats = moctopus.execute(query)
        redis_result, redis_stats = redisgraph.execute(query)
        assert moctopus_result == expected and redis_result == expected
        print(f"  {description:<40} {expression:<38} "
              f"{moctopus_result.total_matches:>6} matches  "
              f"moctopus {moctopus_stats.total_time_ms:7.3f} ms  "
              f"redisgraph {redis_stats.total_time_ms:7.3f} ms")

    print("\nall RPQ answers verified against the reference evaluator")


if __name__ == "__main__":
    main()

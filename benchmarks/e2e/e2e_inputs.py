"""Deterministic input generators: everything derives from ``--seed``.

The program under test receives only what these functions produce — the
graph, source batches, the Zipf draw, the wire request stream and the
update script.  Each has a SHA-256 so two runs can prove they measured
the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Sequence, Set, Tuple

import e2e_spec as spec
from repro.graph import DiGraph, power_law_graph
from repro.graph.stream import UpdateKind, UpdateOp

Edge = Tuple[int, int]


def rng_for(seed: int, purpose: str) -> random.Random:
    """An independent, reproducible stream per (seed, purpose).

    String seeds hash with SHA-512, so streams are stable across processes.
    """
    return random.Random(f"e2e:{seed}:{purpose}")


def _jsonable(value: object) -> object:
    if isinstance(value, UpdateOp):
        return [value.kind.value, value.src, value.dst]
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    raise TypeError(f"cannot hash {type(value).__name__}")


def sha256_of(value: object) -> str:
    """SHA-256 of the canonical JSON form of an op script."""
    payload = json.dumps(value, separators=(",", ":"), sort_keys=True, default=_jsonable)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Graph
# ----------------------------------------------------------------------
def build_graph(seed: int, scale: str = "full") -> DiGraph:
    """The shared labelled power-law graph for ``seed``."""
    args = spec.GRAPH_ARGS[scale]
    base = power_law_graph(
        int(args["num_nodes"]),
        edges_per_node=int(args["edges_per_node"]),
        skew=args["skew"],
        reciprocity=args["reciprocity"],
        seed=seed,
    )
    rng = rng_for(seed, "labels")
    a_below, b_below, total = spec.LABEL_ROLL
    graph = DiGraph()
    for node in base.nodes():
        graph.add_node(node)
    for src, dst in base.edges():
        roll = rng.randrange(total)
        graph.add_edge(src, dst, label=1 if roll < a_below else (2 if roll < b_below else 3))
    return graph


def graph_sha256(graph: DiGraph) -> str:
    """SHA-256 over the labelled edges in insertion order."""
    digest = hashlib.sha256()
    for src, dst, label in graph.labeled_edges():
        digest.update(b"%d,%d,%d;" % (src, dst, label))
    return digest.hexdigest()


def sample_sources(rng: random.Random, nodes: Sequence[int], count: int) -> List[int]:
    """``count`` start nodes drawn uniformly, with replacement."""
    return [nodes[rng.randrange(len(nodes))] for _ in range(count)]


def source_batches(
    seed: int, purpose: str, nodes: Sequence[int], count: int, size: int
) -> List[List[int]]:
    """``count`` source batches of ``size`` from the ``purpose`` stream."""
    rng = rng_for(seed, purpose)
    return [sample_sources(rng, nodes, size) for _ in range(count)]


# ----------------------------------------------------------------------
# khop_batch
# ----------------------------------------------------------------------
def khop_ops(seed: int, nodes: Sequence[int], calls: int) -> Dict[str, list]:
    """Warm-up and timed ``(hops, sources)`` calls, hops cycling 1,2,3."""
    rng = rng_for(seed, "khop")
    warmup = [
        (hops, sample_sources(rng, nodes, spec.KHOP_BATCH_SOURCES))
        for hops in spec.KHOP_WARMUP_HOPS
    ]
    cycle = spec.KHOP_HOPS_CYCLE
    timed = [
        (cycle[index % len(cycle)], sample_sources(rng, nodes, spec.KHOP_BATCH_SOURCES))
        for index in range(calls)
    ]
    return {"warmup": warmup, "timed": timed}


# ----------------------------------------------------------------------
# rpq_session
# ----------------------------------------------------------------------
def rpq_expression_at(rank: int) -> str:
    """Expression of the query at popularity ``rank`` (0 = hottest)."""
    if rank in spec.RPQ_HEAVY_RANKS:
        return spec.RPQ_HEAVY_EXPRESSION
    return spec.RPQ_EXPRESSIONS[rank % len(spec.RPQ_EXPRESSIONS)]


def stratified_sources(rng: random.Random, by_degree: Sequence[int], count: int) -> List[int]:
    """One node from each of ``count`` equal-size strata of ``by_degree``, in random order.

    Every node is as likely to be drawn as under uniform sampling, but a
    batch can no longer be all hubs or all leaves.
    """
    size = len(by_degree)
    batch = [
        by_degree[rng.randrange(index * size // count, (index + 1) * size // count)]
        for index in range(count)
    ]
    rng.shuffle(batch)
    return batch


def rpq_ops(seed: int, graph: DiGraph, distinct: int, executes: int) -> Dict[str, list]:
    """Distinct ``(expression, sources)`` queries and the Zipf draw over them.

    A Zipf(1.1) draw sends a fifth of all calls to the hottest query, so
    the 16 sources of a handful of queries set the cost of the whole
    workload, and result sizes are heavy-tailed in the source's degree:
    with uniformly drawn batches the simulated time of a pass swung by a
    fifth of its median from seed to seed (quartile spread over ten
    seeds), with batches stratified by out-degree by a tenth.
    """
    rng = rng_for(seed, "rpq")
    nodes = list(graph.nodes())
    by_degree = sorted(nodes, key=lambda node: (graph.out_degree(node), node))
    queries = [
        (rpq_expression_at(rank), stratified_sources(rng, by_degree, spec.RPQ_SOURCES))
        for rank in range(distinct)
    ]
    weights = [1.0 / (rank + 1) ** spec.RPQ_ZIPF_S for rank in range(distinct)]
    draws = rng.choices(range(distinct), weights=weights, k=executes)
    # Warm-up uses queries outside the mix so it fills no cache entry.
    warmup = [
        (spec.RPQ_EXPRESSIONS[i], sample_sources(rng, nodes, spec.RPQ_SOURCES)) for i in (0, 4)
    ]
    return {"queries": queries, "draws": draws, "warmup": warmup}


# ----------------------------------------------------------------------
# wire_serve
# ----------------------------------------------------------------------
def wire_requests(seed: int, nodes: Sequence[int], count: int, phase: str) -> List[Dict]:
    """Single-source QUERY frames (without ids), sources uniform over nodes."""
    rng = rng_for(seed, f"wire:{phase}")
    requests = []
    for _ in range(count):
        roll = rng.random()
        source = nodes[rng.randrange(len(nodes))]
        for below, shape in spec.WIRE_MIX:
            if roll < below:
                requests.append({"type": "query", "source": source, **shape})
                break
    return requests


# ----------------------------------------------------------------------
# update_mixed
# ----------------------------------------------------------------------
def update_script(
    graph: DiGraph, seed: int, batches: int
) -> Tuple[List[List[UpdateOp]], Set[Edge]]:
    """Mixed insert/delete batches plus the edge set they leave behind.

    Deletions must hit edges that exist at that point and insertions must
    be new, so the script is generated against a scratch mirror of the
    edge set (an array with swap-remove, so sampling stays O(1)).  No
    edge is touched twice within one batch.
    """
    rng = rng_for(seed, "updates")
    edges: List[Edge] = list(graph.edges())
    position = {edge: index for index, edge in enumerate(edges)}
    nodes = list(graph.nodes())
    next_new_node = max(nodes) + 1
    script: List[List[UpdateOp]] = []
    for _ in range(batches):
        ops: List[UpdateOp] = []
        touched: Set[Edge] = set()
        while len(ops) < spec.UPDATE_BATCH_OPS:
            if rng.random() < spec.UPDATE_INSERT_FRACTION:
                if rng.random() < spec.UPDATE_NEW_NODE_FRACTION:
                    src = next_new_node + rng.randrange(spec.UPDATE_BATCH_OPS)
                else:
                    src = nodes[rng.randrange(len(nodes))]
                edge = (src, nodes[rng.randrange(len(nodes))])
                if edge[0] == edge[1] or edge in position or edge in touched:
                    continue
                position[edge] = len(edges)
                edges.append(edge)
                ops.append(UpdateOp(UpdateKind.INSERT, *edge))
            else:
                index = rng.randrange(len(edges))
                edge = edges[index]
                if edge in touched:
                    continue
                last = edges.pop()
                if last != edge:
                    edges[index] = last
                    position[last] = index
                del position[edge]
                ops.append(UpdateOp(UpdateKind.DELETE, *edge))
            touched.add(edge)
        script.append(ops)
    return script, set(edges)

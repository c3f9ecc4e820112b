"""The paper's evaluation as one deterministic record.

``python -m repro.paper`` regenerates Table 1, Figures 4-6, the three
ablations and the headline claims of the paper on the synthetic
stand-ins of the Table 1 traces, prints them as tables, and writes
``REPRODUCTION.json`` into the working directory.  It takes no options:
the record is always the full sweep at scale 1.0.

Every value in the record is a simulated work counter or a ratio of
such counters, so regenerating it gives the same bytes.  That holds
because no entry depends on what ran before it:

* each trace gets its own system set (:func:`build_systems`), and its
  experiments run in one fixed order — Table 1 statistics, Figure 4 at
  k = 1, 2, 3 (then 4, 6, 8 on the road networks #1-#3), Figure 5 at
  k = 3; Figure 6 builds fresh systems because updates mutate them;
* each ablation builds its own systems on its own trace;
* the headline claims are derived from the per-trace rows, never
  re-measured.

So :func:`trace_entry` of one trace equals that trace's entry in the
full record, which is what the test suite checks.  Beside every number
the paper states (Table 1 and the headline) the record carries the
paper's value.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, Iterable, List

from repro.core.config import MoctopusConfig
from repro.graph.datasets import HIGH_DEGREE_THRESHOLD, dataset_spec, dataset_statistics
from repro.paper.adaptive import AdaptivePartitioner
from repro.paper.ldg import LDGPartitioner
from repro.paper.placement import placed_at
from repro.paper.report import format_table, geometric_mean
from repro.paper.runner import (
    build_systems,
    charges,
    load_trace,
    run_ipc_experiment,
    run_khop_experiment,
    run_update_experiment,
)
from repro.paper.workloads import DEFAULT_BATCH_SIZE, DEFAULT_NUM_MODULES, khop_workload
from repro.partition import (
    HashPartitioner,
    RadicalGreedyPartitioner,
    evaluate_partition,
    load_imbalance,
    partition_static_graph,
)
from repro.pim.cost_model import scaled_cost_model

__all__ = [
    "RECORD_NAME",
    "trace_entry",
    "ablation_partitioners",
    "ablation_capacity",
    "ablation_threshold",
    "headline",
    "geomean_speedup",
    "reproduce",
    "render",
    "dump",
    "main",
]

#: File the record is written to, in the working directory.
RECORD_NAME = "REPRODUCTION.json"

TRACES = tuple(range(1, 16))
#: Figure 4(a-c) runs on every trace; 4(d-f) only on the road networks,
#: where the matched-path count stays bounded.
SHORT_HOPS = (1, 2, 3)
LONG_HOPS = (4, 6, 8)
ROAD_TRACES = (1, 2, 3)
#: Road networks and co-purchase graphs (Moctopus vs RedisGraph) and the
#: highly skewed traces (Moctopus vs PIM-hash) of Figure 4.
LESS_SKEWED_TRACES = (1, 2, 3, 7, 13, 14, 15)
HIGHLY_SKEWED_TRACES = (5, 6, 8, 11, 12)

#: A1: one trace per structural family (road, community, web).
PARTITIONER_TRACES = (1, 7, 12)
#: A2 on #7 (com-amazon), where the locality/balance trade-off shows.
CAPACITY_TRACE = 7
CAPACITY_FACTORS = (1.01, 1.05, 1.25, 1.5, 2.0)
#: A3 on #12 (web-Stanford), the most skewed trace; ``None`` = no labor division.
THRESHOLD_TRACE = 12
THRESHOLDS = (4, 8, 16, 32, 64, None)

#: The abstract's and Section 4's aggregate claims.
PAPER_HEADLINE = {
    "max_speedup_vs_redisgraph": 10.67,
    "max_speedup_vs_pim_hash_skewed": 2.98,
    "avg_ipc_reduction_pct": 89.56,
    "avg_insert_speedup": 30.01,
    "avg_delete_speedup": 52.59,
    "max_insert_speedup": 81.45,
    "max_delete_speedup": 209.31,
}


def _key(trace_id: int) -> str:
    return f"#{trace_id}"


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def trace_entry(trace_id: int) -> Dict[str, object]:
    """Every per-trace experiment of ``trace_id``, in the fixed order."""
    spec = dataset_spec(trace_id)
    graph = load_trace(trace_id)
    systems = build_systems(graph)
    statistics = dataset_statistics(graph, threshold=HIGH_DEGREE_THRESHOLD)
    entry: Dict[str, object] = {
        "name": spec.name,
        "table1": {
            "paper_nodes": spec.paper_nodes,
            "nodes": int(statistics["nodes"]),
            "edges": int(statistics["edges"]),
            "paper_hd_pct": spec.paper_high_degree_pct,
            "hd_pct": statistics["high_degree_pct"],
        },
    }
    hops = SHORT_HOPS + (LONG_HOPS if trace_id in ROAD_TRACES else ())
    for k in hops:
        entry[f"fig4_k{k}"] = run_khop_experiment(systems, hops=k)
    entry["fig5"] = run_ipc_experiment(systems, hops=3)
    entry["fig6"] = run_update_experiment(graph)
    return entry


def ablation_partitioners() -> Dict[str, Dict[str, Dict[str, object]]]:
    """A1: partition quality and overhead of each placement algorithm.

    Overhead is the proxy the paper argues about: partitions scanned per
    placement for LDG, migrations for the adaptive method.
    """
    entry = {}
    for trace_id in PARTITIONER_TRACES:
        graph = load_trace(trace_id)
        partitioners = {
            "hash": HashPartitioner(DEFAULT_NUM_MODULES),
            "ldg": LDGPartitioner(DEFAULT_NUM_MODULES, expected_nodes=graph.num_nodes),
            "adaptive": AdaptivePartitioner(DEFAULT_NUM_MODULES),
            "radical-greedy": RadicalGreedyPartitioner(DEFAULT_NUM_MODULES),
        }
        rows = {}
        for name, partitioner in partitioners.items():
            partition_map = partition_static_graph(partitioner, graph)
            overhead = 0
            if isinstance(partitioner, AdaptivePartitioner):
                partitioner.converge(max_rounds=3)
                partition_map = partitioner.partition_map
                overhead = partitioner.migrations
            elif isinstance(partitioner, LDGPartitioner):
                overhead = partitioner.partitions_scanned
            quality = evaluate_partition(graph, partition_map)
            rows[name] = {
                "locality": quality.locality_fraction,
                "edge_cut": quality.edge_cut_fraction,
                "balance": quality.balance_factor,
                "overhead": overhead,
            }
        entry[_key(trace_id)] = rows
    return entry


def ablation_capacity() -> Dict[str, Dict[str, object]]:
    """A2: the capacity-constraint proportion against locality and balance."""
    graph = load_trace(CAPACITY_TRACE)
    cost_model = scaled_cost_model()
    query = khop_workload(graph, hops=3, seed=5)
    entry = {}
    for factor in CAPACITY_FACTORS:
        system = placed_at(capacity_factor=factor).from_graph(
            graph, MoctopusConfig(cost_model=cost_model)
        )
        quality = system.partition_quality()
        _, stats = system.batch_khop(query.sources, query.hops)
        entry[repr(factor)] = {
            "locality": quality.locality_fraction,
            "balance": quality.balance_factor,
            **charges("moctopus", stats),
            "ipc_ms": stats.ipc_time_ms,
        }
    return entry


def ablation_threshold() -> Dict[str, Dict[str, object]]:
    """A3: the labor-division high-degree threshold against host load."""
    graph = load_trace(THRESHOLD_TRACE)
    cost_model = scaled_cost_model()
    query = khop_workload(graph, hops=3, seed=7)
    entry = {}
    for threshold in THRESHOLDS:
        system = placed_at(high_degree_threshold=threshold).from_graph(
            graph, MoctopusConfig(cost_model=cost_model)
        )
        _, stats = system.batch_khop(query.sources, query.hops)
        entry["none" if threshold is None else str(threshold)] = {
            "host_nodes": system.host_node_count(),
            "pim_load_imbalance": load_imbalance(system.pim.load_report()),
            **charges("moctopus", stats),
            "host_ms": stats.host_time * 1e3,
            "pim_ms": stats.pim_time * 1e3,
        }
    return entry


def headline(traces: Dict[str, Dict]) -> Dict[str, Dict[str, float]]:
    """The paper's aggregate claims, derived from the per-trace rows."""
    short = [entry[f"fig4_k{k}"] for k in SHORT_HOPS for entry in traces.values()]
    skewed = [
        traces[_key(trace_id)][f"fig4_k{k}"]
        for k in SHORT_HOPS
        for trace_id in HIGHLY_SKEWED_TRACES
    ]
    reductions = [
        entry["fig5"]["ipc_reduction"]
        for entry in traces.values()
        if entry["fig5"]["pim_hash_ipc_ms"] > 0
    ]
    inserts = [entry["fig6"]["insert_speedup"] for entry in traces.values()]
    deletes = [entry["fig6"]["delete_speedup"] for entry in traces.values()]
    measured = {
        "max_speedup_vs_redisgraph": max(row["speedup_vs_redisgraph"] for row in short),
        "max_speedup_vs_pim_hash_skewed": max(row["speedup_vs_pim_hash"] for row in skewed),
        "avg_ipc_reduction_pct": 100 * sum(reductions) / len(reductions),
        "avg_insert_speedup": geometric_mean(inserts),
        "avg_delete_speedup": geometric_mean(deletes),
        "max_insert_speedup": max(inserts),
        "max_delete_speedup": max(deletes),
    }
    return {
        claim: {"measured": value, "paper": PAPER_HEADLINE[claim]}
        for claim, value in measured.items()
    }


def geomean_speedup(
    traces: Dict[str, Dict], hops: int, trace_ids: Iterable[int], versus: str
) -> float:
    """Geomean of Moctopus's Figure 4 speedup over ``versus`` on ``trace_ids``."""
    return geometric_mean(
        traces[_key(trace_id)][f"fig4_k{hops}"][f"speedup_vs_{versus}"]
        for trace_id in trace_ids
    )


def reproduce() -> Dict[str, object]:
    """The whole record: every trace, every ablation, the headline."""
    traces = {_key(trace_id): trace_entry(trace_id) for trace_id in TRACES}
    return {
        "about": (
            "The paper's evaluation on the synthetic stand-ins of its Table 1 "
            "traces (repro.graph.datasets), regenerated by `python -m repro.paper`. "
            "Times are simulated milliseconds; *_bytes are simulated transfer counters."
        ),
        "config": {
            "scale": 1.0,
            "batch_size": DEFAULT_BATCH_SIZE,
            "num_modules": DEFAULT_NUM_MODULES,
            "high_degree_threshold": HIGH_DEGREE_THRESHOLD,
        },
        "headline": headline(traces),
        "traces": traces,
        "ablations": {
            "a1_partitioners": ablation_partitioners(),
            "a2_capacity": ablation_capacity(),
            "a3_threshold": ablation_threshold(),
        },
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def _table(title: str, headers: List[str], rows: Iterable[List[object]]) -> str:
    return f"{title}\n{format_table(headers, rows)}"


def render(record: Dict[str, object]) -> str:
    """The paper's tables and figures as plain-text tables."""
    traces = record["traces"]
    blocks = [
        _table(
            "Table 1: real-world graphs and their synthetic stand-ins",
            ["trace", "name", "paper_nodes", "nodes", "edges", "paper_hd_pct", "hd_pct"],
            (
                [key, entry["name"], *entry["table1"].values()]
                for key, entry in traces.items()
            ),
        )
    ]
    fig4_fields = ("moctopus_ms", "pim_hash_ms", "redisgraph_ms",
                   "speedup_vs_redisgraph", "speedup_vs_pim_hash")
    for k in SHORT_HOPS + LONG_HOPS:
        if k in SHORT_HOPS:
            title = f"Figure 4({'abc'[k - 1]}): run-time of {k}-hop path queries (ms)"
            summary = (
                f"  geomean speedup vs RedisGraph (less-skewed traces): "
                f"{geomean_speedup(traces, k, LESS_SKEWED_TRACES, 'redisgraph'):.2f}x\n"
                f"  geomean speedup vs PIM-hash (highly skewed traces): "
                f"{geomean_speedup(traces, k, HIGHLY_SKEWED_TRACES, 'pim_hash'):.2f}x"
            )
        else:
            title = f"Figure 4 (long paths): {k}-hop queries on road networks (ms)"
            summary = (
                f"  geomean speedup vs RedisGraph: "
                f"{geomean_speedup(traces, k, ROAD_TRACES, 'redisgraph'):.2f}x"
            )
        blocks.append(_table(
            title,
            ["trace", "name", "moctopus_ms", "pim_hash_ms", "redisgraph_ms",
             "vs_redisgraph", "vs_pim_hash"],
            (
                [key, entry["name"], *(entry[f"fig4_k{k}"][field] for field in fig4_fields)]
                for key, entry in traces.items()
                if f"fig4_k{k}" in entry
            ),
        ) + "\n" + summary)
    blocks.append(_table(
        "Figure 5: IPC cost of Moctopus and PIM-hash processing 3-hop queries",
        ["trace", "name", "moctopus_ipc_ms", "pim_hash_ipc_ms", "reduction_pct"],
        (
            [key, entry["name"], entry["fig5"]["moctopus_ipc_ms"],
             entry["fig5"]["pim_hash_ipc_ms"], 100 * entry["fig5"]["ipc_reduction"]]
            for key, entry in traces.items()
        ),
    ))
    for operation, panel, noun in (("insert", "a", "insertion"), ("delete", "b", "deletion")):
        blocks.append(_table(
            f"Figure 6({panel}): edge {noun} run-time (ms)",
            ["trace", "name", "moctopus_ms", "redisgraph_ms", "speedup"],
            (
                [key, entry["name"], entry["fig6"][f"moctopus_{operation}_ms"],
                 entry["fig6"][f"redisgraph_{operation}_ms"],
                 entry["fig6"][f"{operation}_speedup"]]
                for key, entry in traces.items()
            ),
        ))
    ablations = record["ablations"]
    blocks.append(_table(
        "Ablation A1: partitioning algorithms (per-trace quality)",
        ["trace", "partitioner", "locality", "edge_cut", "balance",
         "overhead (scans/migrations)"],
        (
            [key, name, *row.values()]
            for key, rows in ablations["a1_partitioners"].items()
            for name, row in rows.items()
        ),
    ))
    blocks.append(_table(
        f"Ablation A2: capacity-constraint proportion sweep (trace #{CAPACITY_TRACE})",
        ["capacity_factor", "locality", "balance", "3hop_latency_ms", "ipc_ms"],
        (
            [factor, row["locality"], row["balance"], row["moctopus_ms"], row["ipc_ms"]]
            for factor, row in ablations["a2_capacity"].items()
        ),
    ))
    blocks.append(_table(
        f"Ablation A3: labor-division high-degree threshold sweep (trace #{THRESHOLD_TRACE})",
        ["threshold", "host_nodes", "pim_load_imbalance", "3hop_latency_ms",
         "host_ms", "pim_ms"],
        (
            [threshold, row["host_nodes"], row["pim_load_imbalance"],
             row["moctopus_ms"], row["host_ms"], row["pim_ms"]]
            for threshold, row in ablations["a3_threshold"].items()
        ),
    ))
    blocks.append(_table(
        "Headline claims: paper vs this reproduction (scaled)",
        ["claim", "paper", "measured"],
        (
            [claim, values["paper"], values["measured"]]
            for claim, values in record["headline"].items()
        ),
    ))
    return "\n\n".join(blocks)


def dump(record: Dict[str, object]) -> str:
    """The record as written to disk (floats at ``repr`` precision)."""
    return json.dumps(record, indent=1) + "\n"


def main() -> None:
    """Regenerate, print and write the record."""
    record = reproduce()
    print(render(record))
    path = pathlib.Path(RECORD_NAME)
    path.write_text(dump(record))
    print(f"\nwrote {path.resolve()}")

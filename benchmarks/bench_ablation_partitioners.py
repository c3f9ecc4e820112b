"""Ablation A1 — partitioning algorithm comparison.

Moctopus places low-degree nodes with the radical greedy heuristic
rather than the alternatives the paper discusses (hash, LDG, adaptive;
README.md, "Architecture").  This ablation
partitions a representative subset of traces with each algorithm and
reports edge cut, locality, balance and the partitioning overhead proxy
the paper argues about (partitions scanned per placement for LDG,
migrations for the adaptive method).
"""

from __future__ import annotations

from conftest import bench_scale, bench_traces

from repro.bench import format_table, scaled_cost_model
from repro.graph import dataset_spec, load_dataset
from repro.partition import (
    AdaptivePartitioner,
    HashPartitioner,
    LDGPartitioner,
    RadicalGreedyPartitioner,
    evaluate_partition,
    partition_static_graph,
)

#: One trace per structural family keeps the ablation quick.
DEFAULT_ABLATION_TRACES = (1, 7, 12)


def _ablation_traces():
    selected = [trace for trace in DEFAULT_ABLATION_TRACES if trace in bench_traces()]
    return selected or list(DEFAULT_ABLATION_TRACES)


def _run():
    num_partitions = scaled_cost_model().num_modules
    rows = []
    for trace_id in _ablation_traces():
        spec = dataset_spec(trace_id)
        graph = load_dataset(trace_id, scale=bench_scale())

        partitioners = {
            "hash": HashPartitioner(num_partitions),
            "ldg": LDGPartitioner(num_partitions, expected_nodes=graph.num_nodes),
            "adaptive": AdaptivePartitioner(num_partitions),
            "radical-greedy": RadicalGreedyPartitioner(num_partitions),
        }
        for name, partitioner in partitioners.items():
            partition_map = partition_static_graph(partitioner, graph)
            if isinstance(partitioner, AdaptivePartitioner):
                partitioner.converge(max_rounds=3)
                partition_map = partitioner.partition_map
            quality = evaluate_partition(graph, partition_map)
            overhead = 0
            if isinstance(partitioner, LDGPartitioner):
                overhead = partitioner.partitions_scanned
            elif isinstance(partitioner, AdaptivePartitioner):
                overhead = partitioner.migrations
            rows.append(
                [
                    f"#{trace_id}", spec.name, name,
                    round(quality.locality_fraction, 3),
                    round(quality.edge_cut_fraction, 3),
                    round(quality.balance_factor, 2),
                    overhead,
                ]
            )
    return rows


def test_ablation_partitioning_algorithms(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    print()
    print("Ablation A1: partitioning algorithms (per-trace quality)")
    print(
        format_table(
            ["trace", "name", "partitioner", "locality", "edge_cut", "balance",
             "overhead (scans/migrations)"],
            rows,
        )
    )
    # The radical greedy heuristic must beat hash on locality while paying
    # none of LDG's scanning overhead.
    by_key = {(row[0], row[2]): row for row in rows}
    for trace_id in _ablation_traces():
        trace = f"#{trace_id}"
        assert by_key[(trace, "radical-greedy")][3] >= by_key[(trace, "hash")][3]
        assert by_key[(trace, "radical-greedy")][6] == 0
        assert by_key[(trace, "ldg")][6] > 0

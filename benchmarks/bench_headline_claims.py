"""Experiment E7 — headline claims of the paper, aggregated.

The abstract and Section 4 summarise the evaluation as:

* up to 10.67x speedup over RedisGraph for k-hop RPQs;
* up to 2.98x speedup over PIM-hash on highly skewed graphs;
* 89.56 % average IPC reduction vs PIM-hash at k = 3;
* 30.01x / 52.59x average update speedups (up to 81.45x / 209.31x).

This benchmark computes the same aggregates from the scaled reproduction
and prints them side by side with the paper's numbers.  Only directional
shape is asserted; the measured values are printed by the run.
"""

from __future__ import annotations

from conftest import bench_batch_size, bench_scale, bench_traces

from repro.bench import (
    format_table,
    geometric_mean,
    run_ipc_experiment,
    run_khop_experiment,
    run_update_experiment,
    scaled_cost_model,
)

HIGHLY_SKEWED_TRACES = (5, 6, 8, 11, 12)


def _aggregate(provider):
    khop_rows = []
    for hops in (1, 2, 3):
        khop_rows.extend(
            run_khop_experiment(
                bench_traces(), hops=hops, batch_size=bench_batch_size(),
                provider=provider,
            )
        )
    ipc_rows = run_ipc_experiment(
        bench_traces(), hops=3, batch_size=bench_batch_size(), provider=provider
    )
    update_rows = run_update_experiment(
        bench_traces(), batch_size=bench_batch_size(), scale=bench_scale(),
        cost_model=scaled_cost_model(),
    )
    skewed = {f"#{trace}" for trace in HIGHLY_SKEWED_TRACES}
    reductions = [row["ipc_reduction"] for row in ipc_rows if row["pim_hash_ipc_ms"] > 0]
    return {
        "max_speedup_vs_redisgraph": max(
            row["speedup_vs_redisgraph"] for row in khop_rows
        ),
        "max_speedup_vs_pim_hash_skewed": max(
            row["speedup_vs_pim_hash"] for row in khop_rows if row["trace"] in skewed
        ),
        "avg_ipc_reduction_pct": 100 * sum(reductions) / len(reductions),
        "avg_insert_speedup": geometric_mean(
            [row["insert_speedup"] for row in update_rows]
        ),
        "avg_delete_speedup": geometric_mean(
            [row["delete_speedup"] for row in update_rows]
        ),
        "max_insert_speedup": max(row["insert_speedup"] for row in update_rows),
        "max_delete_speedup": max(row["delete_speedup"] for row in update_rows),
    }


def test_headline_claims(benchmark, provider):
    measured = benchmark.pedantic(_aggregate, args=(provider,), rounds=1, iterations=1)
    paper = {
        "max_speedup_vs_redisgraph": 10.67,
        "max_speedup_vs_pim_hash_skewed": 2.98,
        "avg_ipc_reduction_pct": 89.56,
        "avg_insert_speedup": 30.01,
        "avg_delete_speedup": 52.59,
        "max_insert_speedup": 81.45,
        "max_delete_speedup": 209.31,
    }
    print()
    print("Headline claims: paper vs this reproduction (scaled)")
    print(
        format_table(
            ["claim", "paper", "measured"],
            [[key, paper[key], round(value, 2)] for key, value in measured.items()],
        )
    )
    assert measured["max_speedup_vs_redisgraph"] > 2.0
    assert measured["max_speedup_vs_pim_hash_skewed"] > 1.5
    assert measured["avg_ipc_reduction_pct"] > 40.0
    assert measured["avg_insert_speedup"] > 5.0
    assert measured["avg_delete_speedup"] > 5.0

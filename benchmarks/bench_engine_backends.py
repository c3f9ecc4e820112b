"""Engine-backend benchmark: vectorized vs python wall-clock speedup.

Unlike the figure benchmarks — which report *simulated* latencies — this
experiment measures the **wall-clock** cost of computing those simulated
results, comparing the two execution backends on the Figure 4 k-hop
workload.  Both backends produce bit-identical answers and identical
simulated statistics (asserted per trace), so the only thing that
changes is how fast the reproduction itself runs.

Rows carry the same ``{"trace", "name", ...}`` dict shape as the other
``bench_*`` scripts and flow into the shared pytest-benchmark JSON via
``--benchmark-json``.  The headline assertion: at the default scale the
vectorized backend is at least 3x faster over the whole trace sweep.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest
from conftest import bench_batch_size, bench_traces

from repro.bench import format_table, geometric_mean
from repro.bench.workloads import khop_workload
from repro.graph import dataset_spec

#: Wall-clock rounds per engine; the minimum is reported (noise floor).
TIMING_ROUNDS = 3


def _time_engine(system, engine, query):
    """Best-of-N wall-clock of one backend on one batch query."""
    system.use_engine(engine)
    # One untimed round warms the CSR snapshots / owner caches, exactly
    # as a live query stream would have.
    result, stats = system.batch_khop(query.sources, query.hops, auto_migrate=False)
    best = float("inf")
    for _ in range(TIMING_ROUNDS):
        start = time.perf_counter()
        result, stats = system.batch_khop(
            query.sources, query.hops, auto_migrate=False
        )
        best = min(best, time.perf_counter() - start)
    return best, result, stats


def _run(provider, hops, batch_size):
    rows = []
    for trace_id in bench_traces():
        spec = dataset_spec(trace_id)
        systems = provider.get(trace_id)
        moctopus = systems.moctopus
        query = khop_workload(systems.graph, hops=hops, batch_size=batch_size, seed=0)

        # The provider's systems are session-shared with the figure
        # benchmarks; our timing rounds run with auto_migrate=False, so
        # restore the misplacement-report backlog afterwards or the next
        # figure's first query would apply migrations seeded here.
        pending_before = np.asarray(
            moctopus._migrator.capture_pending(), dtype=np.int64
        ).reshape(-1, 3)

        python_s, python_result, python_stats = _time_engine(
            moctopus, "python", query
        )
        vectorized_s, vectorized_result, vectorized_stats = _time_engine(
            moctopus, "vectorized", query
        )
        # Restore the configured backend for the other figure benchmarks
        # sharing this provider session.
        moctopus.use_engine(moctopus.config.engine)
        moctopus._migrator.restore_pending(pending_before)

        if python_result != vectorized_result:
            raise AssertionError(
                f"trace #{trace_id}: engines disagree on results"
            )
        if python_stats.breakdown() != vectorized_stats.breakdown():
            raise AssertionError(
                f"trace #{trace_id}: engines disagree on simulated stats"
            )

        rows.append(
            {
                "trace": f"#{trace_id}",
                "name": spec.name,
                "hops": hops,
                "python_wall_ms": python_s * 1e3,
                "vectorized_wall_ms": vectorized_s * 1e3,
                "speedup": python_s / vectorized_s,
                "matches": python_result.total_matches,
            }
        )
    return rows


@pytest.mark.parametrize("hops", [3])
def test_engine_backend_speedup(benchmark, provider, hops):
    batch_size = bench_batch_size()
    rows = benchmark.pedantic(
        _run, args=(provider, hops, batch_size), rounds=1, iterations=1
    )

    print()
    print(f"Engine backends: wall-clock of {hops}-hop batches (ms)")
    print(
        format_table(
            ["trace", "name", "python_wall_ms", "vectorized_wall_ms",
             "speedup", "matches"],
            [
                [row["trace"], row["name"], row["python_wall_ms"],
                 row["vectorized_wall_ms"], row["speedup"], row["matches"]]
                for row in rows
            ],
        )
    )

    total_python = sum(row["python_wall_ms"] for row in rows)
    total_vectorized = sum(row["vectorized_wall_ms"] for row in rows)
    overall = total_python / total_vectorized
    print(
        f"  overall speedup: {overall:.2f}x  "
        f"(geomean per trace: {geometric_mean([r['speedup'] for r in rows]):.2f}x)"
    )
    if len(rows) >= 10 and not os.environ.get("REPRO_BENCH_LAX"):
        # The acceptance bar only applies to the full default sweep;
        # restricted smoke runs (REPRO_BENCH_TRACES) just report, and
        # REPRO_BENCH_LAX=1 opts out on slow/loaded machines where a
        # wall-clock ratio is not a code property.
        assert overall >= 3.0, (
            "vectorized backend should be at least 3x faster wall-clock "
            f"on the fig-4 workload, got {overall:.2f}x "
            "(set REPRO_BENCH_LAX=1 to report without asserting)"
        )

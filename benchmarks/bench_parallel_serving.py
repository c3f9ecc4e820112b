"""Parallel-serving benchmark: worker-pool scatter vs one-process drain.

The serving layer's :class:`~repro.serve.scheduler.BatchScheduler`
already coalesces concurrent single-source queries into engine batches;
this benchmark measures the *next* multiplier — executing those
coalesced batches on real cores instead of time-slicing one GIL.  The
workload is the fig-4 style sweep (mixed hop counts over a random
graph, many pipelined clients) driven through two schedulers on the
same system:

``in-process``
    the single-process :class:`~repro.serve.scheduler.BatchScheduler`:
    every window's hop-groups execute sequentially on the drain thread;
``parallel``
    ``system.serve(parallel=N)``: the same scheduler scatters each
    window's hop-groups across ``N`` worker processes attached
    zero-copy to shared-memory epoch exports, and gathers in
    submission order.

Both phases must produce identical answers (the differential suite in
``tests/test_parallel_serving.py`` additionally proves bit-identical
statistics and epoch stamps).  The headline gate is ``parallel``
throughput >= 2x ``in-process`` at 4 workers — enforced when the host
actually grants >= 4 usable cores (the CI runner configuration); hosts
with fewer cores run the same workload as a correctness smoke and
record the measured speedup without asserting a bar multi-core hardware
is needed to reach.

Run styles::

    python -m pytest benchmarks/bench_parallel_serving.py -q -s   # smoke
    python benchmarks/bench_parallel_serving.py                   # table
    python benchmarks/bench_parallel_serving.py --json BENCH_parallel.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from typing import Dict, List, Set, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
for path in (_SRC, _HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro.bench import format_table  # noqa: E402
from repro.core import Moctopus, MoctopusConfig  # noqa: E402
from repro.graph import random_graph  # noqa: E402
from repro.pim import CostModel  # noqa: E402

#: Throughput multiplier the parallel phase must show at ``WORKERS``
#: workers (CI overrides via the environment).
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_PARALLEL_SPEEDUP", "2.0"))

#: Worker processes of the parallel phase (the acceptance bar's 4).
WORKERS = int(os.environ.get("REPRO_BENCH_PARALLEL_WORKERS", "4"))

NUM_CLIENTS = 8
#: The fig-4 hop sweep: each depth is measured as its own phase pair
#: (like the paper's per-``k`` bars) and the headline speedup is the
#: geometric mean across depths.  Depths start at 2 so a coalesced
#: batch carries enough traversal work to amortize the scatter/gather
#: IPC (a 1-hop batch is sub-millisecond).
HOP_SWEEP = (2, 3, 4)
PIPELINE_DEPTH = 8


def usable_cpus() -> int:
    """Cores this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _sizes() -> Tuple[int, int, int]:
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    per_client = int(os.environ.get("REPRO_BENCH_PARALLEL_QUERIES", "16"))
    return int(8000 * scale), int(48000 * scale), per_client


def _build_system(num_nodes: int, num_edges: int) -> Moctopus:
    # The scalar engine spends its time in Python bytecode — exactly the
    # workload the GIL serializes and worker processes parallelize.
    config = MoctopusConfig(
        cost_model=CostModel(num_modules=16),
        engine="python",
    )
    system = Moctopus.from_graph(
        random_graph(num_nodes, num_edges, seed=13), config
    )
    # Prime CSR bases / owner capture outside the timed region.
    system.batch_khop(list(range(64)), 2, auto_migrate=False)
    return system


def _client_sources(
    client: int, per_client: int, num_nodes: int
) -> List[int]:
    return [
        (client * 7919 + index * 104729) % num_nodes
        for index in range(per_client)
    ]


def _run_phase(
    system: Moctopus,
    per_client: int,
    num_nodes: int,
    hops: int,
    parallel: int,
) -> Tuple[float, Dict[Tuple[int, int], Set[int]], int]:
    """Drive the pipelined clients through one scheduler configuration."""
    answers: Dict[Tuple[int, int], Set[int]] = {}
    answers_lock = threading.Lock()
    with system.serve(parallel=parallel) as scheduler:
        # Warm the lazy machinery outside the timed region: epoch
        # export + worker attach + per-process engine construction for
        # the pool, engine construction for the in-process path.
        scheduler.query(0, hops)

        def client(client_id: int) -> None:
            pending: List[Tuple[Tuple[int, int], object]] = []
            for index, source in enumerate(
                _client_sources(client_id, per_client, num_nodes)
            ):
                key = (client_id, index)
                pending.append((key, scheduler.submit(source, hops)))
                if len(pending) >= PIPELINE_DEPTH:
                    done_key, future = pending.pop(0)
                    # Wait *outside* the lock: one straggler batch must
                    # not serialize the other seven clients' pipelines.
                    value = future.result(120)
                    with answers_lock:
                        answers[done_key] = value
            for done_key, future in pending:
                value = future.result(120)
                with answers_lock:
                    answers[done_key] = value

        threads = [
            threading.Thread(target=client, args=(client_id,))
            for client_id in range(NUM_CLIENTS)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        batches = scheduler.batches_executed
    return elapsed, answers, batches


def _geomean(values: List[float]) -> float:
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def run_sweep(verbose: bool = True) -> Dict[str, object]:
    num_nodes, num_edges, per_client = _sizes()
    total_queries = NUM_CLIENTS * per_client
    cpus = usable_cpus()
    system = _build_system(num_nodes, num_edges)

    rows = []
    per_hop: List[Dict[str, object]] = []
    speedups: List[float] = []
    for hops in HOP_SWEEP:
        baseline_seconds, baseline_answers, baseline_batches = _run_phase(
            system, per_client, num_nodes, hops, parallel=0
        )
        parallel_seconds, parallel_answers, parallel_batches = _run_phase(
            system, per_client, num_nodes, hops, parallel=WORKERS
        )
        if parallel_answers != baseline_answers:
            raise AssertionError(
                f"parallel serving changed {hops}-hop query answers"
            )
        speedup = baseline_seconds / parallel_seconds
        speedups.append(speedup)
        per_hop.append(
            {
                "hops": hops,
                "in_process_seconds": baseline_seconds,
                "parallel_seconds": parallel_seconds,
                "in_process_batches": baseline_batches,
                "parallel_batches": parallel_batches,
                "speedup": speedup,
            }
        )
        rows.append(
            (
                f"k={hops}",
                f"{baseline_seconds * 1000:.1f}",
                f"{parallel_seconds * 1000:.1f}",
                f"{total_queries / baseline_seconds:.0f}",
                f"{total_queries / parallel_seconds:.0f}",
                f"{speedup:.2f}x",
            )
        )

    overall = _geomean(speedups)
    gate_enforced = cpus >= max(2, WORKERS)
    if verbose:
        print()
        print(
            f"parallel serving (fig-4 sweep): {num_nodes} nodes / "
            f"{num_edges} edges, {NUM_CLIENTS} clients x {per_client} "
            f"queries per depth, {WORKERS} workers, {cpus} usable cpu(s)"
        )
        print(
            format_table(
                [
                    "depth",
                    "in-proc (ms)",
                    f"x{WORKERS} (ms)",
                    "in-proc q/s",
                    f"x{WORKERS} q/s",
                    "speedup",
                ],
                rows,
            )
        )
        gate_note = (
            f"(required >= {MIN_SPEEDUP:.1f}x)"
            if gate_enforced
            else f"(gate skipped: {cpus} < {max(2, WORKERS)} usable cpus)"
        )
        print(
            f"geometric-mean parallel speedup: {overall:.2f}x {gate_note}"
        )
    return {
        "workload": {
            "nodes": num_nodes,
            "edges": num_edges,
            "clients": NUM_CLIENTS,
            "queries_per_client": per_client,
            "hop_sweep": list(HOP_SWEEP),
            "workers": WORKERS,
        },
        "usable_cpus": cpus,
        "per_hop": per_hop,
        "throughput_speedup": overall,
        "min_speedup_required": MIN_SPEEDUP,
        "gate_enforced": gate_enforced,
    }


def test_parallel_serving_speedup():
    """Headline: 4 worker processes >= 2x in-process scheduler throughput
    (enforced on hosts granting enough cores; correctness always)."""
    report = run_sweep(verbose=True)
    if not report["gate_enforced"]:
        import pytest

        pytest.skip(
            f"only {report['usable_cpus']} usable cpu(s): throughput gate "
            "needs multi-core hardware; answers were still verified"
        )
    assert report["throughput_speedup"] >= MIN_SPEEDUP, (
        f"parallel serving {report['throughput_speedup']:.2f}x below the "
        f"{MIN_SPEEDUP:.1f}x bar"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--json", metavar="PATH", help="write the report as JSON to PATH"
    )
    args = parser.parse_args()
    report = run_sweep(verbose=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"report written to {args.json}")
    if (
        report["gate_enforced"]
        and report["throughput_speedup"] < MIN_SPEEDUP
    ):
        print(
            f"FAIL: speedup {report['throughput_speedup']:.2f}x below "
            f"{MIN_SPEEDUP:.1f}x",
            file=sys.stderr,
        )
        sys.exit(1)


if __name__ == "__main__":
    main()

"""Matrix-engine benchmark: masked SpGEMM vs vectorized push wall-clock.

Like ``bench_engine_backends.py`` this measures the **wall-clock** cost
of computing the simulated results, not the simulated latencies: the
matrix backend is required to produce bit-identical answers and
bit-identical statistics to the vectorized backend (asserted per entry),
so the only thing allowed to differ is how fast the reproduction runs.

Two sweeps:

* the fig-4 k-hop sweep — dense multi-hop batches over an unlabeled
  graph, the regime the pull kernel is built for: the vectorized push
  path re-sorts its produced edges by destination every phase
  (``O(E' log E')``), while the matrix engine amortises that grouping
  into one per-snapshot transposed block and runs each phase as a
  gather + ``bitwise_or.reduceat``;
* a DFA sweep — labeled RPQ expressions over per-label transposed
  blocks, where only edges whose label some live automaton state
  accepts are touched.

The acceptance gate applies to the fig-4 k-hop sweep: the matrix
backend must be at least ``MIN_SPEEDUP`` (default 1.5x) faster by
geometric mean.  The DFA sweep is reported (and parity-checked) but not
gated — sparse automaton frontiers legitimately fall back to push.

Run styles::

    python -m pytest benchmarks/bench_matrix_engine.py -q -s   # smoke
    python benchmarks/bench_matrix_engine.py                   # table
    python benchmarks/bench_matrix_engine.py --json BENCH_matrix.json
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from typing import Dict, List, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
for path in (_SRC, _HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro.paper import format_table, geometric_mean  # noqa: E402
from repro.core import Moctopus, MoctopusConfig  # noqa: E402
from repro.graph import DiGraph, random_graph  # noqa: E402
from repro.pim import CostModel  # noqa: E402
from repro.rpq import RPQuery, random_source_batch  # noqa: E402

#: Wall-clock geomean speedup the matrix backend must show over the
#: vectorized backend on the fig-4 k-hop sweep.
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP_MATRIX", "1.5"))

#: Timed rounds per (entry, engine); the minimum is reported (noise floor).
TIMING_ROUNDS = 3

#: The fig-4 k-hop sweep: (hops, batch size) per entry.
KHOP_SWEEP: List[Tuple[int, int]] = [(2, 64), (3, 64), (4, 64), (6, 64), (4, 128)]

#: The DFA sweep: labeled RPQ expressions (reported, not gated).
RPQ_SWEEP: List[str] = [".{2}", ".{3}", "a/b", "(a|b)/c", "a/b*"]


def _sizes() -> Tuple[int, int]:
    """(nodes, edges) honoring the shared ``REPRO_BENCH_SCALE`` knob.

    Average degree ~100: the paper's fig-4 evaluation graphs are dense
    (frontiers saturate within a hop or two), which is the regime where
    expansion dominates the shared result materialization and the
    pre-transposed pull kernel pays off.
    """
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    return int(6000 * scale), int(600000 * scale)


def build_graph(seed: int = 5) -> Tuple[DiGraph, Dict[int, str]]:
    """A labeled random graph shared by both sweeps."""
    num_nodes, num_edges = _sizes()
    base = random_graph(num_nodes, num_edges, seed=seed)
    rng = random.Random(seed)
    graph = DiGraph()
    for src, dst in base.edges():
        graph.add_edge(src, dst, label=rng.randrange(1, 4))
    return graph, {1: "a", 2: "b", 3: "c"}


def build_system(graph: DiGraph, labels: Dict[int, str]) -> Moctopus:
    config = MoctopusConfig(cost_model=CostModel(num_modules=4))
    return Moctopus.from_graph(graph, config, label_names=labels)


def _time_query(system: Moctopus, engine: str, run):
    """Best-of-N wall-clock of ``run()`` on ``engine`` (one warm round)."""
    system.use_engine(engine)
    result, stats = run()
    best = float("inf")
    for _ in range(TIMING_ROUNDS):
        start = time.perf_counter()
        result, stats = run()
        best = min(best, time.perf_counter() - start)
    return best, result, stats


def _compare(system: Moctopus, name: str, run) -> Dict[str, object]:
    vector_s, vector_result, vector_stats = _time_query(
        system, "vectorized", run
    )
    matrix_s, matrix_result, matrix_stats = _time_query(system, "matrix", run)
    if matrix_result != vector_result:
        raise AssertionError(f"{name}: engines disagree on results")
    if matrix_stats.breakdown() != vector_stats.breakdown():
        raise AssertionError(f"{name}: engines disagree on simulated stats")
    return {
        "name": name,
        "vectorized_wall_ms": vector_s * 1e3,
        "matrix_wall_ms": matrix_s * 1e3,
        "speedup": vector_s / matrix_s,
        "matches": vector_result.total_matches,
    }


def run_sweep(verbose: bool = True) -> Dict[str, object]:
    graph, labels = build_graph()
    system = build_system(graph, labels)
    start_engine = system.engine_name
    nodes = list(graph.nodes())

    khop_rows = []
    for hops, batch in KHOP_SWEEP:
        sources = random_source_batch(nodes, batch, seed=hops * 101 + batch)
        khop_rows.append(
            _compare(
                system,
                f"khop h={hops} b={batch}",
                lambda s=sources, h=hops: system.batch_khop(
                    list(s), h, auto_migrate=False
                ),
            )
        )

    rpq_rows = []
    for expression in RPQ_SWEEP:
        sources = random_source_batch(nodes, 32, seed=len(expression) * 7)
        query = RPQuery(expression, sources)
        rpq_rows.append(
            _compare(
                system,
                f"rpq {expression}",
                lambda q=query: system.execute(q, auto_migrate=False),
            )
        )
    system.use_engine(start_engine)

    khop_geomean = geometric_mean([row["speedup"] for row in khop_rows])
    rpq_geomean = geometric_mean([row["speedup"] for row in rpq_rows])
    if verbose:
        num_nodes, num_edges = _sizes()
        print()
        print(
            f"matrix engine vs vectorized: {num_nodes} nodes / "
            f"{num_edges} edges (wall-clock ms, best of {TIMING_ROUNDS})"
        )
        header = [
            "entry", "vectorized_ms", "matrix_ms", "speedup", "matches",
        ]
        print(
            format_table(
                header,
                [
                    [
                        row["name"],
                        f"{row['vectorized_wall_ms']:.2f}",
                        f"{row['matrix_wall_ms']:.2f}",
                        f"{row['speedup']:.2f}x",
                        row["matches"],
                    ]
                    for row in khop_rows + rpq_rows
                ],
            )
        )
        print(
            f"  fig-4 k-hop geomean: {khop_geomean:.2f}x "
            f"(required >= {MIN_SPEEDUP:.1f}x); DFA geomean: "
            f"{rpq_geomean:.2f}x (reported only)"
        )
    return {
        "workload": dict(zip(("nodes", "edges"), _sizes())),
        "khop_sweep": khop_rows,
        "rpq_sweep": rpq_rows,
        "khop_geomean_speedup": khop_geomean,
        "rpq_geomean_speedup": rpq_geomean,
        "min_speedup_required": MIN_SPEEDUP,
    }


def test_matrix_engine_speedup():
    """Headline: masked SpGEMM >= 1.5x on the fig-4 k-hop sweep."""
    report = run_sweep(verbose=True)
    if os.environ.get("REPRO_BENCH_LAX"):
        return  # report-only on slow/loaded machines
    assert report["khop_geomean_speedup"] >= MIN_SPEEDUP, (
        "matrix backend is only "
        f"{report['khop_geomean_speedup']:.2f}x faster than vectorized on "
        f"the fig-4 k-hop sweep (required {MIN_SPEEDUP:.1f}x; set "
        "REPRO_BENCH_LAX=1 to report without asserting)"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write the timing report as JSON (CI perf-trajectory artifact)",
    )
    args = parser.parse_args()
    report = run_sweep(verbose=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    if not os.environ.get("REPRO_BENCH_LAX"):
        if report["khop_geomean_speedup"] < MIN_SPEEDUP:
            print("FAIL: speedup below required minimum", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

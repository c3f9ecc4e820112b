"""Frozen specification of the end-to-end benchmark.

Everything a later PR quotes lives here as a literal: workload names and
why each exists, metric names/units/directions/bounds, op counts, graph
shape and the expression mix.  ``BENCHMARK.json`` at the repository root
is :func:`benchmark_json` written out; a harness test keeps the two in
step.  Nothing in this module imports ``repro``.

Configuration rule: the benchmark sets deployment settings only — the
scaled cost model (64 modules, the paper's one UPMEM rank), a temporary
``durability_dir`` for ``update_mixed`` and port 0.  Every other
``MoctopusConfig`` field keeps its default, so the numbers are what a
user gets out of the box and a later PR that deletes or re-defaults a
knob can neither break nor bypass the benchmark.  Durability numbers are
therefore measured under the default flush policy: ``wal_fsync=False``,
i.e. one flush per record and no fsync.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Dict, List, Tuple

DEFAULT_SEED = 13

#: ``--seconds`` the op counts below were sized for (``run_seconds`` of
#: ``BENCHMARK.json``).  Counts scale linearly with ``--seconds``.
FULL_SECONDS = 15

#: Passes per untraced run; every pass runs on a freshly built system so
#: op *i* is the same work in every pass.
PASSES = 3

#: A percentile is reported from a pass only when it has this many ops.
MIN_PERCENTILE_OPS = 1000

#: Every N-th answer is compared with the reference evaluator.
CHECK_EVERY = 25

# ----------------------------------------------------------------------
# Shared input: one graph per seed
# ----------------------------------------------------------------------
#: ``power_law_graph`` arguments.  ``skew=0.6`` on purpose: the default
#: ``skew=1.0`` gives 12 k-destination 2-hop answers and result size then
#: swamps every other layer.
GRAPH_ARGS: Dict[str, Dict[str, float]] = {
    "full": {"num_nodes": 20000, "edges_per_node": 4, "skew": 0.6, "reciprocity": 0.3},
    "smoke": {"num_nodes": 1200, "edges_per_node": 4, "skew": 0.6, "reciprocity": 0.3},
}
#: Edge labels a:b:c are drawn 12:8:1 — "c" is the rare accepting side
#: reverse plans win on.
LABEL_NAMES: Dict[int, str] = {1: "a", 2: "b", 3: "c"}
LABEL_ROLL = (12, 20, 21)

#: SHA-256 of the full-scale graph at ``DEFAULT_SEED`` (labelled edges in
#: insertion order); a harness test regenerates and compares it.
DEFAULT_GRAPH_SHA256 = "3a89ae715f6f3f00c4b397a865cb318aa1fbecffe73c6b47da8a214611a24667"

# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
WORKLOADS: List[Tuple[str, str]] = [
    (
        "khop_batch",
        "the paper's workload: live batch_khop of 512-source batches, hops cycling 1,2,3; "
        "engine kernels, result materialisation and migration work, caches/sockets/WAL idle",
    ),
    (
        "rpq_session",
        "one pinned Session, Zipf(1.1) over 384 distinct RPQs (1.5x the result cache): "
        "cache-hit replay sets p50, planner+DFA+fixpoint misses set p99; no sockets or updates",
    ),
    (
        "wire_serve",
        "server child over TCP, 2 connections, single-source random queries: frame codec, "
        "asyncio-scheduler bridge and per-call overhead dominate; every cache lookup misses",
    ),
    (
        "update_mixed",
        "durable system, 256-op insert/delete batches with fresh pinned reads between: "
        "update partitioning, snapshot splice, epoch publish, WAL append and checkpoints",
    ),
]
WORKLOAD_NAMES = [name for name, _ in WORKLOADS]

KHOP_BATCH_SOURCES = 512
KHOP_HOPS_CYCLE = (1, 2, 3)
KHOP_WARMUP_HOPS = (1, 2)

RPQ_DISTINCT = 384
RPQ_SOURCES = 16
RPQ_ZIPF_S = 1.1
#: Cheap and moderate expressions, assigned to popularity ranks round
#: robin.  ``a+`` and ``c/a*`` cost 0.8-1.9 s per miss on this graph and
#: are left out for that reason.
RPQ_EXPRESSIONS = ["a/b", "a/c", "(a|b)/c", "b/c", ".{2}", "a/b/a", "_/c", "b/a/c", "c+", "a/c*"]
#: ``(b/c)+`` costs ~0.4 s per miss, so it sits only at two popular ranks:
#: each pass pays exactly two such fixpoint misses (then replays them
#: from the cache) and no single expression exceeds ~35 % of timed time.
RPQ_HEAVY_EXPRESSION = "(b/c)+"
RPQ_HEAVY_RANKS = (5, 40)

#: Phase A (closed loop, throughput) then phase B (open loop, latency).
WIRE_PHASES = ("closed", "open")
WIRE_CONNECTIONS = 2
WIRE_OUTSTANDING = 8
#: Open-loop arrival rate, ~40 % of the seed commit's closed-loop
#: throughput on this box.
WIRE_OPEN_RATE = 420.0
#: Most requests the open loop keeps in flight per connection, under the
#: server's default cap of 32 (and 2 x 24 under its 64-deep admission
#: queue), so a burst after a generator stall is never refused.
WIRE_OPEN_OUTSTANDING = 24
WIRE_MIX = [
    (0.40, {"kind": "khop", "hops": 1}),
    (0.70, {"kind": "khop", "hops": 2}),
    (0.85, {"kind": "rpq", "expression": "a/b"}),
    (1.00, {"kind": "rpq", "expression": "(a|b)/c"}),
]
#: Seconds without a reply after which a wire request counts as timed out.
WIRE_TIMEOUT_S = 30.0

UPDATE_BATCH_OPS = 256
UPDATE_INSERT_FRACTION = 0.6
UPDATE_NEW_NODE_FRACTION = 0.05
UPDATE_WARMUP_BATCHES = 2
#: A fresh pinned read follows every N-th batch.  ISSUE 13 asked for every
#: 4th; a read costs ~35 ms against 2.7 ms for a batch, so at every 4th a
#: pass would spend three quarters of its time reading and a run would
#: take 50 s of a driver schedule that averages 37 s per run.  Every 10th
#: gives 100 reads per pass.
UPDATE_READ_EVERY = 10
UPDATE_READ_SOURCES = 16
UPDATE_READ_HOPS = 2

#: Ops per pass at ``FULL_SECONDS``, frozen at the seed commit so one pass
#: takes about ``FULL_SECONDS / PASSES`` seconds on the 2-core sandbox.
FULL_OPS: Dict[str, int] = {
    "khop_batch": 12,      # batch_khop calls
    "rpq_session": 1500,   # Session.execute calls
    "wire_closed": 2400,   # phase A requests (closed loop)
    "wire_open": 1200,     # phase B requests (open loop)
    "update_mixed": 1000,  # apply_updates batches
}
SMOKE_OPS: Dict[str, int] = {
    "khop_batch": 3,
    "rpq_session": 60,
    "wire_closed": 64,
    "wire_open": 40,
    "update_mixed": 30,
}
#: Counts that carry a reported percentile never drop below the rule.
PERCENTILE_OPS = ("rpq_session", "wire_open", "update_mixed")


def op_counts(scale: str, seconds: float) -> Dict[str, int]:
    """Ops per pass for ``scale`` at ``--seconds``."""
    if scale == "smoke":
        return dict(SMOKE_OPS)
    factor = seconds / FULL_SECONDS
    counts = {name: max(1, round(count * factor)) for name, count in FULL_OPS.items()}
    counts["khop_batch"] = max(len(KHOP_HOPS_CYCLE), counts["khop_batch"])
    for name in PERCENTILE_OPS:
        counts[name] = max(MIN_PERCENTILE_OPS, counts[name])
    return counts


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Metric:
    """One named metric: unit, direction and what it measures."""

    name: str
    unit: str
    better: str
    definition: str
    #: End-to-end only: the share of the base's median by which the metric
    #: may get worse between two result sets *of one seed* before
    #: ``--compare`` calls it a regression.
    bound: float = 0.0
    #: End-to-end only: the workloads that report it.
    workloads: Tuple[str, ...] = ()
    #: Per-layer only: ``probe`` (an isolated experiment, the same whatever
    #: workload runs) or ``pass`` (observed inside the traced pass).
    source: str = "probe"


_ALL = tuple(WORKLOAD_NAMES)
_UPDATE = ("update_mixed",)

#: ISSUE 13's end-to-end metrics with its bounds.  Throughput and
#: latencies come from the best pass, as measured; see README.md.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower",
           "op-script generation + median over passes of (graph generation + from_graph "
           "+ server/durability start + warm-up)", 0.15, _ALL),
    Metric("throughput_ops_s", "ops/s", "higher",
           "best pass of - khop_batch: source queries answered / timed s; rpq_session: "
           "execute calls/s; wire_serve: closed-loop replies/s; update_mixed: edge updates "
           "/ s spent in apply_updates", 0.10, _ALL),
    Metric("latency_p50_ms", "ms", "lower",
           "best pass's median per op (batch_khop call / execute / open-loop request from "
           "its due time / update batch)", 0.10, _ALL),
    Metric("fresh_read_p50_ms", "ms", "lower",
           "best pass's median begin -> 16-source batch_khop(2) -> close right after a batch",
           0.10, _UPDATE),
    Metric("recover_s", "s", "lower", "best pass's Moctopus.recover(dir)", 0.15, _UPDATE),
    Metric("sim_time_ms", "sim_ms", "lower",
           "sum of ExecutionStats.total_time_ms over the ops the engine executed in one pass "
           "(a result-cache replay adds none); simulated and unvalidated; must repeat exactly",
           0.0, ("khop_batch", "rpq_session", "update_mixed")),
    Metric("wire_bytes_per_op", "bytes", "lower",
           "TCP payload bytes sent + received on the client sockets / requests",
           0.02, ("wire_serve",)),
    Metric("durable_bytes_per_update", "bytes", "lower",
           "bytes under the durability dir after close() / edge updates", 0.05, _UPDATE),
    Metric("peak_rss_mb", "MiB", "lower",
           "ru_maxrss of the workload process (wire_serve: median over passes of the "
           "server child's)", 0.05, _ALL),
    Metric("fail_ratio", "ratio", "lower",
           "(errors + BUSY + timeouts + wrong sampled answers + violated postconditions) "
           "/ attempted; any increase is a regression", 0.0, _ALL),
]

#: What ``BENCHMARK.json`` lists as end-to-end, with the driver's bounds.
#: The driver wants every listed metric from every workload, never 0, and
#: refuses a metric whose quartile spread over ten runs with ten different
#: seeds exceeds its bound, which is at most 0.25.  No timing holds that
#: as measured: this VM slows to about two thirds of its speed for
#: minutes at a time, longer than a run, so whole runs shift together
#: (``update_mixed`` throughput, whose work does not depend on the seed,
#: spread 0.11 over seeds 501-510 and 0.33 over 601-610), and ten seeds
#: are ten graphs (``sim_time_ms``, exact for one seed, spreads 0.10
#: across them on ``khop_batch`` and ``rpq_session``).  ISSUE 13 moves a
#: metric that cannot hold its bound to the per-layer list instead of
#: widening the bound, so the driver reads throughput and latency as
#: ``bench.*`` per-layer metrics, and they are judged by ``--compare``
#: on same-seed sets with the bounds above.  ``fail_ratio`` travels as
#: the result object's ``failed`` / ``attempted``.
DRIVER_BOUNDS: Dict[str, float] = {
    "setup_s": 0.25,
    "peak_rss_mb": 0.25,
}

ENGINES = ("python", "vectorized", "matrix")
_ENGINE_PROBES = [
    ("khop1_ms", "ms", "batch_khop of 512 sources, 1 hop, auto_migrate=False"),
    ("khop2_ms", "ms", "batch_khop of 512 sources, 2 hops, auto_migrate=False"),
    ("khop3_ms", "ms", "batch_khop of 512 sources, 3 hops, auto_migrate=False"),
    ("single_source_us", "us", "batch_khop of 1 source, 2 hops"),
    ("rpq_fixed_ms", "ms", "execute a/b/a over 16 sources"),
    ("rpq_kleene_ms", "ms", "execute (b/c)+ over 16 sources"),
]


def _per_layer() -> List[Metric]:
    m = Metric  # a probe

    def o(*fields: str) -> Metric:
        """A metric observed inside the traced pass."""
        return Metric(*fields, source="pass")

    out = [
        o("graph.generate_s", "s", "lower", "power_law_graph + relabel for this run's seed"),
        m("graph.update_script_s", "s", "lower",
          "generate a 64-batch update script against a scratch mirror"),
        m("partition.maintenance_ms", "ms", "lower",
          "mean run_maintenance() after each of three 512-source calls on a fresh system"),
        o("partition.migrations", "count", "lower", "nodes migrated during the traced pass"),
        o("partition.locality_fraction", "ratio", "higher",
          "partition_quality() at the end of the traced pass"),
        o("partition.edge_cut_fraction", "ratio", "lower", "same"),
        o("partition.balance_factor", "ratio", "lower", "same"),
        o("partition.host_nodes", "count", "lower", "host_node_count() at the end of the pass"),
        o("partition.time_share", "ratio", "lower",
          "self time of partition.* spans / traced pass seconds"),
        o("pim.sim_host_ms", "sim_ms", "lower",
          "sum of host_time over the ops the engine executed in the traced pass"),
        o("pim.sim_cpc_ms", "sim_ms", "lower", "sum of cpc_time over the traced pass"),
        o("pim.sim_ipc_ms", "sim_ms", "lower", "sum of ipc_time over the traced pass"),
        o("pim.sim_pim_ms", "sim_ms", "lower", "sum of pim_time over the traced pass"),
        o("pim.cpc_bytes", "bytes", "lower", "sum of cpc.bytes_moved over the traced pass"),
        o("pim.ipc_bytes", "bytes", "lower", "sum of ipc.bytes_moved over the traced pass"),
        m("rpq.compile_us", "us", "lower",
          "RPQuery(text).dfa() on unseen text: parse + DFA + minimise"),
        m("rpq.plan_us", "us", "lower", "plan_query on a compiled RPQuery"),
        m("rpq.explain_ms", "ms", "lower",
          "Moctopus.explain: cost-based plan against the current epoch"),
        m("engine.lower_us", "us", "lower", "lower_plan of a planned RPQuery"),
    ]
    for engine in ENGINES:
        for suffix, unit, definition in _ENGINE_PROBES:
            out.append(m(f"engine.{engine}.{suffix}", unit, "lower",
                         f"{definition}, after use_engine({engine!r})"))
    out += [
        o("engine.results", "count", "higher", "destinations returned in the traced pass"),
        o("engine.us_per_result", "us", "lower", "traced pass seconds / engine.results"),
        o("core.load_graph_s", "s", "lower", "Moctopus.from_graph in the traced pass's set-up"),
        m("core.apply_updates_mem_ms", "ms", "lower",
          "median apply_updates of 256-op batches on a memory-only system"),
        m("core.cache_hit_us", "us", "lower", "Session.execute replayed from the result cache"),
        m("core.cache_hit_us_per_1k_results", "us", "lower",
          "slope of cache-hit time over result size: the deep-copy replay"),
        o("core.result_cache_hit_ratio", "ratio", "higher",
          "result-cache hits / lookups over the traced pass (Moctopus.cache_stats deltas)"),
        o("core.plan_cache_hit_ratio", "ratio", "higher", "same for the plan cache"),
        o("core.time_share", "ratio", "lower", "self time of core.* spans / traced pass seconds"),
        m("serve.pin_fresh_epoch_ms", "ms", "lower",
          "begin() right after an update batch: splice + owner copy + publish"),
        m("serve.pin_warm_epoch_us", "us", "lower", "begin() on an already published epoch"),
        m("serve.session_execute_ms", "ms", "lower",
          "16-source 2-hop Session.execute on a freshly pinned epoch (a guaranteed miss)"),
        m("serve.direct_ops_s", "ops/s", "higher",
          "the wire request mix through system.serve() submit/submit_rpq in-process, "
          "16 outstanding"),
        m("serve.direct_p50_ms", "ms", "lower", "median latency of that closed loop"),
        m("serve.mean_coalesced_batch", "ratio", "higher",
          "queries served / batches executed in that closed loop"),
        m("serve.saturated", "count", "lower", "SchedulerSaturated raised in that closed loop"),
        o("serve.time_share", "ratio", "lower", "self time of serve.* spans / traced pass seconds"),
        m("parallel.pool_start_ms", "ms", "lower", "serve(parallel=1) to the first answer"),
        m("parallel.task_roundtrip_ms", "ms", "lower",
          "median single query through the one-worker pool"),
        m("parallel.shm_segments_leaked", "count", "lower",
          "segments reap_stale_segments() finds after the pool closed"),
        m("net.ping_rtt_us", "us", "lower", "median PING/PONG over loopback, in-process server"),
        m("net.encode_us_per_reply", "us", "lower", "encode_frame over recorded RESULT frames"),
        m("net.decode_us_per_reply", "us", "lower", "decode_frame over the same frames"),
        m("net.stats_to_wire_us", "us", "lower", "stats_to_wire of one ExecutionStats"),
        m("net.overhead_ms", "ms", "lower",
          "closed-loop p50 over loopback minus serve.direct_p50_ms, same process"),
        o("net.bytes_per_request", "bytes", "lower",
          "bytes sent / request on the traced pass's client sockets"),
        o("net.bytes_per_reply", "bytes", "lower", "bytes received / reply on those sockets"),
        o("net.busy", "count", "lower", "BUSY frames received in the traced pass"),
        o("net.timeouts", "count", "lower", "requests without a reply in the traced pass"),
        o("net.errors", "count", "lower", "ERROR frames received in the traced pass"),
        o("net.gen_lag_p99_ratio", "ratio", "lower",
          "p99 of how late the open-loop generator sent, over the arrival interval"),
        o("net.time_share", "ratio", "lower", "self time of net.* spans / traced pass seconds"),
        m("durability.wal_append_us", "us", "lower",
          "WriteAheadLog.append_batch of 256-op batches into a scratch dir, no fsync"),
        m("durability.wal_append_fsync_us", "us", "lower",
          "same with fsync=True; the sandbox disk's figure, informational"),
        m("durability.overhead_ms", "ms", "lower",
          "median over 96 batches of (durable minus memory-only apply_updates), paired"),
        m("durability.wal_bytes_per_update", "bytes", "lower",
          "WAL bytes / edge update of the scratch appends"),
        m("durability.checkpoint_ms", "ms", "lower", "Moctopus.checkpoint()"),
        m("durability.checkpoint_bytes", "bytes", "lower", "size of that checkpoint on disk"),
        m("durability.scan_wal_ms", "ms", "lower", "scan_wal over the probe's log"),
        m("durability.stall_max_ms", "ms", "lower",
          "slowest of the probe's 96 durable batches (one background checkpoint)"),
        m("durability.recover_s", "s", "lower", "Moctopus.recover of the probe's directory"),
        o("durability.replayed_records", "count", "lower",
          "WAL records past the newest checkpoint when the traced pass recovered"),
        o("durability.checkpoints_taken", "count", "higher",
          "checkpoints that appeared on disk during the traced pass"),
        o("durability.bytes_per_update", "bytes", "lower",
          "bytes under the durability dir after close() / edge updates of the traced pass"),
        o("bench.cpu_s", "s", "lower",
          "CPU seconds of the workload process and its children over the traced run"),
        o("bench.throughput_ops_s", "ops/s", "higher",
          "throughput_ops_s of the traced run's untraced pass, as measured"),
        o("bench.latency_p50_ms", "ms", "lower",
          "latency_p50_ms of the traced run's untraced pass, as measured"),
        o("bench.latency_p99_ms", "ms", "lower",
          "nearest-rank p99 per op of the traced run's untraced pass (>= 1000 ops; "
          "khop_batch: its slowest cycle); too unsteady on a shared VM to carry a bound"),
        o("bench.trace_overhead_ratio", "ratio", "lower",
          "traced pass seconds / untraced pass seconds of the same run"),
    ]
    return out


PER_LAYER: List[Metric] = _per_layer()

NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def benchmark_json() -> Dict[str, object]:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": FULL_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": DRIVER_BOUNDS[m.name]}
            for m in END_TO_END if m.name in DRIVER_BOUNDS
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))

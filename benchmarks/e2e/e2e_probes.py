"""Isolated layer probes: each layer's public functions timed from outside.

The probes are the same whatever workload the traced run replays, so a
per-layer time always comes from the same small experiment.  A probe
whose public function a later PR removed reports its metrics as absent
instead of failing the run (see :func:`run_probes`).
"""

from __future__ import annotations

import asyncio
import statistics
import sys
import tempfile
import threading
import time
import traceback
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import e2e_inputs as inputs
import e2e_spec as spec
import e2e_wire as wire
from e2e_stats import percentile
from e2e_workloads import Inputs, build_system, tree_bytes
from repro.core import Moctopus
from repro.rpq import RPQuery

# Functions a probe times are imported inside that probe, so one that a
# later PR removes costs only its own metrics.

Metrics = Dict[str, float]

#: Update batches (more than the 64-batch checkpoint interval, so one
#: background checkpoint lands inside) and scheduler/wire requests.
PROBE_BATCHES = {"full": 96, "smoke": 12}
PROBE_SCRIPT_BATCHES = 64
PROBE_REQUESTS = {"full": 600, "smoke": 60}


def _seconds(call: Callable[[], object]) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def _median_seconds(call: Callable[[], object], repeats: int) -> float:
    return statistics.median(_seconds(call) for _ in range(repeats))


def _batches(ctx: Inputs, purpose: str, count: int, size: int) -> Iterator[List[int]]:
    return iter(inputs.source_batches(ctx.seed, f"probe:{purpose}", ctx.nodes, count, size))


# ----------------------------------------------------------------------
# partition + engine
# ----------------------------------------------------------------------
def probe_partition(ctx: Inputs, system: Moctopus) -> Metrics:
    """Migration passes after the first three batch queries of a fresh system."""
    passes = []
    for hops, sources in zip(spec.KHOP_HOPS_CYCLE, _batches(ctx, "partition", 3, 512)):
        system.batch_khop(sources, hops, auto_migrate=False)
        passes.append(_seconds(system.run_maintenance))
    return {"partition.maintenance_ms": statistics.mean(passes) * 1e3}


def probe_engines(ctx: Inputs, system: Moctopus) -> Metrics:
    """Every backend on the same system state, through ``use_engine``."""
    out: Metrics = {}
    default_engine = system.engine_name
    for engine in spec.ENGINES:
        system.use_engine(engine)
        big = _batches(ctx, "engine-big", 8, spec.KHOP_BATCH_SOURCES)
        small = _batches(ctx, "engine-small", 64, spec.RPQ_SOURCES)
        single = _batches(ctx, "engine-single", 64, 1)
        # Untimed first call: the numpy backends build their snapshots.
        system.batch_khop(next(big), 1, auto_migrate=False)
        for hops, repeats in ((1, 2), (2, 1), (3, 1)):
            out[f"engine.{engine}.khop{hops}_ms"] = 1e3 * _median_seconds(
                lambda: system.batch_khop(next(big), hops, auto_migrate=False), repeats
            )
        out[f"engine.{engine}.single_source_us"] = 1e6 * _median_seconds(
            lambda: system.batch_khop(next(single), 2, auto_migrate=False), 15
        )
        out[f"engine.{engine}.rpq_fixed_ms"] = 1e3 * _median_seconds(
            lambda: system.execute(RPQuery("a/b/a", next(small)), auto_migrate=False), 2
        )
        out[f"engine.{engine}.rpq_kleene_ms"] = 1e3 * _median_seconds(
            lambda: system.execute(
                RPQuery(spec.RPQ_HEAVY_EXPRESSION, next(small)), auto_migrate=False
            ), 1
        )
    system.use_engine(default_engine)
    return out


# ----------------------------------------------------------------------
# rpq + core caches
# ----------------------------------------------------------------------
def probe_rpq(ctx: Inputs, system: Moctopus) -> Metrics:
    """Compile, plan, lower and explain — without executing anything."""
    from repro.engine import lower_plan
    from repro.rpq import plan_query

    sources = next(_batches(ctx, "rpq", 1, spec.RPQ_SOURCES))
    # Same shape, fresh label names: every text is unseen.
    texts = [f"(p{k}|q{k})/r{k}/p{k}+" for k in range(60)]
    compile_s = statistics.median(_seconds(RPQuery(text).dfa) for text in texts)
    compiled = [RPQuery(f"(a|b)/c/a+{'/b' * (k % 2)}", sources) for k in range(60)]
    for query in compiled:
        query.dfa()
    plan_s = statistics.median(_seconds(lambda q=q: plan_query(q)) for q in compiled)
    plans = [plan_query(query) for query in compiled]
    lower_s = statistics.median(
        _seconds(lambda p=p: lower_plan(p, system.num_nodes)) for p in plans
    )
    system.explain(RPQuery("a/b", sources))  # publishes the epoch
    explain_s = _median_seconds(lambda: system.explain(RPQuery("a/b/c", sources)), 10)
    return {
        "rpq.compile_us": compile_s * 1e6,
        "rpq.plan_us": plan_s * 1e6,
        "engine.lower_us": lower_s * 1e6,
        "rpq.explain_ms": explain_s * 1e3,
    }


def probe_cache(ctx: Inputs, system: Moctopus) -> Metrics:
    """Result-cache replay cost, and how it grows with the result size."""
    points: List[Tuple[int, float]] = []
    batches = _batches(ctx, "cache", 8, spec.RPQ_SOURCES)
    with system.begin() as session:
        for expression in ("a/c", "b/c", "a/b", "_/c", ".{2}", "b/a/c", "a/b/a", "a/b/a"):
            sources = next(batches)
            result, _ = session.execute(RPQuery(expression, list(sources)))
            hit_s = _median_seconds(
                lambda: session.execute(RPQuery(expression, list(sources))), 7
            )
            points.append((result.total_matches, hit_s))
    sizes = [size for size, _ in points]
    times = [seconds for _, seconds in points]
    slope = statistics.linear_regression(sizes, times).slope
    return {
        "core.cache_hit_us": min(times) * 1e6,
        "core.cache_hit_us_per_1k_results": slope * 1e9,
    }


# ----------------------------------------------------------------------
# core updates + serve epochs + durability
# ----------------------------------------------------------------------
def probe_updates(ctx: Inputs) -> Metrics:
    """The same update script on a memory-only and on a durable system."""
    from repro.durability import WriteAheadLog, scan_wal, wal_directory

    out: Metrics = {}
    out["graph.update_script_s"] = _seconds(
        lambda: inputs.update_script(ctx.graph, ctx.seed + 1, PROBE_SCRIPT_BATCHES)
    )
    batches = PROBE_BATCHES[ctx.scale]
    script, _ = inputs.update_script(ctx.graph, ctx.seed, batches)
    updates = batches * spec.UPDATE_BATCH_OPS

    # Both systems take each batch back to back, so the durable-minus-memory
    # difference is paired and shares whatever the machine was doing.
    memory = build_system(ctx.graph)
    directory = tempfile.mkdtemp(prefix="probe-durable-", dir=ctx.work_dir)
    durable = build_system(ctx.graph, durability_dir=directory)
    reads = _batches(ctx, "fresh-read", batches, spec.UPDATE_READ_SOURCES)
    applies, durable_applies = [], []
    fresh_pins, warm_pins, executes = [], [], []
    for index, ops in enumerate(script):
        applies.append(_seconds(lambda: memory.apply_updates(ops)))
        durable_applies.append(_seconds(lambda: durable.apply_updates(ops)))
        if index % 8:
            continue
        start = time.perf_counter()
        session = memory.begin()
        pinned = time.perf_counter()
        session.batch_khop(next(reads), spec.UPDATE_READ_HOPS)
        executed = time.perf_counter()
        session.close()
        fresh_pins.append(pinned - start)
        executes.append(executed - pinned)
        warm_pins.append(_seconds(lambda: memory.begin().close()))
    out["core.apply_updates_mem_ms"] = statistics.median(applies) * 1e3
    out["serve.pin_fresh_epoch_ms"] = statistics.median(fresh_pins) * 1e3
    out["serve.pin_warm_epoch_us"] = statistics.median(warm_pins) * 1e6  # begin + close
    out["serve.session_execute_ms"] = statistics.median(executes) * 1e3
    out["durability.overhead_ms"] = 1e3 * statistics.median(
        durable_s - memory_s for durable_s, memory_s in zip(durable_applies, applies)
    )
    out["durability.stall_max_ms"] = max(durable_applies) * 1e3
    start = time.perf_counter()
    checkpoint_path = durable.checkpoint()
    out["durability.checkpoint_ms"] = (time.perf_counter() - start) * 1e3
    out["durability.checkpoint_bytes"] = tree_bytes(checkpoint_path)
    durable.close()
    out["durability.scan_wal_ms"] = _seconds(lambda: scan_wal(wal_directory(directory))) * 1e3
    start = time.perf_counter()
    recovered = Moctopus.recover(directory)
    out["durability.recover_s"] = time.perf_counter() - start
    recovered.close()

    for fsync, name, count in (
        (False, "durability.wal_append_us", batches),
        (True, "durability.wal_append_fsync_us", 40),
    ):
        scratch = tempfile.mkdtemp(prefix="probe-wal-", dir=ctx.work_dir)
        log = WriteAheadLog(scratch, segment_bytes=1 << 20, fsync=fsync)
        appends = [_seconds(lambda: log.append_batch(ops, None)) for ops in script[:count]]
        log.close()
        out[name] = statistics.median(appends) * 1e6
        if not fsync:
            out["durability.wal_bytes_per_update"] = tree_bytes(scratch) / updates
    return out


# ----------------------------------------------------------------------
# serve scheduler + net
# ----------------------------------------------------------------------
def _submit(scheduler, request: Dict):
    if request["kind"] == "khop":
        return scheduler.submit(request["source"], request["hops"], block=False)
    return scheduler.submit_rpq(request["source"], request["expression"], block=False)


def probe_serve(ctx: Inputs, system: Moctopus) -> Metrics:
    """The wire request mix through ``system.serve()`` in-process, 16 callers."""
    from repro.serve.scheduler import SchedulerSaturated

    requests = inputs.wire_requests(
        ctx.seed, ctx.nodes, PROBE_REQUESTS[ctx.scale], "probe-direct"
    )
    queue = iter(requests)
    lock = threading.Lock()
    latencies: List[float] = []
    saturated = [0]

    def caller(scheduler) -> None:
        while True:
            with lock:
                request = next(queue, None)
            if request is None:
                return
            start = time.perf_counter()
            try:
                _submit(scheduler, request).result(timeout=spec.WIRE_TIMEOUT_S)
            except SchedulerSaturated:
                with lock:
                    saturated[0] += 1
                continue
            elapsed = time.perf_counter() - start
            with lock:
                latencies.append(elapsed)

    with system.serve() as scheduler:
        callers = [
            threading.Thread(target=caller, args=(scheduler,))
            for _ in range(spec.WIRE_CONNECTIONS * spec.WIRE_OUTSTANDING)
        ]
        start = time.perf_counter()
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join()
        seconds = time.perf_counter() - start
        batches = scheduler.batches_executed
        served = scheduler.queries_served
    return {
        "serve.direct_ops_s": len(latencies) / seconds,
        "serve.direct_p50_ms": percentile(latencies, 50.0) * 1e3,
        "serve.mean_coalesced_batch": served / batches if batches else 0.0,
        "serve.saturated": saturated[0],
    }


async def _net_client(port: int, requests: Sequence[Dict]) -> Tuple[float, float, List[Dict]]:
    connections = [wire.WireConnection() for _ in range(spec.WIRE_CONNECTIONS)]
    for connection in connections:
        await connection.open("127.0.0.1", port)
    sends = [connection.request for connection in connections]
    closed = await wire.closed_loop(
        sends, requests, spec.WIRE_OUTSTANDING, spec.WIRE_TIMEOUT_S
    )
    pings = await wire.serial_loop(sends[0], [{"type": "ping"}] * 200, spec.WIRE_TIMEOUT_S)
    for connection in connections:
        await connection.close()
    frames = [reply for reply in closed.replies if reply and reply["type"] == "result"]
    return percentile(closed.latencies, 50.0), percentile(pings.latencies, 50.0), frames


def probe_net(ctx: Inputs, system: Moctopus, direct_p50_ms: float) -> Metrics:
    """Loopback against an in-process server, plus the codec on recorded frames."""
    from repro.net.protocol import decode_frame, encode_frame, stats_to_wire

    requests = inputs.wire_requests(ctx.seed, ctx.nodes, PROBE_REQUESTS[ctx.scale], "probe-net")
    with system.listen(port=0) as server:
        closed_p50, ping_p50, frames = asyncio.run(_net_client(server.port, requests))
    frames = frames[:200]
    encode_s = statistics.median(_seconds(lambda f=f: encode_frame(f)) for f in frames)
    payloads = [encode_frame(frame)[4:] for frame in frames]
    decode_s = statistics.median(_seconds(lambda p=p: decode_frame(p)) for p in payloads)
    _, stats = system.batch_khop([requests[0]["source"]], 2, auto_migrate=False)
    to_wire_s = _median_seconds(lambda: stats_to_wire(stats), 200)
    return {
        "net.ping_rtt_us": ping_p50 * 1e6,
        "net.encode_us_per_reply": encode_s * 1e6,
        "net.decode_us_per_reply": decode_s * 1e6,
        "net.stats_to_wire_us": to_wire_s * 1e6,
        "net.overhead_ms": closed_p50 * 1e3 - direct_p50_ms,
    }


# ----------------------------------------------------------------------
# parallel
# ----------------------------------------------------------------------
def probe_parallel(ctx: Inputs, system: Moctopus) -> Metrics:
    """A one-worker pool: time to the first answer, then single round trips."""
    from repro.parallel.shm import reap_stale_segments

    sources = next(_batches(ctx, "parallel", 1, 31))
    start = time.perf_counter()
    with system.serve(parallel=1) as scheduler:
        scheduler.query(sources[0], 2)
        pool_start_s = time.perf_counter() - start
        roundtrips = [_seconds(lambda s=s: scheduler.query(s, 2)) for s in sources[1:]]
    return {
        "parallel.pool_start_ms": pool_start_s * 1e3,
        "parallel.task_roundtrip_ms": statistics.median(roundtrips) * 1e3,
        "parallel.shm_segments_leaked": len(reap_stale_segments()),
    }


# ----------------------------------------------------------------------
def run_probes(ctx: Inputs) -> Metrics:
    """Run every probe; a probe that cannot run leaves its metrics absent."""
    out: Metrics = {}
    system = build_system(ctx.graph)

    def attempt(probe: Callable[[], Metrics]) -> None:
        try:
            out.update(probe())
        except (AttributeError, ImportError, TypeError) as error:
            # The public function this probe times is gone or changed
            # shape: say so and carry on without its metrics.
            print(f"e2e probe skipped: {error!r}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)

    attempt(lambda: probe_partition(ctx, system))
    attempt(lambda: probe_engines(ctx, system))
    attempt(lambda: probe_rpq(ctx, system))
    attempt(lambda: probe_cache(ctx, system))
    attempt(lambda: probe_serve(ctx, system))
    attempt(lambda: probe_net(ctx, system, out.get("serve.direct_p50_ms", 0.0)))
    attempt(lambda: probe_parallel(ctx, system))
    attempt(lambda: probe_updates(ctx))
    return out

"""The four workloads: one pass of each, with its checks and postconditions.

A pass builds a fresh system (timed as set-up), warms it up, runs its
frozen op script and times each op on its own, so the answer checks
between ops stay outside every timed region.  With an enabled
:class:`~e2e_stats.Tracer` the same code records a span around each
call into a layer's public functions; ``khop_batch`` then also splits
each call into ``batch_khop(auto_migrate=False)`` + ``run_maintenance()``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import select
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import e2e_env
import e2e_inputs as inputs
import e2e_spec as spec
import e2e_wire as wire
from e2e_stats import Tracer, percentile
from repro.bench import scaled_cost_model
from repro.core import Moctopus, MoctopusConfig
from repro.durability import (
    DurabilityController,
    retained_checkpoint_lsns,
    scan_wal,
    wal_directory,
)
from repro.graph import DiGraph
from repro.graph.stream import UpdateKind
from repro.parallel.shm import reap_stale_segments
from repro.rpq import KHopQuery, RPQuery, evaluate_khop, evaluate_rpq

# ----------------------------------------------------------------------
# Shared plumbing
# ----------------------------------------------------------------------
def build_system(graph: DiGraph, durability_dir: Optional[str] = None) -> Moctopus:
    """A system under the benchmark's configuration rule: deployment settings only."""
    config = MoctopusConfig(cost_model=scaled_cost_model(), durability_dir=durability_dir)
    return Moctopus.from_graph(graph, config, label_names=dict(spec.LABEL_NAMES))


def partition_metrics(system: Moctopus) -> Dict[str, float]:
    """The ``partition.*`` placement-quality metrics of a system."""
    quality = system.partition_quality()
    return {
        "partition.locality_fraction": quality.locality_fraction,
        "partition.edge_cut_fraction": quality.edge_cut_fraction,
        "partition.balance_factor": quality.balance_factor,
        "partition.host_nodes": system.host_node_count(),
    }


def cache_ratios(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, float]:
    """Hit ratios of the plan and result caches between two counter snapshots."""
    out = {}
    for cache in ("result_cache", "plan_cache"):
        hits = after.get(f"{cache}_hits", 0) - before.get(f"{cache}_hits", 0)
        misses = after.get(f"{cache}_misses", 0) - before.get(f"{cache}_misses", 0)
        out[f"core.{cache}_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out


class SimSum:
    """Running sum of the simulated statistics returned to the caller."""

    def __init__(self) -> None:
        self.total_ms = 0.0
        self.parts = {"host": 0.0, "cpc": 0.0, "ipc": 0.0, "pim": 0.0}
        self.cpc_bytes = 0
        self.ipc_bytes = 0

    def add(self, stats) -> None:
        """Fold in one :class:`ExecutionStats`."""
        self.total_ms += stats.total_time_ms
        self.parts["host"] += stats.host_time
        self.parts["cpc"] += stats.cpc_time
        self.parts["ipc"] += stats.ipc_time
        self.parts["pim"] += stats.pim_time
        self.cpc_bytes += stats.cpc.bytes_moved
        self.ipc_bytes += stats.ipc.bytes_moved

    def add_served(self, server: Dict) -> None:
        """Fold in the ``served_*`` totals of a STATS frame.

        The server merges, per answered query, the stats of the coalesced
        batch it rode in, so these depend on how requests happened to
        coalesce and do not repeat from pass to pass.
        """
        self.total_ms += server["served_total_time_seconds"] * 1e3
        for part in self.parts:
            self.parts[part] += server[f"served_{part}_time_seconds"]
        self.cpc_bytes += server["served_cpc_bytes"]
        self.ipc_bytes += server["served_ipc_bytes"]

    def layer_metrics(self) -> Dict[str, float]:
        """The ``pim.*`` metrics."""
        out = {f"pim.sim_{part}_ms": value * 1e3 for part, value in self.parts.items()}
        out["pim.cpc_bytes"] = self.cpc_bytes
        out["pim.ipc_bytes"] = self.ipc_bytes
        return out


class Checker:
    """Counts what was attempted and what failed; remembers why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def op(self, count: int = 1) -> None:
        """``count`` operations were issued."""
        self.attempted += count

    def fail(self, reason: str, count: int = 1) -> None:
        """``count`` of the issued operations failed."""
        self.failed += count
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def expect(self, ok: bool, reason: str) -> None:
        """One checked answer or postcondition."""
        self.attempted += 1
        if not ok:
            self.fail(reason)


@dataclass
class Inputs:
    """Everything one run derives from its seed."""

    seed: int
    scale: str
    counts: Dict[str, int]
    graph: DiGraph
    nodes: List[int]
    work_dir: str
    generate_s: float
    hashes: Dict[str, str] = field(default_factory=dict)
    ops: Dict[str, object] = field(default_factory=dict)
    #: Seconds spent generating this workload's op script (once per run).
    script_s: float = 0.0
    #: Replaces an answer before it is checked; the harness tests use it
    #: to prove a corrupted answer is caught.
    corrupt: Optional[Callable[[set], set]] = None

    def seen(self, answer: set) -> set:
        """The answer as the checks see it."""
        return self.corrupt(answer) if self.corrupt else answer


@dataclass
class PassResult:
    """What one pass measured, as measured."""

    setup_s: float
    load_graph_s: float
    #: Ops counted into throughput, and the seconds spent inside them.
    ops: int
    seconds: float
    #: Per-op latency in script order.
    latencies: List[float]
    #: Digest of the answers; equal across passes of one run.
    digest: str
    #: Simulated time of the pass; ``None`` where it does not repeat
    #: (``wire_serve``: it depends on how requests coalesced).
    sim_ms: Optional[float] = None
    #: Wall seconds of the whole op script, checks included.
    wall_s: float = 0.0
    peak_rss_mb: Optional[float] = None
    #: End-to-end metrics only this workload reports (recover_s, ...).
    e2e: Dict[str, float] = field(default_factory=dict)
    #: Further numbers for the report that are not metrics of the spec.
    info: Dict[str, float] = field(default_factory=dict)
    #: Per-layer numbers this pass observed.
    layer: Dict[str, float] = field(default_factory=dict)


def fresh_system(ctx: "Inputs", durability_dir: Optional[str] = None):
    """Set-up of one pass: generate the graph again and load it; returns the load time.

    The graph is regenerated (not reused from ``ctx``) so that ``setup_s``
    repeats the whole set-up in every pass and its median means something.
    """
    graph = inputs.build_graph(ctx.seed, ctx.scale)
    start = time.perf_counter()
    system = build_system(graph, durability_dir)
    return system, time.perf_counter() - start


def make_inputs(
    workload: Optional[str], seed: int, scale: str, seconds: float, work_dir: str
) -> Inputs:
    """Generate the graph and ``workload``'s op script (``None``: no script) from ``seed``."""
    start = time.perf_counter()
    graph = inputs.build_graph(seed, scale)
    generate_s = time.perf_counter() - start
    ctx = Inputs(
        seed=seed, scale=scale, counts=spec.op_counts(scale, seconds), graph=graph,
        nodes=list(graph.nodes()), work_dir=work_dir, generate_s=generate_s,
    )
    counts = ctx.counts
    start = time.perf_counter()
    if workload == "khop_batch":
        ctx.ops = inputs.khop_ops(seed, ctx.nodes, counts["khop_batch"])
    elif workload == "rpq_session":
        distinct = min(spec.RPQ_DISTINCT, max(8, counts["rpq_session"] // 4))
        ctx.ops = inputs.rpq_ops(seed, graph, distinct, counts["rpq_session"])
    elif workload == "wire_serve":
        ctx.ops = {
            phase: inputs.wire_requests(seed, ctx.nodes, counts[f"wire_{phase}"], phase)
            for phase in spec.WIRE_PHASES
        }
        ctx.ops["warmup"] = inputs.wire_requests(seed, ctx.nodes, 8, "warmup")
    elif workload == "update_mixed":
        total = spec.UPDATE_WARMUP_BATCHES + counts["update_mixed"]
        script, final_edges = inputs.update_script(graph, seed, total)
        reads = inputs.source_batches(
            seed, "update-reads", ctx.nodes,
            counts["update_mixed"] // spec.UPDATE_READ_EVERY, spec.UPDATE_READ_SOURCES,
        )
        ctx.ops = {"script": script, "final_edges": final_edges, "reads": reads}
    elif workload is not None:
        raise ValueError(f"unknown workload {workload!r}")
    ctx.script_s = time.perf_counter() - start

    ctx.hashes = {"graph": inputs.graph_sha256(graph)}
    if workload is not None:
        ctx.hashes["ops"] = inputs.sha256_of(ctx.ops)
    return ctx


def _digest(parts: Sequence[object]) -> str:
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()[:16]


def _reference_khop(graph: DiGraph, source: int, hops: int) -> set:
    return evaluate_khop(graph, KHopQuery(hops=hops, sources=[source])).destinations[0]


# ----------------------------------------------------------------------
# khop_batch
# ----------------------------------------------------------------------
def khop_batch_pass(ctx: Inputs, tracer: Tracer, checker: Checker) -> PassResult:
    """Live ``batch_khop`` of 512-source batches, hops cycling 1,2,3."""
    setup_start = time.perf_counter()
    system, load_graph_s = fresh_system(ctx)
    for hops, sources in ctx.ops["warmup"]:
        system.batch_khop(sources, hops)
    setup_s = time.perf_counter() - setup_start

    cache_before = dict(system.cache_stats.counters)
    sim = SimSum()
    latencies: List[float] = []
    answers = []
    results = migrations = 0
    wall_start = time.perf_counter()
    for op_id, (hops, sources) in enumerate(ctx.ops["timed"]):
        checker.op()
        op_start = time.perf_counter()
        if tracer.enabled:
            with tracer.span("core.batch_khop", op_id):
                result, stats = system.batch_khop(sources, hops, auto_migrate=False)
            with tracer.span("partition.run_maintenance", op_id):
                system.run_maintenance()
        else:
            result, stats = system.batch_khop(sources, hops)
        latencies.append(time.perf_counter() - op_start)
        sim.add(stats)
        results += result.total_matches
        migrations += system.last_maintenance_stats.counters.get("migrations", 0)
        for index in range(0, len(sources), spec.CHECK_EVERY):
            answer = ctx.seen(result.destinations[index])
            checker.expect(
                answer == _reference_khop(ctx.graph, sources[index], hops),
                f"khop_batch op {op_id} source {sources[index]}: wrong answer",
            )
            answers.append(sorted(answer))
        answers.append(result.total_matches)
    wall_s = time.perf_counter() - wall_start

    layer = {"engine.results": results, "partition.migrations": migrations}
    layer.update(sim.layer_metrics())
    layer.update(partition_metrics(system))
    layer.update(cache_ratios(cache_before, system.cache_stats.counters))
    return PassResult(
        setup_s=setup_s, load_graph_s=load_graph_s,
        ops=len(latencies) * spec.KHOP_BATCH_SOURCES, seconds=sum(latencies),
        latencies=latencies, sim_ms=sim.total_ms, digest=_digest(answers), wall_s=wall_s,
        layer=layer,
    )


# ----------------------------------------------------------------------
# rpq_session
# ----------------------------------------------------------------------
def rpq_session_pass(ctx: Inputs, tracer: Tracer, checker: Checker) -> PassResult:
    """One pinned Session replaying a Zipfian mix wider than the result cache."""
    setup_start = time.perf_counter()
    system, load_graph_s = fresh_system(ctx)
    session = system.begin()
    for expression, sources in ctx.ops["warmup"]:
        session.execute(RPQuery(expression, list(sources)))
    setup_s = time.perf_counter() - setup_start

    queries = ctx.ops["queries"]
    reference: Dict[int, List[set]] = {}
    cache_before = dict(system.cache_stats.counters)
    sim = SimSum()
    latencies: List[float] = []
    answers = []
    results = 0
    per_expression: Dict[str, float] = {}
    counters = system.cache_stats.counters
    replays = counters.get("result_cache_hits", 0)
    wall_start = time.perf_counter()
    for op_id, rank in enumerate(ctx.ops["draws"]):
        expression, sources = queries[rank]
        checker.op()
        op_start = time.perf_counter()
        with tracer.span("serve.session.execute", op_id):
            # A fresh query object per call, as a client would send it: the
            # parse and DFA memo lives on the object.
            result, stats = session.execute(RPQuery(expression, list(sources)))
        elapsed = time.perf_counter() - op_start
        latencies.append(elapsed)
        per_expression[expression] = per_expression.get(expression, 0.0) + elapsed
        # A result-cache replay hands back the stats of an earlier execution:
        # simulated time is summed over the ops the engine actually ran.
        if counters.get("result_cache_hits", 0) == replays:
            sim.add(stats)
        replays = counters.get("result_cache_hits", 0)
        results += result.total_matches
        answers.append(result.total_matches)
        if op_id % spec.CHECK_EVERY == 0:
            if rank not in reference:
                reference[rank] = evaluate_rpq(
                    ctx.graph, RPQuery(expression, list(sources)), dict(spec.LABEL_NAMES)
                ).destinations
            seen = [ctx.seen(answer) for answer in result.destinations]
            checker.expect(
                seen == reference[rank], f"rpq_session op {op_id} {expression!r}: wrong answer"
            )
    wall_s = time.perf_counter() - wall_start
    session.close()

    layer = {"engine.results": results}
    layer.update(sim.layer_metrics())
    layer.update(partition_metrics(system))
    layer.update(cache_ratios(cache_before, system.cache_stats.counters))
    seconds = sum(latencies)
    return PassResult(
        setup_s=setup_s, load_graph_s=load_graph_s, ops=len(latencies), seconds=seconds,
        latencies=latencies, sim_ms=sim.total_ms, digest=_digest(answers), wall_s=wall_s,
        info={"heaviest_expression_share": max(per_expression.values()) / seconds},
        layer=layer,
    )


# ----------------------------------------------------------------------
# wire_serve
# ----------------------------------------------------------------------
def _read_json_line(stream, timeout: float) -> Dict:
    ready, _, _ = select.select([stream], [], [], timeout)
    if not ready:
        raise TimeoutError("server child did not answer in time")
    line = stream.readline()
    if not line:
        raise ConnectionError("server child closed its pipe")
    return json.loads(line)


def _reference_wire(graph: DiGraph, request: Dict) -> set:
    if request["kind"] == "khop":
        return _reference_khop(graph, request["source"], request["hops"])
    query = RPQuery(request["expression"], [request["source"]])
    return evaluate_rpq(graph, query, dict(spec.LABEL_NAMES)).destinations[0]


def wire_serve_pass(ctx: Inputs, tracer: Tracer, checker: Checker) -> PassResult:
    """A server child under closed-loop, then open-loop load."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, os.path.join(e2e_env.HERE, "e2e_server_child.py"),
         "--seed", str(ctx.seed), "--scale", ctx.scale],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        ready = _read_json_line(child.stdout, timeout=120.0)
        result = asyncio.run(_wire_phases(ctx, tracer, checker, ready["port"], start))
        child.stdin.write("quit\n")
        child.stdin.flush()
        report = _read_json_line(child.stdout, timeout=60.0)
        exit_code = child.wait(timeout=60.0)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdin.close()
        child.stdout.close()
    checker.expect(exit_code == 0, f"wire_serve: server child exited {exit_code}")
    checker.expect(not reap_stale_segments(), "wire_serve: stale shared-memory segments")
    result.load_graph_s = ready["load_graph_s"]
    result.peak_rss_mb = report.pop("peak_rss_mb")
    result.info["server_cpu_ms_per_op"] = report.pop("cpu_s") * 1e3 / result.info["requests"]
    result.layer.update(report)
    return result


async def _wire_phases(
    ctx: Inputs, tracer: Tracer, checker: Checker, port: int, start: float
) -> PassResult:
    connections = [wire.WireConnection() for _ in range(spec.WIRE_CONNECTIONS)]
    for connection in connections:
        await connection.open("127.0.0.1", port)
    sends = [connection.request for connection in connections]
    timeout = spec.WIRE_TIMEOUT_S
    warmup = await wire.closed_loop(sends, ctx.ops["warmup"], 1, timeout)
    setup_s = time.perf_counter() - start

    sent_before = sum(c.bytes_sent for c in connections)
    received_before = sum(c.bytes_received for c in connections)
    wall_start = time.perf_counter()
    phases = {}
    phase_span = {}
    with tracer.span("bench.closed_loop", 0) as phase_span["closed"]:
        phases["closed"] = await wire.closed_loop(
            sends, ctx.ops["closed"], spec.WIRE_OUTSTANDING, timeout
        )
    with tracer.span("bench.open_loop", 1) as phase_span["open"]:
        phases["open"] = await wire.open_loop(
            sends, ctx.ops["open"], spec.WIRE_OPEN_RATE, timeout, spec.WIRE_OPEN_OUTSTANDING
        )
    wall_s = time.perf_counter() - wall_start
    sent = sum(c.bytes_sent for c in connections) - sent_before
    received = sum(c.bytes_received for c in connections) - received_before

    answers = []
    results = 0
    counts = {"busy": 0, "error": 0, "timeouts": 0, "result": warmup.count("result")}
    op_id = 0
    for phase, outcome in phases.items():
        parent = phase_span[phase]
        counts["busy"] += outcome.count("busy")
        counts["error"] += outcome.count("error")
        counts["timeouts"] += outcome.timeouts
        counts["result"] += outcome.count("result")
        requests = ctx.ops[phase]
        checker.op(len(requests))
        bad = len(requests) - outcome.count("result")
        if bad:
            checker.fail(f"wire_serve {phase}: {bad} requests refused, failed or timed out", bad)
        for index, (request, reply) in enumerate(zip(requests, outcome.replies)):
            begin, end = outcome.intervals[index]
            tracer.add("net.client.roundtrip", int(begin * 1e9), int(end * 1e9), op_id, parent)
            op_id += 1
            if reply is None or reply["type"] != "result":
                continue
            results += len(reply["destinations"])
            if index % spec.CHECK_EVERY == 0:
                answer = ctx.seen(set(reply["destinations"]))
                checker.expect(
                    answer == _reference_wire(ctx.graph, request),
                    f"wire_serve {phase} request {index}: wrong answer",
                )
                answers.append(sorted(answer))

    stats_frame, _ = await asyncio.wait_for(sends[0]({"type": "stats"}), timeout)
    server = stats_frame["metrics"]
    checker.expect(
        server["queries_answered"] == counts["result"]
        and server["admission_rejections"] == counts["busy"]
        and server["queries_timed_out"] == 0,
        f"wire_serve: STATS frame disagrees with the client's counts {counts}",
    )
    for connection in connections:
        checker.expect(await connection.close(), "wire_serve: client socket did not close cleanly")

    total_requests = sum(len(ctx.ops[phase]) for phase in spec.WIRE_PHASES)
    open_loop = phases["open"]
    layer = {
        "engine.results": results,
        "net.bytes_per_request": sent / total_requests,
        "net.bytes_per_reply": received / total_requests,
        "net.busy": counts["busy"],
        "net.timeouts": counts["timeouts"],
        "net.errors": counts["error"],
        "net.gen_lag_p99_ratio": percentile(open_loop.lags, 99.0) * spec.WIRE_OPEN_RATE,
    }
    sim = SimSum()
    sim.add_served(server)
    layer.update(sim.layer_metrics())
    layer.update(cache_ratios({}, {
        name[len("cache_"):]: value for name, value in server.items()
        if name.startswith("cache_")
    }))
    closed = phases["closed"]
    return PassResult(
        setup_s=setup_s, load_graph_s=0.0, ops=closed.count("result"), seconds=closed.seconds,
        latencies=open_loop.latencies, digest=_digest(answers), wall_s=wall_s,
        e2e={"wire_bytes_per_op": (sent + received) / total_requests},
        info={
            "requests": total_requests,
            "closed_p50_ms": percentile(closed.latencies, 50.0) * 1e3,
            "open_rate_ops_s": len(ctx.ops["open"]) / open_loop.seconds,
            "gen_lag_p99_ms": percentile(open_loop.lags, 99.0) * 1e3,
        },
        layer=layer,
    )


# ----------------------------------------------------------------------
# update_mixed
# ----------------------------------------------------------------------
def tree_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for directory, _, names in os.walk(root)
        for name in names
    )


def update_mixed_pass(ctx: Inputs, tracer: Tracer, checker: Checker) -> PassResult:
    """Durable update batches with fresh pinned reads, then close and recover."""
    script = ctx.ops["script"]
    setup_start = time.perf_counter()
    directory = tempfile.mkdtemp(prefix="durable-", dir=ctx.work_dir)
    system, load_graph_s = fresh_system(ctx, durability_dir=directory)
    for ops in script[: spec.UPDATE_WARMUP_BATCHES]:
        system.apply_updates(ops)
    setup_s = time.perf_counter() - setup_start
    mirror = ctx.graph.copy()
    for ops in script[: spec.UPDATE_WARMUP_BATCHES]:
        _apply_to_mirror(mirror, ops)

    checkpoint_dir = DurabilityController.checkpoint_directory(directory)
    checkpoints_seen = set(retained_checkpoint_lsns(checkpoint_dir))
    checkpoints_before = len(checkpoints_seen)
    cache_before = dict(system.cache_stats.counters)
    sim = SimSum()
    latencies: List[float] = []
    read_latencies: List[float] = []
    answers = []
    results = 0
    reads = iter(ctx.ops["reads"])
    wall_start = time.perf_counter()
    for op_id, ops in enumerate(script[spec.UPDATE_WARMUP_BATCHES:]):
        checker.op()
        op_start = time.perf_counter()
        with tracer.span("core.apply_updates", op_id):
            stats = system.apply_updates(ops)
        latencies.append(time.perf_counter() - op_start)
        sim.add(stats)
        _apply_to_mirror(mirror, ops)
        checkpoints_seen.update(retained_checkpoint_lsns(checkpoint_dir))
        if (op_id + 1) % spec.UPDATE_READ_EVERY:
            continue
        sources = next(reads)
        checker.op()
        op_start = time.perf_counter()
        with tracer.span("serve.begin", op_id):
            session = system.begin()
        with tracer.span("serve.session.execute", op_id):
            result, stats = session.batch_khop(sources, spec.UPDATE_READ_HOPS)
        with tracer.span("serve.session.close", op_id):
            session.close()
        read_latencies.append(time.perf_counter() - op_start)
        sim.add(stats)
        results += result.total_matches
        answers.append(result.total_matches)
        expected = evaluate_khop(mirror, KHopQuery(spec.UPDATE_READ_HOPS, list(sources)))
        seen = [ctx.seen(answer) for answer in result.destinations]
        checker.expect(
            seen == expected.destinations, f"update_mixed read after batch {op_id}: wrong answer"
        )

    cache_after = dict(system.cache_stats.counters)
    quality = partition_metrics(system)
    system.close()
    durable_bytes = tree_bytes(directory)
    records, _ = scan_wal(wal_directory(directory))
    newest = max(retained_checkpoint_lsns(checkpoint_dir), default=0)
    replayed = sum(1 for record in records if record.lsn > newest)
    op_start = time.perf_counter()
    with tracer.span("core.recover", len(latencies)):
        recovered = Moctopus.recover(directory)
    recover_s = time.perf_counter() - op_start
    wall_s = time.perf_counter() - wall_start
    checker.expect(
        ctx.seen(set(recovered.graph.edges())) == ctx.ops["final_edges"]
        and set(mirror.edges()) == ctx.ops["final_edges"],
        "update_mixed: recovered edge set differs from the script's mirror",
    )
    recovered.close()
    shutil.rmtree(directory)
    checker.expect(not os.path.exists(directory), "update_mixed: durability dir not removed")

    bytes_per_update = durable_bytes / (len(script) * spec.UPDATE_BATCH_OPS)
    layer = {
        "engine.results": results,
        "durability.replayed_records": replayed,
        "durability.checkpoints_taken": len(checkpoints_seen) - checkpoints_before,
        "durability.bytes_per_update": bytes_per_update,
    }
    layer.update(sim.layer_metrics())
    layer.update(quality)
    layer.update(cache_ratios(cache_before, cache_after))
    return PassResult(
        setup_s=setup_s, load_graph_s=load_graph_s,
        ops=len(latencies) * spec.UPDATE_BATCH_OPS, seconds=sum(latencies),
        latencies=latencies, sim_ms=sim.total_ms, digest=_digest(answers), wall_s=wall_s,
        e2e={
            "fresh_read_p50_ms": percentile(read_latencies, 50.0) * 1e3,
            "recover_s": recover_s,
            "durable_bytes_per_update": bytes_per_update,
        },
        info={
            "fresh_reads": len(read_latencies),
            "stall_max_ms": max(latencies) * 1e3,
            "checkpoints_taken": len(checkpoints_seen) - checkpoints_before,
        },
        layer=layer,
    )


def _apply_to_mirror(mirror: DiGraph, ops) -> None:
    for op in ops:
        if op.kind is UpdateKind.INSERT:
            mirror.add_edge(op.src, op.dst)
        else:
            mirror.remove_edge(op.src, op.dst)


PASSES: Dict[str, Callable[[Inputs, Tracer, Checker], PassResult]] = {
    "khop_batch": khop_batch_pass,
    "rpq_session": rpq_session_pass,
    "wire_serve": wire_serve_pass,
    "update_mixed": update_mixed_pass,
}

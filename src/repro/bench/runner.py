"""Experiment runner: one measurement of the paper's evaluation.

The runner builds the three systems of the paper's evaluation on the
same generated graph, executes the same workload against each of them
and collects the simulated latencies:

* ``moctopus``   — :class:`repro.core.Moctopus` with the paper's
  configuration (radical greedy + labor division + migration);
* ``pim-hash``   — :class:`repro.baselines.PIMHashSystem`;
* ``redisgraph`` — :class:`repro.baselines.RedisGraphEngine`.

Each experiment function measures one trace and returns one row: a
plain dictionary of simulated latencies, the integer counters behind
them, and the ratios derived from them.  :mod:`repro.bench.reproduce`
runs them in the paper's order and writes the rows into
``REPRODUCTION.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.baselines.pim_hash import PIMHashSystem
from repro.baselines.redisgraph import RedisGraphEngine
from repro.bench.workloads import (
    DEFAULT_BATCH_SIZE,
    khop_workload,
    scaled_cost_model,
    update_workload,
)
from repro.core.config import MoctopusConfig
from repro.core.system import Moctopus
from repro.graph.datasets import load_dataset
from repro.graph.digraph import DiGraph
from repro.pim.cost_model import CostModel
from repro.pim.stats import ExecutionStats

__all__ = [
    "SystemSet",
    "build_systems",
    "load_trace",
    "run_khop_experiment",
    "run_ipc_experiment",
    "run_update_experiment",
]


@dataclass
class SystemSet:
    """The three engines loaded with the same graph."""

    graph: DiGraph
    moctopus: Moctopus
    pim_hash: PIMHashSystem
    redisgraph: RedisGraphEngine

    def by_name(self) -> Dict[str, object]:
        """Mapping from system name to engine instance."""
        return {
            "moctopus": self.moctopus,
            "pim-hash": self.pim_hash,
            "redisgraph": self.redisgraph,
        }


def build_systems(
    graph: DiGraph,
    cost_model: Optional[CostModel] = None,
    warmup_rounds: int = 2,
) -> SystemSet:
    """Load ``graph`` into Moctopus, PIM-hash and the RedisGraph baseline.

    ``warmup_rounds`` batch queries are executed on the Moctopus instance
    before it is handed to an experiment so that the greedy-adaptive
    partitioning has gone through its detection/migration cycle and the
    measured placement is the steady state, as it would be on a live
    database.
    """
    cost_model = cost_model or scaled_cost_model()
    moctopus = Moctopus.from_graph(graph, MoctopusConfig(cost_model=cost_model))
    pim_hash = PIMHashSystem.from_graph(graph, cost_model=cost_model)
    redisgraph = RedisGraphEngine.from_graph(graph, cost_model=cost_model)
    for round_index in range(warmup_rounds):
        query = khop_workload(graph, hops=3, batch_size=64, seed=9000 + round_index)
        moctopus.batch_khop(query.sources, query.hops)
    return SystemSet(
        graph=graph, moctopus=moctopus, pim_hash=pim_hash, redisgraph=redisgraph
    )


def load_trace(trace_id: int, scale: float = 1.0) -> DiGraph:
    """Generate the synthetic stand-in of a Table 1 trace."""
    return load_dataset(trace_id, scale=scale)


def charges(system: str, stats: ExecutionStats) -> Dict[str, object]:
    """``system``'s simulated latency and the transfer bytes behind it."""
    return {
        f"{system}_ms": stats.total_time_ms,
        f"{system}_cpc_bytes": stats.cpc.bytes_moved,
        f"{system}_ipc_bytes": stats.ipc.bytes_moved,
    }


# ----------------------------------------------------------------------
# Figure 4: k-hop query latency
# ----------------------------------------------------------------------
def run_khop_experiment(
    systems: SystemSet,
    hops: int,
    batch_size: int = DEFAULT_BATCH_SIZE,
    seed: int = 0,
) -> Dict[str, object]:
    """Latency of one batch k-hop query on the three systems.

    The row holds each system's simulated latency and transfer bytes,
    the match count, and Moctopus's speedups over the other two.
    """
    query = khop_workload(systems.graph, hops=hops, batch_size=batch_size, seed=seed)
    moctopus_result, moctopus_stats = systems.moctopus.batch_khop(
        query.sources, query.hops
    )
    pim_hash_result, pim_hash_stats = systems.pim_hash.batch_khop(
        query.sources, query.hops
    )
    redis_result, redis_stats = systems.redisgraph.batch_khop(query.sources, query.hops)

    if moctopus_result.total_matches != redis_result.total_matches:
        raise AssertionError(
            "result mismatch between Moctopus and the RedisGraph baseline"
        )
    if moctopus_result.total_matches != pim_hash_result.total_matches:
        raise AssertionError("result mismatch between Moctopus and PIM-hash")

    return {
        **charges("moctopus", moctopus_stats),
        **charges("pim_hash", pim_hash_stats),
        **charges("redisgraph", redis_stats),
        "matches": moctopus_result.total_matches,
        "speedup_vs_redisgraph": redis_stats.total_time_ms / moctopus_stats.total_time_ms,
        "speedup_vs_pim_hash": pim_hash_stats.total_time_ms / moctopus_stats.total_time_ms,
    }


# ----------------------------------------------------------------------
# Figure 5: IPC cost of 3-hop queries
# ----------------------------------------------------------------------
def run_ipc_experiment(
    systems: SystemSet,
    hops: int = 3,
    batch_size: int = DEFAULT_BATCH_SIZE,
    seed: int = 0,
) -> Dict[str, object]:
    """Inter-PIM communication time of Moctopus vs PIM-hash on one query."""
    query = khop_workload(systems.graph, hops=hops, batch_size=batch_size, seed=seed)
    _, moctopus_stats = systems.moctopus.batch_khop(query.sources, query.hops)
    _, pim_hash_stats = systems.pim_hash.batch_khop(query.sources, query.hops)

    reduction = 0.0
    if pim_hash_stats.ipc_time > 0:
        reduction = 1.0 - moctopus_stats.ipc_time / pim_hash_stats.ipc_time
    return {
        "moctopus_ipc_ms": moctopus_stats.ipc_time_ms,
        "pim_hash_ipc_ms": pim_hash_stats.ipc_time_ms,
        "ipc_reduction": reduction,
        "moctopus_ipc_bytes": moctopus_stats.ipc.bytes_moved,
        "pim_hash_ipc_bytes": pim_hash_stats.ipc.bytes_moved,
    }


# ----------------------------------------------------------------------
# Figure 6: graph update latency
# ----------------------------------------------------------------------
def run_update_experiment(
    graph: DiGraph,
    batch_size: int = DEFAULT_BATCH_SIZE,
    cost_model: Optional[CostModel] = None,
    seed: int = 0,
) -> Dict[str, object]:
    """Insertion and deletion latency of Moctopus vs RedisGraph on ``graph``.

    Updates mutate the stores, so both systems are built fresh here.
    """
    cost = cost_model or scaled_cost_model()
    workload = update_workload(graph, batch_size=batch_size, seed=seed)
    moctopus = Moctopus.from_graph(graph, MoctopusConfig(cost_model=cost))
    redisgraph = RedisGraphEngine.from_graph(graph, cost_model=cost)

    moctopus_insert = moctopus.insert_edges(workload.insert_edges)
    redis_insert = redisgraph.insert_edges(workload.insert_edges)
    moctopus_delete = moctopus.delete_edges(workload.delete_edges)
    redis_delete = redisgraph.delete_edges(workload.delete_edges)

    return {
        **charges("moctopus_insert", moctopus_insert),
        **charges("redisgraph_insert", redis_insert),
        "insert_speedup": redis_insert.total_time_ms / moctopus_insert.total_time_ms,
        **charges("moctopus_delete", moctopus_delete),
        **charges("redisgraph_delete", redis_delete),
        "delete_speedup": redis_delete.total_time_ms / moctopus_delete.total_time_ms,
    }

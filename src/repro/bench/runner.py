"""Experiment runner: the engine behind every figure/table benchmark.

The runner builds the three systems of the paper's evaluation on the
same generated graph, executes the same workload against each of them
and collects the simulated latencies:

* ``moctopus``   — :class:`repro.core.Moctopus` with the paper's
  configuration (radical greedy + labor division + migration);
* ``pim-hash``   — :class:`repro.baselines.PIMHashSystem`;
* ``redisgraph`` — :class:`repro.baselines.RedisGraphEngine`.

Each experiment function returns a list of per-trace result rows (plain
dictionaries) that the pytest-benchmark harness consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.baselines.pim_hash import PIMHashSystem
from repro.baselines.redisgraph import RedisGraphEngine
from repro.bench.workloads import (
    DEFAULT_BATCH_SIZE,
    khop_workload,
    scaled_cost_model,
    update_workload,
)

__all__ = [
    "SystemSet",
    "SystemProvider",
    "build_systems",
    "load_trace",
    "run_khop_experiment",
    "run_ipc_experiment",
    "run_update_experiment",
]
from repro.core.config import MoctopusConfig
from repro.core.system import Moctopus
from repro.graph.datasets import dataset_spec, load_dataset
from repro.graph.digraph import DiGraph
from repro.pim.cost_model import CostModel


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


class SystemProvider:
    """Builds and caches one :class:`SystemSet` per trace.

    Benchmarks share a provider so that the (comparatively expensive)
    graph generation and bulk loading happen once per trace per session,
    not once per figure.
    """

    def __init__(
        self,
        scale: float = 1.0,
        cost_model: Optional[CostModel] = None,
        warmup_rounds: int = 2,
    ) -> None:
        self.scale = scale
        self.cost_model = cost_model or scaled_cost_model()
        self.warmup_rounds = warmup_rounds
        self._cache: Dict[int, SystemSet] = {}

    def get(self, trace_id: int) -> SystemSet:
        """The cached system set of ``trace_id`` (building it on first use)."""
        if trace_id not in self._cache:
            graph = load_trace(trace_id, scale=self.scale)
            self._cache[trace_id] = build_systems(
                graph, cost_model=self.cost_model, warmup_rounds=self.warmup_rounds
            )
        return self._cache[trace_id]

    def clear(self) -> None:
        """Drop every cached system set."""
        self._cache.clear()


# ----------------------------------------------------------------------
# Figure 4: k-hop query latency
# ----------------------------------------------------------------------
def run_khop_experiment(
    trace_ids: Iterable[int],
    hops: int,
    batch_size: int = DEFAULT_BATCH_SIZE,
    scale: float = 1.0,
    cost_model: Optional[CostModel] = None,
    seed: int = 0,
    provider: Optional[SystemProvider] = None,
) -> List[Dict[str, object]]:
    """Latency of batch k-hop queries per trace for the three systems.

    Each result row contains the trace id/name, the simulated latency in
    milliseconds per system, and Moctopus's speedups over the other two.
    """
    rows: List[Dict[str, object]] = []
    for trace_id in trace_ids:
        spec = dataset_spec(trace_id)
        if provider is not None:
            systems = provider.get(trace_id)
        else:
            systems = build_systems(
                load_trace(trace_id, scale=scale), cost_model=cost_model
            )
        graph = systems.graph
        query = khop_workload(graph, hops=hops, batch_size=batch_size, seed=seed)

        moctopus_result, moctopus_stats = systems.moctopus.batch_khop(
            query.sources, query.hops
        )
        pim_hash_result, pim_hash_stats = systems.pim_hash.batch_khop(
            query.sources, query.hops
        )
        redis_result, redis_stats = systems.redisgraph.batch_khop(
            query.sources, query.hops
        )

        if moctopus_result.total_matches != redis_result.total_matches:
            raise AssertionError(
                f"trace #{trace_id}: result mismatch between Moctopus and the "
                "RedisGraph baseline"
            )
        if moctopus_result.total_matches != pim_hash_result.total_matches:
            raise AssertionError(
                f"trace #{trace_id}: result mismatch between Moctopus and PIM-hash"
            )

        rows.append(
            {
                "trace": f"#{trace_id}",
                "name": spec.name,
                "hops": hops,
                "moctopus_ms": moctopus_stats.total_time_ms,
                "pim_hash_ms": pim_hash_stats.total_time_ms,
                "redisgraph_ms": redis_stats.total_time_ms,
                "speedup_vs_redisgraph": (
                    redis_stats.total_time_ms / moctopus_stats.total_time_ms
                ),
                "speedup_vs_pim_hash": (
                    pim_hash_stats.total_time_ms / moctopus_stats.total_time_ms
                ),
                "matches": moctopus_result.total_matches,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Figure 5: IPC cost of 3-hop queries
# ----------------------------------------------------------------------
def run_ipc_experiment(
    trace_ids: Iterable[int],
    hops: int = 3,
    batch_size: int = DEFAULT_BATCH_SIZE,
    scale: float = 1.0,
    cost_model: Optional[CostModel] = None,
    seed: int = 0,
    provider: Optional[SystemProvider] = None,
) -> List[Dict[str, object]]:
    """Inter-PIM communication time of Moctopus vs PIM-hash per trace."""
    rows: List[Dict[str, object]] = []
    for trace_id in trace_ids:
        spec = dataset_spec(trace_id)
        if provider is not None:
            systems = provider.get(trace_id)
        else:
            systems = build_systems(
                load_trace(trace_id, scale=scale), cost_model=cost_model
            )
        graph = systems.graph
        moctopus = systems.moctopus
        pim_hash = systems.pim_hash
        query = khop_workload(graph, hops=hops, batch_size=batch_size, seed=seed)

        _, moctopus_stats = moctopus.batch_khop(query.sources, query.hops)
        _, pim_hash_stats = pim_hash.batch_khop(query.sources, query.hops)

        reduction = 0.0
        if pim_hash_stats.ipc_time > 0:
            reduction = 1.0 - moctopus_stats.ipc_time / pim_hash_stats.ipc_time
        rows.append(
            {
                "trace": f"#{trace_id}",
                "name": spec.name,
                "moctopus_ipc_ms": moctopus_stats.ipc_time_ms,
                "pim_hash_ipc_ms": pim_hash_stats.ipc_time_ms,
                "ipc_reduction": reduction,
                "moctopus_ipc_bytes": moctopus_stats.ipc.bytes_moved,
                "pim_hash_ipc_bytes": pim_hash_stats.ipc.bytes_moved,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Figure 6: graph update latency
# ----------------------------------------------------------------------
def run_update_experiment(
    trace_ids: Iterable[int],
    batch_size: int = DEFAULT_BATCH_SIZE,
    scale: float = 1.0,
    cost_model: Optional[CostModel] = None,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Insertion and deletion latency of Moctopus vs RedisGraph per trace."""
    rows: List[Dict[str, object]] = []
    for trace_id in trace_ids:
        spec = dataset_spec(trace_id)
        graph = load_trace(trace_id, scale=scale)
        cost = cost_model or scaled_cost_model()
        workload = update_workload(graph, batch_size=batch_size, seed=seed)

        moctopus = Moctopus.from_graph(graph, MoctopusConfig(cost_model=cost))
        redisgraph = RedisGraphEngine.from_graph(graph, cost_model=cost)

        moctopus_insert = moctopus.insert_edges(workload.insert_edges)
        redis_insert = redisgraph.insert_edges(workload.insert_edges)
        moctopus_delete = moctopus.delete_edges(workload.delete_edges)
        redis_delete = redisgraph.delete_edges(workload.delete_edges)

        rows.append(
            {
                "trace": f"#{trace_id}",
                "name": spec.name,
                "moctopus_insert_ms": moctopus_insert.total_time_ms,
                "redisgraph_insert_ms": redis_insert.total_time_ms,
                "insert_speedup": (
                    redis_insert.total_time_ms / moctopus_insert.total_time_ms
                ),
                "moctopus_delete_ms": moctopus_delete.total_time_ms,
                "redisgraph_delete_ms": redis_delete.total_time_ms,
                "delete_speedup": (
                    redis_delete.total_time_ms / moctopus_delete.total_time_ms
                ),
            }
        )
    return rows

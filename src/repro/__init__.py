"""Moctopus reproduction: PIM-accelerated regular path queries over graph databases.

This package reproduces the system described in *"Accelerating Regular
Path Queries over Graph Database with Processing-in-Memory"* (DAC 2024).
It contains:

``repro.graph``
    The graph substrate: property graphs, adjacency structures,
    synthetic dataset generators mirroring the paper's SNAP workloads,
    and update streams.

``repro.pim``
    A simulator of a commodity processing-in-memory platform (UPMEM-like):
    a host CPU with a cache/DRAM cost model, a set of PIM modules with
    small local memories, and CPU-PIM / inter-PIM communication channels
    with bandwidth accounting.

``repro.partition``
    Graph partitioning algorithms: hash, Linear Deterministic Greedy,
    adaptive repartitioning, and the paper's radical-greedy heuristic with
    a dynamic capacity constraint, plus partition quality metrics.

``repro.rpq``
    A regular path query engine: path-regex parsing, automaton
    construction, the planner (one frozen ``Plan`` per query, the
    paper's ``Q x Adj x ... x Adj`` matrix plan), and a reference
    evaluator used as a correctness oracle.

``repro.core``
    Moctopus itself: the query processor, graph partitioner and node
    migrator, PIM local graph storage, heterogeneous graph storage for
    high-degree nodes, and the top-level :class:`repro.core.Moctopus`
    facade.

``repro.engine``
    The execution layer: one driver runs a ``Plan`` as dispatch, ``smxm``
    expand+route phases and ``mwait``, charging the simulated platform,
    over swappable kernels — the scalar reference, the vectorized numpy
    kernels over CSR storage snapshots, the semiring-matrix kernels —
    selected by ``MoctopusConfig.engine`` and required to agree on every
    result and every simulated counter.

``repro.serve``
    The snapshot-isolated concurrent serving layer: immutable epoch
    captures published by the single writer, pin-on-begin sessions with
    a read-your-writes overlay, and a bounded batch scheduler that
    coalesces concurrent client queries into engine-level batches.

``repro.net``
    The asyncio network front-end: a TCP server speaking a
    length-prefixed JSON frame protocol that feeds remote clients into
    the batch scheduler, with per-client and server-wide admission
    control, per-request timeouts, graceful draining shutdown, and a
    metrics surface (STATS frame + ``GET /metrics`` text scrape).

``repro.baselines``
    The two comparison systems from the paper's evaluation: a
    RedisGraph-like single-node GraphBLAS engine and the PIM-hash scheme.

``repro.bench``
    Workload generators, an experiment runner and report formatting used
    by the ``benchmarks/`` harness to regenerate every table and figure.
"""

from repro.graph import DiGraph, PropertyGraph
from repro.pim import CostModel, PIMSystem
from repro.rpq import KHopQuery, RPQuery
from repro.core import Moctopus, MoctopusConfig
from repro.serve import BatchScheduler, Session
from repro.baselines import PIMHashSystem, RedisGraphEngine

__version__ = "1.0.0"

__all__ = [
    "DiGraph",
    "PropertyGraph",
    "Moctopus",
    "MoctopusConfig",
    "RedisGraphEngine",
    "PIMHashSystem",
    "CostModel",
    "PIMSystem",
    "RPQuery",
    "KHopQuery",
    "Session",
    "BatchScheduler",
    "__version__",
]

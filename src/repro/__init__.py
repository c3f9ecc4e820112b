"""Moctopus reproduction: PIM-accelerated regular path queries over graph databases.

This package reproduces the system described in *"Accelerating Regular
Path Queries over Graph Database with Processing-in-Memory"* (DAC 2024).
It contains:

``repro.graph``
    The graph substrate: adjacency structures,
    synthetic dataset generators mirroring the paper's SNAP workloads,
    and update streams.

``repro.pim``
    A simulator of a commodity processing-in-memory platform (UPMEM-like):
    a host CPU with a cache/DRAM cost model, a set of PIM modules with
    small local memories, and CPU-PIM / inter-PIM communication channels
    with bandwidth accounting.

``repro.partition``
    Graph partitioning: hash placement, the paper's radical-greedy
    heuristic with a dynamic capacity constraint, labor division, and
    partition quality metrics.

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
    over kernels picked by name (``repro.engine.execute``; the name is
    set with ``Moctopus.use_engine``) — the scalar reference and the
    numpy kernels over CSR storage snapshots, which push or pull each
    phase as its work decides — required to agree on every result and
    every simulated counter.

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

``repro.paper``
    The paper's evaluation apparatus, which the package root does not
    import: the two comparison systems (a RedisGraph-like single-node
    GraphBLAS engine and the PIM-hash scheme), the ablations' placement
    variants and partitioners, workload generators, an experiment
    runner and report formatting; ``python -m repro.paper`` regenerates
    every table and figure of the paper into the committed
    ``REPRODUCTION.json``.
"""

from repro.graph import DiGraph
from repro.pim import CostModel, PIMSystem
from repro.rpq import KHopQuery, RPQuery
from repro.core import Moctopus, MoctopusConfig
from repro.serve import BatchScheduler, Session

__version__ = "1.0.0"

__all__ = [
    "DiGraph",
    "Moctopus",
    "MoctopusConfig",
    "CostModel",
    "PIMSystem",
    "RPQuery",
    "KHopQuery",
    "Session",
    "BatchScheduler",
    "__version__",
]

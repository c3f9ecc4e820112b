"""Configuration of a Moctopus instance.

All the tunables the paper mentions live here so that benchmarks and
ablations can sweep them:

* the number of PIM modules (the paper uses one UPMEM rank = 64);
* the high-degree threshold of the labor-division approach (16);
* the capacity-constraint proportion of the radical greedy heuristic
  (1.05);
* the detection threshold for "incorrectly partitioned" nodes (a node is
  reported when more than half of its next hops live on other modules);
* switches to disable labor division or migration, which is how the
  PIM-hash contrast system and the ablation benches are expressed;
* the query execution kernel (``engine``) — the scalar reference
  engine, the vectorized numpy engine or the semiring-matrix engine,
  which are required to agree on every result and every simulated
  counter, or ``"auto"``, which picks the scalar or the vectorized one
  per call from the size of the request.  It names a query kernel and
  nothing else: update batches are partitioned by one loop
  (:mod:`repro.core.update_processor`) whatever it says;
* the serving-layer knobs (``serve_queue_depth``,
  ``serve_batch_window``, ``serve_linger``, ``serve_workers``)
  controlling how the batch scheduler admits and coalesces concurrent
  client queries, and whether coalesced batches fan out across worker
  *processes* over shared-memory epoch exports (:mod:`repro.parallel`);
* the network front-end knobs (``net_host``, ``net_port``,
  ``net_auth_token``, ``net_max_inflight_per_client``,
  ``net_request_timeout``) controlling where ``Moctopus.listen()``
  binds, the HELLO handshake secret, and the per-client admission
  bounds and request timeouts of :mod:`repro.net`;
* the durability knobs (``durability_dir``, ``wal_segment_bytes``,
  ``checkpoint_interval_batches``, ``wal_fsync``) controlling the
  write-ahead log and checkpoint lifecycle of
  :mod:`repro.durability`.

How a storage keeps its CSR view fresh is not a knob: every refresh
splices the rows edited since the last one into the cached view
(:mod:`repro.core.snapshot`).  A float knob's bound check is written so
that ``nan``, which fails every comparison, is rejected with the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.pim.cost_model import CostModel
from repro.partition.labor_division import DEFAULT_HIGH_DEGREE_THRESHOLD
from repro.partition.radical_greedy import DEFAULT_CAPACITY_FACTOR


@dataclass
class MoctopusConfig:
    """Tunable parameters of a :class:`repro.core.system.Moctopus` instance."""

    #: Simulated platform parameters (module count, bandwidths, ...).
    cost_model: CostModel = field(default_factory=CostModel)
    #: Out-degree above which a node is treated as high-degree and kept on
    #: the host (labor division).  ``None`` disables labor division.
    high_degree_threshold: Optional[int] = DEFAULT_HIGH_DEGREE_THRESHOLD
    #: Capacity-constraint proportion of the radical greedy partitioner.
    capacity_factor: float = DEFAULT_CAPACITY_FACTOR
    #: Partitioning policy for low-degree nodes: ``"radical_greedy"`` (the
    #: paper's design) or ``"hash"`` (the PIM-hash contrast system).
    pim_placement: str = "radical_greedy"
    #: Fraction of a node's next hops that must be non-local before the
    #: operator processor reports it as incorrectly partitioned.
    misplacement_threshold: float = 0.5
    #: Whether the node migrator is allowed to move misplaced nodes after
    #: a query (the adaptive half of greedy-adaptive partitioning).
    enable_migration: bool = True
    #: Capacity proportion the *migrator* respects when moving a node to
    #: its majority partition.  The paper bounds load balance at
    #: assignment time (1.05x) but migration exists purely to recover
    #: locality, so it is allowed to overshoot the assignment constraint
    #: moderately; hot hubs are already on the host, so node-count skew
    #: from migration translates into little work skew.
    migration_capacity_factor: float = 1.5
    #: Physical execution backend for batch queries: ``"python"`` (the
    #: scalar reference engine, exact original semantics),
    #: ``"vectorized"`` (numpy columnar frontiers over CSR storage
    #: snapshots), ``"matrix"`` (masked boolean-semiring SpGEMM over
    #: pre-transposed CSR blocks, falling back to the push path for
    #: sparse frontiers) or ``"auto"`` (the default: each call runs on
    #: ``"python"`` or ``"vectorized"``, whichever
    #: :func:`repro.engine.base.choose_engine` estimates faster from
    #: the plan shape, the batch size and the graph's average
    #: out-degree — scalar for small requests, numpy for bulk
    #: batches).  All produce identical results and identical
    #: simulated statistics, so the choice never changes an answer; a
    #: concrete name pins one backend (parity suites, probes, oracle).
    #: The update path does not read this field.
    engine: str = "auto"
    #: Bound of the serving layer's admission queue: how many client
    #: queries may be waiting in a :class:`~repro.serve.scheduler.
    #: BatchScheduler` before further submissions are rejected
    #: (backpressure instead of unbounded memory growth).
    serve_queue_depth: int = 64
    #: Upper bound on how many queued client queries one scheduler pass
    #: coalesces into a single engine-level batch.
    serve_batch_window: int = 16
    #: Default worker-process count behind ``Moctopus.serve()``: the
    #: :class:`~repro.serve.scheduler.BatchScheduler` scatters each
    #: window's coalesced batches across this many child processes,
    #: zero-copy readers of shared-memory epoch exports
    #: (:mod:`repro.parallel`).  ``0`` (the default) executes windows
    #: in-process; ``serve(parallel=N)`` overrides per scheduler.
    serve_workers: int = 0
    #: How long (seconds) a scheduler drain waits for stragglers to fill
    #: its coalescing window once the first query of a window arrived.
    #: ``0`` (the default) drains whatever is queued immediately —
    #: lowest latency; a small linger (e.g. ``0.002``) trades latency
    #: for larger coalesced batches under bursty traffic.
    serve_linger: float = 0.0
    #: Bind host of the network front-end (``Moctopus.listen()``).
    net_host: str = "127.0.0.1"
    #: Bind port of the network front-end; ``0`` picks an ephemeral port
    #: (read it back from ``server.port``).
    net_port: int = 0
    #: Shared-secret auth token the HELLO handshake must present.
    #: ``None`` (the default) accepts any client.
    net_auth_token: Optional[str] = None
    #: Per-connection cap on queries in flight: a client exceeding it
    #: receives BUSY frames (admission control at the socket boundary)
    #: instead of buffering without bound.
    net_max_inflight_per_client: int = 32
    #: Per-request timeout (seconds) the server enforces on every QUERY:
    #: a query not answered in time gets an ERROR(timeout) frame and its
    #: eventual result is discarded.
    net_request_timeout: float = 30.0
    #: Root directory of the durability subsystem (write-ahead log +
    #: checkpoints).  ``None`` (the default) keeps the system memory-only;
    #: set a path to make every bulk load, update batch and migration
    #: pass crash-recoverable via :meth:`repro.core.system.Moctopus.recover`.
    durability_dir: Optional[str] = None
    #: Size bound of one WAL segment file; the log rotates to a fresh
    #: segment rather than let a record push past it (records never span
    #: segments, so every segment is independently CRC-scannable).
    wal_segment_bytes: int = 1 << 20
    #: Applied update batches between automatic checkpoints, written by
    #: a background thread under the writer lock.  ``0`` disables the
    #: daemon — checkpoints then only happen via ``Moctopus.checkpoint()``.
    checkpoint_interval_batches: int = 64
    #: Whether every WAL append is ``fsync``\\ ed.  Off by default: the
    #: flush-per-record log survives process crashes (what the
    #: fault-injection harness models); turn this on for power-loss
    #: durability at the usual per-batch latency cost.
    wal_fsync: bool = False
    #: Bound of the epoch-keyed plan cache on the query processor
    #: (entries; LRU).  ``0`` disables plan caching.
    plan_cache_size: int = 128
    #: Bound of the epoch-keyed LRU result cache for repeated
    #: ``(expression, sources, epoch)`` hits.  An entry and every hit
    #: share the result's immutable arrays (only the small stats object
    #: is copied), so cached answers are bit-identical to a fresh
    #: execution (results *and* simulated stats) at no per-hit copy
    #: cost.  ``0`` disables result caching.
    result_cache_size: int = 256

    def __post_init__(self) -> None:
        if self.pim_placement not in ("radical_greedy", "hash"):
            raise ValueError(
                "pim_placement must be 'radical_greedy' or 'hash', "
                f"got {self.pim_placement!r}"
            )
        if self.engine not in ("auto", "python", "vectorized", "matrix"):
            raise ValueError(
                "engine must be 'auto', 'python', 'vectorized' or 'matrix', "
                f"got {self.engine!r}"
            )
        if not 0.0 < self.misplacement_threshold <= 1.0:
            raise ValueError("misplacement_threshold must be in (0, 1]")
        if not self.capacity_factor >= 1.0:
            raise ValueError("capacity_factor must be >= 1.0")
        if not self.migration_capacity_factor >= 1.0:
            raise ValueError("migration_capacity_factor must be >= 1.0")
        if self.high_degree_threshold is not None and self.high_degree_threshold <= 0:
            raise ValueError("high_degree_threshold must be positive or None")
        if self.serve_queue_depth < 1:
            raise ValueError("serve_queue_depth must be >= 1")
        if self.serve_batch_window < 1:
            raise ValueError("serve_batch_window must be >= 1")
        if self.serve_workers < 0:
            raise ValueError("serve_workers must be >= 0")
        if not self.serve_linger >= 0:
            raise ValueError("serve_linger must be >= 0 seconds")
        if not 0 <= self.net_port <= 65535:
            raise ValueError("net_port must be in [0, 65535]")
        if self.net_max_inflight_per_client < 1:
            raise ValueError("net_max_inflight_per_client must be >= 1")
        if not self.net_request_timeout > 0:
            raise ValueError("net_request_timeout must be > 0 seconds")
        if self.wal_segment_bytes < 1024:
            raise ValueError("wal_segment_bytes must be >= 1024")
        if self.checkpoint_interval_batches < 0:
            raise ValueError("checkpoint_interval_batches must be >= 0")
        if self.plan_cache_size < 0:
            raise ValueError("plan_cache_size must be >= 0")
        if self.result_cache_size < 0:
            raise ValueError("result_cache_size must be >= 0")

    @property
    def num_modules(self) -> int:
        """Number of PIM modules in the simulated platform."""
        return self.cost_model.num_modules

    @property
    def labor_division_enabled(self) -> bool:
        """Whether high-degree nodes are routed to the host."""
        return self.high_degree_threshold is not None

    @classmethod
    def pim_hash_config(cls, cost_model: Optional[CostModel] = None) -> "MoctopusConfig":
        """Configuration of the paper's PIM-hash contrast system.

        All nodes are hash-partitioned across PIM modules; no labor
        division, no migration.
        """
        return cls(
            cost_model=cost_model or CostModel(),
            high_degree_threshold=None,
            pim_placement="hash",
            enable_migration=False,
        )

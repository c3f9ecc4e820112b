"""Configuration of a Moctopus instance.

A field is here because two callers want different values of it:

* the number of PIM modules (the paper uses one UPMEM rank = 64);
* the paper's ablation axes: the high-degree threshold of the
  labor-division approach (16, or ``None`` for no labor division) and
  the capacity-constraint proportion of the radical greedy heuristic
  (1.05).  Both change placement, so recovery reads them back;
* the query execution kernel (``engine``) — the scalar reference
  engine, the vectorized numpy engine or the semiring-matrix engine,
  which are required to agree on every result and every simulated
  counter, or ``"auto"``, which picks the scalar or the vectorized one
  per call from the size of the request.  It names a query kernel and
  nothing else: update batches are partitioned by one loop
  (:mod:`repro.core.update_processor`) whatever it says.  This field
  and ``Moctopus.use_engine`` are the only ways to choose a kernel;
* the durability knobs (``durability_dir``, ``wal_segment_bytes``,
  ``checkpoint_interval_batches``, ``wal_fsync``) controlling the
  write-ahead log and checkpoint lifecycle of
  :mod:`repro.durability`;
* the plan and result cache sizes.

A value with one caller is a constant beside its reader, not a field.
Placement is not a field either: a system builds its own
(``Moctopus._build_placement``; :class:`repro.baselines.PIMHashSystem`
builds a hash placement), and whether the node migrator repairs it is a
fact of the placement class (``StreamingPartitioner.migrates``).
A front door's settings — the scheduler's queue depth, the server's
address, auth token, in-flight cap and request timeout — are keyword
arguments of the call that opens it (``Moctopus.serve()``,
``Moctopus.listen()``), not fields: the config is system state, copied
into ``config.json`` and every checkpoint manifest, and a listening
address or a secret is not state to write to disk or to recover.
How a storage keeps its CSR view fresh is not a knob either: every
refresh splices the rows edited since the last one into the cached view
(:mod:`repro.core.snapshot`).

An integer field must be an integer in range (:func:`repro.checks.
require_int`), and a float field's bound check is written so that
``nan``, which fails every comparison, is rejected with the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.checks import require_int
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
        if self.engine not in ("auto", "python", "vectorized", "matrix"):
            raise ValueError(
                "engine must be 'auto', 'python', 'vectorized' or 'matrix', "
                f"got {self.engine!r}"
            )
        if not self.capacity_factor >= 1.0:
            raise ValueError("capacity_factor must be >= 1.0")
        if self.high_degree_threshold is not None:
            require_int("high_degree_threshold", self.high_degree_threshold, 1)
        require_int("wal_segment_bytes", self.wal_segment_bytes, 1024)
        require_int(
            "checkpoint_interval_batches", self.checkpoint_interval_batches, 0
        )
        require_int("plan_cache_size", self.plan_cache_size, 0)
        require_int("result_cache_size", self.result_cache_size, 0)

    @property
    def num_modules(self) -> int:
        """Number of PIM modules in the simulated platform."""
        return self.cost_model.num_modules

"""Configuration of a Moctopus instance.

A field is here because two callers want different values of it:

* the number of PIM modules (the paper uses one UPMEM rank = 64);
* the durability knobs (``durability_dir``, ``wal_segment_bytes``,
  ``checkpoint_interval_batches``, ``wal_fsync``) controlling the
  write-ahead log and checkpoint lifecycle of
  :mod:`repro.durability`.

Every field changes what a recovered system holds or how it persists:
the config is system state, copied into ``config.json`` and every
checkpoint manifest and read back by recovery.  A value with one caller
is a constant beside its reader, not a field — the plan and result
cache bounds (:mod:`repro.core.query_processor`).  The query kernel is
not a field: every kernel gives the same results and the same simulated
counters, so a system starts on ``"auto"`` and ``Moctopus.use_engine``
is the one way to pin another.
Placement is not a field either, nor are its parameters: a system
builds its own (``Moctopus._build_placement``: the paper's radical
greedy at 1.05x capacity under labor division above out-degree 16), a
class that places otherwise overrides that method (the evaluation's
PIM-hash system and ablation sweeps in :mod:`repro.paper`), and whether
the node migrator repairs a placement is a fact of its class
(``StreamingPartitioner.migrates``).  A durability directory records
the placement beside the config, and recovery refuses a class that
would place otherwise.
A front door's settings — the scheduler's queue depth, the server's
address, auth token, in-flight cap and request timeout — are keyword
arguments of the call that opens it (``Moctopus.serve()``,
``Moctopus.listen()``), not fields: a listening address or a secret is
not state to write to disk or to recover.
How the epoch heap is kept fresh is not a knob either: a publish is one
:func:`~repro.core.snapshot.splice`, which merges the rows each storage
wrote into that storage's segment of the heap and takes every other
segment from the previous heap as it is.

An integer field must be an integer in range (:func:`repro.checks.
require_int`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.checks import require_int
from repro.pim.cost_model import CostModel


@dataclass
class MoctopusConfig:
    """Tunable parameters of a :class:`repro.core.system.Moctopus` instance."""

    #: Simulated platform parameters (module count, bandwidths, ...).
    cost_model: CostModel = field(default_factory=CostModel)
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

    def __post_init__(self) -> None:
        require_int("wal_segment_bytes", self.wal_segment_bytes, 1024)
        require_int(
            "checkpoint_interval_batches", self.checkpoint_interval_batches, 0
        )

    @property
    def num_modules(self) -> int:
        """Number of PIM modules in the simulated platform."""
        return self.cost_model.num_modules

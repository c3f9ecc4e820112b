"""Multi-process parallel serving over shared-memory epoch snapshots.

The serving layer's epochs are immutable by construction (PR 3 froze
every published CSR array), which makes them a safe substrate for real
parallelism across the GIL: :mod:`repro.parallel.shm` publishes a pinned
epoch's frozen arrays into one :mod:`multiprocessing.shared_memory`
segment with a compact manifest, and :mod:`repro.parallel.pool` runs a
persistent :class:`WorkerPool` whose child processes attach the segment
zero-copy, rebuild :class:`~repro.serve.epoch.EpochView`\\ s locally and
execute the parent's :class:`~repro.rpq.planner.Plan`
with the ordinary engines — results and per-operation accounting merge
bit-identically back into the parent.

Entry points: ``Moctopus.serve(parallel=N)`` makes the
:class:`~repro.serve.scheduler.BatchScheduler` scatter its coalesced
per-hops batches across the pool; :class:`WorkerPool` can also be driven
directly for whole-batch offload.  Either way the workers run the
system's kernel as it was when the pool was built.
"""

from repro.parallel.pool import PoolTicket, WorkerPool, WorkerPoolError
from repro.parallel.shm import (
    EpochManifest,
    SegmentGuard,
    attach_epoch,
    export_epoch,
    reap_stale_segments,
)

__all__ = [
    "EpochManifest",
    "PoolTicket",
    "SegmentGuard",
    "WorkerPool",
    "WorkerPoolError",
    "attach_epoch",
    "export_epoch",
    "reap_stale_segments",
]

"""The snapshot-isolated concurrent serving layer.

Built on the epoch heap — one frozen CSR segment per storage, spliced
per publish (:mod:`repro.core.snapshot`) — this package adds the
epoch/MVCC machinery that lets many readers and one writer share a
:class:`~repro.core.system.Moctopus` instance:

* :mod:`repro.serve.epoch` — :class:`Epoch` captures (frozen snapshots +
  the shared, frozen owner vector), the publish/pin/retire lifecycle in
  :class:`EpochManager`, and the :class:`EpochView` lens engines execute
  against;
* :mod:`repro.serve.session` — :class:`Session`: pin-on-begin snapshot
  isolation with a read-your-writes overlay and explicit
  ``refresh()``/``commit()``;
* :mod:`repro.serve.scheduler` — :class:`BatchScheduler`: bounded
  admission plus coalescing of concurrent single-source queries into
  engine-level batches.

Entry points live on the system facade: ``system.begin()`` opens a
session, ``system.serve()`` starts a scheduler.
"""

from repro.serve.epoch import Epoch, EpochManager, EpochView
from repro.serve.scheduler import BatchScheduler, SchedulerSaturated, ServingFuture
from repro.serve.session import Session

__all__ = [
    "BatchScheduler",
    "Epoch",
    "EpochManager",
    "EpochView",
    "SchedulerSaturated",
    "ServingFuture",
    "Session",
]

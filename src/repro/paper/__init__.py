"""The paper's evaluation apparatus: everything that varies the system
to measure it, kept out of the system itself.

``python -m repro.paper`` regenerates Table 1, Figures 4-6, the three
ablations and the headline claims into the committed
``REPRODUCTION.json`` (:mod:`repro.paper.reproduce`).  Its parts:

* the two comparison systems — :class:`RedisGraphEngine`, a single-node
  GraphBLAS-style sparse-matrix engine with a host-only cost model (the
  paper's RedisGraph baseline), and :class:`PIMHashSystem`, Moctopus's
  execution engine with plain hash partitioning;
* :func:`placed_at`, Moctopus under the placement parameters ablations
  A2 and A3 sweep;
* :class:`LDGPartitioner` and :class:`AdaptivePartitioner`, the greedy
  and adaptive partitioning families ablation A1 compares against the
  paper's radical greedy;
* workload generators, the experiment runner and report formatting.

Nothing outside this package imports it (analysis rule REP007): a
server, a session or a recovery never loads the apparatus.
"""

from repro.paper.adaptive import AdaptivePartitioner
from repro.paper.ldg import LDGPartitioner
from repro.paper.pim_hash import PIMHashSystem
from repro.paper.placement import placed_at
from repro.paper.redisgraph import RedisGraphEngine
from repro.paper.report import format_table, geometric_mean
from repro.paper.runner import (
    SystemSet,
    build_systems,
    load_trace,
    run_ipc_experiment,
    run_khop_experiment,
    run_update_experiment,
)
from repro.paper.workloads import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_NUM_MODULES,
    PAPER_BATCH_SIZE,
    UpdateWorkload,
    khop_workload,
    update_workload,
)

__all__ = [
    "RedisGraphEngine",
    "PIMHashSystem",
    "placed_at",
    "LDGPartitioner",
    "AdaptivePartitioner",
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_NUM_MODULES",
    "PAPER_BATCH_SIZE",
    "UpdateWorkload",
    "khop_workload",
    "update_workload",
    "SystemSet",
    "build_systems",
    "load_trace",
    "run_khop_experiment",
    "run_ipc_experiment",
    "run_update_experiment",
    "format_table",
    "geometric_mean",
]

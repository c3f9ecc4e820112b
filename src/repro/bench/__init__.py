"""Benchmark support: workloads, experiment runner, report formatting and
the paper's evaluation record.

``python -m repro.bench`` regenerates every table and figure of the
paper into ``REPRODUCTION.json`` (:mod:`repro.bench.reproduce`); the
functions here are its parts, so the same experiments can also be
driven from a notebook or an example script.
"""

from repro.bench.workloads import (
    DATASET_SCALE_FRACTION,
    DEFAULT_BATCH_SIZE,
    DEFAULT_NUM_MODULES,
    PAPER_BATCH_SIZE,
    UpdateWorkload,
    khop_workload,
    scaled_cost_model,
    update_workload,
)
from repro.bench.runner import (
    SystemSet,
    build_systems,
    load_trace,
    run_ipc_experiment,
    run_khop_experiment,
    run_update_experiment,
)
from repro.bench.report import format_table, geometric_mean

__all__ = [
    "DATASET_SCALE_FRACTION",
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_NUM_MODULES",
    "PAPER_BATCH_SIZE",
    "UpdateWorkload",
    "khop_workload",
    "update_workload",
    "scaled_cost_model",
    "SystemSet",
    "build_systems",
    "load_trace",
    "run_khop_experiment",
    "run_ipc_experiment",
    "run_update_experiment",
    "format_table",
    "geometric_mean",
]

"""Shared fixtures and configuration for the benchmark harness.

Every module in this directory regenerates one table or figure of the
paper (see README.md, "Benchmarks").  Knobs:

``REPRO_BENCH_SCALE``
    Multiplier on the synthetic dataset sizes (default ``1.0``).  Raising
    it increases fidelity at the cost of runtime.
``REPRO_BENCH_BATCH``
    Batch size of the k-hop / update workloads (default 128, the paper's
    64 K scaled down).
``REPRO_BENCH_TRACES``
    Comma-separated trace ids to restrict the sweep (default: all 15).
"""

from __future__ import annotations

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.bench import (  # noqa: E402
    DEFAULT_BATCH_SIZE,
    SystemProvider,
    scaled_cost_model,
)


def bench_scale() -> float:
    """Dataset scale multiplier for this benchmark session."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def bench_batch_size() -> int:
    """Workload batch size for this benchmark session."""
    return int(os.environ.get("REPRO_BENCH_BATCH", str(DEFAULT_BATCH_SIZE)))


def bench_traces() -> list:
    """Trace ids included in this benchmark session."""
    raw = os.environ.get("REPRO_BENCH_TRACES", "")
    if raw.strip():
        return [int(token) for token in raw.split(",") if token.strip()]
    return list(range(1, 16))


@pytest.fixture(scope="session")
def provider() -> SystemProvider:
    """One cached set of loaded systems per trace, shared by all figures."""
    return SystemProvider(
        scale=bench_scale(),
        cost_model=scaled_cost_model(),
        warmup_rounds=2,
    )


@pytest.fixture(scope="session")
def traces() -> list:
    """Trace ids under benchmark."""
    return bench_traces()


@pytest.fixture(scope="session")
def batch_size() -> int:
    """Workload batch size."""
    return bench_batch_size()

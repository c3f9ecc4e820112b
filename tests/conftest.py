"""Shared fixtures for the test suite.

Tests run on deliberately small graphs and platforms (4-8 PIM modules)
so the whole suite stays fast; the benchmark harness is where the
paper-scale configurations live.
"""

from __future__ import annotations

import os
import sys

import pytest
from hypothesis import HealthCheck, settings

# Allow running the tests from a source checkout without installation.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

# ----------------------------------------------------------------------
# Hypothesis profiles (deflake contract)
#
# Every suite must run with ``deadline=None``: the simulated platform's
# wall-clock per example varies wildly across CI runners, and a flaky
# per-example deadline is the classic source of unreproducible red
# builds.  The per-test ``@settings`` decorators already pin their
# ``max_examples``; these profiles pin the global behaviour so a future
# test that forgets the decorator cannot reintroduce deadline flakes.
#
# * ``dev`` (default): deadline off, failure blobs printed so any local
#   failure is replayable with ``@reproduce_failure``.
# * ``ci``: same, plus ``derandomize`` off but seeded externally — the
#   CI fuzz step passes ``--hypothesis-seed=<run id>`` and reports the
#   seed in the job summary, so a red fuzz run is reproducible verbatim.
# ----------------------------------------------------------------------
settings.register_profile(
    "dev",
    deadline=None,
    print_blob=True,
)
settings.register_profile(
    "ci",
    deadline=None,
    print_blob=True,
    suppress_health_check=(HealthCheck.too_slow,),
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

from repro.core import MoctopusConfig  # noqa: E402
from repro.graph import DiGraph, community_graph, power_law_graph, road_network  # noqa: E402
from repro.pim import CostModel  # noqa: E402


@pytest.fixture
def tiny_graph() -> DiGraph:
    """The routing-connection example graph of the paper's Figure 2."""
    graph = DiGraph()
    edges = [
        (0, 1), (1, 2),
        (2, 5), (5, 6), (5, 8),
        (2, 3), (3, 6),
        (2, 4), (4, 9),
        (6, 9), (7, 8), (8, 7),
        (9, 0),
    ]
    for src, dst in edges:
        graph.add_edge(src, dst)
    return graph


@pytest.fixture
def small_road() -> DiGraph:
    """A small road-network-like lattice."""
    return road_network(rows=12, cols=12, seed=3)


@pytest.fixture
def small_power_law() -> DiGraph:
    """A small skewed graph with hubs above the high-degree threshold."""
    return power_law_graph(num_nodes=300, edges_per_node=3, skew=0.85, seed=7)


@pytest.fixture
def small_community() -> DiGraph:
    """A small planted-partition graph."""
    return community_graph(num_communities=8, community_size=16, seed=11)


@pytest.fixture
def small_cost_model() -> CostModel:
    """A platform with few modules, for fast simulated runs."""
    return CostModel(num_modules=8)


@pytest.fixture
def small_config(small_cost_model: CostModel) -> MoctopusConfig:
    """Moctopus configuration matching the small platform."""
    return MoctopusConfig(cost_model=small_cost_model)


# ----------------------------------------------------------------------
# Runtime lock-order checking (REPRO_LOCKCHECK=1)
#
# With the variable set, every test runs under the
# ``repro.analysis.lockcheck`` instrumented-lock checker and fails if
# the code under test ever acquired locks in cycle-forming orders
# (potential ABBA deadlock) — detection needs only the *observed*
# orderings, no run has to actually deadlock.  The CI ``analysis`` job
# sets the variable for the serving/parallel/net suites, the durability
# suite (whose checkpoint daemon takes the writer lock from its own
# thread) and the single-copy suite (``close()`` with sessions,
# schedulers and checkpoints open).
#
# ``tests/test_analysis.py`` manages its own checker regions (install
# is deliberately exclusive), so it is excluded from the autouse guard.
# ----------------------------------------------------------------------
@pytest.fixture(autouse=True)
def _lock_order_guard(request):
    if os.environ.get("REPRO_LOCKCHECK") != "1":
        yield
        return
    if request.node.module.__name__ == "test_analysis":
        yield
        return
    from repro.analysis import lockcheck

    if lockcheck.active_checker() is not None:  # pragma: no cover - safety
        yield
        return
    with lockcheck.lock_order_checker() as checker:
        yield
    cycles = checker.cycles()
    assert not cycles, (
        "lock-order cycles observed (potential ABBA deadlock):\n"
        + checker.report()
    )

"""The node migrator's columnar pass against its scalar oracle.

``NodeMigrator.apply_migrations`` tallies every pending node's votes with
array operations and walks only the nodes some partition outvotes their
own on; :func:`model.migrate` is the per-node Python loop it replaced.
Hand-built cases pin each rule of the decision; a hypothesis
differential runs both on random graphs, placements and report sets and
requires the same moves in the same order, the same simulated cost, the
same partition map and the same storages — whether the storages'
snapshots are clean, dirty or were never built, or the rows live in a
restored base — and that the pass refreshes none of them.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faultinject import crash
from model import migrate, placement, publish
from repro.core import Moctopus, MoctopusConfig
from repro.core.hetero_storage import HeterogeneousGraphStorage
from repro.core.local_storage import BYTES_PER_ENTRY, LocalGraphStorage
from repro.core.node_migrator import MIGRATION_CAPACITY_FACTOR, NodeMigrator
from repro.graph import community_graph
from repro.partition.base import HOST_PARTITION
from repro.partition.labor_division import LaborDivisionPartitioner
from repro.partition.radical_greedy import RadicalGreedyPartitioner
from repro.pim import CostModel, ExecutionStats, PIMSystem
from repro.serve.epoch import EpochManager

Moves = List[Tuple[int, int, int]]

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class Rig:
    """A placement policy, its storages and a migrator, placed by hand."""

    def __init__(
        self,
        placement: Dict[int, int],
        rows: Dict[int, List[int]],
        num_modules: int = 4,
        capacity_factor: float = 8.0,
    ) -> None:
        config = MoctopusConfig(cost_model=CostModel(num_modules=num_modules))
        self.capacity_factor = capacity_factor
        self.num_modules = num_modules
        self.pim = PIMSystem(config.cost_model)
        self.partitioner = LaborDivisionPartitioner(RadicalGreedyPartitioner(num_modules))
        self.memory = config.cost_model.module_memory_bytes
        self.storages = [LocalGraphStorage(self.memory) for _ in range(num_modules)]
        self.host = HeterogeneousGraphStorage(num_modules)
        for node, partition in placement.items():
            self.partitioner.partition_map.assign(node, partition)
            entries = [(dst, 0) for dst in rows.get(node, ())]
            self.storage_of(partition).insert_row(node, entries)
        self.migrator = NodeMigrator(
            self.partitioner.partition_map,
            self.storages,
            self.host,
            capacity_factor=capacity_factor,
        )
        self.epochs = self.epoch_manager()

    def epoch_manager(self) -> EpochManager:
        return EpochManager(self.partitioner.partition_map, (*self.storages, self.host))

    def storage_of(self, partition: int):
        return self.host if partition == HOST_PARTITION else self.storages[partition]

    def placement(self) -> Dict[int, int]:
        return placement(self.partitioner.partition_map)

    def rows(self) -> Dict[int, List[int]]:
        return {
            node: storage.next_hops(node)
            for storage in self.storages
            for node in storage.rows()
        }

    def state(self):
        """Everything a pass may change, in comparable form."""
        partition_map = self.partitioner.partition_map
        return (
            self.placement(),
            partition_map.pim_sizes(),
            partition_map.host_size(),
            [
                (
                    {node: storage.next_hops_with_labels(node) for node in storage.rows()},
                    storage.num_edges,
                    storage.storage_bytes,
                )
                for storage in self.storages
            ],
            self.migrator.migrations_performed,
        )

    def run(self, reports, limit: int = 4096) -> Tuple[Moves, ExecutionStats]:
        """The real pass."""
        reports = list(reports)
        self.migrator.report_misplaced(reports, [0] * len(reports), [1] * len(reports))
        op = self.pim.begin_operation()
        with op.phase("migration"):
            moved = self.migrator.apply_migrations(op, limit=limit)
        assert moved == len(self.migrator.last_moves)
        assert self.migrator.pending_reports == 0, "a pass consumes every report"
        return self.migrator.last_moves, op.finish()

    def run_reference(self, reports, limit: int = 4096) -> Tuple[Moves, ExecutionStats]:
        """The oracle's decisions, applied and charged move by move."""
        moves = migrate(
            reports, self.placement(), self.rows(), limit,
            num_partitions=self.num_modules, capacity_factor=self.capacity_factor,
        )
        op = self.pim.begin_operation()
        with op.phase("migration"):
            for node, source, target in moves:
                entries = self.storages[source].remove_row(node)
                self.storages[target].insert_row(node, entries)
                self.partitioner.partition_map.assign(node, target)
                self.migrator.migrations_performed += 1
                op.ipc_transfer(max(1, len(entries)) * BYTES_PER_ENTRY)
                op.module(source).random_accesses(1)
                op.module(target).random_accesses(1)
                op.module(target).process_items(len(entries))
                op.host.process_items(1)
        return moves, op.finish()


def both(placement, rows, reports, expected: Moves, **kwargs) -> None:
    """The real pass and the oracle both make exactly ``expected``."""
    limit = kwargs.pop("limit", 4096)
    real, reference = Rig(placement, rows, **kwargs), Rig(placement, rows, **kwargs)
    moves, stats = real.run(reports, limit)
    reference_moves, reference_stats = reference.run_reference(reports, limit)
    assert moves == reference_moves == expected
    assert stats == reference_stats
    assert real.state() == reference.state()


# ----------------------------------------------------------------------
# The decision, rule by rule
# ----------------------------------------------------------------------
#: Nodes 10.. are voters' next hops, spread over four modules.
ANCHORS = {10: 0, 11: 0, 12: 1, 13: 1, 14: 2, 15: 2, 16: 3}


def test_strict_majority_moves():
    both({1: 0, **ANCHORS}, {1: [10, 12, 13]}, [1], [(1, 0, 1)])


def test_tie_between_others_goes_to_the_lower_partition():
    both({1: 0, **ANCHORS}, {1: [14, 15, 12, 13, 10]}, [1], [(1, 0, 1)])


def test_tie_with_the_current_partition_stays():
    both({1: 2, **ANCHORS}, {1: [14, 15, 10, 11]}, [1], [])
    # ... also when the current partition is not the lowest of the tie.
    both({1: 0, **ANCHORS}, {1: [10, 11, 14, 15]}, [1], [])


def test_no_pim_votes_stays():
    placement = {1: 0, 2: 0, 20: HOST_PARTITION}
    both(placement, {1: [20, 999], 2: []}, [1, 2], [])


def test_host_and_unknown_nodes_are_skipped():
    placement = {1: HOST_PARTITION, **ANCHORS}
    both(placement, {1: [12, 13]}, [1, 777], [])


def test_host_and_unknown_next_hops_do_not_vote():
    placement = {1: 0, 20: HOST_PARTITION, 21: HOST_PARTITION, **ANCHORS}
    # One vote for module 1 against none for module 0: hosts and the
    # dangling 999 count for nobody.
    both(placement, {1: [20, 21, 999, 12]}, [1], [(1, 0, 1)])


def test_headroom_refusal():
    # Eight PIM nodes on four modules: average 2, so at factor 1.0 a
    # module already holding 2 takes no third node.
    both({1: 0, **ANCHORS}, {1: [12, 13]}, [1], [], capacity_factor=1.0)
    both({1: 0, **ANCHORS}, {1: [12, 13]}, [1], [(1, 0, 1)], capacity_factor=1.5)


def test_headroom_sits_exactly_on_the_capacity_boundary():
    """``size + 1 <= factor * average`` with both sides equal: the O(1)
    ``size()`` / ``pim_total()`` form and the old ``pim_sizes()`` sum
    must agree to the last bit."""
    placement = {1: 0, 2: 0, 3: 0, 4: 0, 12: 1, 13: 1, 14: 2, 15: 2, 16: 3, 17: 3}
    # 10 nodes / 4 modules = 2.5; module 1 holds 2, and 2 + 1 == 1.2 * 2.5.
    assert 1.2 * 2.5 == 3.0
    both(placement, {1: [12, 13]}, [1], [(1, 0, 1)], capacity_factor=1.2)
    # A second arrival would make 4 > 3.0.
    both(
        placement, {1: [12, 13], 2: [12, 13]}, [1, 2], [(1, 0, 1)],
        capacity_factor=1.2,
    )
    rig = Rig(placement, {}, capacity_factor=1.2)
    sizes = rig.partitioner.partition_map.pim_sizes()
    for target in range(4):
        old = sizes[target] + 1 <= 1.2 * max(sum(sizes) / max(1, len(sizes)), 1.0)
        assert rig.migrator._target_has_headroom(1, 0, target) == old


def test_a_full_module_takes_no_migrant_and_loses_no_edge(tmp_path):
    """A module whose memory cannot take a node's row has no headroom for
    it: the node stays where it is with its edges, the pass returns
    normally, and its journaled moves recover to the same placement."""
    graph = community_graph(8, 50, seed=0)
    memory = 9312  # the fullest module holds 9 304 bytes after the load
    config = MoctopusConfig(
        cost_model=CostModel(num_modules=4, module_memory_bytes=memory),
        durability_dir=str(tmp_path),
        checkpoint_interval_batches=0,
    )
    system = Moctopus.from_graph(graph, config)
    storages = system._module_storages
    assert max(storage.storage_bytes for storage in storages) == memory - 8
    nodes = sorted(graph.nodes())
    for start in range(0, len(nodes), 64):
        system.batch_khop(nodes[start:start + 64], hops=2)
    assert system._migrator.migrations_performed > 0
    assert sorted(system.graph.labeled_edges()) == sorted(graph.labeled_edges())
    owners = placement(system._partitioner.partition_map)
    for node, owner in owners.items():
        if owner != HOST_PARTITION:
            assert storages[owner].has_row(node), node
    assert all(storage.storage_bytes <= memory for storage in storages)
    crash(system)
    recovered = Moctopus.recover(str(tmp_path))
    try:
        assert placement(recovered._partitioner.partition_map) == owners
        assert sorted(recovered.graph.labeled_edges()) == sorted(graph.labeled_edges())
    finally:
        recovered.close()


def test_limit_truncates_and_discards_the_rest():
    placement = {1: 0, 2: 0, 3: 0, **ANCHORS}
    rows = {1: [12, 13], 2: [14, 15], 3: [16]}
    both(placement, rows, [3, 1, 2], [(1, 0, 1), (2, 0, 2)], limit=2)
    both(placement, rows, [3, 1, 2], [], limit=0)
    rig = Rig(placement, rows)
    rig.run([1, 2, 3], limit=1)
    assert rig.run([], limit=4096)[0] == [], "the reports past the limit are gone"


def test_a_move_flips_a_later_majority_in_the_same_pass():
    # B (2) points at A (1) and at 10 on module 0, at 12 on module 1: it
    # stays while A is on module 0 (2 votes to 1) ...
    placement = {1: 0, 2: 0, **ANCHORS}
    rows = {1: [12, 13], 2: [1, 12]}
    both(placement, {**rows, 2: [1, 10, 12]}, [2], [])
    # ... moves after A did (A's vote now counts for module 1) ...
    both(placement, {**rows, 2: [1, 10, 12, 13]}, [1, 2], [(1, 0, 1), (2, 0, 1)])
    # ... and a node that wanted to follow A's old home no longer does.
    placement = {1: 0, 3: 2, **ANCHORS}
    both(placement, {1: [12, 13], 3: [1, 10, 14]}, [1, 3], [(1, 0, 1)])
    # Only *earlier* moves count: 5 decides before 9 moves.
    placement = {5: 0, 9: 0, **ANCHORS}
    both(placement, {5: [9, 12], 9: [12, 13]}, [5, 9], [(9, 0, 1)])


def test_a_chain_of_flips():
    # 1 moves to module 1; 2 follows 1; 3 follows 2.
    placement = {1: 0, 2: 0, 3: 0, **ANCHORS}
    rows = {1: [12, 13], 2: [1, 10, 12], 3: [2, 11, 13]}
    both(placement, rows, [1, 2, 3], [(1, 0, 1), (2, 0, 1), (3, 0, 1)])


def test_the_latest_report_of_a_node_is_the_one_kept():
    rig = Rig({1: 0, 2: 0, **ANCHORS}, {1: [12], 2: [14]})
    migrator = rig.migrator
    migrator.report_misplaced([2, 1], [0, 0], [1, 1])
    migrator.report_misplaced([1], [5], [7])
    assert migrator.pending_reports == 2
    assert migrator.capture_pending() == [(1, 5, 7), (2, 0, 1)]


# ----------------------------------------------------------------------
# Differential: random graphs, placements and report sets
# ----------------------------------------------------------------------
@st.composite
def passes(draw):
    num_modules = draw(st.integers(2, 5))
    num_nodes = draw(st.integers(1, 28))
    partitions = st.integers(HOST_PARTITION, num_modules - 1)
    placement = {node: draw(partitions) for node in range(num_nodes)}
    # Next hops may dangle (ids the partitioner never saw).
    hop = st.integers(0, num_nodes + 3)
    rows = {
        node: draw(st.lists(hop, max_size=8, unique=True)) for node in range(num_nodes)
    }
    # Usually everything is reported (a 3-hop batch reports half the
    # graph), so moves land inside other pending nodes' rows.
    reports = draw(
        st.one_of(
            st.just(list(range(num_nodes + 2))),
            st.lists(st.integers(0, num_nodes + 3), max_size=num_nodes + 4),
        )
    )
    limit = draw(st.sampled_from([0, 1, 3, 4096]))
    capacity_factor = draw(st.sampled_from([1.0, 1.05, 1.5, 8.0]))
    snapshots = draw(st.sampled_from(["none", "clean", "dirty", "seeded"]))
    return num_modules, placement, rows, reports, limit, capacity_factor, snapshots


@settings(max_examples=200, deadline=None)
@given(passes())
def test_pass_matches_the_scalar_oracle(case):
    num_modules, placement, rows, reports, limit, capacity_factor, snapshots = case
    rigs = [
        Rig(placement, rows, num_modules=num_modules, capacity_factor=capacity_factor)
        for _ in range(2)
    ]
    for rig in rigs:
        if snapshots != "none":
            heap = rig.epochs.current().heap
        if snapshots == "seeded":
            # Every row clean in an installed heap, then one written row
            # per module: the pass reads and moves both kinds.
            for module in range(num_modules):
                rig.storages[module] = LocalGraphStorage(rig.memory)
            rig.epochs = rig.epoch_manager()
            rig.epochs.install(heap)
        if snapshots in ("dirty", "seeded"):
            for module, storage in enumerate(rig.storages):
                storage.add_edge(1000 + module, 0)
                rig.partitioner.partition_map.assign(1000 + module, module)
    real, reference = rigs
    bases = [storage._base for storage in real.storages]
    moves, stats = real.run(reports, limit)
    assert [storage._base for storage in real.storages] == bases, (
        "the pass must not publish"
    )
    reference_moves, reference_stats = reference.run_reference(reports, limit)
    assert moves == reference_moves
    assert stats == reference_stats
    assert real.state() == reference.state()
    for mine, theirs in zip(publish(real.epochs), publish(reference.epochs)):
        assert mine.same_arrays(theirs)


# ----------------------------------------------------------------------
# The same, through a whole system's reports
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["python", "vectorized", "matrix"])
def test_run_maintenance_matches_the_oracle_on_engine_reports(engine):
    graph = community_graph(num_communities=6, community_size=30, seed=4)
    config = MoctopusConfig(cost_model=CostModel(num_modules=8))
    system = Moctopus.from_graph(graph, config)
    system.use_engine(engine)
    nodes = list(graph.nodes())
    total_moves = 0
    for round_number, hops in enumerate((1, 2, 3, 2)):
        sources = nodes[round_number::3][:48]
        system.batch_khop(sources, hops, auto_migrate=False)
        reports = [node for node, _, _ in system._migrator.capture_pending()]
        assert reports, "the probe must report misplaced nodes"
        owners = placement(system._partitioner.partition_map)
        rows = {
            node: storage.next_hops(node)
            for storage in system._module_storages
            for node in storage.rows()
        }
        expected = migrate(
            reports, owners, rows, 4096,
            num_partitions=config.num_modules,
            capacity_factor=MIGRATION_CAPACITY_FACTOR,
        )
        moved, stats = system.run_maintenance()
        assert system._migrator.last_moves == expected
        assert moved == len(expected) == stats.counters["migrations"]
        assert placement(system._partitioner.partition_map) == owners
        total_moves += moved
    assert total_moves > 0


def test_serving_and_migrating_never_import_numpy_ma():
    """A values-only ``np.unique`` imports ``numpy.ma`` on its first call
    under numpy 2.x (~12 ms and ~1.7 MiB); the vote and the matrix
    kernel use the sort-and-run-mask unique instead.  A fresh interpreter
    loads a graph, runs every kernel and migration passes that move
    nodes, and still has not imported it."""
    script = textwrap.dedent(
        """
        import sys
        from repro.core import Moctopus, MoctopusConfig
        from repro.graph import power_law_graph
        from repro.pim import CostModel

        graph = power_law_graph(2000, edges_per_node=4, skew=0.8, seed=3)
        system = Moctopus.from_graph(graph, MoctopusConfig(cost_model=CostModel(num_modules=16)))
        moved = 0
        for engine in ("python", "vectorized", "matrix"):
            system.use_engine(engine)
            for hops in (1, 2, 3):
                system.batch_khop(list(range(0, 2000, 7)), hops, auto_migrate=False)
                moved += system.run_maintenance()[0]
        print(moved > 0, "numpy.ma" in sys.modules)
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr[-4000:]
    assert completed.stdout.split() == ["True", "False"]

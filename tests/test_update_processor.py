"""Tests for the batch update path: routing by where each source row
lives at batch end (promotions mid-batch, operators a promotion emptied,
never-placed sources), a random-batch differential against the
sequential model, input validation and the absolute accounting record."""

from __future__ import annotations

import json
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from model import ReferenceModel, placement
from repro.core import Moctopus, MoctopusConfig
from repro.graph import DiGraph
from repro.graph.stream import UpdateKind, UpdateOp
from repro.paper import placed_at
from repro.partition.base import HOST_PARTITION
from repro.pim import CostModel

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
sys.path.insert(0, DATA)
import make_update_golden  # noqa: E402

INSERT, DELETE = UpdateKind.INSERT, UpdateKind.DELETE


# ----------------------------------------------------------------------
# Promotions mid-batch: an op follows its source's row to the host
# ----------------------------------------------------------------------
def promotion_system(engine="python", threshold=4):
    """``engine`` picks the query kernel the tests read the result back
    through; the update path is the same whatever it says."""
    graph = DiGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
    config = MoctopusConfig(cost_model=CostModel(num_modules=4))
    system = placed_at(high_degree_threshold=threshold).from_graph(graph, config)
    system.use_engine(engine)
    return system


def kernels_launched(system, module: int) -> int:
    """Lifetime kernel launches charged to ``module``."""
    charged = system.pim.totals.modules
    return charged[module].kernels_launched if module in charged else 0


@pytest.mark.parametrize(
    "ops, launches",
    [
        ([INSERT] * 5, 1),
        ([DELETE] + [INSERT] * 5, 2),
    ],
    ids=["add", "add_and_sub"],
)
def test_a_module_whose_ops_all_moved_to_the_host_still_launches_them(ops, launches):
    """Every op sent to node 0's module follows node 0 to the host when
    the batch promotes it, yet the module still launches one kernel per
    operator kind it was sent: the emptied operator ships and is charged."""
    system = promotion_system()
    module = system.partition_of(0)
    assert module != HOST_PARTITION
    before = kernels_launched(system, module)
    batch = [UpdateOp(kind, 0, 1 if kind is DELETE else 20 + i) for i, kind in enumerate(ops)]
    system.apply_updates(batch)
    assert system.partition_of(0) == HOST_PARTITION
    assert kernels_launched(system, module) - before == launches
    assert not system._module_storages[module].has_row(0)
    kept = set() if DELETE in ops else {1}  # 0 -> 1 was loaded
    inserted = {op.dst for op in batch if op.kind is INSERT}
    assert set(system._host_storage.next_hops(0)) == kept | inserted


def test_a_promoted_source_applies_its_earlier_delete_exactly_once():
    """A delete→insert of one edge sent to the module before the source's
    promotion replays once, on the host, in batch order: a delete applied
    again after the re-insert would erase it."""
    system = promotion_system()
    edges = system.num_edges
    ops = [UpdateOp(DELETE, 0, 1), UpdateOp(INSERT, 0, 1)]
    ops += [UpdateOp(INSERT, 0, dst) for dst in range(20, 25)]
    system.apply_updates(ops)
    assert system.partition_of(0) == HOST_PARTITION
    assert system.has_edge(0, 1)
    assert system.num_edges == edges + 5
    assert system._host_storage.row_length(0) == 6


def test_a_delete_from_a_never_placed_source_is_a_host_no_op():
    system = promotion_system()
    nodes, edges = system.num_nodes, system.num_edges
    launched = [kernels_launched(system, module) for module in range(4)]
    stats = system.apply_updates([UpdateOp(DELETE, 99_999, 0)])
    assert stats.counters["updates"] == 1
    assert system.partition_of(99_999) is None
    assert (system.num_nodes, system.num_edges) == (nodes, edges)
    assert [kernels_launched(system, module) for module in range(4)] == launched
    assert not system._host_storage.has_row(99_999)


@pytest.mark.parametrize("engine", ["python", "vectorized", "matrix"])
def test_multiple_promotions_in_one_batch(engine):
    """Two sources crossing the threshold in the same batch both move
    their earlier ops to the host."""
    system = promotion_system(engine=engine)
    assert system.partition_of(0) != HOST_PARTITION
    assert system.partition_of(1) != HOST_PARTITION
    edges = []
    for dst in range(10, 15):
        edges.append((0, dst))
        edges.append((1, dst + 10))
    stats = system.insert_edges(edges)
    assert stats.counters["updates"] == len(edges)
    # Both sources ended up promoted, with every inserted edge applied
    # exactly once (an op that followed its source must not double-apply).
    assert system.partition_of(0) == HOST_PARTITION
    assert system.partition_of(1) == HOST_PARTITION
    assert system.partition_statistics()["promotions"] == 2
    for src, dst in edges:
        assert system.has_edge(src, dst)
        assert system._host_storage.has_edge(src, dst)
    result, _ = system.batch_khop([0, 1], hops=1)
    assert result.destinations_of(0) == set(system.graph.successors(0))
    assert result.destinations_of(1) == set(system.graph.successors(1))


@pytest.mark.parametrize("engine", ["python", "vectorized", "matrix"])
def test_promotion_requeues_pending_deletes_too(engine):
    system = promotion_system(engine=engine)
    ops = [UpdateOp(UpdateKind.DELETE, 0, 1)]  # sent to 0's module first
    ops += [UpdateOp(UpdateKind.INSERT, 0, dst) for dst in range(20, 25)]
    system.apply_updates(ops)
    assert system.partition_of(0) == HOST_PARTITION
    assert not system.has_edge(0, 1)  # the delete followed 0 to the host
    for dst in range(20, 25):
        assert system.has_edge(0, dst)
    result, _ = system.batch_khop([0], hops=1)
    assert result.destinations_of(0) == set(range(20, 25))


@pytest.mark.parametrize("engine", ["python", "vectorized", "matrix"])
def test_same_edge_delete_then_insert_in_one_batch(engine):
    """A batch replays sequentially per edge: the last op wins.

    Regression test: applying whole ``add`` operators before ``sub``
    operators used to resolve [DELETE e, DELETE e, INSERT e] to *absent*
    (the insert landed first and the deletes erased it).
    """
    graph = DiGraph.from_edges([(0, 1), (0, 2), (3, 0)])
    system = Moctopus.from_graph(graph, MoctopusConfig(cost_model=CostModel(num_modules=4)))
    system.use_engine(engine)
    system.apply_updates(
        [
            UpdateOp(UpdateKind.DELETE, 0, 1),
            UpdateOp(UpdateKind.DELETE, 0, 1),
            UpdateOp(UpdateKind.INSERT, 0, 1),
        ]
    )
    assert system.has_edge(0, 1)
    result, _ = system.batch_khop([0], hops=1)
    assert result.destinations_of(0) == {1, 2}
    assert 1 in set(system.graph.successors(0))

    system.apply_updates(
        [
            UpdateOp(UpdateKind.INSERT, 0, 9),
            UpdateOp(UpdateKind.DELETE, 0, 9),
        ]
    )
    assert not system.has_edge(0, 9)


def test_mixed_batch_stats_match_insert_then_delete_state():
    """apply_updates on a mixed stream leaves the same graph as the parts."""
    system = promotion_system()
    ops = [
        UpdateOp(UpdateKind.INSERT, 2, 40),
        UpdateOp(UpdateKind.DELETE, 2, 3),
        UpdateOp(UpdateKind.INSERT, 5, 2),
        UpdateOp(UpdateKind.DELETE, 3, 0),
    ]
    system.apply_updates(ops)
    assert system.has_edge(2, 40)
    assert not system.has_edge(2, 3)
    assert system.has_edge(5, 2)
    assert not system.has_edge(3, 0)


# ----------------------------------------------------------------------
# Routing differential: random mixed batches against the sequential model
# ----------------------------------------------------------------------
THRESHOLD = 4
#: Loaded ids (a ring, node 0 one edge short of the threshold), ids no
#: load placed, and ids only ever deleted from (never placed).
LOADED, FRESH, NEVER_PLACED = list(range(12)), [100, 101, 102, 103], [900, 901]
RING = [(node, (node + 1) % 12) for node in LOADED] + [(0, 5), (0, 7), (0, 9)]

_insert_sources = st.sampled_from([0, 1, 2, 100, 101])  # few, so they cross
_ends = st.sampled_from(LOADED + FRESH)
_labels = st.integers(0, 3)
_steps = st.one_of(
    st.tuples(st.just("insert"), _insert_sources, _ends, _labels),
    st.tuples(st.just("delete"), st.sampled_from(LOADED + FRESH + NEVER_PLACED), _ends, _labels),
    st.tuples(st.just("reinsert"), _insert_sources, _ends, _labels),
)


def _batch(steps):
    """The ops and labels of drawn steps: a ``reinsert`` is a delete of
    an edge followed at once by its insert."""
    ops, labels = [], []
    for kind, src, dst, label in steps:
        if kind != "insert":
            ops.append(UpdateOp(DELETE, src, dst))
            labels.append(0)
        if kind != "delete":
            ops.append(UpdateOp(INSERT, src, dst))
            labels.append(label)
    return ops, labels


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(_steps, min_size=1, max_size=24), min_size=1, max_size=3))
def test_random_batches_route_like_the_sequential_model(batches):
    """Whatever a batch promotes, never places or deletes and re-inserts,
    the stored graph is the per-op model's, no source is left on PIM
    above the threshold, and the host holds exactly the promoted rows."""
    graph = DiGraph.from_edges(RING)
    config = MoctopusConfig(cost_model=CostModel(num_modules=4))
    system = placed_at(high_degree_threshold=THRESHOLD).from_graph(graph, config)
    model = ReferenceModel.from_digraph(graph)
    for steps in batches:
        ops, labels = _batch(steps)
        system.apply_updates(ops, labels)
        model.apply_ops(ops, labels)
        assert sorted(system.graph.labeled_edges()) == sorted(model.to_digraph().labeled_edges())
        assert list(system.graph.nodes()) == sorted(model.rows)
        assert system._partitioner.pending_promotions() == 0
        hosted = {node for node in model.rows if system.partition_of(node) == HOST_PARTITION}
        assert set(system._host_storage.rows()) == hosted == model.hubs(THRESHOLD)
    assert all(system.partition_of(node) is None for node in NEVER_PLACED)


# ----------------------------------------------------------------------
# A labels list that does not match the batch is rejected before
# anything moves
# ----------------------------------------------------------------------
SHORT_LABELS_EDGES = [(0, 100), (1, 101), (2, 102)]


@pytest.mark.parametrize("labels", [[7], [], [1, 2, 3, 4]])
def test_mismatched_labels_leave_a_memory_only_system_untouched(labels):
    system = promotion_system()
    owners = placement(system._partitioner.partition_map)
    num_nodes, epoch_id = system.num_nodes, system.current_epoch_id
    with pytest.raises(ValueError, match="labels"):
        system.insert_edges(SHORT_LABELS_EDGES, labels=labels)
    assert placement(system._partitioner.partition_map) == owners
    assert system.num_nodes == num_nodes
    assert system.current_epoch_id == epoch_id
    assert system._update_processor.batches_applied == 0
    # The same batch with matching labels goes through.
    system.insert_edges(SHORT_LABELS_EDGES, labels=[7, 8, 9])
    assert system.graph.edge_label(1, 101) == 8


def test_mismatched_labels_are_rejected_before_the_write_ahead_point(tmp_path):
    graph = DiGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
    config = MoctopusConfig(
        cost_model=CostModel(num_modules=4),
        durability_dir=str(tmp_path / "durable"),
        checkpoint_interval_batches=0,
    )
    system = Moctopus.from_graph(graph, config)
    try:
        durable_lsn = system.durable_lsn
        for labels in ([7], []):
            with pytest.raises(ValueError, match="labels"):
                system.insert_edges(SHORT_LABELS_EDGES, labels=labels)
        assert system.durable_lsn == durable_lsn
        assert system._durability.failed is None
        assert system.num_nodes == 4
        system.insert_edges(SHORT_LABELS_EDGES, labels=[7, 8, 9])
        assert system.durable_lsn == durable_lsn + 1
    finally:
        system.close()


def test_mismatched_labels_stage_nothing_in_a_session():
    system = promotion_system()
    with system.begin() as session:
        with pytest.raises(ValueError, match="labels"):
            session.insert_edges(SHORT_LABELS_EDGES, labels=[7])
        assert session._ops == []
        assert session.commit() is None
    assert system.num_nodes == 4


# ----------------------------------------------------------------------
# A negative node id is rejected before anything moves
# ----------------------------------------------------------------------
NEGATIVE_EDGES = [(-3, 2), (7, -5)]

#: Writes no path may store, each with the message naming its field.  A
#: float id was acknowledged and kept in memory as ``1.5`` while the log
#: stored ``1``; ``True`` was stored as node 1; a float label raised
#: ``TypeError`` half-way through the apply, after the batch was logged.
UNSTORABLE_EDGES = [
    ([(1.5, 2)], None, "node id must be an integer"),
    ([(True, 1)], None, "node id must be an integer"),
    ([(2**63, 1)], None, "node id must be in"),
    ([(0, 2), (1, 3)], [7, 1.5], "label must be an integer"),
    ([(0, 2)], [True], "label must be an integer"),
    ([(0, 2)], [2**63], "label must be in"),
]


def test_negative_ids_are_rejected_before_the_write_ahead_point(tmp_path):
    """Accepted, they wrapped around the dense owner table: a later
    ``batch_khop`` answered differently per engine."""
    graph = DiGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (5, 6)])
    config = MoctopusConfig(
        cost_model=CostModel(num_modules=4),
        durability_dir=str(tmp_path / "durable"),
        checkpoint_interval_batches=0,
    )
    system = Moctopus.from_graph(graph, config)
    try:
        durable_lsn = system.durable_lsn
        owners = placement(system._partitioner.partition_map)
        writes = [
            (lambda: system.insert_edges(NEGATIVE_EDGES), "non-negative"),
            (lambda: system.delete_edges([(0, -1)]), "non-negative"),
            (lambda: system.apply_updates([UpdateOp(INSERT, 1, -9)]), "non-negative"),
            (lambda: system.delete_edges([(0.0, 1)]), "node id must be an integer"),
        ]
        writes += [
            (lambda edges=edges, labels=labels: system.insert_edges(edges, labels), match)
            for edges, labels, match in UNSTORABLE_EDGES
        ]
        for write, match in writes:
            with pytest.raises(ValueError, match=match):
                write()
            assert system.durable_lsn == durable_lsn
            assert system._durability.failed is None
            assert placement(system._partitioner.partition_map) == owners
            assert system._update_processor.batches_applied == 0
            assert system.num_edges == 5
        system.insert_edges([(0, 2)], labels=[7])  # the log still takes writes
        assert system.durable_lsn == durable_lsn + 1
        result, _ = system.batch_khop([7, -3, 5], 1)
        assert [sorted(row) for row in result.destinations] == [[], [], [6]]
    finally:
        system.close()


def test_negative_ids_stage_nothing_in_a_session():
    system = promotion_system()
    with system.begin() as session:
        with pytest.raises(ValueError, match="non-negative"):
            session.insert_edges(NEGATIVE_EDGES)
        with pytest.raises(ValueError, match="non-negative"):
            session.delete_edges([(0, -1)])
        with pytest.raises(ValueError, match="non-negative"):
            session.apply_updates([UpdateOp(INSERT, 0, 1), UpdateOp(DELETE, -4, 0)])
        for edges, labels, match in UNSTORABLE_EDGES:
            with pytest.raises(ValueError, match=match):
                session.insert_edges(edges, labels)
        with pytest.raises(ValueError, match="node id must be an integer"):
            session.delete_edges([(1.5, 3)])
        assert session._ops == []
        assert session.commit() is None
    assert system.num_nodes == 4


# ----------------------------------------------------------------------
# The absolute accounting record
# ----------------------------------------------------------------------
def test_update_accounting_matches_the_recorded_golden():
    """Every charge of the update path, pinned exactly.

    ``tests/data/update_golden.json`` was recorded by
    ``tests/data/make_update_golden.py`` at the last commit that had a
    second (array) partitioner, after the script was shown equal under
    both; with nothing left to compare against, the record is absolute:
    per-batch time breakdown, counters, CPC bytes and per-phase module
    times, then the final placement and row contents.
    """
    with open(os.path.join(DATA, "update_golden.json")) as handle:
        golden = json.load(handle)
    system = make_update_golden.build_system()
    recorded = make_update_golden.record(system)
    assert len(recorded["batches"]) == 40
    for index, (got, want) in enumerate(zip(recorded["batches"], golden["batches"])):
        assert got == want, f"batch {index} diverged from the record"
    assert recorded == golden
    # The script really walks the rules it was written for: both
    # crossers promote in batch 1 and the fresh hub within batch 3.
    promotions = [batch["promotions"] for batch in golden["batches"]]
    assert promotions[1] - promotions[0] == 2
    assert promotions[3] - promotions[2] == 1
    for crosser in make_update_golden.CROSSERS + (make_update_golden.FRESH_HUB,):
        assert system.partition_of(crosser) == HOST_PARTITION
    assert system.partition_of(99_999) is None

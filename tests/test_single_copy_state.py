"""One resident copy of the graph.

A loaded system keeps every edge exactly once, in its storages:

* ``system.graph`` is a live read-only view over them (no mirror
  ``DiGraph``), checked here edge-for-edge and label-for-label against
  :class:`tests.model.ReferenceModel` through updates, promotions,
  migrations, a pinned session's lifetime, and ``close()`` + recovery;
* an epoch lives exactly as long as its pins (no retention window), and
  a retired epoch's plan and result cache entries go with it;
* ``close()`` is terminal: the closed system releases its graph, refuses
  every further read and write (directly or through a handle still
  open on it), holds no reference cycle, and is freed by refcount;
* the traced bytes a loaded system costs per stored edge are pinned.
"""

from __future__ import annotations

import gc
import random
import threading
import tracemalloc
import weakref

import pytest

from model import ReferenceModel
from repro.core import Moctopus, MoctopusConfig
from repro.graph import DiGraph, power_law_graph, random_graph
from repro.graph.digraph import ReadableGraph
from repro.graph.stream import UpdateKind, UpdateOp
from repro.paper import placed_at
from repro.pim import CostModel, scaled_cost_model
from repro.rpq import KHopQuery

SEED_GRAPH = dict(num_nodes=40, num_edges=140, seed=5)
#: Labor division above out-degree 8, so the seed graph has hubs.
System = placed_at(high_degree_threshold=8)


def _config(durability_dir=None, **overrides) -> MoctopusConfig:
    defaults = dict(
        cost_model=CostModel(num_modules=4),
        durability_dir=None if durability_dir is None else str(durability_dir),
        checkpoint_interval_batches=3,
    )
    defaults.update(overrides)
    return MoctopusConfig(**defaults)


def assert_view_equals_model(system: Moctopus, model: ReferenceModel, context: str) -> None:
    view = system.graph
    assert system.num_nodes == view.num_nodes == len(view) == model.num_nodes, context
    assert system.num_edges == view.num_edges == model.num_edges, context
    assert list(view.nodes()) == sorted(model.rows), context
    for node, row in model.rows.items():
        assert node in view and view.has_node(node), context
        assert dict(view.successors_with_labels(node)) == row, f"{context}: row {node}"
        assert sorted(view.successors(node)) == sorted(row), f"{context}: row {node}"
        assert view.out_degree(node) == len(row), f"{context}: row {node}"
    expected = sorted(
        (src, dst, label) for src, row in model.rows.items() for dst, label in row.items()
    )
    assert sorted(view.labeled_edges()) == expected, context
    assert sorted(view.edges()) == [(src, dst) for src, dst, _ in expected], context


def _scripted_batch(rng: random.Random, model: ReferenceModel, round_id: int):
    """Inserts (some on brand-new nodes, some relabels), deletes, and a
    burst that pushes one module-resident node over the hub threshold."""
    nodes = sorted(model.rows)
    ops, labels = [], []

    def add(kind, src, dst, label=0):
        ops.append(UpdateOp(kind, src, dst))
        labels.append(label)

    for _ in range(6):
        add(UpdateKind.INSERT, rng.choice(nodes), rng.choice(nodes), rng.randrange(1, 4))
    add(UpdateKind.INSERT, 1000 + round_id, rng.choice(nodes), 2)  # new source
    add(UpdateKind.INSERT, rng.choice(nodes), 2000 + round_id, 3)  # new destination
    for src, dst in rng.sample(model.edges(), 4):
        add(UpdateKind.DELETE, src, dst)
    add(UpdateKind.DELETE, 9999, 1)  # unknown source: registers nothing
    hub = nodes[round_id % len(nodes)]
    for offset in range(10):
        add(UpdateKind.INSERT, hub, 3000 + 10 * round_id + offset, 1)
    return ops, labels


def _apply_to_model(model: ReferenceModel, ops, labels) -> None:
    for op, label in zip(ops, labels):
        if op.kind is UpdateKind.INSERT:
            model.insert(op.src, op.dst, label)
        else:
            model.delete(op.src, op.dst)


def test_graph_view_tracks_the_oracle_live_pinned_and_recovered(tmp_path):
    graph = random_graph(**SEED_GRAPH)
    model = ReferenceModel.from_digraph(graph)
    system = System.from_graph(graph, _config(tmp_path))
    assert_view_equals_model(system, model, "after load")

    rng = random.Random(17)
    promotions_before = system.partition_statistics()["promotions"]
    migrated = 0
    session = system.begin()  # pinned for the whole script
    pinned_answer, _ = session.batch_khop(sorted(model.rows)[:8], 2)
    for round_id in range(8):
        ops, labels = _scripted_batch(rng, model, round_id)
        system.apply_updates(ops, labels=labels)
        _apply_to_model(model, ops, labels)
        assert_view_equals_model(system, model, f"round {round_id}: after updates")
        # Queries file misplacement reports; maintenance moves rows
        # between storages, which the view must follow.
        system.batch_khop(sorted(model.rows)[:24], 2, auto_migrate=False)
        moved, _ = system.run_maintenance()
        migrated += moved
        assert_view_equals_model(system, model, f"round {round_id}: after maintenance")
    assert system.partition_statistics()["promotions"] > promotions_before
    assert migrated > 0, "the script must exercise row migrations"
    # The view is the live state; the session still answers its epoch.
    replay, _ = session.batch_khop(sorted(model.rows)[:8], 2)
    assert replay.destinations == pinned_answer.destinations
    session.close()
    assert_view_equals_model(system, model, "after the pinned session closed")

    copy = system.graph.copy()
    assert isinstance(copy, DiGraph)
    assert sorted(copy.labeled_edges()) == sorted(system.graph.labeled_edges())
    copy.add_edge(1, 424242)  # the copy is independent and mutable
    assert not system.has_edge(1, 424242)

    system.close()
    with pytest.raises(RuntimeError, match="system is closed"):
        system.graph
    recovered = System.recover(str(tmp_path))
    try:
        assert_view_equals_model(recovered, model, "after recover")
    finally:
        recovered.close()


def test_graph_view_is_read_only_and_satisfies_the_protocol():
    system = System.from_graph(random_graph(**SEED_GRAPH), _config())
    view = system.graph
    assert isinstance(view, ReadableGraph)
    assert isinstance(DiGraph(), ReadableGraph)
    assert system.graph is view, "the view is O(1) to obtain, not rebuilt"
    for mutator in ("add_edge", "add_node", "remove_edge", "remove_node"):
        assert not hasattr(view, mutator), mutator
    with pytest.raises(AttributeError):
        view.extra = 1  # slotted: nothing can be hung off the view
    assert view.edge_label(0, 10 ** 9) is None
    assert view.successors(10 ** 9) == [] and view.out_degree(10 ** 9) == 0
    assert not view.has_edge(10 ** 9, 0) and 10 ** 9 not in view


@pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
def test_closed_system_is_freed_by_refcount(tmp_path, durable):
    """``close()`` + ``del`` frees the system with the cycle GC off."""
    gc.collect()
    gc.disable()
    try:
        system = System.from_graph(
            random_graph(**SEED_GRAPH), _config(tmp_path if durable else None)
        )
        with system.begin() as session:
            session.batch_khop([0, 1, 2], 2)
        system.insert_edges([(0, 77), (77, 3)])
        system.batch_khop([0, 1], 2)
        with system.serve() as scheduler:
            scheduler.query(0, 2)
        if durable:
            system.checkpoint()
        storage_ref = weakref.ref(system._module_storages[0])
        system_ref = weakref.ref(system)
        system.close()
        del system, session, scheduler
        assert system_ref() is None, "a reference cycle keeps the closed system alive"
        assert storage_ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
def test_closed_system_refuses_every_read_and_write(tmp_path, durable):
    system = System.from_graph(
        random_graph(**SEED_GRAPH), _config(tmp_path if durable else None)
    )
    system.batch_khop([0, 1], 2)
    system.close()
    calls = {
        "batch_khop": lambda: system.batch_khop([0], 1),
        "execute": lambda: system.execute(KHopQuery(hops=1, sources=[0])),
        "apply_updates": lambda: system.apply_updates(
            [UpdateOp(UpdateKind.INSERT, 0, 1)]
        ),
        "insert_edges": lambda: system.insert_edges([(0, 1)]),
        "begin": system.begin,
        "serve": system.serve,
        "listen": system.listen,
        "checkpoint": system.checkpoint,
        "graph": lambda: system.graph,
        "num_edges": lambda: system.num_edges,
    }
    for name, call in calls.items():
        with pytest.raises(RuntimeError, match="system is closed"):
            call()
    system.close()  # a second close is a no-op
    assert system._epochs.pins() == 0


def test_open_handles_close_cleanly_after_the_system_closes():
    threads_before = set(threading.enumerate())
    system = System.from_graph(random_graph(**SEED_GRAPH), _config())
    session = system.begin()
    session.batch_khop([0, 1], 2)
    scheduler = system.serve()
    scheduler.query(0, 2)
    server = system.listen()
    system.close()

    with pytest.raises(RuntimeError, match="system is closed"):
        session.batch_khop([0, 1], 2)
    with pytest.raises(RuntimeError, match="system is closed"):
        scheduler.query(0, 2)
    session.close()
    scheduler.close()
    server.close()
    assert system._epochs.pins() == 0
    for thread in set(threading.enumerate()) - threads_before:
        thread.join(timeout=5.0)
    assert set(threading.enumerate()) <= threads_before


def test_begin_racing_close_leaks_no_pin():
    """A ``close()`` landing right after ``begin()``'s pin: the session
    that comes back owns that pin and returns it; nothing else holds one."""
    system = System.from_graph(random_graph(**SEED_GRAPH), _config())
    manager = system._epochs
    pin = manager.pin

    def pin_then_close():
        epoch = pin()
        system.close()
        return epoch

    manager.pin = pin_then_close
    session = system.begin()
    assert manager.pins() == 1
    with pytest.raises(RuntimeError, match="system is closed"):
        session.batch_khop([0, 1], 2)
    session.close()
    assert manager.pins() == 0
    with pytest.raises(RuntimeError, match="system is closed"):
        system.begin()
    assert manager.pins() == 0


def test_closed_session_releases_its_retired_epoch():
    system = System.from_graph(random_graph(**SEED_GRAPH), _config())
    session = system.begin()
    session.insert_edges([(0, 99)])
    session.batch_khop([0, 1], 2)
    epoch_id = session.epoch_id
    # Not the epoch's owner vector: the epochs after it share that one
    # until a write places a node.
    pinned = weakref.ref(session._epoch)
    system.insert_edges([(1, 98)])
    assert system.current_epoch_id != epoch_id  # the pin alone keeps it
    session.close()
    assert pinned() is None, "a closed session still references its epoch"
    assert session.epoch_id == epoch_id and session.pending_updates == 0
    assert epoch_id not in system._epochs.retained_ids()
    system.close()


def test_closed_system_holds_no_graph_state(tmp_path):
    """A closed system a caller still references holds less than a small
    fixed bound; before close() became terminal it kept its rows."""
    graph = power_law_graph(2000, edges_per_node=4, skew=0.6, seed=29)
    rng = random.Random(29)

    def load_update_and_close():
        system = System.from_graph(graph, _config(tmp_path))
        for _ in range(6):
            system.apply_updates(
                [
                    UpdateOp(UpdateKind.INSERT, rng.randrange(2000), rng.randrange(2000))
                    for _ in range(64)
                ]
            )
            with system.begin() as session:
                session.batch_khop(rng.sample(range(2000), 16), 2)
            system.batch_khop(rng.sample(range(2000), 16), 2)
        system.checkpoint()
        system.close()
        return system

    gc.collect()
    tracemalloc.start()
    try:
        system = load_update_and_close()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del system
        gc.collect()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 64 * 1024, f"a closed system still holds {held} traced bytes"


def test_retired_epochs_leave_the_caches():
    system = System.from_graph(random_graph(**SEED_GRAPH), _config())
    processor = system._query_processor
    pinned = system.begin()  # held across every round
    pinned.batch_khop([0, 1, 2], 2)
    for round_id in range(20):
        system.apply_updates([UpdateOp(UpdateKind.INSERT, round_id, 600 + round_id)])
        with system.begin() as session:
            session.batch_khop([0, 1, 2], 2)
    live = {pinned.epoch_id, system.current_epoch_id}
    assert {key[0] for key in processor._result_cache} == live
    # A plan is its shape: one entry served every epoch.
    assert list(processor._plan_cache) == [("khop", 2)]
    hits = system.cache_stats.counters.get("result_cache_hits", 0)
    pinned.batch_khop([0, 1, 2], 2)
    assert system.cache_stats.counters["result_cache_hits"] == hits + 1
    pinned.close()
    system.close()


def test_epoch_registry_is_current_plus_pinned():
    system = System.from_graph(random_graph(**SEED_GRAPH), _config())
    manager = system._epochs
    rng = random.Random(3)
    held = []
    for round_id in range(60):
        action = rng.random()
        if action < 0.4:
            system.insert_edges([(round_id % 40, 500 + round_id)])
            system.current_epoch_id  # publish
        elif action < 0.75 or not held:
            held.append(manager.pin())
        else:
            manager.unpin(held.pop(rng.randrange(len(held))))
        expected = {epoch.epoch_id for epoch in held} | {system.current_epoch_id}
        assert manager.retained_ids() == sorted(expected), f"round {round_id}"
        assert manager.pins() == len(held)
    while held:
        manager.unpin(held.pop())
    assert manager.pins() == 0
    assert manager.retained_ids() == [system.current_epoch_id]
    assert set(system.serving_report()) <= {system.current_epoch_id}


def test_traced_bytes_per_stored_edge_stay_under_the_ceiling():
    """A loaded, published smoke-graph system costs < 138 traced B/edge.

    Measured 125.4 B/edge (storage rows as ``array('q')`` buffers + live
    CSR + owner table + partition vector and degree counters); with one
    ``(dst, label)`` tuple per edge in the rows the same graph measured
    174.4, and with a mirror ``DiGraph`` beside them 237.6.  The ceiling
    sits ~10 % above today's value.
    """
    graph = power_law_graph(1200, edges_per_node=4, skew=0.6, reciprocity=0.3, seed=13)
    config = MoctopusConfig(cost_model=scaled_cost_model())
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        system = Moctopus.from_graph(graph, config)
        system.current_epoch_id  # publish: the live CSR is part of the bill
        gc.collect()
        traced = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert system.num_edges == graph.num_edges
    assert traced / system.num_edges < 138

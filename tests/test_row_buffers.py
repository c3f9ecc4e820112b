"""Adjacency rows are ``array('q')`` buffers, storage to checkpoint.

* both storages against dict-of-lists models, step by step: reads,
  byte accounting, the refreshed snapshot against the per-edge
  reference builder and, on the host, capacities, hole positions and
  free-list order (seeded scripts and a hypothesis differential);
* snapshots spliced from buffers against the reference builder;
* checkpoint arrays against public reads, and a directory written by
  the last tuple-row commit (``tests/data/ckpt_pr16``) against its
  recorded digest;
* no buffer export outlives the call that took it;
* re-inserting an edge relabels it on either placement.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faultinject import public_rows
from model import ReferenceModel, build_snapshot_reference, snapshot_of
from repro.core import Moctopus, MoctopusConfig
from repro.core.hetero_storage import (
    BYTES_PER_SLOT,
    GROWTH_FACTOR,
    INITIAL_CAPACITY,
    HeterogeneousGraphStorage,
)
from repro.core.local_storage import BYTES_PER_ENTRY, BYTES_PER_ROW, LocalGraphStorage
from repro.core.snapshot import HOLE, row_buffer, row_pairs
from repro.durability.checkpoint import capture_checkpoint
from repro.graph import DiGraph, power_law_graph
from repro.graph.stream import UpdateKind, UpdateOp, UpdateStream
from repro.partition.base import HOST_PARTITION
from repro.pim import CostModel, LocalMemory
from repro.rpq import RPQuery

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
sys.path.insert(0, DATA)
from make_checkpoint_fixture import state_digest  # noqa: E402

#: Sources, destinations and labels share one small range on purpose: a
#: label equal to a node id is what an ``index()`` on the interleaved
#: buffer would trip over.
NODES = 6
VALUES = 12


# ----------------------------------------------------------------------
# (a) storages against dict-of-lists models
# ----------------------------------------------------------------------
class ModuleModel:
    """``node -> [[dst, label], ...]`` in insertion order."""

    def __init__(self) -> None:
        self.rows = {}

    def apply(self, storage: LocalGraphStorage, op) -> None:
        kind, node = op[0], op[1]
        row = self.rows.get(node)
        if kind == "ensure":
            assert storage.ensure_row(node) is (row is None)
            self.rows.setdefault(node, [])
        elif kind == "add":
            _, _, dst, label = op
            row = self.rows.setdefault(node, [])
            known = [entry for entry in row if entry[0] == dst]
            assert storage.add_edge(node, dst, label) is (not known)
            if known:
                known[0][1] = label  # relabel keeps the position
            else:
                row.append([dst, label])
        elif kind == "remove":
            dst = op[2]
            known = [entry for entry in (row or []) if entry[0] == dst]
            assert storage.remove_edge(node, dst) is bool(known)
            if known:
                row.remove(known[0])
        elif kind == "insert_row":
            entries = op[2]
            if row is not None:
                with pytest.raises(ValueError):
                    storage.insert_row(node, entries)
            else:
                storage.insert_row(node, entries)
                self.rows[node] = [list(entry) for entry in entries]
        else:
            assert kind == "remove_row"
            assert storage.remove_row(node) == [tuple(entry) for entry in row or []]
            self.rows.pop(node, None)

    def check(self, storage: LocalGraphStorage, memory: LocalMemory) -> None:
        edges = sum(len(row) for row in self.rows.values())
        assert sorted(storage.rows()) == sorted(self.rows)
        assert storage.num_rows == len(self.rows) and storage.num_edges == edges
        assert storage.storage_bytes == len(self.rows) * BYTES_PER_ROW + edges * BYTES_PER_ENTRY
        assert memory.used_bytes == storage.storage_bytes
        for node in range(NODES):
            row = self.rows.get(node)
            assert storage.has_row(node) is (row is not None)
            row = row or []
            assert storage.next_hops_with_labels(node) == [tuple(entry) for entry in row]
            assert storage.next_hops(node) == [dst for dst, _ in row]
            assert storage.row_length(node) == len(row)
            assert storage.local_hops(node) == sum(dst in self.rows for dst, _ in row)
            present = {dst for dst, _ in row}
            for dst in range(VALUES):
                assert storage.has_edge(node, dst) is (dst in present)


class HostModel:
    """``node -> slots`` (``None`` = hole) plus LIFO free lists — the
    paper's split protocol, spelled out on Python lists."""

    def __init__(self) -> None:
        self.slots = {}
        self.free = {}

    def _ensure(self, node) -> bool:
        if node in self.slots:
            return False
        self.slots[node] = [None] * INITIAL_CAPACITY
        self.free[node] = list(range(INITIAL_CAPACITY))
        return True

    def occupied(self, node):
        return [slot for slot in self.slots.get(node, []) if slot is not None]

    def apply(self, storage: HeterogeneousGraphStorage, op) -> None:
        kind, node = op[0], op[1]
        if kind == "ensure":
            assert storage.ensure_row(node) is self._ensure(node)
        elif kind == "add":
            _, _, dst, label = op
            self._ensure(node)
            slots, free = self.slots[node], self.free[node]
            outcome = storage.insert_edge(node, dst, label)
            position = next(
                (index for index, slot in enumerate(slots) if slot and slot[0] == dst), None
            )
            if position is not None:
                changed = slots[position][1] != label
                slots[position] = (dst, label)
                expected = (False, 1, int(changed), 0)
            else:
                streamed = 0
                if not free:
                    capacity = len(slots)
                    streamed = capacity * BYTES_PER_SLOT
                    slots.extend([None] * (capacity * (GROWTH_FACTOR - 1)))
                    free.extend(range(capacity, len(slots)))
                slots[free.pop()] = (dst, label)
                expected = (True, 3, 1, streamed)
            assert (
                outcome.applied,
                outcome.pim_map_lookups,
                outcome.host_writes,
                outcome.host_streamed_bytes,
            ) == expected
        elif kind == "remove":
            dst = op[2]
            slots = self.slots.get(node, [])
            position = next(
                (index for index, slot in enumerate(slots) if slot and slot[0] == dst), None
            )
            outcome = storage.delete_edge(node, dst)
            if position is None:
                expected = (False, 1, 0)
            else:
                slots[position] = None
                self.free[node].append(position)
                expected = (True, 2, 1)
            assert (outcome.applied, outcome.pim_map_lookups, outcome.host_writes) == expected
        elif kind == "insert_row":
            entries = op[2]
            if self.occupied(node):
                with pytest.raises(ValueError):
                    storage.insert_row(node, entries)
            else:
                storage.insert_row(node, entries)
                capacity = max(INITIAL_CAPACITY, len(entries) * GROWTH_FACTOR)
                self.slots[node] = list(entries) + [None] * (capacity - len(entries))
                self.free[node] = list(range(len(entries), capacity))
        else:
            assert kind == "remove_row"
            assert storage.remove_row(node) == self.occupied(node)
            self.slots.pop(node, None)
            self.free.pop(node, None)

    def check(self, storage: HeterogeneousGraphStorage) -> None:
        edges = sum(len(self.occupied(node)) for node in self.slots)
        assert sorted(storage.rows()) == sorted(self.slots)
        assert storage.num_rows == len(self.slots) and storage.num_edges == edges
        # The running slot count against the recomputed sum.
        assert storage.total_bytes() == BYTES_PER_SLOT * sum(
            len(slots) for slots in self.slots.values()
        )
        for node in range(NODES):
            occupied = self.occupied(node)
            assert storage.has_row(node) is (node in self.slots)
            assert storage.next_hops_with_labels(node) == occupied  # position order
            assert storage.next_hops(node) == [dst for dst, _ in occupied]
            assert storage.row_length(node) == len(occupied)
            assert storage.row_bytes(node) == len(occupied) * BYTES_PER_SLOT
            present = {dst for dst, _ in occupied}
            for dst in range(VALUES):
                assert storage.has_edge(node, dst) is (dst in present)
        # Capacities, hole positions and free-list order, as a
        # checkpoint records them.
        state = storage.capture_arrays()
        row_ids = sorted(self.slots)
        assert state["row_ids"].tolist() == row_ids
        assert state["caps"].tolist() == [len(self.slots[node]) for node in row_ids]
        triples = state["occ_flat"].reshape(-1, 3).tolist()
        occ_bounds = (state["occ_indptr"] // 3).tolist()
        free_flat = state["free_flat"].tolist()
        free_bounds = state["free_indptr"].tolist()
        for index, node in enumerate(row_ids):
            assert triples[occ_bounds[index] : occ_bounds[index + 1]] == [
                [position, slot[0], slot[1]]
                for position, slot in enumerate(self.slots[node])
                if slot is not None
            ]
            assert free_flat[free_bounds[index] : free_bounds[index + 1]] == self.free[node]
        assert all(array.dtype == np.int64 for array in state.values())


def random_op(rng: random.Random):
    kind = rng.choices(
        ("add", "remove", "ensure", "insert_row", "remove_row"), (10, 5, 1, 1, 1)
    )[0]
    node = rng.randrange(NODES)
    if kind == "add":
        return (kind, node, rng.randrange(VALUES), rng.randrange(VALUES))
    if kind == "remove":
        return (kind, node, rng.randrange(VALUES))
    if kind == "insert_row":
        dsts = rng.sample(range(VALUES), rng.randrange(0, 7))
        return (kind, node, [(dst, rng.randrange(VALUES)) for dst in dsts])
    return (kind, node)


values = st.integers(0, VALUES - 1)
node_ids = st.integers(0, NODES - 1)
op_strategy = st.one_of(
    st.tuples(st.just("add"), node_ids, values, values),
    st.tuples(st.just("add"), node_ids, values, values),
    st.tuples(st.just("remove"), node_ids, values),
    st.tuples(st.just("ensure"), node_ids),
    st.tuples(
        st.just("insert_row"),
        node_ids,
        st.lists(st.tuples(values, values), max_size=6, unique_by=lambda entry: entry[0]),
    ),
    st.tuples(st.just("remove_row"), node_ids),
)


def run_module_script(ops) -> None:
    memory = LocalMemory(1 << 20)
    storage = LocalGraphStorage(memory=memory)
    model = ModuleModel()
    for op in ops:  # a refresh per step: one splice, or a hit after a no-op
        model.apply(storage, op)
        model.check(storage, memory)
        assert storage.to_csr().same_arrays(
            build_snapshot_reference(
                public_rows(storage), BYTES_PER_ENTRY, max(storage.storage_bytes, 1), True
            )
        )


def run_host_script(ops) -> None:
    storage = HeterogeneousGraphStorage(num_pim_modules=4)
    model = HostModel()
    for op in ops:
        model.apply(storage, op)
        model.check(storage)
        assert storage.to_csr().same_arrays(
            build_snapshot_reference(
                public_rows(storage), BYTES_PER_SLOT, max(storage.total_bytes(), 1), False
            )
        )


@pytest.mark.parametrize("seed", range(6))
def test_module_storage_matches_the_model_on_seeded_scripts(seed):
    rng = random.Random(seed)
    run_module_script([random_op(rng) for _ in range(150)])


@pytest.mark.parametrize("seed", range(6))
def test_host_storage_matches_the_model_on_seeded_scripts(seed):
    rng = random.Random(100 + seed)
    run_host_script([random_op(rng) for _ in range(150)])


@settings(max_examples=60, deadline=None)
@given(st.lists(op_strategy, max_size=40))
def test_module_storage_differential(ops):
    run_module_script(ops)


@settings(max_examples=60, deadline=None)
@given(st.lists(op_strategy, max_size=40))
def test_host_storage_differential(ops):
    run_host_script(ops)


def test_the_hole_marker_is_not_a_node_id():
    with pytest.raises(ValueError):
        LocalGraphStorage().add_edge(1, HOLE)
    host = HeterogeneousGraphStorage(num_pim_modules=2)
    with pytest.raises(ValueError):
        host.insert_edge(1, HOLE)
    assert host.num_edges == 0


# ----------------------------------------------------------------------
# (b) splice from buffers
# ----------------------------------------------------------------------
def test_build_from_buffers_skips_holes_and_keeps_empty_rows():
    rows = [
        (9, row_buffer([])),
        (4, row_buffer([(HOLE, 0), (7, 4), (HOLE, 3), (HOLE, 0), (4, 7)])),
        (2, row_buffer([(HOLE, 0)] * INITIAL_CAPACITY)),  # a fresh cols_vector
        (7, row_buffer([(2, 2)])),
    ]
    for count_local in (True, False):
        built = snapshot_of(rows, 12, 64, count_local)
        assert built.same_arrays(build_snapshot_reference(rows, 12, 64, count_local))
    assert built.node_ids.tolist() == [2, 4, 7, 9]
    assert built.degrees.tolist() == [0, 2, 1, 0]
    assert built.dsts.tolist() == [7, 4, 2] and built.labels.tolist() == [4, 7, 2]
    for array in (built.indptr, built.dsts, built.labels):
        assert array.dtype == np.int64 and array.flags.c_contiguous
    assert row_pairs(rows[3][1]) == [(2, 2)]


@pytest.mark.parametrize("dropped", [True, False], ids=["after_drop", "over_the_base"])
def test_a_batch_refresh_agrees_with_the_reference_builder(dropped):
    local = LocalGraphStorage()
    host = HeterogeneousGraphStorage(num_pim_modules=4)
    for node in range(10):
        local.ensure_row(node)
        for dst in range(node % 4):
            local.add_edge(node, dst + node, label=dst)
        for dst in range(3 + node):
            host.insert_edge(node, 100 + dst, label=dst % 3)
    local.to_csr()
    host.to_csr()

    # One batch: holes punched and refilled, an edge relabelled, a row
    # emptied, a row removed for good, and a row removed and
    # re-installed before the refresh.
    host.delete_edge(3, 101)
    host.delete_edge(3, 103)
    host.insert_edge(3, 777, label=2)
    host.insert_edge(4, 100, label=9)
    moved = host.remove_row(5)
    host.insert_row(5, moved[:2])
    host.remove_row(6)
    for dst in host.next_hops(0):
        host.delete_edge(0, dst)
    local.add_edge(1, 1, label=5)
    local.remove_edge(2, 2)
    moved = local.remove_row(3)
    local.insert_row(3, list(reversed(moved)))
    local.remove_row(7)

    for storage, bytes_per_entry, size, count_local in (
        (local, BYTES_PER_ENTRY, local.storage_bytes, True),
        (host, BYTES_PER_SLOT, host.total_bytes(), False),
    ):
        if dropped:  # the next refresh splices every row into the empty snapshot
            storage.drop_snapshot()
        refreshed = storage.to_csr()
        assert storage.snapshot_builds == 2
        assert refreshed.same_arrays(
            build_snapshot_reference(public_rows(storage), bytes_per_entry, size, count_local)
        )
    assert host.to_csr().degrees[0] == 0 and host.has_row(0)


def test_restored_storages_refresh_against_their_read_only_seed():
    """``restore_rows`` / ``restore_arrays`` seed a frozen base; splices
    over it — a few rows, then every row — must equal a rebuild, and the
    restored positional state must be the captured one."""
    local = LocalGraphStorage()
    host = HeterogeneousGraphStorage(num_pim_modules=4)
    for node in range(8):
        for dst in range(1 + node % 3):
            local.add_edge(node, node + dst + 1, label=dst)
        for dst in range(9):
            host.insert_edge(node, 50 + dst, label=dst % 4)
        host.delete_edge(node, 50 + node)  # a hole at a different position per row
    restored_local = LocalGraphStorage(memory=LocalMemory(1 << 20))
    restored_local.restore_rows(local.to_csr())
    restored_host = HeterogeneousGraphStorage(num_pim_modules=4)
    captured = host.capture_arrays()
    restored_host.restore_arrays(captured, base=host.to_csr())

    assert restored_local.to_csr() is local.to_csr()  # cache hit on the seed
    assert not restored_local.to_csr().dsts.flags.writeable
    assert restored_local.storage_bytes == local.storage_bytes
    assert restored_local._memory.used_bytes == local.storage_bytes
    assert public_rows(restored_local) == public_rows(local)
    recaptured = restored_host.capture_arrays()
    assert sorted(recaptured) == sorted(captured)
    for name, array in captured.items():
        assert np.array_equal(recaptured[name], array), name
    assert restored_host.total_bytes() == host.total_bytes()

    for storage in (restored_local, local):
        storage.add_edge(2, 99, label=3)
        storage.remove_edge(0, 1)
    for storage in (restored_host, host):
        storage.insert_edge(2, 99, label=3)  # refills the hole the free list names
        storage.delete_edge(0, 51)
    assert restored_local.to_csr().same_arrays(local.to_csr())
    assert restored_host.to_csr().same_arrays(host.to_csr())
    assert restored_host.next_hops_with_labels(2) == host.next_hops_with_labels(2)
    # Slots fill from the top (7..0, then 15); 99 took the hole 52 left at 5.
    assert restored_host.next_hops(2) == [57, 56, 55, 54, 53, 99, 51, 50, 58]
    for node in range(8):  # every row dirty, over the seeded lineage
        restored_local.add_edge(node, 200 + node)
        restored_host.insert_edge(node, 200 + node)
    assert restored_local.to_csr().same_arrays(
        build_snapshot_reference(
            public_rows(restored_local), BYTES_PER_ENTRY, restored_local.storage_bytes, True
        )
    )
    assert restored_host.to_csr().same_arrays(
        build_snapshot_reference(
            public_rows(restored_host), BYTES_PER_SLOT, restored_host.total_bytes(), False
        )
    )


# ----------------------------------------------------------------------
# (c) checkpoint arrays
# ----------------------------------------------------------------------
def _churned_system(durability_dir=None) -> Moctopus:
    graph = power_law_graph(num_nodes=120, edges_per_node=3, skew=0.85, seed=3)
    config = MoctopusConfig(
        cost_model=CostModel(num_modules=4),
        high_degree_threshold=8,
        durability_dir=None if durability_dir is None else str(durability_dir),
        checkpoint_interval_batches=0,
    )
    system = Moctopus.from_graph(graph, config)
    stream = UpdateStream(graph, seed=4)
    for round_id in range(6):
        ops = stream.mixed_batch(40)
        system.apply_updates(ops, labels=[(round_id + index) % 4 for index in range(len(ops))])
        system.batch_khop(list(range(10 * round_id, 10 * round_id + 10)), 2, auto_migrate=False)
        if round_id % 2 == 0:  # the last round's reports stay pending
            system.run_maintenance()
    return system


def test_checkpoint_arrays_equal_arrays_derived_from_public_reads():
    system = _churned_system()
    with system._serve_lock:
        manifest, arrays = capture_checkpoint(system)
    assert manifest["format"] == 1
    assert system._migrator.pending_reports > 0, "the script must leave reports pending"

    storages = [(f"m{index}", storage) for index, storage in enumerate(system._module_storages)]
    storages.append(("host", system._host_storage))
    for prefix, storage in storages:
        host = prefix == "host"
        reference = build_snapshot_reference(
            public_rows(storage),
            BYTES_PER_SLOT if host else BYTES_PER_ENTRY,
            max(storage.total_bytes() if host else storage.storage_bytes, 1),
            not host,
        )
        for key in ("node_ids", "indptr", "dsts", "labels", "local_counts"):
            assert np.array_equal(arrays[f"{prefix}_{key}"], getattr(reference, key)), prefix

    # What the tuple-row commit wrote: sorted dict items as int64 pairs.
    partition_map = system._partitioner.partition_map
    assignments = np.asarray(sorted(partition_map.items()), dtype=np.int64).reshape(-1, 2)
    degrees = np.asarray(
        sorted(system._partitioner._policy._out_degree.items()), dtype=np.int64
    ).reshape(-1, 2)
    pending = np.asarray(system._migrator.capture_pending(), dtype=np.int64).reshape(-1, 3)
    for name, expected in (
        ("p_assignments", assignments),
        ("ld_out_degrees", degrees),
        ("mig_pending", pending),
    ):
        assert arrays[name].dtype == np.int64 and arrays[name].shape == expected.shape, name
        assert np.array_equal(arrays[name], expected), name
    assert (assignments[:, 1] == HOST_PARTITION).sum() == system._host_storage.num_rows > 2

    # Host internals: occupied triples are the public position-order
    # read, capacities add up to the working set, and every slot is
    # either occupied or on its row's free list.
    host = system._host_storage
    row_ids = arrays["hx_row_ids"].tolist()
    assert row_ids == sorted(host.rows())
    triples = arrays["hx_occ_flat"].reshape(-1, 3)
    occ_bounds = (arrays["hx_occ_indptr"] // 3).tolist()
    free_bounds = arrays["hx_free_indptr"].tolist()
    holes = 0
    for index, node in enumerate(row_ids):
        row = triples[occ_bounds[index] : occ_bounds[index + 1]]
        assert [tuple(pair) for pair in row[:, 1:].tolist()] == host.next_hops_with_labels(node)
        positions = row[:, 0].tolist()
        free = arrays["hx_free_flat"][free_bounds[index] : free_bounds[index + 1]].tolist()
        assert positions == sorted(positions)
        assert sorted(positions + free) == list(range(int(arrays["hx_caps"][index])))
        holes += sum(position < max(positions, default=0) for position in free)
    assert holes > 0, "the script must leave mid-vector holes"
    assert int(arrays["hx_caps"].sum()) * BYTES_PER_SLOT == host.total_bytes()


def test_a_directory_written_with_tuple_rows_recovers_to_the_same_state(tmp_path):
    fixture = os.path.join(DATA, "ckpt_pr16")
    shutil.copytree(os.path.join(fixture, "durability"), tmp_path / "durability")
    with open(os.path.join(fixture, "expected.json")) as handle:
        expected = json.load(handle)
    recovered = Moctopus.recover(str(tmp_path / "durability"))
    try:
        digest = state_digest(recovered)
        assert digest["arrays"] == expected["arrays"]
        assert digest["manifest"] == expected["manifest"]
        # And what it writes next is readable by itself.
        recovered.checkpoint()
    finally:
        recovered.close()
    again = Moctopus.recover(str(tmp_path / "durability"))
    try:
        assert state_digest(again)["arrays"] == expected["arrays"]
    finally:
        again.close()


# ----------------------------------------------------------------------
# (d) no buffer export outlives its call
# ----------------------------------------------------------------------
def test_rows_stay_resizable_after_every_reader_of_their_buffers(tmp_path):
    """Appending to an ``array`` that still exports a buffer raises
    ``BufferError``; growing every row after each reader proves none of
    them kept one — and the arrays they produced do not move."""
    system = _churned_system(tmp_path)
    storages = [*system._module_storages, system._host_storage]

    def grow_every_row(offset):
        ops = [
            UpdateOp(UpdateKind.INSERT, node, 5000 + offset + extra)
            for storage in storages
            for node in list(storage.rows())
            for extra in range(2)
        ]
        system.apply_updates(ops)

    try:
        for storage in storages:
            storage.to_csr()
        grow_every_row(0)

        session = system.begin()  # a pinned epoch over fresh snapshots
        pinned = [
            (array, array.copy())
            for snapshot in session._epoch.snapshots
            for array in (snapshot.node_ids, snapshot.indptr, snapshot.dsts, snapshot.labels)
        ]
        answer, _ = session.batch_khop([0, 1, 2, 3], 2)
        grow_every_row(10)

        with system._serve_lock:
            _, arrays = capture_checkpoint(system)
        captured = {name: array.copy() for name, array in arrays.items()}
        grow_every_row(20)
        system.checkpoint()
        grow_every_row(30)

        for array, copy in pinned:
            assert np.array_equal(array, copy)
        for name, array in arrays.items():
            assert np.array_equal(array, captured[name]), name
        replay, _ = session.batch_khop([0, 1, 2, 3], 2)
        assert replay.destinations == answer.destinations
        session.close()
    finally:
        system.close()


# ----------------------------------------------------------------------
# Re-inserting an edge relabels it, wherever its row lives
# ----------------------------------------------------------------------
def test_relabel_answers_the_same_on_host_and_module_rows(tmp_path):
    graph = DiGraph()
    for dst in range(1, 13):
        graph.add_edge(0, dst, 1)  # hub: lives on the host
    graph.add_edge(100, 101, 1)  # leaf: lives on a module
    graph.add_edge(5, 6, 2)
    graph.add_edge(101, 102, 2)
    model = ReferenceModel.from_digraph(graph)
    config = MoctopusConfig(
        cost_model=CostModel(num_modules=4),
        high_degree_threshold=8,
        durability_dir=str(tmp_path),
    )
    system = Moctopus.from_graph(graph, config)
    assert system._partitioner.is_host(0) and not system._partitioner.is_host(100)
    # Unnamed labels are spelled as their numbers (names do not survive
    # a recovery; the numbers do).
    queries = [RPQuery(text, [0, 100]) for text in ("1", "2", "2/2", "1/2")]

    def answers(target):
        return [target.execute(query)[0].destinations for query in queries]

    def oracle(state):
        return [state.rpq(query.expression, [0, 100]) for query in queries]

    before = oracle(model)
    pinned = system.begin()
    assert answers(pinned) == before

    ops = [UpdateOp(UpdateKind.INSERT, 0, 5), UpdateOp(UpdateKind.INSERT, 100, 101)]
    stats = system.apply_updates(ops, labels=[2, 2])
    model.insert(0, 5, 2)
    model.insert(100, 101, 2)
    after = oracle(model)
    assert after != before and after[1] == [{5}, {101}]

    assert system.graph.edge_label(0, 5) == 2 and system.graph.edge_label(100, 101) == 2
    assert system.num_edges == model.num_edges
    assert answers(system) == after  # live
    assert answers(pinned) == before  # the pinned epoch keeps the old label
    pinned.close()
    with system.begin() as published:
        assert answers(published) == after
    # Writing the label an edge already has is not a host write.
    repeat = system.apply_updates(ops, labels=[2, 2])
    assert repeat.host_time < stats.host_time
    assert answers(system) == after

    system.close()
    recovered = Moctopus.recover(str(tmp_path))
    try:
        assert answers(recovered) == after
        assert recovered.graph.edge_label(0, 5) == 2
    finally:
        recovered.close()

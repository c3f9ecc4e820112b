"""Tests for the per-module operators: the scalar ``smxm`` loop of
:mod:`repro.engine.python_engine` and the ``add``/``sub`` operators a
module applies to its storage."""

from __future__ import annotations

from model import publish, publisher
from repro.core import Moctopus, MoctopusConfig
from repro.core.local_storage import BYTES_PER_ENTRY, LocalGraphStorage
from repro.engine.python_engine import smxm
from repro.graph import DiGraph
from repro.pim import CostModel
from repro.rpq import build_dfa


def snapshot(storage: LocalGraphStorage):
    """``storage``'s rows as a publish writes them."""
    return publish(publisher(storage))[0]


def make_storage() -> LocalGraphStorage:
    storage = LocalGraphStorage()
    storage.add_edge(1, 2)
    storage.add_edge(1, 3)
    storage.add_edge(2, 3)
    storage.add_edge(3, 4)
    return storage


def test_smxm_expands_local_rows_and_counts_work():
    produced, work = smxm({1: {0, 7}, 2: {0}}, snapshot(make_storage()))
    assert produced[2] == {0, 7}
    assert produced[3] == {0, 7}
    assert work.rows_touched == 2
    assert work.bytes_streamed == 3 * BYTES_PER_ENTRY
    # row 1 has 2 next hops x 2 contexts, row 2 has 1 next hop x 1 context.
    assert work.items_processed == 5


def test_smxm_missing_row_produces_nothing():
    produced, work = smxm({99: {0}}, snapshot(make_storage()))
    assert produced == {}
    assert work.rows_touched == 1
    assert work.items_processed == 0


def test_smxm_detects_misplaced_nodes():
    storage = LocalGraphStorage()
    # Node 1 lives here but none of its next hops do.
    storage.add_edge(1, 50)
    storage.add_edge(1, 51)
    _, work = smxm({1: {0}}, snapshot(storage), misplacement_threshold=0.5)
    nodes, local, remote = work.misplaced
    assert (nodes.tolist(), local.tolist(), remote.tolist()) == ([1], [0], [2])
    _, quiet = smxm({1: {0}}, snapshot(storage), misplacement_threshold=None)
    assert quiet.misplaced is None


def test_smxm_with_dfa_filters_by_label():
    storage = LocalGraphStorage()
    storage.add_edge(1, 2, label=1)
    storage.add_edge(1, 3, label=2)
    dfa = build_dfa("a")
    produced, _ = smxm(
        {1: {(0, dfa.start)}}, snapshot(storage), dfa=dfa, label_names={1: "a", 2: "b"}
    )
    assert set(produced) == {2}
    ((row, state),) = produced[2]
    assert row == 0 and dfa.is_accepting(state)


def test_process_add_and_sub():
    """A module applies its slice of a batch in batch order, charging one
    lookup and one item per op plus the bytes of the row it reads first,
    and one kernel launch per operator."""
    config = MoctopusConfig(cost_model=CostModel(num_modules=1))
    system = Moctopus.from_graph(DiGraph.from_edges([(1, 0)]), config)
    (storage,) = system._module_storages
    module = system.pim.totals.modules[0]

    def charged():
        return (
            module.accesses_made,
            module.bytes_streamed,
            module.items_processed,
            module.kernels_launched,
        )

    system.delete_edges([(1, 0)])
    before = charged()
    system.insert_edges([(1, 2), (1, 3), (1, 2)])
    assert storage.num_edges == 2 and storage.next_hops(1) == [2, 3]
    after = charged()
    # Rows of 0, 1 and 2 entries were read before the three inserts.
    assert [b - a for a, b in zip(before, after)] == [3, 3 * BYTES_PER_ENTRY, 3, 1]
    system.delete_edges([(1, 2), (1, 9)])
    assert storage.num_edges == 1 and storage.next_hops(1) == [3]
    # Rows of 2 entries, then 1, were read before the two deletes.
    assert [b - a for a, b in zip(after, charged())] == [2, 3 * BYTES_PER_ENTRY, 2, 1]

"""The columnar bulk loader against the per-edge oracle.

``Moctopus.load_graph`` and ``BOOTSTRAP`` replay place and store a
graph a chunk of edges at a time (:mod:`repro.core.bulk_load`);
:func:`model.load_per_edge` is the per-edge ingest loop it replaced.  A
hypothesis differential runs both over random edge streams — src-major
and shuffled, with self-loops and isolated nodes — under every
placement configuration, chunk size and snapshot state, and requires the
same partition map (owner vector and sizes), degree counters,
placement counters, module rows through their public reads (ids,
entries in order, counts, memory), host rows (order, buffers, memory,
dirty rows), host slot layout and CSR snapshots.  The host's bulk ``load_edges`` is
held to per-edge ``insert_edge`` on its own, holes and growth included.
Hand-built cases pin the bugs the per-edge path had, the load's
preconditions (a negative endpoint, a repeated pair) and its cost.
"""

from __future__ import annotations

import cProfile
import gc
import pstats
import random
import tracemalloc
from functools import partial
from typing import Callable, Dict, List, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faultinject import public_rows
from model import build_snapshot_reference, load_per_edge, publish, publisher
from repro.core import Moctopus, MoctopusConfig
from repro.core.hetero_storage import HeterogeneousGraphStorage
from repro.core.local_storage import BYTES_PER_ENTRY, LocalGraphStorage, footprint
from repro.core.snapshot import CSRHeap, row_buffer
from repro.graph import DiGraph, power_law_graph
from repro.graph import stream
from repro.paper import PIMHashSystem, placed_at
from repro.pim import CostModel, scaled_cost_model
from repro.pim.memory import MemoryCapacityError

Edge = Tuple[int, int, int]


class EdgeStream:
    """The two streams ``load_graph`` reads, in an order of our choosing."""

    def __init__(self, edges: List[Edge], nodes: List[int]) -> None:
        self._edges = edges
        self._nodes = nodes

    def labeled_edges(self):
        return iter(self._edges)

    def nodes(self):
        return iter(self._nodes)


def load_state(system: Moctopus) -> Dict[str, object]:
    """Everything a load leaves behind, in comparable form (order included)."""
    partition_map = system._partitioner.partition_map
    labor = system._partitioner
    host = system._host_storage
    state = {
        "owners": [column.tolist() for column in partition_map.freeze().table()],
        "sizes": (partition_map.pim_sizes(), partition_map.host_size()),
        "degrees": list(getattr(labor, "_out_degree", {}).items()),
        "counters": system.partition_statistics(),
        # A module's rows through its public readers, ids ascending: a
        # loaded module holds them in its base, the per-edge oracle's as
        # written buffers.  Neither keeps a creation order any more (a
        # checkpoint never did); the CSR comparison below holds the
        # bases and the splices alike.
        "modules": [
            (
                [(node, storage.next_hops_with_labels(node)) for node in storage.rows()],
                storage.num_rows,
                storage.num_edges,
                storage.storage_bytes,
                storage.capacity_bytes,
            )
            for storage in system._module_storages
        ],
        "host": (
            [
                (node, vector.slots.tolist(), vector.size)
                for node, vector in host._vectors.items()
            ],
            [(node, list(map_.items())) for node, map_ in host._elem_position_map.items()],
            [(node, free.tolist()) for node, free in host._free_list_map.items()],
            host._total_slots,
            host.num_edges,
        ),
    }
    # Last: a publish rebases the storages the fields above read.
    state["csr"] = [
        tuple(
            getattr(snapshot, name).tolist()
            for name in ("node_ids", "indptr", "dsts", "labels", "local_counts")
        )
        + (snapshot.working_set_bytes,)
        for snapshot in system._epochs.current().snapshots
    ]
    return state


def _empty_system(new_system: Callable[[], Moctopus], cache_base: bool) -> Moctopus:
    system = new_system()
    if cache_base:
        # An epoch published before the load (the fault-injection
        # reference fingerprints the empty system): the loaded heap must
        # replace it, and the oracle's writes splice into it.
        system._epochs.current()
    return system


def assert_load_matches_oracle(
    new_system: Callable[[], Moctopus],
    edges: List[Edge],
    nodes: List[int],
    cache_base: bool = False,
) -> Moctopus:
    loaded = _empty_system(new_system, cache_base)
    loaded.load_graph(EdgeStream(edges, nodes))
    oracle = _empty_system(new_system, cache_base)
    load_per_edge(oracle, edges, nodes)
    expected = load_state(oracle)
    actual = load_state(loaded)
    for key in expected:
        assert actual[key] == expected[key], f"{key} differs"
    # The loader wrote the heap: its first publish built nothing.
    assert loaded._epochs.splices == 0
    return loaded


def _config(num_modules: int = 4, **kwargs) -> MoctopusConfig:
    return MoctopusConfig(cost_model=CostModel(num_modules=num_modules), **kwargs)


@st.composite
def edge_streams(draw):
    """Distinct labelled edges over a few nodes, src-major or shuffled,
    self-loops allowed, plus a node list with isolated nodes in it.  Some
    ids lie far past the rest, where the owner vector keeps them in its
    side table."""
    num_nodes = draw(st.integers(min_value=1, max_value=30))
    ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=200) | st.integers(10**9, 10**9 + 50),
            min_size=num_nodes,
            max_size=num_nodes,
            unique=True,
        )
    )
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
            max_size=120,
            unique=True,
        )
    )
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    if draw(st.booleans()):
        # Src-major, as a DiGraph streams its edges: sources in first-
        # appearance order, each source's edges in arrival order.
        rank = {}
        for src, _ in pairs:
            rank.setdefault(src, len(rank))
        pairs.sort(key=lambda pair: rank[pair[0]])
    edges = [(src, dst, rng.randrange(4)) for src, dst in pairs]
    nodes = list(ids)
    rng.shuffle(nodes)
    return edges, nodes


@settings(max_examples=150)
@given(
    stream_=edge_streams(),
    num_modules=st.sampled_from([1, 2, 4, 64]),
    threshold=st.sampled_from([1, 2, 4, 16, None]),
    placement=st.sampled_from(["radical_greedy", "hash"]),
    capacity_factor=st.sampled_from([1.0, 1.05, 2.0]),
    cache_base=st.booleans(),
    chunk_rows=st.sampled_from([1, 2, 7, stream.EDGE_CHUNK_ROWS]),
)
def test_loader_state_equals_the_per_edge_oracle(
    stream_, num_modules, threshold, placement, capacity_factor, cache_base, chunk_rows
):
    edges, nodes = stream_
    if placement == "hash":
        # The PIM-hash system has no labor division (threshold None).
        new_system = partial(PIMHashSystem, _config(num_modules))
    else:
        placed = placed_at(threshold, capacity_factor)
        new_system = partial(placed, _config(num_modules))
    with mock.patch.object(stream, "EDGE_CHUNK_ROWS", chunk_rows):
        assert_load_matches_oracle(new_system, edges, nodes, cache_base)


@pytest.mark.parametrize("chunk_rows", [7, stream.EDGE_CHUNK_ROWS])
def test_smoke_graph_load_equals_the_oracle(chunk_rows):
    """The benchmark's smoke-scale graph under the benchmark's config."""
    graph = power_law_graph(1200, edges_per_node=4, skew=0.6, reciprocity=0.3, seed=13)
    config = MoctopusConfig(cost_model=scaled_cost_model())
    with mock.patch.object(stream, "EDGE_CHUNK_ROWS", chunk_rows):
        system = assert_load_matches_oracle(
            partial(Moctopus, config), list(graph.labeled_edges()), list(graph.nodes())
        )
    assert system.partition_statistics()["promotions"] > 0
    assert system._partitioner.pending_promotions() == 0


@pytest.mark.parametrize("chunk_rows", [2, stream.EDGE_CHUNK_ROWS])
def test_bootstrap_only_recovery_equals_the_live_load(tmp_path, chunk_rows):
    graph = power_law_graph(300, edges_per_node=3, skew=0.8, seed=7)
    graph.add_edge(5, 5, 2)
    graph.add_node(10_000)
    with mock.patch.object(stream, "EDGE_CHUNK_ROWS", chunk_rows):
        live = placed_at(4).from_graph(graph, _config())
        durable = placed_at(4).from_graph(graph, _config(durability_dir=str(tmp_path)))
        durable.close()
        recovered = placed_at(4).recover(str(tmp_path))
    try:
        assert recovered.durable_lsn == 1
        assert load_state(recovered) == load_state(live)
    finally:
        recovered.close()


def test_adopt_makes_a_segment_the_base_and_charges_memory():
    """The storage's bulk fill on its own: a heap segment becomes the
    base, an empty row kept, the memory is counted once, and no row gets
    a buffer — so the first publish after the install splices nothing."""
    storage = LocalGraphStorage(capacity_bytes=1 << 20)
    manager = publisher(storage)
    publish(manager)  # an empty epoch, which the install replaces
    rows = {1: [(2, 5), (3, 6), (4, 7)], 2: [(1, 0)], 8: [(1, 2)], 9: []}
    reference = build_snapshot_reference(
        [(node, row_buffer(entries)) for node, entries in rows.items()],
        BYTES_PER_ENTRY,
        footprint(4, 5),
        count_local=True,
    )
    manager.install(CSRHeap([reference]))
    assert [(node, storage.next_hops_with_labels(node)) for node in storage.rows()] == list(
        rows.items()
    )
    assert (storage.num_rows, storage.num_edges) == (4, 5)
    assert storage.storage_bytes == footprint(4, 5)
    assert not storage.fits((1 << 20) - footprint(4, 5) + 1)
    assert not storage._buffers and not storage.written
    (snapshot,) = publish(manager)
    assert snapshot.same_arrays(reference)
    assert manager.splices == 0
    with pytest.raises(RuntimeError):
        storage.adopt(reference)


@st.composite
def host_rows(draw):
    """A host row after some inserts and deletes, and new edges for it."""
    inserted = draw(st.lists(st.integers(0, 60), max_size=40, unique=True))
    deleted = draw(st.lists(st.sampled_from(inserted), unique=True)) if inserted else []
    fresh = draw(
        st.lists(
            st.integers(0, 120).filter(lambda dst: dst not in set(inserted) - set(deleted)),
            max_size=50,
            unique=True,
        )
    )
    return inserted, deleted, fresh


@settings(max_examples=100)
@given(row=host_rows(), promoted=st.booleans())
def test_host_load_edges_equals_one_insert_per_edge(row, promoted):
    """Slot positions, free lists, growth and slot totals match per-edge
    ``insert_edge`` — on a promoted row or a grown one with holes."""
    inserted, deleted, fresh = row

    def build():
        host = HeterogeneousGraphStorage(4)
        if promoted:
            host.insert_row(7, [(dst, dst % 3) for dst in inserted])
        else:
            host.ensure_row(7)
            for dst in inserted:
                host.insert_edge(7, dst, dst % 3)
        for dst in deleted:
            host.delete_edge(7, dst)
        publish(publisher(host))
        return host

    bulk, oracle = build(), build()
    bulk.load_edges(7, fresh, [dst % 5 for dst in fresh])
    for dst in fresh:
        oracle.insert_edge(7, dst, dst % 5)
    for host in (bulk, oracle):
        assert host.num_edges == len(set(inserted) - set(deleted)) + len(fresh)
    vector, expected = bulk._vectors[7], oracle._vectors[7]
    assert (vector.slots.tolist(), vector.size) == (expected.slots.tolist(), expected.size)
    assert list(bulk._elem_position_map[7].items()) == list(
        oracle._elem_position_map[7].items()
    )
    assert bulk._free_list_map[7].tolist() == oracle._free_list_map[7].tolist()
    assert bulk._total_slots == oracle._total_slots
    assert bulk.written == oracle.written


def test_tiny_module_memory_fails_the_loader_and_the_oracle_alike():
    graph = power_law_graph(200, edges_per_node=3, seed=3)
    config = MoctopusConfig(cost_model=CostModel(num_modules=4, module_memory_bytes=2048))
    with pytest.raises(MemoryCapacityError):
        Moctopus.from_graph(graph, config)
    with pytest.raises(MemoryCapacityError):
        load_per_edge(Moctopus(config), graph.labeled_edges(), graph.nodes())
    # Part-way: modules 0 and 1 fit (2748 and 2768 bytes), module 2 (2992)
    # does not.  The storages that took their segments keep them, the
    # rest keep their own rows, and the next publish is exactly that.
    config = MoctopusConfig(cost_model=CostModel(num_modules=4, module_memory_bytes=2900))
    system = Moctopus(config)
    with pytest.raises(MemoryCapacityError):
        system.load_graph(graph)
    storages = system._module_storages
    assert [storage.num_rows > 0 for storage in storages] == [True, True, False, False]
    for storage, segment in zip(storages, system._epochs.current().snapshots):
        assert segment.same_arrays(
            build_snapshot_reference(
                public_rows(storage), BYTES_PER_ENTRY, storage.working_set_bytes, True
            )
        )


def test_loading_into_a_non_empty_system_is_refused_before_the_log(tmp_path):
    graph = DiGraph.from_edges([(0, 1), (1, 2)])
    system = Moctopus.from_graph(
        graph, _config(durability_dir=str(tmp_path), checkpoint_interval_batches=0)
    )
    try:
        before = load_state(system)
        with pytest.raises(RuntimeError, match="empty"):
            system.load_graph(DiGraph.from_edges([(5, 6)]))
        assert system.durable_lsn == 1
        assert load_state(system) == before
    finally:
        system.close()


def test_a_negative_node_id_is_refused_before_the_log(tmp_path):
    """So is any listed node id a write may not store: a float (the edge
    table truncated ``1.5`` to node 1 and loaded ``(0, 1), (1, 2)``), a
    ``bool``, or one past int64."""
    system = Moctopus(_config(durability_dir=str(tmp_path)))
    try:
        for edges, match in [
            ([(0, 1), (1, -2)], "non-negative"),
            ([(0, 1.5), (1.5, 2)], "node id must be an integer"),
            ([(0, True)], "node id must be an integer"),
            ([(0, 2**63)], "node id must be in"),
        ]:
            with pytest.raises(ValueError, match=match):
                system.load_graph(DiGraph.from_edges(edges))
            assert system.durable_lsn == 0
            assert system.num_nodes == 0
        system.load_graph(DiGraph.from_edges([(0, 1)]))
        assert system.durable_lsn == 1
    finally:
        system.close()


@pytest.mark.parametrize("graph_kind", ["digraph", "stream"])
def test_a_label_a_write_may_not_store_is_refused_before_the_log(tmp_path, graph_kind):
    """A float or ``bool`` label was truncated to 1 by the edge table —
    stored, logged in ``BOOTSTRAP`` and recovered as 1 — and one past
    int64 raised ``OverflowError``.  ``insert_edges`` refuses all three."""
    system = Moctopus(_config(durability_dir=str(tmp_path)))
    try:
        for label, match in [
            (1.5, "label must be an integer, got 1.5"),
            (True, "label must be an integer, got True"),
            (2**63, f"label must be in .*, got {2**63}"),
            (-(2**63) - 1, "label must be in"),
        ]:
            edges = [(0, 1, 2), (1, 2, label)]
            graph = DiGraph() if graph_kind == "digraph" else EdgeStream(edges, [0, 1, 2])
            if graph_kind == "digraph":
                for src, dst, edge_label in edges:
                    graph.add_edge(src, dst, label=edge_label)
            with pytest.raises(ValueError, match=match):
                system.load_graph(graph)
            assert system.durable_lsn == 0 and system.num_nodes == 0
            with pytest.raises(ValueError, match=match):
                system.insert_edges([(0, 1)], labels=[label])
        system.load_graph(EdgeStream([(0, 1, -5), (1, 2, 2**63 - 1)], []))
        assert system.durable_lsn == 1
        assert system.graph.edge_label(1, 2) == 2**63 - 1
    finally:
        system.close()


@pytest.mark.parametrize("engine", ["python", "vectorized"])
def test_a_negative_edge_endpoint_is_refused_before_the_log(tmp_path, engine):
    """Node -2 appears only as an edge endpoint, never in the node list:
    once loaded, the scalar kernel answered through it and the array
    kernels did not."""
    system = Moctopus(_config(durability_dir=str(tmp_path)))
    system.use_engine(engine)
    try:
        with pytest.raises(ValueError, match="non-negative, got -2"):
            system.load_graph(EdgeStream([(0, -2, 0), (1, 0, 0), (-2, 1, 0)], [0, 1]))
        assert system.durable_lsn == 0
        assert system.num_nodes == 0
        system.load_graph(EdgeStream([(0, 2, 0), (1, 0, 0), (2, 1, 0)], [0, 1]))
        assert system.durable_lsn == 1
        result, _ = system.batch_khop([1, 0, 2], 2)
        assert [sorted(answer) for answer in result.destinations] == [[2], [1], [0]]
    finally:
        system.close()


def test_a_repeated_pair_is_refused_before_the_log(tmp_path):
    """The loader appends without searching: a repeated ``(src, dst)``
    was stored twice, and deleting it left one copy behind."""
    system = Moctopus(_config(durability_dir=str(tmp_path)))
    try:
        with pytest.raises(ValueError, match=r"edge \(0, 1\) appears more than once"):
            system.load_graph(EdgeStream([(0, 1, 1), (0, 1, 2), (1, 2, 0)], [0, 1, 2]))
        assert system.durable_lsn == 0
        assert system.num_nodes == 0
        system.load_graph(EdgeStream([(0, 1, 2), (1, 2, 0)], [0, 1, 2]))
        system.delete_edges([(0, 1)])
        assert system.num_edges == 1
        result, _ = system.batch_khop([0], 1)
        assert sorted(result.destinations[0]) == []
    finally:
        system.close()


def test_a_repeated_pair_of_unpackable_ids_is_refused():
    """Ids too large to pack into one sort key take the column-wise check."""
    big = 2**40
    with pytest.raises(ValueError, match=rf"edge \({big}, {big + 1}\) appears"):
        Moctopus.from_graph(
            EdgeStream([(big, big + 1, 0), (1, big, 0), (big, big + 1, 3)], [])
        )
    system = Moctopus.from_graph(EdgeStream([(big, big + 1, 0), (big + 1, big, 0)], []))
    assert system.num_edges == 2


def test_load_graph_call_count_stays_under_the_ceiling():
    """The interpreter calls of one load of the smoke graph (exact on
    repeat): 66 583 for the loader that made per-node, per-row and
    per-hub-edge calls, 8 124 for this one.  The ceiling is a third of
    the former."""
    graph = power_law_graph(1200, edges_per_node=4, skew=0.6, reciprocity=0.3, seed=13)
    system = Moctopus(MoctopusConfig(cost_model=scaled_cost_model()))
    profiler = cProfile.Profile()
    profiler.runcall(system.load_graph, graph)
    assert system.num_edges == graph.num_edges
    assert pstats.Stats(profiler).total_calls <= 66_583 // 3


def test_a_self_loop_promotion_leaves_no_phantom_row():
    """The source's (T+1)-th out-edge is a self-loop: the promoted row
    must not be re-created, empty, on the module it just left."""
    graph = DiGraph.from_edges([(0, 1), (0, 2), (0, 0), (1, 0), (2, 1)])
    system = placed_at(2).from_graph(graph, _config())
    rows = [node for storage in system._module_storages for node in storage.rows()]
    assert sorted(rows + list(system._host_storage.rows())) == [0, 1, 2]
    assert list(system._host_storage.rows()) == [0]
    for storage, snapshot in zip(system._module_storages, system._epochs.current().snapshots):
        rows = list(storage.rows())
        edges = sum(storage.row_length(node) for node in rows)
        assert storage.storage_bytes == footprint(len(rows), edges)
        assert all(snapshot.local_hops(node) <= 1 for node in storage.rows())


def test_load_transient_bytes_stay_under_the_ceiling():
    """The load's traced peak on the smoke graph.

    Measured 839 659 B: the graph's 6 506 edges are one chunk, so this
    is the edge table (156 KB), the node-id dict and the rows built so
    far, plus one chunk's arrays — at the peak, the first-mention
    search's sort.  The peak is gated, not the peak above what the load
    retains: that difference grows whenever the load keeps less.  The
    ceiling sits ~7 % above.
    """
    graph = power_law_graph(1200, edges_per_node=4, skew=0.6, reciprocity=0.3, seed=13)
    system = Moctopus(MoctopusConfig(cost_model=scaled_cost_model()))
    gc.collect()
    tracemalloc.start()
    try:
        system.load_graph(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert system.num_edges == graph.num_edges
    assert peak < 900_000


def test_a_load_sizes_the_owner_vector_once():
    """The loader sizes the dense owner vector from the node count and
    the largest id before its first placement: every placement of the
    smoke graph writes that one array, and none goes through the side
    table."""
    graph = power_law_graph(1200, edges_per_node=4, skew=0.6, reciprocity=0.3, seed=13)
    system = Moctopus(MoctopusConfig(cost_model=scaled_cost_model()))
    partition_map = system._partitioner.partition_map
    arrays, side_sizes = [], []

    def spy(write):
        def recorded(*args):
            write(*args)
            arrays.append(partition_map._dense)
            side_sizes.append(len(partition_map._side))

        return recorded

    partition_map.assign_new = spy(partition_map.assign_new)
    partition_map.assign = spy(partition_map.assign)
    system.load_graph(graph)
    assert len(arrays) > 1 and all(array is arrays[0] for array in arrays)
    assert len(arrays[0]) == max(graph.nodes()) + 1
    assert max(side_sizes) == 0

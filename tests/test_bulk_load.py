"""The columnar bulk loader against the per-edge oracle.

``Moctopus.load_graph`` and ``BOOTSTRAP`` replay place and store a
graph a chunk of edges at a time (:mod:`repro.core.bulk_load`);
:func:`model.load_per_edge` is the per-edge ingest loop it replaced.  A
hypothesis differential runs both over random edge streams — src-major
and shuffled, with self-loops and isolated nodes — under every
placement configuration, chunk size and snapshot state, and requires the
same partition map (order, version, journal, sizes), degree counters,
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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from model import build_snapshot_reference, load_per_edge
from repro.core import Moctopus, MoctopusConfig
from repro.core.hetero_storage import HeterogeneousGraphStorage
from repro.core.local_storage import BYTES_PER_ENTRY, LocalGraphStorage
from repro.core.snapshot import row_buffer
from repro.graph import DiGraph, power_law_graph
from repro.graph import stream
from repro.paper import PIMHashSystem, placed_at
from repro.pim import CostModel, scaled_cost_model
from repro.pim.memory import LocalMemory, MemoryCapacityError

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
    partitioner = system._partitioner
    partition_map = partitioner.partition_map
    labor = partitioner.labor_division
    host = system._host_storage
    state = {
        "map": list(partition_map.items()),
        "version": partition_map.version,
        "journal": list(partition_map._journal),
        "sizes": dict(partition_map._sizes),
        "degrees": None if labor is None else list(labor._out_degree.items()),
        "counters": system.partition_statistics(),
        "promotions_performed": system._migrator.promotions_performed,
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
                storage._memory.used_bytes,
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
            sorted(host._cache.dirty),
        ),
    }
    # Last: building a snapshot changes the caches the fields above read.
    state["csr"] = [
        tuple(
            getattr(snapshot, name).tolist()
            for name in ("node_ids", "indptr", "dsts", "labels", "local_counts")
        )
        + (snapshot.working_set_bytes,)
        for snapshot in (
            storage.to_csr()
            for storage in (*system._module_storages, host)
        )
    ]
    return state


def _empty_system(new_system: Callable[[], Moctopus], cache_base: bool) -> Moctopus:
    system = new_system()
    if cache_base:
        # A base snapshot cached before the load (the fault-injection
        # reference fingerprints the empty system): every host row the
        # load touches must then be recorded in its dirty rows, and every
        # module's base replaced by the loaded one.
        for storage in (*system._module_storages, system._host_storage):
            storage.to_csr()
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
    return loaded


def _config(num_modules: int = 4, **kwargs) -> MoctopusConfig:
    return MoctopusConfig(cost_model=CostModel(num_modules=num_modules), **kwargs)


@st.composite
def edge_streams(draw):
    """Distinct labelled edges over a few nodes, src-major or shuffled,
    self-loops allowed, plus a node list with isolated nodes in it."""
    num_nodes = draw(st.integers(min_value=1, max_value=30))
    ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=200),
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
    assert system._partitioner.labor_division.pending_promotions() == 0


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


def test_load_csr_seeds_the_base_and_charges_memory():
    """The storage's bulk fill on its own: the rows become the base, an
    empty row kept, the memory is charged once, and no row gets a buffer
    — so the next refresh is a cache hit."""
    memory = LocalMemory(1 << 20)
    storage = LocalGraphStorage(memory=memory)
    storage.to_csr()  # a cached empty base, which the load replaces
    rows = {1: [(2, 5), (3, 6), (4, 7)], 2: [(1, 0)], 8: [(1, 2)], 9: []}
    storage.load_csr(
        np.array([1, 2, 8, 9]),
        np.array([0, 3, 4, 5, 5]),
        np.array([2, 3, 4, 1, 1]),
        np.array([5, 6, 7, 0, 2]),
    )
    assert [(node, storage.next_hops_with_labels(node)) for node in storage.rows()] == list(
        rows.items()
    )
    assert (storage.num_rows, storage.num_edges) == (4, 5)
    assert memory.used_bytes == storage.storage_bytes
    assert not storage._buffers and not storage._cache.dirty
    builds = storage.snapshot_builds
    reference = build_snapshot_reference(
        [(node, row_buffer(entries)) for node, entries in rows.items()],
        BYTES_PER_ENTRY,
        storage.storage_bytes,
        count_local=True,
    )
    assert storage.to_csr().same_arrays(reference)
    assert storage.snapshot_builds == builds
    with pytest.raises(RuntimeError):
        storage.load_csr(np.array([3]), np.array([0, 0]), np.array([]), np.array([]))


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
        host.to_csr()
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
    assert bulk._cache.dirty == oracle._cache.dirty


def test_tiny_module_memory_fails_the_loader_and_the_oracle_alike():
    graph = power_law_graph(200, edges_per_node=3, seed=3)
    config = MoctopusConfig(cost_model=CostModel(num_modules=4, module_memory_bytes=2048))
    with pytest.raises(MemoryCapacityError):
        Moctopus.from_graph(graph, config)
    with pytest.raises(MemoryCapacityError):
        load_per_edge(Moctopus(config), graph.labeled_edges(), graph.nodes())


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
    for storage in system._module_storages:
        assert storage._memory.used_bytes == storage.storage_bytes
        snapshot = storage.to_csr()
        assert all(snapshot.local_hops(node) <= 1 for node in storage.rows())


def test_load_transient_bytes_stay_under_the_ceiling():
    """The load's traced peak above what it retains, on the smoke graph.

    Measured 548 706 B: the graph's 6 506 edges are one chunk, so this
    is the edge table (156 KB) plus one chunk's arrays — at the peak,
    the first-mention search's — and the node-id dict (the per-edge loop
    held one edge at a time: 832 B).  The ceiling sits ~10 % above.
    """
    graph = power_law_graph(1200, edges_per_node=4, skew=0.6, reciprocity=0.3, seed=13)
    system = Moctopus(MoctopusConfig(cost_model=scaled_cost_model()))
    gc.collect()
    tracemalloc.start()
    try:
        system.load_graph(graph)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert system.num_edges == graph.num_edges
    assert peak - retained < 600_000

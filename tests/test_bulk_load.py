"""The columnar bulk loader against the per-edge oracle.

``Moctopus.load_graph`` and ``BOOTSTRAP`` replay place and store a
graph a chunk of edges at a time (:mod:`repro.core.bulk_load`);
:func:`model.load_per_edge` is the per-edge ingest loop it replaced.  A
hypothesis differential runs both over random edge streams — src-major
and shuffled, with self-loops and isolated nodes — under every
placement configuration, chunk size and snapshot state, and requires the
same partition map (order, version, journal, sizes), degree counters,
placement counters, storages (row order, buffers, memory, dirty rows),
host slot layout and CSR snapshots.  Hand-built cases pin the bugs the
per-edge path had and the load's preconditions.
"""

from __future__ import annotations

import gc
import random
import tracemalloc
from typing import Dict, List, Optional, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from model import load_per_edge
from repro.bench import scaled_cost_model
from repro.core import Moctopus, MoctopusConfig
from repro.core.local_storage import LocalGraphStorage
from repro.graph import DiGraph, power_law_graph
from repro.graph import stream
from repro.pim import CostModel
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
        "modules": [
            (
                [(node, row.tolist()) for node, row in storage._rows.items()],
                storage.num_edges,
                storage._memory.used_bytes,
                sorted(storage._cache.dirty),
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


def _empty_system(config: MoctopusConfig, cache_base: bool) -> Moctopus:
    system = Moctopus(config=config)
    if cache_base:
        # A base snapshot cached before the load (the fault-injection
        # reference fingerprints the empty system): every row the load
        # touches must then be recorded in the storages' dirty rows.
        for storage in (*system._module_storages, system._host_storage):
            storage.to_csr()
    return system


def assert_load_matches_oracle(
    config: MoctopusConfig,
    edges: List[Edge],
    nodes: List[int],
    cache_base: bool = False,
) -> Moctopus:
    loaded = _empty_system(config, cache_base)
    loaded.load_graph(EdgeStream(edges, nodes))
    oracle = _empty_system(config, cache_base)
    load_per_edge(oracle, edges, nodes)
    expected = load_state(oracle)
    actual = load_state(loaded)
    for key in expected:
        assert actual[key] == expected[key], f"{key} differs"
    return loaded


def _config(
    num_modules: int = 4,
    threshold: Optional[int] = 16,
    placement: str = "radical_greedy",
    capacity_factor: float = 1.05,
    **kwargs,
) -> MoctopusConfig:
    return MoctopusConfig(
        cost_model=CostModel(num_modules=num_modules),
        high_degree_threshold=threshold,
        pim_placement=placement,
        capacity_factor=capacity_factor,
        **kwargs,
    )


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
    config = _config(num_modules, threshold, placement, capacity_factor)
    with mock.patch.object(stream, "EDGE_CHUNK_ROWS", chunk_rows):
        assert_load_matches_oracle(config, edges, nodes, cache_base)


@pytest.mark.parametrize("chunk_rows", [7, stream.EDGE_CHUNK_ROWS])
def test_smoke_graph_load_equals_the_oracle(chunk_rows):
    """The benchmark's smoke-scale graph under the benchmark's config."""
    graph = power_law_graph(1200, edges_per_node=4, skew=0.6, reciprocity=0.3, seed=13)
    config = MoctopusConfig(cost_model=scaled_cost_model())
    with mock.patch.object(stream, "EDGE_CHUNK_ROWS", chunk_rows):
        system = assert_load_matches_oracle(
            config, list(graph.labeled_edges()), list(graph.nodes())
        )
    assert system.partition_statistics()["promotions"] > 0
    assert system._partitioner.labor_division.pending_promotions() == 0


@pytest.mark.parametrize("chunk_rows", [2, stream.EDGE_CHUNK_ROWS])
def test_bootstrap_only_recovery_equals_the_live_load(tmp_path, chunk_rows):
    graph = power_law_graph(300, edges_per_node=3, skew=0.8, seed=7)
    graph.add_edge(5, 5, 2)
    graph.add_node(10_000)
    with mock.patch.object(stream, "EDGE_CHUNK_ROWS", chunk_rows):
        live = Moctopus.from_graph(graph, _config(threshold=4))
        durable = Moctopus.from_graph(
            graph, _config(threshold=4, durability_dir=str(tmp_path))
        )
        durable.close()
        recovered = Moctopus.recover(str(tmp_path))
    try:
        assert recovered.durable_lsn == 1
        assert load_state(recovered) == load_state(live)
    finally:
        recovered.close()


def test_append_edges_charges_memory_and_dirties_the_row():
    """The storage's bulk append on its own: a load dirties every row it
    creates anyway, so only a row that existed before shows the record."""
    memory = LocalMemory(1 << 20)
    storage = LocalGraphStorage(memory=memory)
    storage.add_edge(1, 2, 5)
    storage.to_csr()  # a cached base the append must be spliced into
    storage.append_edges(1, np.array([3, 6, 4, 7], dtype=np.int64).tobytes())
    assert storage.next_hops_with_labels(1) == [(2, 5), (3, 6), (4, 7)]
    assert storage.num_edges == 3
    assert memory.used_bytes == storage.storage_bytes
    assert storage.to_csr().dsts.tolist() == [2, 3, 4]


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
    graph = DiGraph.from_edges([(0, 1), (1, -2)])
    system = Moctopus(_config(durability_dir=str(tmp_path)))
    try:
        with pytest.raises(ValueError, match="non-negative"):
            system.load_graph(graph)
        assert system.durable_lsn == 0
        assert system.num_nodes == 0
        system.load_graph(DiGraph.from_edges([(0, 1)]))
        assert system.durable_lsn == 1
    finally:
        system.close()


def test_a_self_loop_promotion_leaves_no_phantom_row():
    """The source's (T+1)-th out-edge is a self-loop: the promoted row
    must not be re-created, empty, on the module it just left."""
    graph = DiGraph.from_edges([(0, 1), (0, 2), (0, 0), (1, 0), (2, 1)])
    system = Moctopus.from_graph(graph, _config(threshold=2))
    rows = [node for storage in system._module_storages for node in storage.rows()]
    assert sorted(rows + list(system._host_storage.rows())) == [0, 1, 2]
    assert list(system._host_storage.rows()) == [0]
    for storage in system._module_storages:
        assert storage._memory.used_bytes == storage.storage_bytes
        assert all(storage.local_hops(node) <= 1 for node in storage.rows())


def test_load_transient_bytes_stay_under_the_ceiling():
    """The load's traced peak above what it retains, on the smoke graph.

    Measured 636 202 B: the graph's 6 506 edges are one chunk, so this
    is one chunk's arrays plus the node-id dict (the per-edge loop held
    one edge at a time: 832 B).  The ceiling sits ~10 % above.
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
    assert peak - retained < 700_000

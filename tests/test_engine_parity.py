"""Differential tests: the ``python`` ≡ ``vectorized`` kernels.

The execution kernels are interchangeable by contract — identical
:class:`~repro.rpq.query.BatchResult`s *and* identical simulated
statistics (time components, channel counters, per-phase PIM times,
free-form counters) on the same system state, whether an array phase
pushed or pulled.  These tests drive every engine name (``"matrix"``
is a second name for ``"vectorized"``, ``"auto"`` picks per call)
through the same randomized workloads, including
interleaved insert/delete batches that exercise the CSR snapshot
invalidation and migration passes that exercise deterministic
misplacement handling.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Moctopus, MoctopusConfig
from repro.core.hetero_storage import BYTES_PER_SLOT
from repro.core.local_storage import BYTES_PER_ENTRY
from repro.engine import ENGINE_NAMES, execute
from repro.engine.vectorized import BitsetKernel, KeysKernel
from repro.graph import DiGraph, load_dataset, power_law_graph, random_graph
from repro.paper import placed_at
from repro.pim import CostModel
from repro.rpq import KHopQuery, RPQuery, random_source_batch

from faultinject import public_rows
from model import build_snapshot_reference, placement

#: Every backend and the ``"auto"`` dispatcher; each is compared to the
#: scalar reference ``"python"``.
ENGINES = ENGINE_NAMES


def assert_snapshots_match_rebuild(system, context=""):
    """Incremental snapshots must equal from-scratch rebuilds array-for-array."""
    snapshots = system._epochs.current().snapshots
    for module_id, storage in enumerate(system._module_storages):
        snapshot = snapshots[module_id]
        reference = build_snapshot_reference(
            public_rows(storage),
            bytes_per_entry=BYTES_PER_ENTRY,
            working_set_bytes=max(storage.storage_bytes, 1),
            count_local=True,
        )
        assert snapshot.same_arrays(reference), (
            f"module {module_id} snapshot diverged from rebuild {context}"
        )
    host = system._host_storage
    snapshot = snapshots[-1]
    reference = build_snapshot_reference(
        public_rows(host),
        bytes_per_entry=BYTES_PER_SLOT,
        working_set_bytes=max(host.total_bytes(), 1),
        count_local=False,
    )
    assert snapshot.same_arrays(reference), (
        f"host snapshot diverged from rebuild {context}"
    )


def stats_fingerprint(stats):
    """Everything the paper's figures could be derived from."""
    return (
        stats.host_time,
        stats.cpc_time,
        stats.ipc_time,
        stats.pim_time,
        tuple(stats.phase_pim_times),
        stats.cpc.bytes_moved,
        stats.cpc.transfers,
        stats.ipc.bytes_moved,
        stats.ipc.transfers,
        dict(stats.counters),
    )


def build_systems(graph, system_class=Moctopus):
    """The same graph loaded into one ``system_class`` per backend."""
    systems = {}
    for engine in ENGINES:
        config = MoctopusConfig(cost_model=CostModel(num_modules=8))
        systems[engine] = system_class.from_graph(graph, config)
        systems[engine].use_engine(engine)
    return systems


def assert_equivalent(outcomes, context=""):
    """``outcomes`` maps engine name -> ``(result, stats)``; all must agree."""
    reference_result, reference_stats = outcomes["python"]
    reference_print = stats_fingerprint(reference_stats)
    for engine, (result, stats) in outcomes.items():
        assert result == reference_result, f"{engine} result mismatch {context}"
        assert stats_fingerprint(stats) == reference_print, (
            f"{engine} stats mismatch {context}"
        )


def assert_update_stats_agree(per_engine_stats, context=""):
    reference = stats_fingerprint(per_engine_stats["python"])
    for engine, stats in per_engine_stats.items():
        assert stats_fingerprint(stats) == reference, (
            f"{engine} update stats mismatch {context}"
        )


def assert_placements_agree(systems, context=""):
    reference = placement(systems["python"]._partitioner.partition_map)
    for engine, system in systems.items():
        assert placement(system._partitioner.partition_map) == reference, (
            f"{engine} placement diverged {context}"
        )


# ----------------------------------------------------------------------
# Engine selection plumbing
# ----------------------------------------------------------------------
def test_config_selects_engine():
    graph = DiGraph.from_edges([(0, 1), (1, 2)])
    system = Moctopus.from_graph(
        graph, MoctopusConfig(cost_model=CostModel(num_modules=4))
    )
    assert system.engine_name == "auto"
    assert system._query_processor.engine == "auto"
    system.use_engine("vectorized")
    assert system.engine_name == "vectorized"
    system.use_engine("matrix")
    assert system.engine_name == "matrix"
    for engine in ("python", "vectorized", "matrix"):
        built = Moctopus.from_graph(
            graph, MoctopusConfig(cost_model=CostModel(num_modules=4))
        )
        built.use_engine(engine)
        assert built.engine_name == engine
        assert built._query_processor.engine == engine


def test_config_rejects_unknown_engine():
    system = Moctopus.from_graph(
        DiGraph.from_edges([(0, 1)]),
        MoctopusConfig(cost_model=CostModel(num_modules=4)),
    )
    system.use_engine("matrix")
    for name in ("fortran", "gpu"):
        with pytest.raises(ValueError):
            system.use_engine(name)
        assert system.engine_name == "matrix"
    # The one runner checks the name too, before it charges anything.
    query = KHopQuery(hops=1, sources=[0])
    view = system._live_view()
    plan = system._query_processor.plan(query, view)
    before = system.pim.capture_lifetime()
    with pytest.raises(ValueError):
        execute("gpu", plan, query.sources, view, {})
    assert system.pim.capture_lifetime() == before


def test_create_engine_factory():
    # A kernel is a name: every name in ENGINE_NAMES runs the same plan to
    # the same answer, and any other name is refused.
    assert ENGINE_NAMES == ("auto", "python", "vectorized", "matrix")
    system = Moctopus.from_graph(
        DiGraph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)]),
        MoctopusConfig(cost_model=CostModel(num_modules=4)),
    )
    query = KHopQuery(hops=2, sources=[0, 2])
    view = system._live_view()
    plan = system._query_processor.plan(query, view)
    results = {
        name: execute(name, plan, query.sources, view, {})[0].pairs()
        for name in ENGINE_NAMES
    }
    assert results["python"] == {(0, 2), (2, 1)}  # exactly two hops
    for name, pairs in results.items():
        assert pairs == results["python"], name
    with pytest.raises(ValueError):
        execute("gpu", plan, query.sources, view, {})


# ----------------------------------------------------------------------
# Hypothesis differential suite
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    hops=st.integers(min_value=1, max_value=4),
    batch=st.integers(min_value=1, max_value=24),
)
def test_khop_parity_on_random_graphs(seed, hops, batch):
    graph = random_graph(60, 240, seed=seed)
    systems = build_systems(graph)
    sources = random_source_batch(list(graph.nodes()), batch, seed=seed)
    assert_equivalent(
        {
            engine: system.batch_khop(sources, hops)
            for engine, system in systems.items()
        },
        context=f"khop seed={seed} hops={hops}",
    )


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    expression=st.sampled_from([".{1}", ".{2}", ".{3}", ".+", ".*", ".{1,3}"]),
)
def test_rpq_parity_on_random_graphs(seed, expression):
    graph = random_graph(40, 150, seed=seed)
    systems = build_systems(graph)
    sources = random_source_batch(list(graph.nodes()), 6, seed=seed)
    query = RPQuery(expression, sources)
    assert_equivalent(
        {engine: system.execute(query) for engine, system in systems.items()},
        context=f"rpq seed={seed} expr={expression}",
    )


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_labeled_rpq_parity(seed):
    rng = random.Random(seed)
    graph = DiGraph()
    for _ in range(120):
        graph.add_edge(rng.randrange(30), rng.randrange(30), label=rng.randrange(1, 4))
    labels = {1: "a", 2: "b", 3: "c"}
    systems = {}
    for engine in ENGINES:
        config = MoctopusConfig(cost_model=CostModel(num_modules=8))
        systems[engine] = Moctopus.from_graph(graph, config, label_names=labels)
        systems[engine].use_engine(engine)
    sources = random_source_batch(list(graph.nodes()), 5, seed=seed)
    for expression in ("a/b", "(a|b)/c", "a+", "a/b*"):
        query = RPQuery(expression, sources)
        assert_equivalent(
            {engine: system.execute(query) for engine, system in systems.items()},
            context=f"labeled seed={seed} expr={expression}",
        )


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_parity_with_interleaved_updates(seed):
    """Queries ≡ across engines while inserts/deletes churn the storages.

    This is the CSR-snapshot invalidation test: every update batch
    dirties storage segments between queries (invalidating the matrix
    engine's per-snapshot transposed blocks along with the CSR arrays),
    every query may trigger post-query migrations that move whole rows,
    and every engine must keep producing identical answers, statistics
    and placement.
    """
    rng = random.Random(seed)
    graph = random_graph(50, 180, seed=seed)
    systems = build_systems(graph)
    for step in range(8):
        kind = rng.choice(["khop", "rpq", "insert", "delete"])
        if kind == "khop":
            sources = random_source_batch(list(range(60)), 6, seed=seed + step)
            hops = rng.randint(1, 3)
            assert_equivalent(
                {
                    engine: system.batch_khop(sources, hops)
                    for engine, system in systems.items()
                },
                context=f"seed={seed} step={step} khop",
            )
        elif kind == "rpq":
            sources = random_source_batch(list(range(50)), 4, seed=seed + step)
            query = RPQuery(".+", sources)
            assert_equivalent(
                {
                    engine: system.execute(query)
                    for engine, system in systems.items()
                },
                context=f"seed={seed} step={step} rpq",
            )
        elif kind == "insert":
            edges = [(rng.randrange(70), rng.randrange(70)) for _ in range(8)]
            assert_update_stats_agree(
                {
                    engine: system.insert_edges(list(edges))
                    for engine, system in systems.items()
                },
                context=f"seed={seed} step={step} insert",
            )
        else:
            existing = list(systems["python"].graph.edges())
            edges = [rng.choice(existing) for _ in range(5)] if existing else []
            assert_update_stats_agree(
                {
                    engine: system.delete_edges(list(edges))
                    for engine, system in systems.items()
                },
                context=f"seed={seed} step={step} delete",
            )
        # Placement (including post-query migrations) must stay in step.
        assert_placements_agree(systems, context=f"seed={seed} step={step}")


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_parity_with_heavy_update_batches(seed):
    """Hub-concentrated update batches ≡ across systems whatever their
    query kernel, snapshots included.

    There is one update path; batches big enough to promote sources
    mid-batch (placement of brand-new nodes, threshold crossings, ops
    that follow a promoted source to the host) must leave every system
    with the same stats and placement, and after every step each
    storage's incrementally-maintained CSR snapshot must equal a
    from-scratch rebuild array-for-array.
    """
    rng = random.Random(seed)
    graph = random_graph(50, 180, seed=seed)
    systems = build_systems(graph, placed_at(high_degree_threshold=8))
    for step in range(6):
        kind = rng.choice(["khop", "insert", "hub_insert", "delete"])
        if kind == "khop":
            sources = random_source_batch(list(range(60)), 8, seed=seed + step)
            assert_equivalent(
                {
                    engine: system.batch_khop(sources, 2)
                    for engine, system in systems.items()
                },
                context=f"seed={seed} step={step} khop",
            )
        elif kind == "insert":
            # Wide batch with a slice of brand-new node ids.
            edges = [
                (rng.randrange(90), rng.randrange(90)) for _ in range(48)
            ]
            labels = [rng.randrange(1, 4) for _ in edges]
            assert_update_stats_agree(
                {
                    engine: system.insert_edges(list(edges), labels=list(labels))
                    for engine, system in systems.items()
                },
                context=f"seed={seed} step={step} insert",
            )
        elif kind == "hub_insert":
            # Concentrate inserts on a few sources so some cross the
            # high-degree threshold mid-batch (a promotion, and the
            # source's earlier ops follow it to the host).
            hubs = [rng.randrange(70) for _ in range(3)]
            edges = [(rng.choice(hubs), rng.randrange(150)) for _ in range(40)]
            assert_update_stats_agree(
                {
                    engine: system.insert_edges(list(edges))
                    for engine, system in systems.items()
                },
                context=f"seed={seed} step={step} hub_insert",
            )
        else:
            existing = list(systems["python"].graph.edges())
            edges = [rng.choice(existing) for _ in range(16)] if existing else []
            assert_update_stats_agree(
                {
                    engine: system.delete_edges(list(edges))
                    for engine, system in systems.items()
                },
                context=f"seed={seed} step={step} delete",
            )
        assert_placements_agree(systems, context=f"seed={seed} step={step}")
        for engine, system in systems.items():
            assert_snapshots_match_rebuild(
                system, context=f"({engine} seed={seed} step={step})"
            )
    reference_edges = sorted(systems["python"].graph.edges())
    for engine, system in systems.items():
        assert sorted(system.graph.edges()) == reference_edges, engine


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------
def test_fixpoint_bound_covers_state_revisits():
    """Kleene closures whose accepting paths revisit nodes in different
    automaton states need rows x states iterations, not just rows
    (regression: a 3-cycle with ``(a/a/a/a)*`` reaches node 2 only at
    path length 8)."""
    from repro.rpq import evaluate_rpq

    graph = DiGraph()
    graph.add_edge(0, 1, label=1)
    graph.add_edge(1, 2, label=1)
    graph.add_edge(2, 0, label=1)
    labels = {1: "a"}
    query = RPQuery("(a/a/a/a)*", [0])
    reference = evaluate_rpq(graph, query, label_names=labels)
    assert reference.destinations_of(0) == {0, 1, 2}
    for engine in ENGINES:
        config = MoctopusConfig(cost_model=CostModel(num_modules=4))
        system = Moctopus.from_graph(graph, config, label_names=labels)
        system.use_engine(engine)
        result, _ = system.execute(query)
        assert result == reference, engine


def test_parity_with_wide_batches():
    """Batches past 64 rows exercise the multi-word bit-mask path of the
    numpy k-hop engines (two+ uint64 words per node)."""
    graph = random_graph(50, 200, seed=11)
    systems = build_systems(graph)
    sources = random_source_batch(list(graph.nodes()), 150, seed=11)
    for hops in (1, 3):
        assert_equivalent(
            {
                engine: system.batch_khop(sources, hops)
                for engine, system in systems.items()
            },
            context=f"wide batch hops={hops}",
        )


@pytest.mark.parametrize("kernel", [BitsetKernel, KeysKernel])
def test_push_and_pull_phases_agree_on_a_dense_graph(kernel, monkeypatch):
    """On a dense graph the array kernel pulls some phases and pushes
    others (the first hop is sparse, the later ones saturate), and every
    mix gives the scalar kernel's answers and stats."""
    rng = random.Random(7)
    graph = DiGraph()
    for _ in range(6000):
        graph.add_edge(rng.randrange(300), rng.randrange(300), label=rng.randrange(1, 4))
    labels = {1: "a", 2: "b", 3: "c"}
    systems = {}
    for engine in ENGINES:
        config = MoctopusConfig(cost_model=CostModel(num_modules=4))
        systems[engine] = placed_at(64).from_graph(graph, config, label_names=labels)
        systems[engine].use_engine(engine)
    sides = {"_push": 0, "_pull": 0}
    for side in sides:
        def counted(self, *args, side=side, produce=getattr(kernel, side)):
            sides[side] += 1
            return produce(self, *args)

        monkeypatch.setattr(kernel, side, counted)
    for batch in (32, 80):  # one and two mask words
        sources = random_source_batch(list(graph.nodes()), batch, seed=batch)
        if kernel is BitsetKernel:
            run = lambda system: system.batch_khop(sources, 3, auto_migrate=False)
        else:
            query = RPQuery(".{3}", sources)
            run = lambda system: system.execute(query, auto_migrate=False)
        assert_equivalent(
            {engine: run(system) for engine, system in systems.items()},
            context=f"dense {kernel.__name__} batch={batch}",
        )
    assert sides["_push"] > 0 and sides["_pull"] > 0, sides


@pytest.mark.parametrize("trace", [1, 8, 15])
def test_use_engine_parity_on_dataset_traces(trace):
    """One system, every kernel swapped in with ``use_engine``: the same
    state answers a 3-hop batch identically on the paper's dataset
    stand-ins (trace 8, the skewed one, keeps hubs on the host)."""
    graph = load_dataset(trace, scale=0.25)
    system = Moctopus.from_graph(
        graph, MoctopusConfig(cost_model=CostModel(num_modules=16))
    )
    sources = random_source_batch(list(graph.nodes()), 32, seed=0)
    outcomes = {}
    for engine in ENGINES:
        system.use_engine(engine)
        outcomes[engine] = system.batch_khop(sources, 3, auto_migrate=False)
    assert_equivalent(outcomes, context=f"trace #{trace}")


def test_parity_with_sparse_node_ids():
    """Huge, sparse node ids exercise the sorted-pairs owner-lookup
    fallback (a dense id-indexed vector would be gigabytes)."""
    graph = DiGraph()
    base = 10 ** 9
    for offset in range(20):
        graph.add_edge(base + offset * 7_919, base + ((offset + 1) % 20) * 7_919)
    systems = build_systems(graph)
    sources = [base, base + 7_919, base + 3]  # last one is unknown
    assert_equivalent(
        {
            engine: system.batch_khop(sources, 2)
            for engine, system in systems.items()
        },
        context="sparse ids",
    )


def test_pack_overflow_guard():
    """Node ids beyond the 64-bit packed-key range raise instead of
    silently wrapping (keys path only; k-hop masks don't pack)."""
    graph = DiGraph()
    huge = 2 ** 61
    graph.add_edge(huge, huge + 1)
    for engine in ("vectorized", "matrix"):
        config = MoctopusConfig(cost_model=CostModel(num_modules=4))
        system = Moctopus.from_graph(graph, config)
        system.use_engine(engine)
        with pytest.raises(OverflowError):
            system.execute(RPQuery(".{2}", [huge] * 8))


def test_parity_with_unknown_sources():
    graph = random_graph(30, 90, seed=3)
    systems = build_systems(graph)
    sources = [0, 424242, 5, 999999]
    assert_equivalent(
        {
            engine: system.batch_khop(sources, 2)
            for engine, system in systems.items()
        },
        context="unknown sources",
    )


def test_parity_with_negative_sources():
    """A negative source is unknown to every engine — the array kernels'
    owner lookup must not wrap it around to the end of the owner table
    and charge that node's module."""
    graph = power_law_graph(60, edges_per_node=3, seed=5)
    systems = build_systems(graph)
    for sources in ([-1, -2, -8, 3], [-60, 0], [-1]):
        assert_equivalent(
            {
                engine: system.batch_khop(sources, 2)
                for engine, system in systems.items()
            },
            context=f"negative sources {sources}",
        )


def test_parity_with_duplicate_sources():
    graph = random_graph(30, 90, seed=4)
    systems = build_systems(graph)
    sources = [1, 1, 2, 2, 1]
    assert_equivalent(
        {
            engine: system.batch_khop(sources, 3)
            for engine, system in systems.items()
        },
        context="duplicate sources",
    )


def test_parity_on_empty_batch():
    graph = random_graph(20, 50, seed=5)
    systems = build_systems(graph)
    assert_equivalent(
        {
            engine: system.batch_khop([], 2)
            for engine, system in systems.items()
        },
        context="empty batch",
    )


def test_parity_without_labor_division():
    graph = random_graph(40, 200, seed=6)
    systems = build_systems(graph, placed_at(high_degree_threshold=None))
    sources = random_source_batch(list(graph.nodes()), 12, seed=6)
    assert_equivalent(
        {
            engine: system.batch_khop(sources, 3)
            for engine, system in systems.items()
        },
        context="no labor division",
    )


def test_parity_with_migration_disabled():
    graph = random_graph(40, 200, seed=7)
    systems = build_systems(graph)
    sources = random_source_batch(list(graph.nodes()), 12, seed=7)
    for hops in (1, 2, 3):
        assert_equivalent(
            {
                engine: system.batch_khop(sources, hops, auto_migrate=False)
                for engine, system in systems.items()
            },
            context=f"migration off hops={hops}",
        )

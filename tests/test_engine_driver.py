"""One driver, one view: the structure the engine stack rests on.

* accounting lives in :mod:`repro.engine.driver` only — the backends'
  sources call nothing that charges the simulated platform;
* every kind of graph state a plan can run against is a
  :class:`~repro.engine.base.PlanView`, every backend's frontier math a
  :class:`~repro.engine.driver.Kernel`;
* a live storage and its CSR snapshot read the same through the
  :class:`~repro.core.operator_processor.RowSource` names, row for row,
  after a churn script (the scalar loop charges live and pinned rows by
  one formula, so they must agree on what a row *is*);
* engines keep nothing between calls: one instance per backend serves
  eight threads at once, bit-identically to a serial run;
* every charge of the query path — phase names, the full
  ``ExecutionStats``, the answers — equals the absolute record in
  ``tests/data/query_golden.json`` on every engine (parity alone cannot
  see a charge that moves for all kernels at once);
* there is one plan type, built in one module, and it survives pickle;
* a view's row / edge totals equal a fresh sum however it is patched.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import pickle
import random
import re
import sys
import threading

import pytest

import repro.engine
from repro.core import Moctopus, MoctopusConfig
from repro.core.hetero_storage import BYTES_PER_SLOT
from repro.core.local_storage import BYTES_PER_ENTRY
from repro.core.operator_processor import RowSource
from repro.engine import ENGINE_NAMES, Kernel, LiveView, PlanView
from repro.engine.python_engine import ScalarKernel
from repro.engine.vectorized import BitsetKernel, KeysKernel
from repro.graph import DiGraph, random_graph
from repro.graph.stream import UpdateKind, UpdateOp
from repro.parallel import attach_epoch, export_epoch
from repro.partition.base import HOST_PARTITION
from repro.pim import CostModel
from repro.pim.system import PIMSystem
from repro.rpq import RPQuery
from repro.rpq.query import KHopQuery
from repro.serve.epoch import EpochView

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
sys.path.insert(0, DATA)
import make_query_golden  # noqa: E402

LABEL_NAMES = {1: "a", 2: "b", 3: "c"}
COST_MODEL = CostModel(num_modules=4)


def build_system(graph, engine="python", **config_kwargs) -> Moctopus:
    config = MoctopusConfig(
        cost_model=COST_MODEL, engine=engine, high_degree_threshold=8,
        **config_kwargs,
    )
    return Moctopus.from_graph(graph, config, label_names=LABEL_NAMES)


def skewed_graph(seed: int = 3) -> DiGraph:
    """Dense ``a``/``b`` noise plus three rare ``c`` edges."""
    rng = random.Random(seed)
    graph = DiGraph(num_nodes=80)
    for _ in range(600):
        src, dst = rng.randrange(80), rng.randrange(80)
        if src != dst:
            graph.add_edge(src, dst, label=rng.choice([1, 1, 1, 1, 2]))
    for src, dst in [(5, 6), (10, 11), (20, 21)]:
        graph.add_edge(src, dst, label=3)
    return graph


def stats_fingerprint(stats):
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


# ----------------------------------------------------------------------
# (a) Accounting lives in the driver only
# ----------------------------------------------------------------------
CHARGING_CALLS = {
    "begin_operation", "phase", "cpc_transfer", "ipc_transfer",
    "launch_kernel", "random_accesses", "stream_bytes", "process_items",
    "add_counter", "report_misplaced",
}


@pytest.mark.parametrize(
    "module", ["python_engine.py", "vectorized.py", "matrix_engine.py"]
)
def test_backends_never_touch_the_platform(module):
    path = pathlib.Path(repro.engine.__file__).with_name(module)
    called = {
        node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, (ast.Attribute, ast.Name))
    }
    assert called, "the walk must have seen the module's calls"
    assert called & CHARGING_CALLS == set()


# ----------------------------------------------------------------------
# (b) One view protocol, one kernel protocol
# ----------------------------------------------------------------------
def test_every_graph_state_is_a_plan_view_and_every_backend_a_kernel():
    system = build_system(skewed_graph())
    processor = system._query_processor
    live = processor.live
    assert isinstance(live, LiveView) and isinstance(live, PlanView)

    with system.begin() as session:
        plain = session._view()
        assert not plain.is_patched() and isinstance(plain, PlanView)
        khop = processor.plan(KHopQuery(hops=2, sources=[0, 1]), plain)
        rpq = processor.plan(RPQuery("a/b", sources=[0, 1]), plain)
        for kernel in (
            ScalarKernel(khop, [0, 1], plain, LABEL_NAMES),
            BitsetKernel(khop, [0, 1], plain),
            KeysKernel(rpq, [0, 1], plain, LABEL_NAMES),
        ):
            assert isinstance(kernel, Kernel)

        session.insert_edges([(70, 500)], labels=[3])
        patched = session._view()
        assert patched.is_patched() and isinstance(patched, PlanView)

    epoch = system._epochs.pin()
    try:
        segment, manifest = export_epoch(epoch)
        try:
            rebuilt, mapping = attach_epoch(manifest)
            attached = EpochView(rebuilt, PIMSystem(COST_MODEL))
            assert isinstance(attached, PlanView)
            del attached, rebuilt
            mapping.close()
        finally:
            segment.close()
            segment.unlink()
    finally:
        system._epochs.unpin(epoch)


# ----------------------------------------------------------------------
# (c) Live rows and their snapshot are the same RowSource
# ----------------------------------------------------------------------
def churned_system() -> Moctopus:
    """Inserts, relabels, deletes leaving host holes, promotions and
    locality migrations on top of a loaded graph."""
    rng = random.Random(11)
    system = build_system(random_graph(60, 240, seed=5))
    nodes = list(range(60))
    for _ in range(6):
        ops, labels = [], []
        for _ in range(40):
            src, dst = rng.choice(nodes), rng.choice(nodes + [60 + rng.randrange(20)])
            ops.append(UpdateOp(UpdateKind.INSERT, src, dst))
            labels.append(rng.choice([1, 2, 3]))  # re-inserts relabel
        for src, dst in rng.sample(sorted(system.graph.edges()), 25):
            ops.append(UpdateOp(UpdateKind.DELETE, src, dst))
            labels.append(0)
        system.apply_updates(ops, labels=labels)
        # A live query reports misplaced nodes; the pass migrates them.
        system.batch_khop(rng.sample(nodes, 24), hops=2)
    statistics = system.partition_statistics()
    assert statistics["promotions"] > 0 and statistics["locality_migrations"] > 0
    host = system._host_storage
    assert any(
        len(host.next_hops(node)) < host._vectors[node].capacity
        and host._free_list_map[node]
        and host._free_list_map[node][-1] < host.row_length(node)
        for node in host.rows()
    ), "the script must leave a hole inside some host row"
    return system


def test_live_rows_and_snapshots_read_alike_after_churn():
    system = churned_system()
    storages = [*system._module_storages, system._host_storage]
    for storage in storages:
        snapshot = storage.to_csr()
        assert isinstance(storage, RowSource) and isinstance(snapshot, RowSource)
        assert storage.bytes_per_entry == snapshot.bytes_per_entry
        assert storage.working_set_bytes == snapshot.working_set_bytes
        on_module = storage is not system._host_storage
        assert storage.bytes_per_entry == (
            BYTES_PER_ENTRY if on_module else BYTES_PER_SLOT
        )
        assert sorted(storage.rows()) == snapshot.node_ids.tolist()
        # An absent row reads empty on both.
        for node in [*storage.rows(), 10_000]:
            entries = storage.row_entries(node)
            assert snapshot.row_entries(node) == entries
            assert snapshot.row_dsts(node) == storage.row_dsts(node)
            assert storage.row_dsts(node) == [dst for dst, _ in entries]
            assert storage.local_hops(node) == snapshot.local_hops(node)
            streamed = len(entries) * storage.bytes_per_entry
            if on_module:
                assert streamed == storage.row_length(node) * BYTES_PER_ENTRY
                assert storage.local_hops(node) == sum(
                    storage.has_row(dst) for dst, _ in entries
                )
            else:
                assert streamed == storage.row_bytes(node)


# ----------------------------------------------------------------------
# (d) Engines are shareable: one instance, eight threads
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ENGINE_NAMES)
def test_one_engine_instance_serves_eight_threads(name):
    system = build_system(skewed_graph())
    system.use_engine(name)
    processor = system._query_processor
    engine = processor.engine
    epoch = system._epochs.pin()
    try:
        planning_view = EpochView(epoch, PIMSystem(COST_MODEL))
        queries = [
            KHopQuery(hops=2, sources=list(range(0, 40, 3))),
            RPQuery("a/b", sources=list(range(30))),
            RPQuery("a/c", sources=list(range(40))),
            RPQuery("(a|b)*/c", sources=list(range(20))),
        ]
        plans = [processor.plan(query, planning_view) for query in queries]

        def run(index):
            # A view (and its accounting platform) per execution.
            result, stats = engine.execute(
                plans[index], queries[index].sources,
                EpochView(epoch, PIMSystem(COST_MODEL)),
            )
            return result, stats_fingerprint(stats)

        state_before = dict(vars(engine))
        serial = [run(index) for index in range(len(plans))]
        outcomes, errors = {}, []

        def worker(thread_id):
            try:
                for round_ in range(6):
                    index = (thread_id + round_) % len(plans)
                    outcomes[thread_id, round_] = (index, run(index))
            except BaseException as error:  # the test's own boundary
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(outcomes) == 48
        for index, outcome in outcomes.values():
            assert outcome == serial[index]
        assert vars(engine) == state_before
        assert all(vars(engine)[key] is value for key, value in state_before.items())
    finally:
        system._epochs.unpin(epoch)


# ----------------------------------------------------------------------
# (e) The absolute accounting record
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_query_accounting_matches_the_recorded_golden(engine):
    """``tests/data/query_golden.json`` was recorded by
    ``tests/data/make_query_golden.py`` at the last commit that lowered
    logical plans into physical op lists; the one ``Plan`` must charge
    the same phases, in the same order, to the last bit."""
    with open(os.path.join(DATA, "query_golden.json")) as handle:
        golden = json.load(handle)
    recorded = make_query_golden.record(engine)
    for mode in make_query_golden.MODES:
        assert sorted(recorded[mode]) == sorted(golden[mode])
        for name, want in golden[mode].items():
            assert recorded[mode][name] == want, (engine, mode, name)
    # The record covers what it was written for: a bulk batch through
    # the reduce, the drained-expand rule (no ``mwait``) and a
    # multi-phase fixpoint.
    pinned = golden["pinned"]
    assert pinned["rpq_fixed_bulk"]["phases"] == ["dispatch", "smxm 1", "smxm 2", "mwait"]
    assert pinned["rpq_fixed_forward"]["phases"] == ["dispatch", "smxm 1", "smxm 2"]
    assert pinned["rpq_kleene"]["phases"][1:3] == ["smxm fixpoint 1", "smxm fixpoint 2"]
    assert pinned["rpq_zero_length"]["phases"] == ["dispatch", "mwait"]
    assert golden["live"]["khop3"]["phases"][-2:] == ["mwait", "migration"]


# ----------------------------------------------------------------------
# (f) One plan type, one construction site
# ----------------------------------------------------------------------
def test_golden_plans_survive_pickle_equal():
    """The worker pool ships plans between processes as they are."""
    system = make_query_golden.build_system("python")
    processor = system._query_processor
    costed = set()
    with system.begin() as session:
        for view in (processor.live, session._view()):
            for query in make_query_golden.queries().values():
                plan = processor.plan(query, view)
                clone = pickle.loads(pickle.dumps(plan))
                assert clone == plan and clone is not plan
                assert clone.explain() == plan.explain()
                costed.add(plan.decision.cost > 0)
    assert costed == {False, True}  # live plans are uncosted, pinned ones costed
    system.close()


def test_plans_are_built_in_the_planner_module_only():
    root = pathlib.Path(repro.__file__).parent
    builders = sorted(
        str(path.relative_to(root))
        for path in root.rglob("*.py")
        if re.search(r"\bPlan\(", path.read_text())
    )
    assert builders == [os.path.join("rpq", "planner.py")]
    plan_classes = sorted(
        node.name
        for path in root.rglob("*.py")
        if "analysis" not in path.parts
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and "Plan" in node.name
    )
    assert plan_classes == ["Plan", "PlanDecision", "PlanView"]


# ----------------------------------------------------------------------
# (g) Totals: summed once per epoch, re-summed only under a patch
# ----------------------------------------------------------------------
def test_view_totals_equal_a_fresh_sum_patched_or_not():
    system = build_system(skewed_graph())

    def fresh_sum(view):
        partitions = (*range(view.epoch.num_modules), HOST_PARTITION)
        snapshots = [view.snapshot_of(partition) for partition in partitions]
        return (
            sum(snapshot.num_rows for snapshot in snapshots),
            sum(snapshot.num_edges for snapshot in snapshots),
        )

    with system.begin() as session:
        plain = session._view()
        assert plain.frozen_epoch() is plain.epoch
        totals = (plain.total_rows(), plain.total_edges())
        assert totals == fresh_sum(plain)
        assert totals == (plain.epoch.num_rows, plain.epoch.num_edges)
        live = system._query_processor.live
        assert totals == (live.total_rows(), live.total_edges())

        # Two new rows (500 and, provisionally placed, 501) and two edges.
        session.insert_edges([(500, 501), (70, 500)], labels=[1, 3])
        patched = session._view()
        assert patched.frozen_epoch() is None
        assert (patched.total_rows(), patched.total_edges()) == fresh_sum(patched)
        assert patched.total_edges() == totals[1] + 2
        assert patched.total_rows() > totals[0]
    system.close()

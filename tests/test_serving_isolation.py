"""Model-based differential tests of the snapshot-isolated serving layer.

Three layers of evidence, all against :class:`tests.model.ReferenceModel`
(a pure-python oracle sharing no code with the engines or storages):

* **seeded replay** — deterministic randomized schedules interleaving
  writer batches, live queries, and 200+ snapshot-isolated sessions per
  engine, asserting epoch isolation (a pinned session's answers never
  change while the writer advances), read-your-writes (staged updates
  are visible to their session immediately, invisible to everyone else
  until commit), and refresh/commit semantics;
* **cross-engine lockstep** — the same schedule driven through a
  ``python``-engine and a ``vectorized``-engine system side by side,
  asserting bit-identical results *and* bit-identical simulated
  statistics for every pinned execution;
* **hypothesis stateful** — a rule-based state machine that lets
  hypothesis hunt for interleavings the seeded schedules miss
  (reproduce failures with ``--hypothesis-seed``).

The batch scheduler rides the same oracle: coalesced answers must equal
the model's, and the bounded admission queue must push back when full.
"""

from __future__ import annotations

import random
import time
from itertools import chain

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from model import ReferenceModel
from repro.core import Moctopus, MoctopusConfig
from repro.graph import random_graph
from repro.paper import placed_at
from repro.partition.base import HOST_PARTITION
from repro.pim import CostModel
from repro.rpq import RPQuery
from repro.serve import SchedulerSaturated

ENGINES = ("python", "vectorized", "matrix", "auto")

#: Sessions each engine's replay sweep must exercise (acceptance bar).
MIN_SESSIONS = 200

LABEL_NAMES = {1: "a", 2: "b", 3: "c"}
RPQ_EXPRESSIONS = (".{1}", ".{2}", ".+", "a", "a/b", "(a|b)+")


def build_system(seed: int, engine: str) -> Moctopus:
    graph = random_graph(28, 90, seed=seed)
    config = MoctopusConfig(cost_model=CostModel(num_modules=4))
    system = placed_at(high_degree_threshold=8).from_graph(
        graph, config, label_names=LABEL_NAMES
    )
    system.use_engine(engine)
    return system


def build_model(seed: int) -> ReferenceModel:
    return ReferenceModel.from_digraph(random_graph(28, 90, seed=seed))


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


class SessionUnderTest:
    """One open session paired with its frozen model state."""

    def __init__(self, session, model: ReferenceModel) -> None:
        self.session = session
        self.model = model
        #: Every (query, expected answer) this session has asserted —
        #: replayed after writer batches to prove epoch isolation.
        self.history = []


def random_update_batch(rng: random.Random, model: ReferenceModel):
    """A mixed batch: known edges, brand-new nodes, deletes (some missing)."""
    inserts, deletes, labels = [], [], []
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.65 or not model.num_edges:
            src = rng.randrange(40)
            dst = rng.randrange(40)
            inserts.append((src, dst))
            labels.append(rng.choice((0, 1, 2, 3)))
        else:
            existing = model.edges()
            if existing and rng.random() < 0.8:
                deletes.append(rng.choice(existing))
            else:
                deletes.append((rng.randrange(40), rng.randrange(40)))
    return inserts, labels, deletes


def assert_session_matches_model(under_test: SessionUnderTest, rng, context):
    """Run one fresh random query on the session and check the oracle."""
    if rng.random() < 0.75:
        sources = [rng.randrange(45) for _ in range(rng.randint(1, 5))]
        hops = rng.randint(1, 3)
        result, stats = under_test.session.batch_khop(sources, hops)
        expected = under_test.model.khop(sources, hops)
        query = ("khop", tuple(sources), hops)
    else:
        sources = [rng.randrange(30) for _ in range(rng.randint(1, 3))]
        expression = rng.choice(RPQ_EXPRESSIONS)
        result, stats = under_test.session.execute(RPQuery(expression, sources))
        expected = under_test.model.rpq(expression, sources, LABEL_NAMES)
        query = ("rpq", tuple(sources), expression)
    assert result.destinations == expected, (
        f"session diverged from model {context}: {query}"
    )
    assert stats.counters.get("epoch") == under_test.session.epoch_id
    under_test.history.append((query, result.destinations))
    return stats


def replay_session_history(under_test: SessionUnderTest, context):
    """Epoch isolation: every past answer must be reproducible verbatim."""
    for query, expected in under_test.history:
        if query[0] == "khop":
            result, _ = under_test.session.batch_khop(list(query[1]), query[2])
        else:
            result, _ = under_test.session.execute(
                RPQuery(query[2], list(query[1]))
            )
        assert result.destinations == expected, (
            f"pinned session observed later writes {context}: {query}"
        )


def run_differential_schedule(seed: int, engine: str, steps: int = 26) -> int:
    """One randomized interleaved schedule; returns sessions exercised."""
    rng = random.Random(seed)
    system = build_system(seed, engine)
    model = build_model(seed)
    open_sessions: list = []
    sessions_exercised = 0

    def begin():
        nonlocal sessions_exercised
        under_test = SessionUnderTest(system.begin(), model.copy())
        open_sessions.append(under_test)
        sessions_exercised += 1

    begin()
    for step in range(steps):
        context = f"(seed={seed} step={step} engine={engine})"
        action = rng.choice(
            (
                "writer", "writer", "session_query", "session_query",
                "session_query", "begin", "session_write", "refresh",
                "commit", "live_query", "close",
            )
        )
        if action == "begin" and len(open_sessions) < 4:
            begin()
        elif action == "writer":
            inserts, labels, deletes = random_update_batch(rng, model)
            if inserts:
                system.insert_edges(list(inserts), labels=list(labels))
                for (src, dst), label in zip(inserts, labels):
                    model.insert(src, dst, label)
            if deletes:
                system.delete_edges(list(deletes))
                for src, dst in deletes:
                    model.delete(src, dst)
            # The isolation assertion: pinned answers survive the batch.
            for under_test in open_sessions:
                replay_session_history(under_test, context)
        elif action == "session_query" and open_sessions:
            assert_session_matches_model(
                rng.choice(open_sessions), rng, context
            )
        elif action == "session_write" and open_sessions:
            under_test = rng.choice(open_sessions)
            inserts, labels, deletes = random_update_batch(rng, under_test.model)
            under_test.session.insert_edges(list(inserts), labels=list(labels))
            under_test.session.delete_edges(list(deletes))
            for (src, dst), label in zip(inserts, labels):
                under_test.model.insert(src, dst, label)
            for src, dst in deletes:
                under_test.model.delete(src, dst)
            # Read-your-writes: the staged batch is immediately visible.
            under_test.history.clear()
            assert_session_matches_model(under_test, rng, context + " ryw")
        elif action == "refresh" and open_sessions:
            under_test = rng.choice(open_sessions)
            staged = list(under_test.session._ops)
            under_test.session.refresh()
            under_test.model = model.copy()
            for kind, src, dst, label in staged:
                if kind.value == "insert":
                    under_test.model.insert(src, dst, label)
                else:
                    under_test.model.delete(src, dst)
            under_test.history.clear()
            assert_session_matches_model(under_test, rng, context + " refresh")
        elif action == "commit" and open_sessions:
            under_test = rng.choice(open_sessions)
            staged = list(under_test.session._ops)
            under_test.session.commit()
            for kind, src, dst, label in staged:
                if kind.value == "insert":
                    model.insert(src, dst, label)
                else:
                    model.delete(src, dst)
            under_test.model = model.copy()
            under_test.history.clear()
            assert_session_matches_model(under_test, rng, context + " commit")
            # Committed writes are now live: other sessions still pinned.
            for other in open_sessions:
                if other is not under_test:
                    replay_session_history(other, context + " post-commit")
        elif action == "live_query":
            sources = [rng.randrange(45) for _ in range(rng.randint(1, 5))]
            hops = rng.randint(1, 3)
            result, _ = system.batch_khop(sources, hops)
            assert result.destinations == model.khop(sources, hops), (
                f"live system diverged from model {context}"
            )
        elif action == "close" and len(open_sessions) > 1:
            open_sessions.pop(rng.randrange(len(open_sessions))).session.close()
        # Writer-level state stays in lockstep with the model throughout.
        assert system.num_edges == model.num_edges, context
    for under_test in open_sessions:
        under_test.session.close()
    return sessions_exercised


# ----------------------------------------------------------------------
# Seeded replay sweep (the >= 200 sessions/engine acceptance bar)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINES)
def test_differential_replay_sweep(engine):
    sessions = 0
    seed = 0
    while sessions < MIN_SESSIONS:
        sessions += run_differential_schedule(seed, engine)
        seed += 1
    assert sessions >= MIN_SESSIONS
    assert seed >= 10, "schedules should spread across many seeds"


# ----------------------------------------------------------------------
# Cross-engine lockstep: bit-identical pinned execution
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(6))
def test_cross_engine_sessions_bit_identical(seed):
    rng = random.Random(1000 + seed)
    systems = {engine: build_system(seed, engine) for engine in ENGINES}
    sessions = {engine: systems[engine].begin() for engine in ENGINES}
    for step in range(12):
        context = f"(seed={seed} step={step})"
        action = rng.choice(("query", "query", "writer", "stage", "refresh"))
        if action == "query":
            if rng.random() < 0.7:
                sources = [rng.randrange(40) for _ in range(rng.randint(1, 6))]
                hops = rng.randint(1, 3)
                outcomes = {
                    engine: sessions[engine].batch_khop(sources, hops)
                    for engine in ENGINES
                }
            else:
                sources = [rng.randrange(30) for _ in range(rng.randint(1, 3))]
                expression = rng.choice(RPQ_EXPRESSIONS)
                outcomes = {
                    engine: sessions[engine].execute(
                        RPQuery(expression, sources)
                    )
                    for engine in ENGINES
                }
            result_py, stats_py = outcomes["python"]
            for engine in ENGINES[1:]:
                result_eng, stats_eng = outcomes[engine]
                assert result_py == result_eng, (
                    f"{engine} result mismatch {context}"
                )
                assert stats_fingerprint(stats_py) == stats_fingerprint(
                    stats_eng
                ), f"{engine} stats mismatch {context}"
        elif action == "writer":
            edges = [
                (rng.randrange(40), rng.randrange(40))
                for _ in range(rng.randint(1, 6))
            ]
            for engine in ENGINES:
                systems[engine].insert_edges(list(edges))
        elif action == "stage":
            edges = [
                (rng.randrange(45), rng.randrange(45))
                for _ in range(rng.randint(1, 4))
            ]
            for engine in ENGINES:
                sessions[engine].insert_edges(list(edges))
        else:
            epoch_ids = {
                engine: sessions[engine].refresh() for engine in ENGINES
            }
            assert len(set(epoch_ids.values())) == 1, context
    for engine in ENGINES:
        sessions[engine].close()


# ----------------------------------------------------------------------
# Scheduler: coalesced answers match the oracle; admission is bounded
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINES)
def test_scheduler_answers_match_model(engine):
    system = build_system(3, engine)
    model = build_model(3)
    # Queue all 20 before the drain starts, so coalescing does not race
    # the submissions: windows of 16 + 4, one batch per hops value each.
    with system.serve(autostart=False) as scheduler:
        futures = [
            (source, hops, scheduler.submit(source, hops))
            for source in range(10)
            for hops in (1, 2)
        ]
        scheduler._worker.start()
        for source, hops, future in futures:
            destinations, stats = future.outcome(timeout=10)
            assert destinations == model.khop([source], hops)[0], (
                f"scheduler diverged at source={source} hops={hops}"
            )
            assert stats.counters.get("coalesced_queries", 0) >= 1
        assert scheduler.queries_served == len(futures)
    # Coalescing must actually happen: far fewer batches than queries.
    assert scheduler.batches_executed < len(futures)


def test_scheduler_admission_queue_is_bounded():
    system = build_system(4, "vectorized")
    scheduler = system.serve(queue_depth=4, autostart=False)
    for source in range(4):
        scheduler.submit(source, 1)
    with pytest.raises(SchedulerSaturated):
        scheduler.submit(99, 1, block=False)
    with pytest.raises(SchedulerSaturated):
        scheduler.submit(99, 1, timeout=0.01)
    # Draining the queue un-saturates admission.
    scheduler._worker.start()
    scheduler.submit(5, 1).result(timeout=10)
    scheduler.close()


def test_scheduler_close_strands_no_future():
    """Futures enqueued around close() fail instead of blocking forever."""
    system = build_system(6, "vectorized")
    scheduler = system.serve(autostart=False)
    stranded = scheduler.submit(0, 1)
    scheduler.close(timeout=1)
    with pytest.raises(RuntimeError):
        stranded.result(timeout=1)
    with pytest.raises(RuntimeError):
        scheduler.submit(1, 1)


def test_serving_report_retires_with_epochs():
    """Per-epoch counters retire with their epoch: only live epochs report."""
    system = build_system(7, "vectorized")
    lagging = system.begin()
    lagging.batch_khop([0], 1)
    for round_id in range(9):
        system.insert_edges([(round_id, 500 + round_id)])
        with system.begin() as session:
            session.batch_khop([0], 1)
    current = system.current_epoch_id
    assert set(system.serving_report()) == {lagging.epoch_id, current}
    lagging.close()
    assert set(system.serving_report()) == {current}


def test_scheduler_sees_new_epochs():
    """Scheduled queries run on the *latest* epoch, not a stale pin."""
    system = build_system(5, "vectorized")
    model = build_model(5)
    with system.serve() as scheduler:
        before = scheduler.query(0, 1)
        assert before == model.khop([0], 1)[0]
        system.insert_edges([(0, 333)])
        model.insert(0, 333)
        after = scheduler.query(0, 1)
        assert after == model.khop([0], 1)[0]
        assert 333 in after


# ----------------------------------------------------------------------
# Pin accounting: injected failures must never leak an epoch pin
# ----------------------------------------------------------------------
def test_refresh_failure_leaks_no_pin(monkeypatch):
    """A refresh that raises while it writes the staged ops over the new
    epoch leaves the session as it was: same epoch, same staged ops,
    balanced pin counts — retention eviction stays unblocked."""
    system = build_system(21, "vectorized")
    manager = system._epochs
    session = system.begin()
    session.insert_edges([(0, 99)])
    staged_before = session.pending_updates
    epoch_before = session.epoch_id
    system.insert_edges([(1, 2)])  # make the next refresh a real move
    assert manager.pins() == 1

    from repro.core.local_storage import LocalGraphStorage

    def exploding_add_edge(self, src, dst, label=0):
        raise RuntimeError("injected rebase failure")

    monkeypatch.setattr(LocalGraphStorage, "add_edge", exploding_add_edge)
    with pytest.raises(RuntimeError, match="injected rebase"):
        session.refresh()
    assert manager.pins() == 1, "failed refresh leaked an epoch pin"
    assert session.epoch_id == epoch_before, "failed refresh moved epochs"
    assert session.pending_updates == staged_before, (
        "failed refresh lost staged updates"
    )
    monkeypatch.undo()
    # The session is still fully usable, and a successful refresh moves.
    assert session.refresh() > epoch_before
    result, _ = session.batch_khop([0], 1)
    assert 99 in result.destinations_of(0), "read-your-writes survived"
    session.close()
    assert manager.pins() == 0
    session.close()  # idempotent


def test_session_view_holds_exactly_the_rows_its_commit_publishes():
    """Staged writes follow the live update path's row rules: an insert's
    brand-new destination gets no row, and a delete of a missing edge —
    from a node with a row or from one that is placed without a row —
    writes nothing."""
    system = build_system(23, "python")
    rowless = 10**6 + 1
    system.insert_edges([(1, rowless)])  # placed, with no row

    def row_ids(view):
        partitions = (*range(view.epoch.num_modules), HOST_PARTITION)
        return sorted(
            chain.from_iterable(
                view.snapshot_of(partition).node_ids.tolist() for partition in partitions
            )
        )

    with system.begin() as session:
        assert session._epoch.owners.owner(rowless) is not None
        assert rowless not in row_ids(session._view())
        session.insert_edges([(0, 10**6)])
        session.delete_edges([(2, 10**6 + 7), (rowless, 0)])
        staged = row_ids(session._view())
        session.commit()
        assert staged == row_ids(session._view())
    assert 10**6 not in staged and rowless not in staged
    system.close()


def test_commit_failure_keeps_pins_balanced(monkeypatch):
    """A writer failure during commit leaves the session pinned exactly
    once (on its old epoch) and the staged batch intact for a retry."""
    system = build_system(22, "python")
    manager = system._epochs
    session = system.begin()
    session.insert_edges([(3, 77)])
    assert manager.pins() == 1

    def exploding_apply(ops, labels=None):
        raise RuntimeError("injected writer failure")

    monkeypatch.setattr(system, "apply_updates", exploding_apply)
    with pytest.raises(RuntimeError, match="injected writer"):
        session.commit()
    assert manager.pins() == 1, "failed commit leaked an epoch pin"
    assert session.pending_updates == 1, "failed commit dropped staged ops"
    monkeypatch.undo()
    session.commit()
    assert system.has_edge(3, 77)
    session.close()
    assert manager.pins() == 0


def test_epoch_retention_under_concurrent_churn():
    """500 threaded sessions under writer churn: pins return to zero,
    retired epochs really free their snapshot references."""
    import gc
    import threading

    from repro.serve.epoch import Epoch

    system = build_system(23, "vectorized")
    manager = system._epochs
    num_threads, per_thread = 8, 63  # 504 sessions
    errors: list = []
    stop_writer = threading.Event()

    def writer():
        round_id = 0
        while not stop_writer.is_set():
            system.insert_edges([(round_id % 40, 40 + round_id % 40)])
            round_id += 1
            time.sleep(0.001)

    def churn(thread_id: int):
        try:
            for index in range(per_thread):
                with system.begin() as session:
                    session.batch_khop([(thread_id + index) % 28], 1)
                    if index % 7 == 0:
                        session.refresh()
        except BaseException as error:  # pragma: no cover - debugging aid
            errors.append(error)

    writer_thread = threading.Thread(target=writer)
    writer_thread.start()
    threads = [
        threading.Thread(target=churn, args=(thread_id,))
        for thread_id in range(num_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    stop_writer.set()
    writer_thread.join()
    assert not errors, errors
    assert manager.pins() == 0, "churned sessions left pins behind"
    # An epoch lives exactly as long as its pins: with none open, only
    # the current epoch (if the last write was already published) is
    # retained ...
    assert len(manager.retained_ids()) <= 1
    # ... and retired epochs are actually freed, not merely unlisted:
    # no Epoch object lingers in a registry or in session scratch.
    gc.collect()
    live_epochs = [
        obj for obj in gc.get_objects() if isinstance(obj, Epoch)
    ]
    assert len(live_epochs) <= 1, (
        f"{len(live_epochs)} live Epoch objects after churn with no pins"
    )


def test_scheduler_pipelined_readers_under_writer_churn():
    """Readers keep a pipeline of futures at one scheduler while a writer
    inserts and deletes: every future resolves in time with the model's
    answer (the writer's edges are unreachable from the readers'
    sources), and no pin is left after ``close()``."""
    import threading

    system = build_system(25, "vectorized")
    model = build_model(25)
    num_readers, per_reader, depth = 4, 24, 8
    answered: list = []
    errors: list = []
    stop_writer = threading.Event()

    def writer():
        round_id = 0
        while not stop_writer.is_set():
            base = 100_000 + 64 * round_id
            edges = [(base + offset, base + offset + 1) for offset in range(32)]
            system.insert_edges(edges)
            system.delete_edges(edges[::2])
            round_id += 1
            time.sleep(0.002)

    scheduler = system.serve()

    def reader(reader_id: int):
        try:
            pending = []
            for index in range(per_reader):
                source = (reader_id * 7 + index) % 28
                pending.append((source, scheduler.submit(source, 2)))
                if len(pending) >= depth:
                    source, future = pending.pop(0)
                    answered.append((source, future.result(timeout=60)))
            for source, future in pending:
                answered.append((source, future.result(timeout=60)))
        except BaseException as error:  # pragma: no cover - debugging aid
            errors.append(error)

    writer_thread = threading.Thread(target=writer)
    writer_thread.start()
    readers = [
        threading.Thread(target=reader, args=(reader_id,))
        for reader_id in range(num_readers)
    ]
    for thread in readers:
        thread.start()
    for thread in readers:
        thread.join()
    stop_writer.set()
    writer_thread.join()
    scheduler.close()
    assert not errors, errors
    assert len(answered) == num_readers * per_reader
    for source, destinations in answered:
        assert destinations == model.khop([source], 2)[0]
    assert system._epochs.published_epochs > 1
    assert system._epochs.pins() == 0


def test_scheduler_close_is_idempotent_and_concurrent():
    """Double close, concurrent close, and close-with-queued-work all
    resolve every admitted future exactly once."""
    import threading

    system = build_system(24, "vectorized")
    scheduler = system.serve()
    futures = [scheduler.submit(source, 1) for source in range(6)]
    closers = [
        threading.Thread(target=scheduler.close) for _ in range(3)
    ]
    for thread in closers:
        thread.start()
    for thread in closers:
        thread.join()
    scheduler.close()  # and once more after the fact
    for future in futures:
        # Admitted before close: either answered (drained) or cleanly
        # failed — never stranded.
        assert future.done()
    assert system._epochs.pins() == 0


# ----------------------------------------------------------------------
# Hypothesis stateful machine (seedable interleaving search)
# ----------------------------------------------------------------------
node_ids = st.integers(min_value=0, max_value=40)
edge_lists = st.lists(
    st.tuples(node_ids, node_ids), min_size=1, max_size=5
)


class ServingMachine(RuleBasedStateMachine):
    """Random session/writer interleavings checked against the oracle."""

    engine = "python"

    def __init__(self) -> None:
        super().__init__()
        self.system = build_system(11, self.engine)
        self.model = build_model(11)
        self.sessions: list = []

    def _pick(self, index: int):
        if not self.sessions:
            return None
        return self.sessions[index % len(self.sessions)]

    @rule()
    def begin_session(self):
        if len(self.sessions) < 4:
            self.sessions.append(
                SessionUnderTest(self.system.begin(), self.model.copy())
            )

    @rule(edges=edge_lists)
    def writer_insert(self, edges):
        self.system.insert_edges(list(edges))
        for src, dst in edges:
            self.model.insert(src, dst)
        for under_test in self.sessions:
            replay_session_history(under_test, "(stateful writer_insert)")

    @rule(edges=edge_lists)
    def writer_delete(self, edges):
        self.system.delete_edges(list(edges))
        for src, dst in edges:
            self.model.delete(src, dst)
        for under_test in self.sessions:
            replay_session_history(under_test, "(stateful writer_delete)")

    @rule(
        index=st.integers(min_value=0, max_value=3),
        sources=st.lists(node_ids, min_size=1, max_size=4),
        hops=st.integers(min_value=1, max_value=3),
    )
    def session_khop(self, index, sources, hops):
        under_test = self._pick(index)
        if under_test is None:
            return
        result, _ = under_test.session.batch_khop(sources, hops)
        assert result.destinations == under_test.model.khop(sources, hops)
        under_test.history.append(
            (("khop", tuple(sources), hops), result.destinations)
        )

    @rule(index=st.integers(min_value=0, max_value=3), edges=edge_lists)
    def session_stage(self, index, edges):
        under_test = self._pick(index)
        if under_test is None:
            return
        under_test.session.insert_edges(list(edges))
        for src, dst in edges:
            under_test.model.insert(src, dst)
        under_test.history.clear()

    @rule(index=st.integers(min_value=0, max_value=3))
    def session_commit(self, index):
        under_test = self._pick(index)
        if under_test is None:
            return
        staged = list(under_test.session._ops)
        under_test.session.commit()
        for kind, src, dst, label in staged:
            if kind.value == "insert":
                self.model.insert(src, dst, label)
            else:
                self.model.delete(src, dst)
        under_test.model = self.model.copy()
        under_test.history.clear()

    @rule(index=st.integers(min_value=0, max_value=3))
    def session_refresh(self, index):
        under_test = self._pick(index)
        if under_test is None:
            return
        staged = list(under_test.session._ops)
        under_test.session.refresh()
        under_test.model = self.model.copy()
        for kind, src, dst, label in staged:
            if kind.value == "insert":
                under_test.model.insert(src, dst, label)
            else:
                under_test.model.delete(src, dst)
        under_test.history.clear()

    @rule(index=st.integers(min_value=0, max_value=3))
    def close_session(self, index):
        under_test = self._pick(index)
        if under_test is None:
            return
        under_test.session.close()
        self.sessions.remove(under_test)

    def teardown(self):
        for under_test in self.sessions:
            under_test.session.close()
        assert self.system.num_edges == self.model.num_edges


class ServingMachinePython(ServingMachine):
    engine = "python"


class ServingMachineVectorized(ServingMachine):
    engine = "vectorized"


TestServingMachinePython = ServingMachinePython.TestCase
TestServingMachinePython.settings = settings(
    max_examples=10, stateful_step_count=16, deadline=None
)
TestServingMachineVectorized = ServingMachineVectorized.TestCase
TestServingMachineVectorized.settings = settings(
    max_examples=10, stateful_step_count=16, deadline=None
)

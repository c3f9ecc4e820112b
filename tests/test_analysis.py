"""Tests of the ``repro.analysis`` subsystem.

Three layers:

* lint framework — finding identity, inline ``# repro: noqa`` handling,
  baseline load/cover/update round-trips, the CLI exit contract;
* the project rules REP001-REP006 — for each rule a fixture snippet the
  rule must flag and close negative variants it must stay quiet on
  (every positive test fails if its rule is disabled or removed from
  the registry);
* the runtime lock-order checker — a constructed ABBA cycle is
  *reported* without any thread deadlocking, hazards fire for
  join/blocking-queue-ops under a lock, Condition/Event semantics
  survive instrumentation, and the real scheduler/server ``close()``
  paths produce zero hazards and zero cycles (the regression tests for
  the join-under-``_close_lock`` bug this PR fixes).
"""

from __future__ import annotations

import asyncio
import gc
import sys
import textwrap
import threading
import time
import weakref

import pytest

from repro.analysis import Baseline, Finding, LintRunner
from repro.analysis import lockcheck
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.lockcheck import InstrumentedLock, lock_order_checker
from repro.analysis.rules import all_rules, rule_by_id
from repro.core import MoctopusConfig
from repro.graph import random_graph
from repro.net import MoctopusClient, MoctopusServer
from repro.paper import placed_at
from repro.pim import CostModel
from repro.serve import BatchScheduler


def lint(rule_id, source, relpath="src/repro/sample.py"):
    """Run exactly one rule over a dedented snippet."""
    runner = LintRunner(rules=[rule_by_id(rule_id)])
    return runner.check_source(textwrap.dedent(source), relpath)


def lint_all(source, relpath="src/repro/sample.py"):
    runner = LintRunner(rules=all_rules())
    return runner.check_source(textwrap.dedent(source), relpath)


@pytest.fixture(scope="module")
def system():
    graph = random_graph(24, 80, seed=3)
    config = MoctopusConfig(cost_model=CostModel(num_modules=4))
    return placed_at(high_degree_threshold=8).from_graph(graph, config)


# ----------------------------------------------------------------------
# Framework: findings, noqa, baseline
# ----------------------------------------------------------------------
class TestFramework:
    def test_finding_key_is_line_number_free(self):
        a = Finding("REP001", "a.py", 10, "m", "h", scope="C.f", detail="d")
        b = Finding("REP001", "a.py", 99, "m2", "h", scope="C.f", detail="d")
        assert a.key() == b.key()

    def test_inline_noqa_suppresses_only_named_rule(self):
        source = """
        def flush(self):
            with self._cache_lock:
                snapshot = deepcopy(self._cache)  # repro: noqa REP001 — bench-only path
        """
        assert lint("REP001", source) == []
        # Same snippet without the noqa: the rule fires.
        assert lint("REP001", source.replace("# repro: noqa REP001 — bench-only path", ""))
        # A noqa for a different rule does not cover REP001.
        other = source.replace("REP001 —", "REP003 —")
        assert lint("REP001", other)

    def test_noqa_on_comment_line_covers_next_code_line(self):
        source = """
        def flush(self):
            with self._cache_lock:
                # repro: noqa REP001 — long justification sits on its own line
                snapshot = deepcopy(self._cache)
        """
        assert lint("REP001", source) == []

    def test_baseline_covers_by_key_and_keeps_justification(self):
        finding = Finding(
            "REP001", "a.py", 10, "m", "h", scope="C.f", detail="d"
        )
        empty = Baseline()
        assert not empty.covers(finding)
        updated = Baseline.from_findings([finding], empty)
        assert updated.covers(finding)
        # Re-deriving from findings preserves a hand-written justification.
        updated.entries[0]["justification"] = "deliberate: benchmark path"
        rebuilt = Baseline.from_findings([finding], Baseline(updated.entries))
        assert rebuilt.entries[0]["justification"] == "deliberate: benchmark path"

    def test_baseline_round_trip(self, tmp_path):
        finding = Finding(
            "REP002", "b.py", 3, "m", "h", scope="S.refresh", detail="pin"
        )
        baseline = Baseline.from_findings([finding], Baseline())
        path = str(tmp_path / "baseline.json")
        baseline.save(path)
        loaded = Baseline.load(path)
        assert loaded.covers(finding)
        assert Baseline.load(str(tmp_path / "missing.json")).entries == []

    def test_cli_exit_codes(self, tmp_path, capsys):
        dirty = tmp_path / "pkg"
        dirty.mkdir()
        (dirty / "mod.py").write_text(
            textwrap.dedent(
                """
                def close(self):
                    with self._close_lock:
                        self._worker.join()
                """
            )
        )
        baseline = str(tmp_path / "baseline.json")
        # Finding, no baseline -> exit 1.
        assert analysis_main([str(dirty), "--baseline", baseline]) == 1
        capsys.readouterr()
        # Accept it into the baseline -> exit 0 afterwards.
        assert analysis_main(
            [str(dirty), "--baseline", baseline, "--update-baseline"]
        ) == 0
        capsys.readouterr()
        assert analysis_main([str(dirty), "--baseline", baseline]) == 0
        # --no-baseline reports it again.
        assert analysis_main(
            [str(dirty), "--baseline", baseline, "--no-baseline"]
        ) == 1
        capsys.readouterr()
        # Nonexistent path -> exit 2.
        assert analysis_main([str(tmp_path / "nope")]) == 2

    def test_cli_json_format(self, tmp_path, capsys):
        import json as json_module

        dirty = tmp_path / "pkg"
        dirty.mkdir()
        (dirty / "mod.py").write_text(
            "def f(self):\n    with self._lock:\n        self._worker.join()\n"
        )
        assert analysis_main(
            [str(dirty), "--format", "json", "--no-baseline"]
        ) == 1
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["files_checked"] == 1
        assert payload["findings"][0]["rule"] == "REP001"
        assert payload["findings"][0]["line"] == 3


# ----------------------------------------------------------------------
# REP001 — no blocking calls while holding a lock
# ----------------------------------------------------------------------
class TestRep001:
    def test_flags_join_under_lock(self):
        findings = lint(
            "REP001",
            """
            def close(self):
                with self._close_lock:
                    self._worker.join(timeout)
            """,
        )
        assert [f.rule for f in findings] == ["REP001"]
        assert findings[0].scope == "close"
        assert "join" in findings[0].detail

    def test_flags_blocking_queue_and_deepcopy_and_wait(self):
        findings = lint(
            "REP001",
            """
            def drain(self):
                with self._lock:
                    item = self.task_queue.get()
                    payload = deepcopy(item)
                    self._done_event.wait()
            """,
        )
        assert len(findings) == 3

    def test_release_then_act_is_clean(self):
        # The false-positive guard: blocking call AFTER the lock body
        # exits (the fixed close() shape) must not be flagged.
        findings = lint(
            "REP001",
            """
            def close(self):
                with self._close_lock:
                    self._closed = True
                self._worker.join(timeout)
                self.task_queue.put(None)
            """,
        )
        assert findings == []

    def test_nonblocking_variants_are_clean(self):
        findings = lint(
            "REP001",
            """
            def poke(self):
                with self._lock:
                    self.task_queue.put_nowait(None)
                    self.task_queue.put(None, block=False)
                    item = self.task_queue.get(timeout=0)
            """,
        )
        assert findings == []

    def test_nested_function_defined_under_lock_is_clean(self):
        findings = lint(
            "REP001",
            """
            def schedule(self):
                with self._lock:
                    def _later():
                        self._worker.join()
                    self._callbacks.append(_later)
            """,
        )
        assert findings == []

    def test_non_lock_with_is_ignored(self):
        findings = lint(
            "REP001",
            """
            def dump(self):
                with open(self.path) as handle:
                    self._worker.join()
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# REP002 — pins released on all paths
# ----------------------------------------------------------------------
class TestRep002:
    def test_flags_unpaired_pin(self):
        findings = lint(
            "REP002",
            """
            def refresh(self):
                epoch = self.manager.pin()
                self.rebase(epoch)
                self.manager.unpin(epoch)
            """,
        )
        assert [f.rule for f in findings] == ["REP002"]
        assert findings[0].scope == "refresh"

    def test_try_finally_is_clean(self):
        findings = lint(
            "REP002",
            """
            def execute(self):
                epoch = self.manager.pin()
                try:
                    return self.run(epoch)
                finally:
                    self.manager.unpin(epoch)
            """,
        )
        assert findings == []

    def test_except_rollback_is_clean(self):
        findings = lint(
            "REP002",
            """
            def swap(self):
                epoch = self.manager.pin()
                try:
                    self.rebase(epoch)
                except Exception:
                    self.manager.unpin(epoch)
                    raise
            """,
        )
        assert findings == []

    def test_pin_only_ownership_escape_is_clean(self):
        findings = lint(
            "REP002",
            """
            def __init__(self, manager):
                self.epoch = manager.pin()
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# REP003 — durable bytes funnel through wal_write/fsync_directory
# ----------------------------------------------------------------------
class TestRep003:
    DURABILITY = "src/repro/durability/extra.py"

    def test_flags_raw_write_and_fsync_in_durability(self):
        findings = lint(
            "REP003",
            """
            import os

            def checkpoint(handle, payload):
                handle.write(payload)
                os.fsync(handle.fileno())
            """,
            relpath=self.DURABILITY,
        )
        assert len(findings) == 2
        assert all(f.rule == "REP003" for f in findings)

    def test_funnel_functions_themselves_are_exempt(self):
        findings = lint(
            "REP003",
            """
            import os

            def wal_write(handle, payload):
                handle.write(payload)

            def fsync_directory(path):
                fd = os.open(path, os.O_RDONLY)
                os.fsync(fd)
            """,
            relpath=self.DURABILITY,
        )
        assert findings == []

    def test_rule_is_scoped_to_durability_files(self):
        findings = lint(
            "REP003",
            """
            def dump(handle, payload):
                handle.write(payload)
            """,
            relpath="src/repro/serve/dump.py",
        )
        assert findings == []


# ----------------------------------------------------------------------
# REP004 — no in-place mutation of frozen snapshot arrays
# ----------------------------------------------------------------------
class TestRep004:
    def test_flags_subscript_store_into_snapshot(self):
        findings = lint(
            "REP004",
            """
            def tamper(heap):
                dsts = heap.column("dsts")
                dsts[0] = 1
            """,
        )
        assert [f.rule for f in findings] == ["REP004"]

    def test_flags_mutator_on_attribute_of_snapshot(self):
        findings = lint(
            "REP004",
            """
            def tamper(manager):
                snap = manager.snapshot_of(3)
                indptr = snap.indptr
                indptr.sort()
            """,
        )
        assert [f.rule for f in findings] == ["REP004"]

    def test_flags_out_kwarg_into_snapshot(self):
        findings = lint(
            "REP004",
            """
            def reduce(heap, np):
                degrees = heap.column("degrees")
                np.cumsum(degrees, out=degrees)
            """,
        )
        assert [f.rule for f in findings] == ["REP004"]

    def test_copy_clears_taint(self):
        findings = lint(
            "REP004",
            """
            def safe(heap):
                dsts = heap.column("dsts")
                dsts = dsts.copy()
                dsts[0] = 1
                dsts.sort()
            """,
        )
        assert findings == []

    def test_flags_mutation_through_the_heap_accessors(self):
        findings = lint(
            "REP004",
            """
            def tamper(heap):
                heap.segment(0).dsts[0] = 1
                segment = heap.segment(1)
                segment.labels.sort()
                arrays = heap.arrays()
                arrays["indptr"][1:] += 1
                fresh = heap.segment(2).dsts.copy()
                fresh[0] = 1
            """,
        )
        assert [f.rule for f in findings] == ["REP004"] * 3
        assert "segment()" in findings[0].message

    def test_untainted_arrays_are_clean(self):
        findings = lint(
            "REP004",
            """
            def build(self, np):
                scratch = np.zeros(16)
                scratch[0] = 1
                scratch.sort()
            """,
        )
        assert findings == []

    def test_flags_mutation_of_a_results_csr_pair(self):
        findings = lint(
            "REP004",
            """
            def tamper(session, query, np):
                result, stats = session.execute(query)
                result.indices[0] = 1
                result.indptr += 1
                offsets = result.indptr
                offsets.sort()
                np.cumsum(stats.sizes, out=result.indptr[1:])
            """,
        )
        assert [f.rule for f in findings] == ["REP004"] * 4
        assert "result.indices" in findings[0].message

    def test_building_and_copying_a_csr_pair_is_clean(self):
        findings = lint(
            "REP004",
            """
            class Holder:
                def __init__(self, indptr, indices):
                    self.indptr = indptr
                    self.indices = indices

            def widen(result, np):
                indptr = np.zeros(8)
                np.cumsum(result.counts, out=indptr[1:])
                indices = result.indices.copy()
                indices[0] = 1
                indices.sort()
            """,
        )
        assert findings == []

    def test_flags_mutators_on_a_systems_graph_view(self):
        findings = lint(
            "REP004",
            """
            def tamper(system, recovered):
                system.graph.add_edge(1, 2)
                view = recovered.graph
                view.remove_edge(1, 2)
                self.system.graph.add_node(9)
            """,
        )
        assert [f.rule for f in findings] == ["REP004"] * 3
        assert "system.graph" in findings[0].message
        assert "add_edge" in findings[0].detail

    def test_reading_and_copying_a_graph_view_is_clean(self):
        findings = lint(
            "REP004",
            """
            def inspect(system, graph):
                edges = list(system.graph.edges())
                scratch = system.graph.copy()
                scratch.add_edge(1, 2)
                graph.add_edge(3, 4)
                view = system.graph
                view = view.copy()
                view.remove_edge(1, 2)
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# REP005 — no blocking calls on the event loop (net/ only)
# ----------------------------------------------------------------------
class TestRep005:
    NET = "src/repro/net/sample.py"

    def test_flags_blocking_get_in_async_def(self):
        findings = lint(
            "REP005",
            """
            async def answer(self):
                frame = self.reply_queue.get()
            """,
            relpath=self.NET,
        )
        assert [f.rule for f in findings] == ["REP005"]
        assert "answer" in findings[0].detail

    def test_flags_scheduler_close_and_gate_outcome(self):
        findings = lint(
            "REP005",
            """
            async def shutdown(self):
                payload = self.gate.outcome(timeout=5)
                self.scheduler.close()
            """,
            relpath=self.NET,
        )
        assert len(findings) == 2

    def test_nested_sync_def_is_clean(self):
        # A callback body defined inside the coroutine runs wherever it
        # is invoked (scheduler thread, call_soon_threadsafe), not on
        # the awaiting path — the shipped `_transfer` shape.
        findings = lint(
            "REP005",
            """
            async def answer(self, gate):
                def _transfer():
                    return gate.outcome()
                gate.add_done_callback(_transfer)
            """,
            relpath=self.NET,
        )
        assert findings == []

    def test_asyncio_primitives_are_clean(self):
        findings = lint(
            "REP005",
            """
            async def drain(self, tasks):
                await asyncio.wait(tasks)
                await asyncio.get_running_loop().run_in_executor(
                    None, self.scheduler.close
                )
            """,
            relpath=self.NET,
        )
        assert findings == []

    def test_rule_is_scoped_to_net_files(self):
        findings = lint(
            "REP005",
            """
            async def answer(self):
                frame = self.reply_queue.get()
            """,
            relpath="src/repro/serve/sample.py",
        )
        assert findings == []


# ----------------------------------------------------------------------
# REP006 — no unordered set iteration feeding stats/wire sinks
# ----------------------------------------------------------------------
class TestRep006:
    def test_flags_set_iteration_feeding_counter(self):
        findings = lint(
            "REP006",
            """
            def publish(self, stats):
                pending = {1, 2, 3}
                for item in pending:
                    stats.add_counter("served", item)
            """,
        )
        assert [f.rule for f in findings] == ["REP006"]

    def test_flags_set_call_and_set_algebra(self):
        findings = lint(
            "REP006",
            """
            def emit(self, conn, frontier, visited):
                frontier = set(frontier)
                visited = set(visited)
                for node in frontier | visited:
                    conn.send(node)
            """,
        )
        assert [f.rule for f in findings] == ["REP006"]

    def test_sorted_iteration_is_clean(self):
        findings = lint(
            "REP006",
            """
            def publish(self, stats):
                pending = {1, 2, 3}
                for item in sorted(pending):
                    stats.add_counter("served", item)
            """,
        )
        assert findings == []

    def test_list_iteration_and_sinkless_loops_are_clean(self):
        findings = lint(
            "REP006",
            """
            def tally(self, stats):
                pending = [1, 2, 3]
                for item in pending:
                    stats.add_counter("served", item)
                seen = {4, 5}
                total = 0
                for item in seen:
                    total += item
                return total
            """,
        )
        assert findings == []


class TestRep007:
    SERVE = "src/repro/serve/sample.py"

    def test_flags_every_import_form_outside_the_paper_package(self):
        findings = lint(
            "REP007",
            """
            import repro.paper
            from repro.paper.runner import build_systems
            from repro import graph, paper

            def lazy():
                from repro.paper import PIMHashSystem
                return PIMHashSystem
            """,
            relpath=self.SERVE,
        )
        assert [f.detail for f in findings] == [
            "imports repro.paper",
            "imports repro.paper.runner",
            "imports repro.paper",
            "imports repro.paper",
        ]
        assert findings[3].scope == "lazy"

    def test_the_paper_package_imports_itself(self):
        findings = lint(
            "REP007",
            """
            from repro.paper.workloads import khop_workload
            import repro.paper.report
            """,
            relpath="src/repro/paper/runner.py",
        )
        assert findings == []

    def test_neighbouring_names_are_clean(self):
        findings = lint(
            "REP007",
            """
            import repro.papers
            from repro.partition import HashPartitioner
            from repro import pim
            """,
            relpath=self.SERVE,
        )
        assert findings == []

    def test_the_source_tree_keeps_the_boundary(self):
        """Nothing under ``src/`` outside ``repro.paper`` imports it."""
        import pathlib

        import repro

        package = pathlib.Path(repro.__file__).parent
        runner = LintRunner([rule_by_id("REP007")], root=str(package.parent.parent))
        report = runner.run([str(package)])
        assert report.files_checked > 80
        assert [finding.render() for finding in report.findings] == []


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_seven_rules_registered(self):
        ids = [rule.rule_id for rule in all_rules()]
        assert ids == [
            "REP001", "REP002", "REP003", "REP004", "REP005", "REP006", "REP007"
        ]

    def test_rule_by_id_rejects_unknown(self):
        with pytest.raises(KeyError):
            rule_by_id("REP999")

    def test_default_runner_uses_full_registry(self):
        findings = lint_all(
            """
            def close(self):
                with self._close_lock:
                    self._worker.join()
            """
        )
        assert [f.rule for f in findings] == ["REP001"]


# ----------------------------------------------------------------------
# Runtime lock-order checker
# ----------------------------------------------------------------------
class TestLockcheck:
    def test_abba_cycle_is_reported_without_deadlocking(self):
        # Single thread, sequential acquisitions: nothing can deadlock,
        # yet the opposite orders are exactly what would deadlock two
        # interleaving threads — the checker must report the cycle.
        with lock_order_checker() as checker:
            lock_a = threading.Lock()
            lock_b = threading.Lock()
            with lock_a:
                with lock_b:
                    pass
            with lock_b:
                with lock_a:
                    pass
        cycles = checker.cycles()
        assert len(cycles) == 1
        assert len(cycles[0]) == 3  # A -> B -> A, by creation site
        assert "POTENTIAL DEADLOCKS" in checker.report()

    def test_contended_abba_with_timeouts_is_detected(self):
        # The fully contended interleaving: each thread holds what the
        # other wants, so neither nested acquire ever SUCCEEDS — edges
        # must be recorded at blocking-attempt time or this exact
        # demonstration of the deadlock leaves no trace in the graph.
        with lock_order_checker() as checker:
            lock_a = threading.Lock()
            lock_b = threading.Lock()
            barrier = threading.Barrier(2)

            def first():
                with lock_a:
                    barrier.wait()
                    if lock_b.acquire(timeout=0.2):
                        lock_b.release()

            def second():
                with lock_b:
                    barrier.wait()
                    if lock_a.acquire(timeout=0.2):
                        lock_a.release()

            threads = [
                threading.Thread(target=first),
                threading.Thread(target=second),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        assert len(checker.cycles()) == 1

    def test_consistent_order_has_no_cycle(self):
        with lock_order_checker() as checker:
            lock_a = threading.Lock()
            lock_b = threading.Lock()
            for _ in range(3):
                with lock_a:
                    with lock_b:
                        pass
        assert checker.cycles() == []
        assert checker.edge_count() == 1
        assert "no lock-order cycles" in checker.report()

    def test_join_under_lock_is_a_hazard(self):
        # The shape of the bug this PR fixes in BatchScheduler.close /
        # MoctopusServer.close: joining a worker while holding the lock.
        with lock_order_checker() as checker:
            lock = threading.Lock()
            worker = threading.Thread(target=time.sleep, args=(0.01,))
            worker.start()
            with lock:
                worker.join()
        kinds = [hazard.kind for hazard in checker.hazards]
        assert any(kind.startswith("Thread.join") for kind in kinds)
        assert "HAZARDS" in checker.report()

    def test_join_outside_lock_is_clean(self):
        with lock_order_checker() as checker:
            lock = threading.Lock()
            worker = threading.Thread(target=time.sleep, args=(0.01,))
            worker.start()
            with lock:
                closed = True
            worker.join()
        assert checker.hazards == []

    def test_blocking_queue_ops_under_lock_are_hazards(self):
        import queue

        with lock_order_checker() as checker:
            lock = threading.Lock()
            unbounded = queue.Queue()
            bounded = queue.Queue(maxsize=1)
            unbounded.put("item")
            with lock:
                unbounded.get()          # blocking get: hazard
                bounded.put("x")         # bounded put: hazard
            with lock:
                unbounded.put("y")       # unbounded put: cannot block
                unbounded.get_nowait()   # non-blocking get
        kinds = [hazard.kind for hazard in checker.hazards]
        assert kinds.count("Queue.get(block=True)") == 1
        assert kinds.count("Queue.put(block=True)") == 1

    def test_event_and_condition_survive_instrumentation(self):
        with lock_order_checker():
            event = threading.Event()
            results = []

            def waiter():
                event.wait(timeout=5)
                results.append("woke")

            thread = threading.Thread(target=waiter)
            thread.start()
            event.set()
            thread.join(timeout=5)
        assert results == ["woke"]

    def test_graph_nodes_outlive_their_owners(self):
        # The graph is keyed by id(): a dropped lock whose address a
        # later lock reused would merge two nodes and fake a cycle.
        with lock_order_checker() as checker:
            outer, inner = threading.Lock(), threading.Lock()
            with outer:
                with inner:
                    pass
            probe = weakref.ref(outer)
            del outer, inner
            gc.collect()
            assert probe() is not None
        assert checker.cycles() == []

    def test_rlock_reentrancy_is_not_a_self_edge(self):
        with lock_order_checker() as checker:
            rlock = threading.RLock()
            with rlock:
                with rlock:
                    pass
        assert checker.cycles() == []
        assert checker.edge_count() == 0

    def test_install_is_exclusive_and_uninstall_restores(self):
        with lock_order_checker():
            assert isinstance(threading.Lock(), InstrumentedLock)
            with pytest.raises(RuntimeError):
                lockcheck.install()
        assert lockcheck.active_checker() is None
        assert not isinstance(threading.Lock(), InstrumentedLock)


# ----------------------------------------------------------------------
# Regression: close() paths under the lock-order checker
# ----------------------------------------------------------------------
class TestCloseRegression:
    """Red on the pre-fix tree: the old ``close()`` joined its worker
    while holding ``_close_lock``, which the checker records as a
    ``Thread.join`` hazard.  The fixed mark-under-lock / join-outside
    shape must produce zero hazards and zero cycles — including when
    several closers race."""

    def _join_hazards(self, checker):
        return [
            hazard
            for hazard in checker.hazards
            if hazard.kind.startswith("Thread.join")
        ]

    def test_scheduler_concurrent_close_is_hazard_free(self, system):
        with lock_order_checker() as checker:
            scheduler = BatchScheduler(system)
            assert scheduler.query(0, 2) == set(
                system.batch_khop(sources=[0], hops=2)[0].destinations_of(0)
            )
            closers = [
                threading.Thread(target=scheduler.close) for _ in range(3)
            ]
            for thread in closers:
                thread.start()
            for thread in closers:
                thread.join(timeout=15)
            assert not any(thread.is_alive() for thread in closers)
        assert self._join_hazards(checker) == []
        assert checker.cycles() == []

    def test_server_concurrent_close_is_hazard_free(self, system):
        with lock_order_checker() as checker:
            scheduler = BatchScheduler(system)
            server = MoctopusServer(
                system, scheduler=scheduler, port=0
            ).start()
            try:
                with MoctopusClient("127.0.0.1", server.port) as cli:
                    cli.khop(0, 2, timeout=10)
                assert self._race_closers(server) == []
            finally:
                server.close()
                scheduler.close()
        assert self._join_hazards(checker) == []
        assert checker.cycles() == []

    @staticmethod
    def _closer(server, errors):
        """A thread target closing ``server``; what escapes ``close()``
        lands in ``errors`` instead of the thread's excepthook."""

        def close():
            try:
                server.close()
            except BaseException as error:  # the test's own boundary
                errors.append(error)

        return close

    def _race_closers(self, server, closers=2):
        """Close ``server`` from ``closers`` threads at once; return the
        exceptions that escaped ``close()``."""
        errors = []
        threads = [
            threading.Thread(target=self._closer(server, errors))
            for _ in range(closers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)
        assert not any(thread.is_alive() for thread in threads)
        return errors

    def test_server_two_closer_stress(self, system):
        # The second closer used to signal a loop the first closer's
        # shutdown had already closed ("Event loop is closed" out of
        # close()) whenever it took the lock between loop.close() and
        # the loop thread's exit: 1-3 rounds in 200 before the fix.
        scheduler = BatchScheduler(system)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(200):
                server = MoctopusServer(
                    system, scheduler=scheduler, port=0
                ).start()
                assert self._race_closers(server) == []
        finally:
            sys.setswitchinterval(interval)
            scheduler.close()

    def test_server_late_closer_never_signals_a_closed_loop(
        self, system, monkeypatch
    ):
        # The same race with the window held open: the loop thread
        # lingers after loop.close() until the test releases it, and a
        # second closer arrives exactly then.
        loop_closed = threading.Event()
        release = threading.Event()
        new_event_loop = asyncio.new_event_loop

        def lingering_loop():
            loop = new_event_loop()
            close = loop.close

            def close_then_linger():
                close()
                loop_closed.set()
                release.wait(10)

            loop.close = close_then_linger
            return loop

        monkeypatch.setattr(asyncio, "new_event_loop", lingering_loop)
        scheduler = BatchScheduler(system)
        server = MoctopusServer(system, scheduler=scheduler, port=0).start()
        monkeypatch.undo()
        errors = []
        first = threading.Thread(target=self._closer(server, errors))
        late = threading.Thread(target=self._closer(server, errors))
        try:
            first.start()
            assert loop_closed.wait(10)
            late.start()
            late.join(timeout=0.2)  # pre-fix it has raised by now
        finally:
            release.set()
            first.join(timeout=20)
            late.join(timeout=20)
            scheduler.close()
        assert not first.is_alive() and not late.is_alive()
        assert errors == []

    def test_shutdown_async_keeps_loop_responsive(self, system):
        # REP005 regression: shutdown_async offloads the scheduler's
        # blocking close() to the executor, so other tasks on the loop
        # keep ticking through the drain.  Before the fix the heartbeat
        # would freeze for the whole close.
        async def scenario():
            server = await MoctopusServer(system, port=0).start_async()
            original_close = server.scheduler.close

            def slow_close(timeout=5.0):
                time.sleep(0.5)
                original_close(timeout)

            server.scheduler.close = slow_close
            ticks = []

            async def heartbeat():
                while True:
                    ticks.append(time.monotonic())
                    await asyncio.sleep(0.05)

            beat = asyncio.create_task(heartbeat())
            await asyncio.sleep(0.1)
            await server.shutdown_async(drain_timeout=5)
            beat.cancel()
            return ticks

        ticks = asyncio.run(scenario())
        # 0.5s of blocking close at a 0.05s cadence: the loop must have
        # ticked through it many times, not frozen.
        assert len(ticks) >= 6
        gaps = [b - a for a, b in zip(ticks, ticks[1:])]
        assert max(gaps) < 0.45, "event loop froze during shutdown_async"

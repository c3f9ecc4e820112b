"""The Moctopus system facade.

:class:`Moctopus` wires every component together — the simulated PIM
platform, the graph partitioner and node migrator, per-module local
graph storage, the host's heterogeneous storage for high-degree nodes,
and the query/update processors — behind a small public API:

.. code-block:: python

    from repro import Moctopus, MoctopusConfig
    from repro.graph import load_dataset

    graph = load_dataset("web-Google")
    system = Moctopus.from_graph(graph)

    result, stats = system.batch_khop(sources=[0, 1, 2], hops=2)
    print(result.destinations_of(0), stats.total_time_ms)

    insert_stats = system.insert_edges([(10, 42), (42, 99)])
    delete_stats = system.delete_edges([(10, 42)])

Every call that touches the simulated hardware returns an
:class:`~repro.pim.stats.ExecutionStats` with the host/CPC/IPC/PIM time
breakdown; the benchmark harness feeds those straight into the paper's
figures.
"""

from __future__ import annotations

import threading
from itertools import chain
from operator import attrgetter
from typing import TYPE_CHECKING, BinaryIO, Dict, Iterable, List, NoReturn, Optional, Tuple

import numpy as np

from repro.checks import require_int64s, require_labels
from repro.core.bulk_load import bulk_load
from repro.core.config import MoctopusConfig
from repro.core.graph_view import StoredGraphView
from repro.core.hetero_storage import HeterogeneousGraphStorage
from repro.core.local_storage import LocalGraphStorage
from repro.core.node_migrator import MIGRATION_CAPACITY_FACTOR, NodeMigrator
from repro.core.query_processor import QueryProcessor
from repro.core.update_processor import UpdateProcessor
from repro.graph.digraph import ReadableGraph
from repro.graph.stream import UpdateKind, UpdateOp, edge_table, require_loadable
from repro.partition.base import StreamingPartitioner
from repro.partition.labor_division import (
    DEFAULT_HIGH_DEGREE_THRESHOLD,
    LaborDivisionPartitioner,
)
from repro.partition.metrics import PartitionQuality, evaluate_partition
from repro.partition.radical_greedy import DEFAULT_CAPACITY_FACTOR, RadicalGreedyPartitioner
from repro.pim.stats import ExecutionStats
from repro.pim.system import PIMSystem
from repro.rpq.planner import cost_plan
from repro.rpq.query import BatchResult, KHopQuery

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.durability import DurabilityController
    from repro.net.server import MoctopusServer
    from repro.serve.epoch import EpochView
    from repro.serve.scheduler import BatchScheduler
    from repro.serve.session import Session

#: What :meth:`Moctopus.close` deletes: every attribute that reaches
#: graph state.  Reading one afterwards lands in ``Moctopus.__getattr__``,
#: the one place the closed error is raised.
_RELEASED_ON_CLOSE = (
    "_module_storages",
    "_host_storage",
    "_partitioner",
    "_migrator",
    "_query_processor",
    "_update_processor",
    "_graph",
    "_durability",
    "last_maintenance_stats",
)


class Moctopus:
    """PIM-based data management system for batch RPQs and graph updates."""

    _closed = False

    def __init__(
        self,
        config: Optional[MoctopusConfig] = None,
        label_names: Optional[Dict[int, str]] = None,
    ) -> None:
        self.config = config or MoctopusConfig()
        self.pim = PIMSystem(self.config.cost_model)
        #: The placement policy; it owns the ``node_partition_vector``.
        self._partitioner = self._build_placement()
        capacity = self.config.cost_model.module_memory_bytes
        self._module_storages = [
            LocalGraphStorage(capacity) for _ in range(self.config.num_modules)
        ]
        self._host_storage = HeterogeneousGraphStorage(self.config.num_modules)
        #: Live read-only graph view over the storages — the only
        #: adjacency the system holds (oracle checks, partition metrics).
        self._graph = StoredGraphView(
            self._partitioner.partition_map,
            self._module_storages,
            self._host_storage,
        )
        self._migrator = NodeMigrator(
            self._partitioner.partition_map,
            self._module_storages,
            self._host_storage,
            capacity_factor=MIGRATION_CAPACITY_FACTOR,
        )
        self._query_processor = QueryProcessor(label_names)
        self._update_processor = UpdateProcessor(
            self.pim,
            self._partitioner,
            self._module_storages,
            self._host_storage,
            self._migrator,
        )
        #: Stats of the most recent post-query maintenance pass (migrations).
        self.last_maintenance_stats: Optional[ExecutionStats] = None
        #: Serializes the live/writer path (updates, live queries,
        #: migrations, epoch captures).  Pinned session/scheduler
        #: executions run *outside* this lock on frozen arrays.
        self._serve_lock = threading.RLock()
        # Imported lazily: repro.serve sits above repro.core, so a
        # module-level import here would be circular.
        from repro.serve.epoch import EpochManager

        #: Epoch publish/pin lifecycle of the serving layer.  It captures
        #: from the storages directly, never through ``self``, and tells
        #: the query processor (not ``self``) which epochs retire: no
        #: reference cycle, so a dropped system is freed by refcount.
        self._epochs = EpochManager(
            self._partitioner.partition_map,
            (*self._module_storages, self._host_storage),
            lock=self._serve_lock,
            on_retire=self._query_processor.forget_epoch,
        )
        #: Write-ahead log + checkpoint lifecycle (``None`` = memory-only).
        self._durability: Optional["DurabilityController"] = None
        if self.config.durability_dir:
            self._attach_durability(self.config)

    # ------------------------------------------------------------------
    # Construction / loading
    # ------------------------------------------------------------------
    def _build_placement(self) -> StreamingPartitioner:
        """The paper's placement: radical greedy under the 1.05x dynamic
        capacity constraint (Section 3.2.2), with labor division sending
        nodes above out-degree 16 to the host (Section 3.3).

        The one place a system's placement is built; a class that places
        otherwise overrides it, and a durability directory records what
        it built (:meth:`~repro.partition.base.StreamingPartitioner.record`).
        """
        return LaborDivisionPartitioner(
            RadicalGreedyPartitioner(
                self.config.num_modules, capacity_factor=DEFAULT_CAPACITY_FACTOR
            ),
            high_degree_threshold=DEFAULT_HIGH_DEGREE_THRESHOLD,
        )

    @classmethod
    def from_graph(
        cls,
        graph: ReadableGraph,
        config: Optional[MoctopusConfig] = None,
        label_names: Optional[Dict[int, str]] = None,
    ) -> "Moctopus":
        """Build a system and bulk-load ``graph`` into it."""
        system = cls(config=config, label_names=label_names)
        system.load_graph(graph)
        return system

    def load_graph(self, graph: ReadableGraph) -> None:
        """Bulk-load a graph into this empty system (no simulated cost;
        loading is offline).

        The graph is read once, into an edge table in its
        ``labeled_edges()`` order (:func:`~repro.graph.stream.edge_table`).
        The edges are placed in that order, so the radical greedy
        partitioner makes the decisions a growing database would have
        made, then the nodes no edge mentions are placed in node order.
        The columnar loader (:mod:`repro.core.bulk_load`) walks the table
        a chunk at a time and makes exactly those decisions.  With
        durability enabled, the table and the node list are first written
        ahead as one ``BOOTSTRAP`` record.

        The graph's ``(src, dst)`` pairs must be distinct, as a
        :class:`~repro.graph.digraph.DiGraph`'s are.  Raises
        :class:`RuntimeError` if the system already holds nodes, and
        :class:`ValueError` on a negative node id (listed or an edge
        endpoint) or a repeated pair — all before anything is logged or
        moves.
        """
        with self._serve_lock:
            if len(self._partitioner.partition_map):
                raise RuntimeError("load_graph requires an empty system")
            nodes = list(graph.nodes())
            require_int64s("node id", nodes, non_negative=True)
            table = edge_table(graph)
            require_loadable(table)
            if self._durability is not None:
                self._durability.log_bootstrap(table, nodes)
            self._bulk_load(table, nodes)

    def _bulk_load(self, table: np.ndarray, nodes: List[int]) -> None:
        """Run the bulk loader (live load and ``BOOTSTRAP`` replay)."""
        with self._serve_lock:
            self._epochs.install(
                bulk_load(
                    self._partitioner,
                    self._module_storages,
                    self._host_storage,
                    table,
                    nodes,
                )
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def batch_khop(
        self, sources: Iterable[int], hops: int, auto_migrate: Optional[bool] = None
    ) -> Tuple[BatchResult, ExecutionStats]:
        """Run a batch k-hop path query (the paper's RPQ workload)."""
        return self.execute(
            KHopQuery(hops=hops, sources=list(sources)), auto_migrate
        )

    def execute(
        self, query, auto_migrate: Optional[bool] = None
    ) -> Tuple[BatchResult, ExecutionStats]:
        """Run a :class:`KHopQuery` or a general :class:`RPQuery`."""
        with self._serve_lock:
            result, stats = self._query_processor.execute_on_view(
                query, self._live_view()
            )
            self._maybe_migrate(auto_migrate)
        return result, stats

    def _live_view(self) -> "EpochView":
        """The view a live query runs on: the current epoch (published
        now if a write made it stale), charged to :attr:`pim`, never
        cached, and reporting misplaced nodes to the migrator
        when it repairs the placement."""
        from repro.serve.epoch import EpochView

        with self._serve_lock:
            migrator = (
                self._migrator if self._partitioner.pim_policy.migrates else None
            )
            return EpochView(
                self._epochs.current(), self.pim, live=True, migrator=migrator
            )

    def _maybe_migrate(self, auto_migrate: Optional[bool]) -> None:
        if auto_migrate is None:
            auto_migrate = self._partitioner.pim_policy.migrates
        if auto_migrate:
            self.run_maintenance()

    def run_maintenance(self) -> Tuple[int, ExecutionStats]:
        """Migrate nodes reported as incorrectly partitioned.

        Returns the number of nodes moved and the simulated cost of the
        pass (charged to a separate operation, off the query critical
        path, as in the paper).
        """
        with self._serve_lock:
            had_reports = self._migrator.pending_reports > 0
            operation = self.pim.begin_operation()
            with operation.phase("migration"):
                moved = self._migrator.apply_migrations(op=operation)
            stats = operation.finish()
            stats.add_counter("migrations", moved)
            self.last_maintenance_stats = stats
            if moved:
                self._epochs.mark_stale()
            if self._durability is not None and (moved or had_reports):
                # Migration decisions consume volatile misplacement
                # reports, so they are journaled as *outcomes* (redo)
                # rather than re-derived at recovery.  A pass that
                # consumed reports without moving anything is journaled
                # too (an empty record): replaying it clears reports an
                # older checkpoint may have captured, which this pass
                # already consumed.  A failure here latches the
                # controller as failed: state has already moved past the
                # durable history (see log_migrations).
                self._durability.log_migrations(self._migrator.last_moves)
        return moved, stats

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert_edges(
        self, edges: List[Tuple[int, int]], labels: Optional[List[int]] = None
    ) -> ExecutionStats:
        """Insert a batch of edges and return the simulated cost."""
        ops = [UpdateOp(UpdateKind.INSERT, src, dst) for src, dst in edges]
        return self.apply_updates(ops, labels=labels)

    def delete_edges(self, edges: List[Tuple[int, int]]) -> ExecutionStats:
        """Delete a batch of edges and return the simulated cost."""
        ops = [UpdateOp(UpdateKind.DELETE, src, dst) for src, dst in edges]
        return self.apply_updates(ops)

    def apply_updates(
        self, ops: List[UpdateOp], labels: Optional[List[int]] = None
    ) -> ExecutionStats:
        """Apply a mixed stream of :class:`~repro.graph.stream.UpdateOp`.

        Every update funnels through here (``insert_edges`` and
        ``delete_edges`` are conveniences over it), which is the single
        write-ahead point: with durability enabled the batch is appended
        to the WAL *before* any state mutates, so a batch is committed
        exactly when its record is durable.  A node id must be a
        non-negative int64 and ``labels``, when given, one int64 per op;
        anything else raises :class:`ValueError` before anything moves.
        """
        require_labels(labels, len(ops))
        require_int64s(
            "node id",
            chain(map(attrgetter("src"), ops), map(attrgetter("dst"), ops)),
            non_negative=True,
        )
        with self._serve_lock:
            if self._durability is None:
                stats = self._update_processor.apply_batch(ops, labels=labels)
                self._epochs.mark_stale()
                return stats
            lsn = self._durability.log_batch(ops, labels)
            try:
                stats = self._update_processor.apply_batch(ops, labels=labels)
            except BaseException as error:
                # The batch is durable but its apply failed (e.g. a
                # module's local memory filled).  Compensate with an
                # ABORT record so replay skips it — otherwise every
                # future recovery would re-raise the same error and the
                # directory could never be recovered again.  The apply
                # may have partially mutated in-memory state, so this
                # also latches durability off: the durable history ends
                # at the abort, and the right way forward is recover().
                self._durability.log_abort(lsn, error)
                raise
            self._epochs.mark_stale()
            self._durability.note_batch_applied()
        return stats

    # ------------------------------------------------------------------
    # Durability (write-ahead log, checkpoints, recovery)
    # ------------------------------------------------------------------
    def _attach_durability(
        self,
        config: MoctopusConfig,
        resume_lsn: Optional[int] = None,
        lock: Optional[BinaryIO] = None,
    ) -> None:
        """Wire up (or re-wire after recovery) the durability controller.

        ``resume_lsn`` asserts that the on-disk log ends exactly where
        replay stopped — recovery passes the last applied LSN so a
        mismatch (someone appended behind our back) fails loudly — and
        ``lock`` is the directory lock recovery took before replaying.
        """
        from repro.durability import DurabilityController

        self.config = config
        self._durability = DurabilityController(
            self, config, resume_lsn=resume_lsn, lock=lock
        )

    @classmethod
    def recover(
        cls, durability_dir: str, config: Optional[MoctopusConfig] = None
    ) -> "Moctopus":
        """Rebuild the system persisted under ``durability_dir``.

        Loads the newest valid checkpoint, replays the WAL tail
        (truncating a torn final record), and returns a live system
        that resumes logging to the same directory.  The recovered
        state is bit-identical to the crashed process's durable prefix:
        same CSR snapshot arrays, same owner table, same accounting —
        the fault-injection suite asserts this at every crash point.

        The system is an instance of ``cls``, and replay places nodes as
        ``cls`` does, so a directory whose recorded placement differs
        from ``cls``'s is refused with a :class:`ValueError` naming the
        parameters that differ.  A directory another open system holds
        is refused with a :class:`RuntimeError`.
        """
        from repro.durability.recovery import recover

        return recover(durability_dir, config=config, system_class=cls)

    def checkpoint(self) -> str:
        """Write a checkpoint now (synchronously); returns its path.

        The capture runs under the writer lock at an
        :meth:`~repro.serve.epoch.EpochManager.publish` barrier, so the
        serialized arrays are exactly a published epoch.
        """
        if self._durability is None:
            raise RuntimeError("durability is not enabled on this system")
        return self._durability.checkpoint_now()

    def close(self) -> None:
        """End the system: detach durability and release the graph.

        Under the writer lock, the durability controller is detached, the
        current epoch is released, and every reference that reaches
        graph state is dropped: the storages, the partitioner and
        migrator, the update and query processors with their caches, the
        :attr:`graph` view and :attr:`last_maintenance_stats`.  Then the
        checkpoint daemon is stopped and the WAL closed; every write
        acknowledged before ``close()`` is in the log.

        From then on every call that would read or write the graph —
        directly or through a session, scheduler or server still open on
        the system — raises :class:`RuntimeError`.  Those handles can
        still be closed, returning their pins.  There is no reopening: a
        durable system comes back through :meth:`recover`.  Safe to call
        on memory-only systems and more than once.
        """
        with self._serve_lock:
            if self._closed:
                return
            self._closed = True
            durability = self._durability
            for name in _RELEASED_ON_CLOSE:
                delattr(self, name)
            self._epochs.close()
        if durability is not None:
            # Outside the writer lock: stopping the checkpoint daemon
            # joins a thread that takes that lock.
            durability.close()

    def __getattr__(self, name: str) -> NoReturn:
        # Reached only when normal lookup fails, which for the state
        # close() released means the system is closed.
        if name in _RELEASED_ON_CLOSE and self._closed:
            from repro.serve.epoch import SYSTEM_CLOSED

            raise RuntimeError(SYSTEM_CLOSED)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    @property
    def durable_lsn(self) -> int:
        """LSN of the last durably appended WAL record (0 = none)."""
        if self._durability is None:
            return 0
        return self._durability.wal.last_lsn

    # ------------------------------------------------------------------
    # Serving (snapshot-isolated sessions and coalesced scheduling)
    # ------------------------------------------------------------------
    def begin(self) -> "Session":
        """Open a snapshot-isolated :class:`~repro.serve.session.Session`.

        The session pins the latest published epoch: its queries never
        observe writes applied after ``begin()`` until it ``refresh()``\\ es,
        and updates staged through the session are visible to the session
        immediately (read-your-writes) but to nobody else until
        ``commit()``.  It runs on the kernel current at ``begin()``.
        """
        from repro.serve.session import Session

        return Session(self)

    def serve(self, parallel: int = 0, **kwargs) -> "BatchScheduler":
        """Start a :class:`~repro.serve.scheduler.BatchScheduler`.

        The scheduler admits concurrent single-source k-hop queries into
        a bounded queue and coalesces them into engine-level batches
        executed against the latest epoch, on the kernel current when it
        starts.  ``parallel=N`` scatters the coalesced batches across
        ``N`` worker processes attached zero-copy to shared-memory epoch
        exports (:mod:`repro.parallel`); ``0`` (the default) executes
        them in-process.  ``queue_depth`` bounds the admission queue
        (default :data:`~repro.serve.scheduler.DEFAULT_QUEUE_DEPTH`).
        Close it (or use it as a context manager) when done.
        """
        from repro.serve.scheduler import BatchScheduler

        return BatchScheduler(self, parallel=parallel, **kwargs)

    def listen(self, *args, **kwargs) -> "MoctopusServer":
        """Serve queries over TCP: start a network front-end.

        Creates a :class:`~repro.net.server.MoctopusServer` (which owns
        its own :meth:`serve` scheduler) and starts it on a background
        event-loop thread.  The arguments are the server's: ``host``
        and ``port`` (default ``127.0.0.1:0``; ``port=0`` binds an
        ephemeral port, readable as ``server.port``), then by keyword
        ``auth_token``, ``max_inflight_per_client``,
        ``request_timeout`` and ``scheduler`` (e.g.
        ``serve(parallel=N)``).  They are not config fields: nothing
        about the front door is written to the durability directory.
        A bad argument raises before any thread starts.  Close the
        returned server (or use it as a context manager) when done;
        shutdown answers every in-flight query before closing sockets.
        """
        from repro.net.server import MoctopusServer

        return MoctopusServer(self, *args, **kwargs).start()

    @property
    def current_epoch_id(self) -> int:
        """Id of the latest published epoch (publishing one if stale)."""
        return self._epochs.current().epoch_id

    def serving_report(self) -> Dict[int, Dict[str, int]]:
        """Per-epoch serving counters (queries answered, batches run)."""
        return self._epochs.serving_report()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def explain(self, query) -> str:
        """The plan for ``query`` with its cost estimates, rendered for humans.

        The query is planned against the latest published epoch, so the
        explanation shows what a session opened now would run, costed
        for the query's batch from that epoch's statistics
        (:func:`~repro.rpq.planner.cost_plan`; only here does the cost
        model run).  A live query runs the same plan; ``Plan.explain()``
        with no decision renders it uncosted.
        """
        from repro.serve.epoch import EpochView

        view = EpochView(self._epochs.current(), self.pim)
        processor = self._query_processor
        plan = processor.plan(query, view)
        decision = cost_plan(
            plan, len(query.sources), view.frozen_epoch(), processor.label_names
        )
        return plan.explain(decision)

    @property
    def cache_stats(self) -> ExecutionStats:
        """Plan/result cache hit and miss counters (cumulative).

        Kept separate from every per-query :class:`ExecutionStats` so
        cached answers stay bit-identical to uncached ones.
        """
        return self._query_processor.cache_stats

    @property
    def graph(self) -> StoredGraphView:
        """The stored graph: a live, read-only view over the storages.

        Satisfies :class:`~repro.graph.digraph.ReadableGraph`; call
        ``.copy()`` for an independent, mutable ``DiGraph``.
        """
        return self._graph

    @property
    def num_nodes(self) -> int:
        """Number of stored graph nodes."""
        return self._graph.num_nodes

    @property
    def num_edges(self) -> int:
        """Number of stored edges."""
        return self._graph.num_edges

    @property
    def num_modules(self) -> int:
        """Number of PIM modules in the simulated platform."""
        return self.pim.num_modules

    @property
    def engine_name(self) -> str:
        """Name of the active query execution kernel."""
        return self._query_processor.engine

    def use_engine(self, name: str) -> None:
        """Swap the query execution kernel (any ``ENGINE_NAMES`` entry).

        A system, recovered ones too, starts on ``"auto"``; this is the
        one way to pin another.  All kernels produce identical results
        and simulated statistics on the same state, so swapping mid-run
        is safe and is how the engine benchmarks compare wall-clock
        cost.  Sessions, schedulers and pools already started keep
        theirs.  The update path has one partitioner and is unaffected.
        """
        with self._serve_lock:
            self._query_processor.use_engine(name)

    def partition_of(self, node: int) -> Optional[int]:
        """Partition of ``node`` (``-1`` = host)."""
        return self._partitioner.partition_of(node)

    def host_node_count(self) -> int:
        """Number of (high-degree) nodes resident on the host."""
        return self._partitioner.partition_map.host_size()

    def module_node_counts(self) -> List[int]:
        """Number of nodes stored on each PIM module."""
        return [storage.num_rows for storage in self._module_storages]

    def partition_quality(self) -> PartitionQuality:
        """Edge cut / locality / balance of the current placement."""
        return evaluate_partition(self._graph, self._partitioner.partition_map)

    def partition_statistics(self) -> Dict[str, int]:
        """Partitioner decision counters (greedy vs fallback vs promotions)."""
        return {
            "greedy_placements": self._partitioner.pim_policy.greedy_placements,
            "fallback_placements": self._partitioner.pim_policy.fallback_placements,
            "promotions": self._partitioner.promotions,
            "locality_migrations": self._migrator.migrations_performed,
        }

    def has_edge(self, src: int, dst: int) -> bool:
        """Whether the stored graph contains ``src -> dst``."""
        return self._graph.has_edge(src, dst)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._closed:
            return f"Moctopus(closed, modules={self.num_modules})"
        return (
            f"Moctopus(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"modules={self.num_modules})"
        )

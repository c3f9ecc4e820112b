"""The observable surface of the network front-end.

:class:`ServerMetrics` accumulates the server-side counters (connection
lifecycle, admissions, rejections, timeouts) plus an aggregated
:class:`~repro.pim.stats.ExecutionStats` of every answered query.
:func:`build_metrics` folds those together with the backend's live
gauges — scheduler throughput counters, the query processor's
plan/result cache counters, epoch pin/publish counts and per-client
in-flight gauges — into one flat mapping, which both the STATS frame
(as JSON) and the HTTP-ish ``GET /metrics`` endpoint (as
:func:`render_metrics` text, one ``moctopus_<name> <value>`` line per
entry) expose.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, Mapping, Union

from repro.pim.stats import ExecutionStats

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.net.server import MoctopusServer

Number = Union[int, float]

#: Prefix of every rendered metric line.
METRICS_PREFIX = "moctopus_"


class ServerMetrics:
    """Thread-safe counters of one :class:`MoctopusServer`.

    Incremented from the event loop *and* (via future callbacks) from
    scheduler threads, so every mutation takes the lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.connections_opened = 0
        self.connections_active = 0
        self.auth_failures = 0
        self.bad_requests = 0
        self.queries_admitted = 0
        self.queries_answered = 0
        self.queries_failed = 0
        self.queries_timed_out = 0
        #: Admission rejections by reason (the BUSY frames sent).
        self.busy_client_inflight = 0
        self.busy_server_saturated = 0
        self.metrics_scrapes = 0
        #: Simulated cost of every answered query, merged; a query
        #: contributes the stats of the coalesced batch it rode in.
        self.served_stats = ExecutionStats()

    def count(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` (an attribute of this object)."""
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def note_answered(self, stats: ExecutionStats) -> None:
        """Record one answered query and fold in its batch stats."""
        with self._lock:
            self.queries_answered += 1
            self.served_stats.merge(stats)

    def snapshot(self) -> Dict[str, Number]:
        """Flat copy of every server-side counter."""
        with self._lock:
            out: Dict[str, Number] = {
                "connections_opened": self.connections_opened,
                "connections_active": self.connections_active,
                "auth_failures": self.auth_failures,
                "bad_requests": self.bad_requests,
                "queries_admitted": self.queries_admitted,
                "queries_answered": self.queries_answered,
                "queries_failed": self.queries_failed,
                "queries_timed_out": self.queries_timed_out,
                "busy_client_inflight": self.busy_client_inflight,
                "busy_server_saturated": self.busy_server_saturated,
                "admission_rejections": (
                    self.busy_client_inflight + self.busy_server_saturated
                ),
                "metrics_scrapes": self.metrics_scrapes,
                "served_host_time_seconds": self.served_stats.host_time,
                "served_cpc_time_seconds": self.served_stats.cpc_time,
                "served_ipc_time_seconds": self.served_stats.ipc_time,
                "served_pim_time_seconds": self.served_stats.pim_time,
                "served_total_time_seconds": self.served_stats.total_time,
                "served_cpc_bytes": self.served_stats.cpc.bytes_moved,
                "served_ipc_bytes": self.served_stats.ipc.bytes_moved,
            }
            for name, value in sorted(self.served_stats.counters.items()):
                out[f"served_counter_{name}"] = value
        return out


def build_metrics(server: "MoctopusServer") -> Dict[str, Number]:
    """The full metrics mapping of a live server.

    Server counters first, then the backend gauges: scheduler
    throughput, the query processor's cache counters, the epoch
    manager's pin/publish/live-epoch state, and one in-flight gauge per
    connected client (labelled Prometheus-style).
    """
    system = server.system
    scheduler = server.scheduler
    out = server.metrics.snapshot()
    out["scheduler_batches_executed"] = scheduler.batches_executed
    out["scheduler_queries_served"] = scheduler.queries_served
    out["scheduler_queue_pending"] = scheduler.pending
    out["scheduler_parallel_workers"] = scheduler.parallel_workers
    epochs = system._epochs
    out["epoch_pins"] = epochs.pins()
    out["epochs_published"] = epochs.published_epochs
    # Live epochs: the current one plus every older one a reader still
    # pins (an epoch retires at its last unpin; there is no retention
    # window).  Steadily above 1 means lagging readers hold memory.
    out["epochs_retained"] = len(epochs.retained_ids())
    for name, value in sorted(system.cache_stats.counters.items()):
        out[f"cache_{name}"] = value
    for client_id, inflight in sorted(server.client_inflight().items()):
        out[f'client_inflight{{client="{client_id}"}}'] = inflight
    return out


def render_metrics(values: Mapping[str, Number]) -> str:
    """Render a metrics mapping as ``/metrics`` text.

    One ``moctopus_<name> <value>`` line per entry; names that carry a
    ``{label="..."}`` suffix keep it after the prefixed name, which is
    the Prometheus exposition shape.
    """
    lines = []
    for name, value in values.items():
        if isinstance(value, float):
            rendered = repr(value)
        else:
            rendered = str(value)
        lines.append(f"{METRICS_PREFIX}{name} {rendered}")
    return "\n".join(lines) + "\n"

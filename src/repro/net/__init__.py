"""The asyncio network serving front-end.

This package puts a wire in front of the in-process serving layer: an
asyncio TCP server speaking a small length-prefixed JSON protocol feeds
the :class:`~repro.serve.scheduler.BatchScheduler` (and, through it, the
:class:`~repro.parallel.pool.WorkerPool`), so concurrent remote clients
get the same coalesced, epoch-pinned execution in-process callers do —
with admission control at the socket boundary instead of unbounded
buffering:

* :mod:`repro.net.protocol` — the frame layer: HELLO/WELCOME handshake,
  QUERY (k-hop and RPQ expression), RESULT, ERROR, BUSY, STATS,
  PING/PONG and GOODBYE frames, request-id correlated so one connection
  can pipeline many queries;
* :mod:`repro.net.server` — :class:`MoctopusServer`: per-client
  in-flight caps and scheduler-saturation BUSY frames (backpressure),
  per-request timeouts, graceful shutdown that answers every in-flight
  query before closing sockets, and an HTTP-ish ``GET /metrics`` text
  endpoint on the same port;
* :mod:`repro.net.client` — :class:`MoctopusClient` (blocking, with a
  demuxing reader thread for pipelining) and
  :class:`AsyncMoctopusClient` (asyncio streams);
* :mod:`repro.net.metrics` — the observable surface: server counters,
  scheduler/cache/epoch gauges and aggregated
  :class:`~repro.pim.stats.ExecutionStats`, rendered for the STATS
  frame and the ``/metrics`` endpoint.

Entry point: ``server = system.listen(host, port)`` (see
:meth:`repro.core.system.Moctopus.listen`).
"""

from repro.net.client import (
    AsyncMoctopusClient,
    MoctopusClient,
    ServerBusy,
    ServerError,
)
from repro.net.metrics import ServerMetrics, render_metrics
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    MAX_WIRE_HOPS,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    encode_frame,
    stats_to_wire,
)
from repro.net.server import MoctopusServer

__all__ = [
    "AsyncMoctopusClient",
    "MAX_FRAME_BYTES",
    "MAX_WIRE_HOPS",
    "MoctopusClient",
    "MoctopusServer",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServerBusy",
    "ServerError",
    "ServerMetrics",
    "decode_frame",
    "encode_frame",
    "render_metrics",
    "stats_to_wire",
]

"""The asyncio TCP server bridging the wire to the batch scheduler.

One :class:`MoctopusServer` owns one
:class:`~repro.serve.scheduler.BatchScheduler` (or wraps a caller-made
one) and speaks the :mod:`repro.net.protocol` frame protocol.  The
design point is **backpressure, never unbounded buffering**, enforced at
three boundaries:

* per-client: a connection may keep at most
  ``max_inflight_per_client`` queries in flight; the next QUERY gets
  a BUSY frame (``reason: "client_inflight"``) without being admitted;
* server-wide: admission into the scheduler uses ``block=False``, so a
  full admission queue surfaces as
  :class:`~repro.serve.scheduler.SchedulerSaturated` and becomes a BUSY
  frame (``reason: "server_saturated"``) instead of a hidden backlog;
* per-request: every admitted query runs under ``request_timeout``;
  on expiry the client gets an ERROR(timeout) frame and the eventual
  scheduler outcome is discarded (the
  :class:`~repro.serve.scheduler.ResultGate` contract).

Before its HELLO a connection is bounded in time as well: a peer that
connects and sends nothing, or only part of its first frame or request
line, is closed after :data:`PRE_AUTH_TIMEOUT_S`.

The asyncio/threading bridge is callback-shaped: the scheduler resolves
a :class:`~repro.serve.scheduler.ServingFuture` on its drain thread,
whose ``add_done_callback`` hops the outcome back onto the event loop
with ``loop.call_soon_threadsafe`` — no loop thread ever blocks on a
threading primitive, and no executor thread is parked per in-flight
query.

Graceful shutdown (:meth:`MoctopusServer.close`) stops accepting, lets
every connection's in-flight queries resolve and send their RESULT
frames, then closes the sockets and finally the scheduler.

The listening socket also answers an HTTP-ish ``GET /metrics`` text
scrape (the first bytes of a connection disambiguate HTTP from the
4-byte frame length prefix), mirroring the long-lived socket-service
shape — supervised service loop plus health/stats endpoints — of
production SCADA-style services.
"""

from __future__ import annotations

import asyncio
import hmac
import itertools
import logging
import threading
from typing import Dict, Optional, Set, TYPE_CHECKING

from repro.checks import require_int
from repro.net.metrics import ServerMetrics, build_metrics, render_metrics
from repro.net.protocol import (
    MAX_WIRE_HOPS,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    decode_length,
    encode_frame,
    read_frame,
    stats_to_wire,
)
from repro.rpq.regex import parse_path_expression, unrolled_length
from repro.serve.scheduler import SchedulerSaturated

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.system import Moctopus
    from repro.serve.scheduler import BatchScheduler, ServingFuture

#: A connection whose first four bytes spell an HTTP GET is a metrics
#: scrape, not a frame stream (a frame this long would be rejected
#: anyway — ``b"GET "`` decodes to a 1.2 GB length prefix).
_HTTP_GET = b"GET "

#: Seconds a connection may take to deliver its first frame (or, for a
#: metrics scrape, its request line).  Nothing is admitted before the
#: HELLO, so an idle or trickling peer is closed rather than held open.
PRE_AUTH_TIMEOUT_S = 5.0

#: Default bind address and port of the front-end; port ``0`` picks an
#: ephemeral port (read it back from :attr:`MoctopusServer.port`).
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 0

#: Default per-connection cap on queries in flight: a client past it
#: gets BUSY frames instead of buffering without bound.
DEFAULT_MAX_INFLIGHT_PER_CLIENT = 32

#: Default per-request timeout (seconds): a query not answered in time
#: gets an ERROR(timeout) frame and its eventual result is discarded.
DEFAULT_REQUEST_TIMEOUT_S = 30.0


class _Connection:
    """Server-side state of one client connection."""

    def __init__(
        self,
        server: "MoctopusServer",
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        client_id: int,
    ) -> None:
        self.server = server
        self.reader = reader
        self.writer = writer
        self.client_id = client_id
        self.inflight = 0
        self.tasks: Set[asyncio.Task] = set()
        self.closing = False
        self._write_lock = asyncio.Lock()

    async def send(self, frame: dict) -> None:
        """Serialize and send one frame (writes are serialized)."""
        payload = encode_frame(frame)
        async with self._write_lock:
            self.writer.write(payload)
            await self.writer.drain()

    async def send_error(self, rid, code: str, message: str) -> None:
        await self.send(
            {"type": "error", "id": rid, "code": code, "message": message}
        )

    async def drain_inflight(self, timeout: Optional[float]) -> None:
        """Wait until every in-flight query task answered (or timeout)."""
        if self.tasks:
            await asyncio.wait(list(self.tasks), timeout=timeout)

    async def shutdown(self, timeout: Optional[float]) -> None:
        """Answer in-flight queries, then close the socket."""
        self.closing = True
        await self.drain_inflight(timeout)
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - racy close
            pass


class MoctopusServer:
    """Asyncio TCP front-end over a :class:`BatchScheduler`.

    Construction does not bind anything; call :meth:`start` (background
    thread with its own event loop — the blocking-world facade used by
    ``Moctopus.listen()``) or ``await`` :meth:`start_async` from a
    running loop.

    ``host``/``port`` name the listening address (``port=0`` binds an
    ephemeral port); ``auth_token``, when set, is the secret every HELLO
    must present; ``max_inflight_per_client`` and ``request_timeout``
    are the per-client admission bound and the per-query deadline.
    ``scheduler`` wraps a caller-made scheduler (e.g.
    ``system.serve(parallel=N)``) instead of starting one.  Every
    argument is checked here, before any thread starts.
    """

    def __init__(
        self,
        system: "Moctopus",
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        *,
        scheduler: Optional["BatchScheduler"] = None,
        auth_token: Optional[str] = None,
        max_inflight_per_client: int = DEFAULT_MAX_INFLIGHT_PER_CLIENT,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT_S,
        logger: Optional[logging.Logger] = None,
    ) -> None:
        self.system = system
        self._host = host
        self._port = int(require_int("port", port, 0, 65535))
        if auth_token is not None and not isinstance(auth_token, str):
            raise ValueError(f"auth_token must be a string, got {auth_token!r}")
        self._auth_token = (
            None if auth_token is None else auth_token.encode("utf-8")
        )
        self._max_inflight = require_int(
            "max_inflight_per_client", max_inflight_per_client, 1
        )
        self._request_timeout = request_timeout
        if not request_timeout > 0:  # written so that nan is refused too
            raise ValueError("request_timeout must be > 0 seconds")
        self._owns_scheduler = scheduler is None
        self.scheduler = scheduler if scheduler is not None else system.serve()
        self.metrics = ServerMetrics()
        self._log = logger or logging.getLogger("repro.net.server")
        self._connections: Set[_Connection] = set()
        self._client_ids = itertools.count(1)
        self._bound_port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._closing = False
        self._closed = False
        # Sync-facade plumbing (start()/close() from blocking code).
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._shutdown_requested: Optional[asyncio.Event] = None
        self._close_lock = threading.Lock()
        self._close_requested = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``port=0`` ephemerals)."""
        if self._bound_port is None:
            raise RuntimeError("server is not started")
        return self._bound_port

    @property
    def address(self):
        """``(host, port)`` the server is bound to."""
        return (self._host, self.port)

    def client_inflight(self) -> Dict[int, int]:
        """Per-client in-flight gauge (client id -> admitted queries)."""
        return {
            conn.client_id: conn.inflight
            for conn in list(self._connections)
        }

    async def start_async(self) -> "MoctopusServer":
        """Bind and start accepting on the running event loop."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        self._bound_port = self._server.sockets[0].getsockname()[1]
        self._log.info("listening on %s:%d", self._host, self._bound_port)
        self._started.set()
        return self

    async def shutdown_async(self, drain_timeout: float = 10.0) -> None:
        """Graceful shutdown: answer in-flight queries, then close.

        Stops accepting, waits (bounded by ``drain_timeout``) for every
        connection's admitted queries to send their RESULT/ERROR frames,
        closes the sockets, and finally closes the scheduler when this
        server created it.
        """
        if self._closed:
            return
        self._closing = True
        self._closed = True
        self._server.close()
        await self._server.wait_closed()
        connections = list(self._connections)
        if connections:
            await asyncio.gather(
                *(conn.shutdown(drain_timeout) for conn in connections),
                return_exceptions=True,
            )
        if self._owns_scheduler:
            # The scheduler's close() joins its drain thread — run it in
            # the default executor so an embedding application's other
            # tasks on this loop keep making progress during the drain
            # (REP005: never block the event loop).
            await asyncio.get_running_loop().run_in_executor(
                None, self.scheduler.close
            )
        self._log.info("server shut down (%d connections drained)",
                       len(connections))

    # Sync facade ------------------------------------------------------
    def start(self, timeout: float = 10.0) -> "MoctopusServer":
        """Run the server on a dedicated background event-loop thread."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="moctopus-net-server", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):  # pragma: no cover - hang guard
            raise RuntimeError("server failed to start in time")
        if self._startup_error is not None:
            self._thread.join(timeout)
            raise self._startup_error
        return self

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self._serve_until_shutdown())
        except BaseException as error:  # pragma: no cover - startup failure
            self._startup_error = error
            self._started.set()
        finally:
            asyncio.set_event_loop(None)
            loop.close()

    async def _serve_until_shutdown(self) -> None:
        self._shutdown_requested = asyncio.Event()
        try:
            await self.start_async()
        except BaseException as error:
            self._startup_error = error
            self._started.set()
            return
        await self._shutdown_requested.wait()
        await self.shutdown_async()

    def close(self, timeout: float = 15.0) -> None:
        """Gracefully stop a :meth:`start`-ed server (idempotent).

        The close lock is held only to mark the shutdown requested; the
        signal to the loop, the thread join and the scheduler teardown
        run outside it, so a concurrent closer is never stalled behind
        the multi-second drain (REP001: mark under the lock, act
        outside).  Only the closer that set the mark signals the loop —
        a later one may find the loop thread alive but its loop already
        closed — and every closer joins, so racing closers are safe.
        """
        with self._close_lock:
            thread = self._thread
            first = thread is not None and not self._close_requested
            if first:
                self._close_requested = True
        if first and thread.is_alive():
            self._loop.call_soon_threadsafe(self._shutdown_requested.set)
        if thread is not None:
            thread.join(timeout)
        if self._owns_scheduler:
            self.scheduler.close()  # idempotent; covers thread timeout

    def __enter__(self) -> "MoctopusServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            header = await asyncio.wait_for(
                reader.readexactly(4), timeout=PRE_AUTH_TIMEOUT_S
            )
        except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                ConnectionError, OSError):
            writer.close()
            return
        if header == _HTTP_GET:
            await self._serve_http(reader, writer)
            return
        conn = _Connection(self, reader, writer, next(self._client_ids))
        self._connections.add(conn)
        self.metrics.count("connections_opened")
        self.metrics.count("connections_active")
        try:
            await self._run_connection(conn, header)
        finally:
            self._connections.discard(conn)
            self.metrics.count("connections_active", -1)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _run_connection(self, conn: _Connection, header: bytes) -> None:
        peer = conn.writer.get_extra_info("peername")
        try:
            first = await self._read_after_header(conn.reader, header)
            if first is None:
                return
            if not await self._handshake(conn, first):
                return
            self._log.info("client %d connected from %s", conn.client_id, peer)
            while True:
                frame = await read_frame(conn.reader)
                if frame is None:
                    break
                if not await self._dispatch(conn, frame):
                    break
        except ProtocolError as error:
            self.metrics.count("bad_requests")
            self._log.warning(
                "client %d protocol error: %s", conn.client_id, error
            )
            try:
                await conn.send_error(None, "bad_request", str(error))
            except (ConnectionError, OSError):
                pass
        except (ConnectionError, OSError):
            pass  # peer went away; in-flight tasks still drain below
        finally:
            # Never strand an admitted query: even a dropped connection
            # lets its in-flight tasks resolve (their sends fail softly).
            await conn.drain_inflight(self._request_timeout + 5.0)
            self._log.info("client %d disconnected", conn.client_id)

    async def _read_after_header(
        self, reader: asyncio.StreamReader, header: bytes
    ):
        """Read the first frame, whose length prefix was already read.

        ``None`` when the peer does not deliver it within
        :data:`PRE_AUTH_TIMEOUT_S` (the connection is then closed).
        """
        try:
            payload = await asyncio.wait_for(
                reader.readexactly(decode_length(header)),
                timeout=PRE_AUTH_TIMEOUT_S,
            )
        except asyncio.TimeoutError:
            return None
        except asyncio.IncompleteReadError:
            raise ProtocolError("connection closed mid-frame") from None
        return decode_frame(payload)

    async def _handshake(self, conn: _Connection, frame: dict) -> bool:
        rid = frame.get("id")
        if frame.get("type") != "hello":
            self.metrics.count("bad_requests")
            await conn.send_error(
                rid, "bad_request", "first frame must be hello"
            )
            return False
        if frame.get("protocol") != PROTOCOL_VERSION:
            self.metrics.count("bad_requests")
            await conn.send_error(
                rid,
                "bad_request",
                f"unsupported protocol {frame.get('protocol')!r} "
                f"(server speaks {PROTOCOL_VERSION})",
            )
            return False
        if self._auth_token is not None and not self._token_matches(
            frame.get("token")
        ):
            self.metrics.count("auth_failures")
            self._log.warning("client %d failed auth", conn.client_id)
            await conn.send_error(rid, "auth", "invalid auth token")
            return False
        await conn.send(
            {
                "type": "welcome",
                "id": rid,
                "server": "moctopus",
                "protocol": PROTOCOL_VERSION,
                "engine": self.scheduler._engine.name,
                "max_inflight": self._max_inflight,
            }
        )
        return True

    def _token_matches(self, token) -> bool:
        """Constant-time check of a HELLO token; a non-string never matches.

        A lone surrogate (legal in JSON) is encoded through rather than
        raised on: its bytes are not UTF-8, so they match no token.
        """
        if not isinstance(token, str):
            return False
        return hmac.compare_digest(
            token.encode("utf-8", "surrogatepass"), self._auth_token
        )

    async def _dispatch(self, conn: _Connection, frame: dict) -> bool:
        """Handle one post-handshake frame; False ends the connection."""
        frame_type = frame["type"]
        rid = frame.get("id")
        if frame_type == "query":
            await self._admit_query(conn, frame)
            return True
        if frame_type == "ping":
            await conn.send({"type": "pong", "id": rid})
            return True
        if frame_type == "stats":
            self.metrics.count("metrics_scrapes")
            await conn.send(
                {"type": "stats", "id": rid, "metrics": build_metrics(self)}
            )
            return True
        if frame_type == "goodbye":
            # Answer everything already admitted, then confirm.
            await conn.drain_inflight(self._request_timeout + 5.0)
            await conn.send({"type": "goodbye", "id": rid})
            return False
        self.metrics.count("bad_requests")
        await conn.send_error(
            rid, "bad_request", f"unexpected frame type {frame_type!r}"
        )
        return True

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------
    async def _admit_query(self, conn: _Connection, frame: dict) -> None:
        rid = frame.get("id")
        if not isinstance(rid, int):
            self.metrics.count("bad_requests")
            await conn.send_error(rid, "bad_request", "query id must be an int")
            return
        if self._closing or conn.closing:
            await conn.send_error(rid, "closed", "server is shutting down")
            return
        if conn.inflight >= self._max_inflight:
            self.metrics.count("busy_client_inflight")
            await conn.send(
                {
                    "type": "busy",
                    "id": rid,
                    "reason": "client_inflight",
                    "message": (
                        f"client already has {conn.inflight} queries in "
                        f"flight (cap {self._max_inflight})"
                    ),
                }
            )
            return
        try:
            future = self._submit(frame)
        except SchedulerSaturated as error:
            self.metrics.count("busy_server_saturated")
            await conn.send(
                {
                    "type": "busy",
                    "id": rid,
                    "reason": "server_saturated",
                    "message": str(error),
                }
            )
            return
        except (TypeError, ValueError) as error:
            self.metrics.count("bad_requests")
            await conn.send_error(rid, "bad_request", str(error))
            return
        except RuntimeError as error:
            # The scheduler is closed (server shutting down underneath).
            await conn.send_error(rid, "closed", str(error))
            return
        conn.inflight += 1
        self.metrics.count("queries_admitted")
        task = asyncio.get_running_loop().create_task(
            self._answer_query(conn, rid, future)
        )
        conn.tasks.add(task)
        task.add_done_callback(conn.tasks.discard)

    def _submit(self, frame: dict) -> "ServingFuture":
        kind = frame.get("kind")
        source = frame.get("source")
        if not isinstance(source, int) or isinstance(source, bool):
            raise ValueError("query source must be an int")
        if kind == "khop":
            hops = frame.get("hops")
            if (
                not isinstance(hops, int)
                or isinstance(hops, bool)
                or not 1 <= hops <= MAX_WIRE_HOPS
            ):
                raise ValueError(
                    f"khop query needs an int 'hops' in 1..{MAX_WIRE_HOPS}"
                )
            return self.scheduler.submit(source, hops, block=False)
        if kind == "rpq":
            expression = frame.get("expression")
            if not isinstance(expression, str):
                raise ValueError("rpq query needs a string 'expression'")
            # A k-hop *is* ``.{k}``, so bounded repetition obeys the bound
            # ``hops`` does — checked on the AST, before admission and
            # before anything builds a DFA on the one drain thread.
            if unrolled_length(parse_path_expression(expression)) > MAX_WIRE_HOPS:
                raise ValueError(
                    "rpq expression unrolls to more than "
                    f"{MAX_WIRE_HOPS} label positions"
                )
            return self.scheduler.submit_rpq(source, expression, block=False)
        raise ValueError(f"unknown query kind {kind!r}")

    async def _answer_query(
        self, conn: _Connection, rid: int, future: "ServingFuture"
    ) -> None:
        loop = asyncio.get_running_loop()
        outcome = loop.create_future()

        def _transfer(gate) -> None:
            # Runs on the loop thread (scheduled below): a wait_for
            # cancellation can't race the state check.
            if outcome.done():
                return  # timed out; the late outcome is discarded
            try:
                payload = gate.outcome(timeout=0)
            except BaseException as error:
                outcome.set_exception(error)
            else:
                outcome.set_result(payload)

        def _on_done(gate) -> None:
            # Scheduler drain thread -> event loop hop.
            try:
                loop.call_soon_threadsafe(_transfer, gate)
            except RuntimeError:  # pragma: no cover - loop already closed
                pass

        future.add_done_callback(_on_done)
        try:
            try:
                destinations, stats = await asyncio.wait_for(
                    outcome, timeout=self._request_timeout
                )
            except asyncio.TimeoutError:
                self.metrics.count("queries_timed_out")
                self._log.warning(
                    "client %d query %d timed out after %.1fs",
                    conn.client_id, rid, self._request_timeout,
                )
                await conn.send_error(
                    rid,
                    "timeout",
                    f"query not answered within {self._request_timeout}s",
                )
                return
            except asyncio.CancelledError:  # pragma: no cover - teardown
                raise
            except BaseException as error:
                self.metrics.count("queries_failed")
                self._log.warning(
                    "client %d query %d failed: %s", conn.client_id, rid, error
                )
                await conn.send_error(rid, "internal", str(error))
                return
            self.metrics.note_answered(stats)
            await conn.send(
                {
                    "type": "result",
                    "id": rid,
                    # The scheduler resolves to a sorted row of the
                    # batch's answer array: one C-level conversion.
                    "destinations": destinations.tolist(),
                    "stats": stats_to_wire(stats),
                }
            )
        except (ConnectionError, OSError):
            pass  # client went away before the answer could be written
        finally:
            conn.inflight -= 1

    # ------------------------------------------------------------------
    # HTTP metrics scrape
    # ------------------------------------------------------------------
    async def _serve_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Answer ``GET /metrics`` (anything else is a 404) and close."""
        try:
            request = _HTTP_GET + await asyncio.wait_for(
                reader.readuntil(b"\r\n"), timeout=PRE_AUTH_TIMEOUT_S
            )
        except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError, ConnectionError, OSError):
            writer.close()
            return
        parts = request.decode("latin-1").split()
        path = parts[1] if len(parts) >= 2 else ""
        if path in ("/metrics", "/metrics/"):
            self.metrics.count("metrics_scrapes")
            status = "200 OK"
            body = render_metrics(build_metrics(self)).encode("utf-8")
        else:
            status = "404 Not Found"
            body = b"only /metrics is served here\n"
        head = (
            f"HTTP/1.0 {status}\r\n"
            "Content-Type: text/plain; charset=utf-8\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        try:
            writer.write(head + body)
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - racy close
            pass

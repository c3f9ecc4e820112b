"""The client of the network serving front-end.

:class:`MoctopusClient` is blocking: a daemon reader thread demuxes
reply frames by request id into per-request events, so one connection
can pipeline many queries (``submit_khop``/``submit_rpq`` return
:class:`PendingReply` handles resolved out of order).

It surfaces admission rejections as :class:`ServerBusy` (back off and
retry — the query was never admitted) and request failures as
:class:`ServerError` carrying the server's error ``code``
(``bad_request``, ``timeout``, ``closed``, ``internal``, ``auth``).
"""

from __future__ import annotations

import itertools
import socket
import threading
from typing import Any, Dict, Optional, Set, Tuple

from repro.net.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    encode_frame,
    read_frame_blocking,
)

#: A resolved query reply: sorted destinations + wire-form batch stats.
QueryReply = Tuple[Set[int], Dict[str, Any]]


class ServerError(RuntimeError):
    """The server answered a request with an ERROR frame."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class ServerBusy(ServerError):
    """Admission rejection (BUSY frame): the query was never admitted.

    ``code`` is the rejection reason — ``client_inflight`` (this
    connection is at its in-flight cap) or ``server_saturated`` (the
    scheduler's admission queue is full).  Back off and resubmit.
    """


def _interpret(frame: Dict[str, Any]) -> Any:
    """Turn a reply frame into a value or an exception to raise."""
    frame_type = frame["type"]
    if frame_type == "result":
        return (set(frame["destinations"]), frame["stats"])
    if frame_type == "busy":
        return ServerBusy(frame.get("reason", "busy"), frame.get("message", ""))
    if frame_type == "error":
        return ServerError(
            frame.get("code", "internal"), frame.get("message", "")
        )
    if frame_type == "stats":
        return frame["metrics"]
    if frame_type in ("pong", "goodbye", "welcome"):
        return frame
    return ProtocolError(f"unexpected reply frame {frame_type!r}")


class PendingReply:
    """A pipelined request awaiting its reply frame (blocking client)."""

    def __init__(self, request_id: int) -> None:
        self.request_id = request_id
        self._event = threading.Event()
        self._value: Any = None

    def _resolve(self, value: Any) -> None:
        self._value = value
        self._event.set()

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block until the reply arrives; raise what the server sent."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"no reply to request {self.request_id} within {timeout}s"
            )
        if isinstance(self._value, BaseException):
            raise self._value
        return self._value


class MoctopusClient:
    """Blocking client of a :class:`~repro.net.server.MoctopusServer`.

    The constructor performs the HELLO handshake synchronously (so an
    auth failure raises right here), then starts the reader thread.
    Safe for pipelined use from one or more threads: writes are
    lock-serialized and replies are matched by request id.
    """

    def __init__(
        self,
        host: str,
        port: int,
        auth_token: Optional[str] = None,
        connect_timeout: float = 10.0,
    ) -> None:
        self._sock = socket.create_connection((host, port), connect_timeout)
        self._sock.settimeout(None)
        self._write_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: Dict[int, PendingReply] = {}
        self._request_ids = itertools.count(1)
        self._closed = False
        # Handshake before the reader thread exists: the WELCOME (or the
        # auth ERROR) is the first and only frame on the wire right now.
        hello = {"type": "hello", "id": 0, "protocol": PROTOCOL_VERSION}
        if auth_token is not None:
            hello["token"] = auth_token
        self._sock.sendall(encode_frame(hello))
        self._sock.settimeout(connect_timeout)
        reply = read_frame_blocking(self._sock)
        self._sock.settimeout(None)
        if reply is None:
            self._sock.close()
            raise ConnectionError("server closed the connection during hello")
        if reply["type"] != "welcome":
            self._sock.close()
            outcome = _interpret(reply)
            if isinstance(outcome, BaseException):
                raise outcome
            raise ProtocolError(f"unexpected handshake reply {reply['type']!r}")
        self.server_info = reply
        self._reader = threading.Thread(
            target=self._read_loop, name="moctopus-client-reader", daemon=True
        )
        self._reader.start()

    # -- plumbing ------------------------------------------------------
    def _read_loop(self) -> None:
        failure: BaseException = ConnectionError("connection closed by server")
        try:
            while True:
                frame = read_frame_blocking(self._sock)
                if frame is None:
                    break
                rid = frame.get("id")
                with self._pending_lock:
                    pending = self._pending.pop(rid, None)
                if pending is not None:
                    pending._resolve(_interpret(frame))
        except (ProtocolError, ConnectionError, OSError) as error:
            if not self._closed:
                failure = error
        finally:
            with self._pending_lock:
                stranded = list(self._pending.values())
                self._pending.clear()
            for pending in stranded:
                pending._resolve(failure)

    def _send_request(self, frame: Dict[str, Any]) -> PendingReply:
        if self._closed:
            raise RuntimeError("client is closed")
        rid = next(self._request_ids)
        frame["id"] = rid
        pending = PendingReply(rid)
        with self._pending_lock:
            self._pending[rid] = pending
        payload = encode_frame(frame)
        try:
            with self._write_lock:
                self._sock.sendall(payload)
        except (ConnectionError, OSError):
            with self._pending_lock:
                self._pending.pop(rid, None)
            raise
        return pending

    # -- query surface -------------------------------------------------
    def submit_khop(self, source: int, hops: int) -> PendingReply:
        """Pipeline one k-hop query; resolve via ``.result()``."""
        return self._send_request(
            {"type": "query", "kind": "khop", "source": source, "hops": hops}
        )

    def khop(
        self, source: int, hops: int, timeout: Optional[float] = None
    ) -> QueryReply:
        """Run one k-hop query to completion."""
        return self.submit_khop(source, hops).result(timeout)

    def submit_rpq(self, source: int, expression: str) -> PendingReply:
        """Pipeline one regular-path query; resolve via ``.result()``."""
        return self._send_request(
            {
                "type": "query",
                "kind": "rpq",
                "source": source,
                "expression": expression,
            }
        )

    def rpq(
        self, source: int, expression: str, timeout: Optional[float] = None
    ) -> QueryReply:
        """Run one regular-path query to completion."""
        return self.submit_rpq(source, expression).result(timeout)

    def stats(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Scrape the server's metrics mapping over the protocol."""
        return self._send_request({"type": "stats"}).result(timeout)

    def ping(self, timeout: Optional[float] = None) -> None:
        """Round-trip a liveness probe."""
        self._send_request({"type": "ping"}).result(timeout)

    def close(self, timeout: float = 5.0) -> None:
        """Send GOODBYE, wait for the server's confirmation, close."""
        if self._closed:
            return
        try:
            pending = self._send_request({"type": "goodbye"})
            self._closed = True
            pending.result(timeout)
        except (RuntimeError, OSError, TimeoutError, ServerError):
            pass  # best-effort: teardown proceeds regardless
        finally:
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()
            self._reader.join(timeout)

    def __enter__(self) -> "MoctopusClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


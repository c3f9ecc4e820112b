"""The wire protocol of the network serving front-end.

Frames are length-prefixed JSON: a 4-byte big-endian unsigned payload
length followed by one UTF-8 JSON object.  Every frame carries a
``type`` and (except HELLO replies pushed by the server) a client-chosen
integer ``id`` echoed verbatim in the reply, so one connection can keep
many requests in flight and match answers out of order — the pipelining
the coalescing scheduler feeds on.

Frame types
-----------

``hello`` / ``welcome``
    Connection handshake.  The client opens with
    ``{"type": "hello", "id": 0, "protocol": 1, "token": ...}``;
    the server answers ``welcome`` (server name, protocol version,
    engine, per-client in-flight cap) or ``error`` (code ``auth``) and
    closes.
``query``
    One single-source path query:
    ``{"type": "query", "id": n, "kind": "khop", "source": s,
    "hops": k}`` (``1 <= k <= MAX_WIRE_HOPS``) or ``{"kind": "rpq",
    "source": s, "expression": e}`` (``e`` unrolling to at most
    ``MAX_WIRE_HOPS`` label positions: a k-hop is ``.{k}``).
``result``
    The answer: sorted destination list plus the simulated
    :class:`~repro.pim.stats.ExecutionStats` of the coalesced batch the
    query rode in (see :func:`stats_to_wire`).
``busy``
    Admission rejection — per-client in-flight cap
    (``reason: "client_inflight"``) or a saturated scheduler queue
    (``reason: "server_saturated"``).  The query was *not* admitted;
    the client should back off and retry.
``error``
    Request failure: ``code`` is ``auth``, ``bad_request``, ``timeout``,
    ``closed`` or ``internal``, plus a human-readable ``message``.
``stats``
    Metrics scrape over the protocol: request
    ``{"type": "stats", "id": n}``, reply carries the same mapping the
    ``GET /metrics`` endpoint renders, under ``"metrics"``.
``ping`` / ``pong``
    Liveness probe.
``goodbye``
    Graceful connection teardown (either side may initiate; the server
    answers in-flight queries first).
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Any, Dict, List, Optional

from repro.pim.stats import ExecutionStats

#: A decoded wire frame: one JSON object with at least a ``type`` key.
Frame = Dict[str, Any]

#: Version of the frame protocol; HELLO carries it and the server
#: rejects clients speaking a different one.
PROTOCOL_VERSION = 1

#: Upper bound on one frame's JSON payload.  Both sides enforce it: a
#: length prefix past the bound is a protocol error, never an attempted
#: allocation — the admission control of the byte layer.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Largest ``hops`` a ``khop`` query may ask for, and the most label
#: positions an ``rpq`` expression may unroll to (``.{k}`` is a k-hop).
#: A value read off the wire feeds size estimates, loop bounds and DFA
#: construction, so it is validated like a length prefix; 64 is past
#: where any k-hop frontier has not already saturated or died out.
MAX_WIRE_HOPS = 64

_LENGTH = struct.Struct(">I")

#: Every frame type either side may send.
FRAME_TYPES = frozenset(
    {
        "hello",
        "welcome",
        "query",
        "result",
        "busy",
        "error",
        "stats",
        "ping",
        "pong",
        "goodbye",
    }
)


class ProtocolError(ValueError):
    """A malformed frame (bad length, bad JSON, unknown type)."""


def encode_frame(frame: Frame) -> bytes:
    """Serialize one frame: 4-byte length prefix + compact JSON."""
    frame_type = frame.get("type")
    if frame_type not in FRAME_TYPES:
        raise ProtocolError(f"unknown frame type {frame_type!r}")
    payload = json.dumps(
        frame, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds "
            f"MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"
        )
    return _LENGTH.pack(len(payload)) + payload


def decode_frame(payload: bytes) -> Frame:
    """Parse one frame payload (the bytes after the length prefix)."""
    try:
        frame = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"undecodable frame payload: {error}") from None
    if not isinstance(frame, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(frame).__name__}"
        )
    if frame.get("type") not in FRAME_TYPES:
        raise ProtocolError(f"unknown frame type {frame.get('type')!r}")
    return frame


def decode_length(header: bytes) -> int:
    """Parse and bound-check a 4-byte length prefix."""
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})"
        )
    return length


async def read_frame(reader: asyncio.StreamReader) -> Optional[Frame]:
    """Read one frame from an :class:`asyncio.StreamReader`.

    Returns ``None`` on a clean EOF (the peer closed between frames);
    raises :class:`ProtocolError` on a truncated or malformed frame.
    """
    try:
        header = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ProtocolError("connection closed mid-frame") from None
    try:
        payload = await reader.readexactly(decode_length(header))
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed mid-frame") from None
    return decode_frame(payload)


def _recv_exactly(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes from a blocking socket.

    Returns ``None`` on EOF before the first byte; raises
    :class:`ProtocolError` on EOF mid-read.
    """
    chunks: List[bytes] = []
    received = 0
    while received < count:
        chunk = sock.recv(count - received)
        if not chunk:
            if received == 0:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        received += len(chunk)
    return b"".join(chunks)


def read_frame_blocking(sock: socket.socket) -> Optional[Frame]:
    """Read one frame from a blocking socket (``None`` on clean EOF)."""
    header = _recv_exactly(sock, _LENGTH.size)
    if header is None:
        return None
    payload = _recv_exactly(sock, decode_length(header))
    if payload is None:
        raise ProtocolError("connection closed mid-frame")
    return decode_frame(payload)


def stats_to_wire(stats: ExecutionStats) -> Dict[str, Any]:
    """Serialize :class:`ExecutionStats` for a RESULT frame.

    Carries the full simulated breakdown — times, channel counters,
    per-phase PIM times and every free-form counter — so a wire answer
    is byte-for-byte comparable to the stats of a direct
    :class:`~repro.serve.scheduler.BatchScheduler` call (the network
    benchmark's parity assert).
    """
    return {
        "host_time": stats.host_time,
        "cpc_time": stats.cpc_time,
        "ipc_time": stats.ipc_time,
        "pim_time": stats.pim_time,
        "total_time": stats.total_time,
        "cpc": {
            "bytes_moved": stats.cpc.bytes_moved,
            "transfers": stats.cpc.transfers,
        },
        "ipc": {
            "bytes_moved": stats.ipc.bytes_moved,
            "transfers": stats.ipc.transfers,
        },
        "phase_pim_times": list(stats.phase_pim_times),
        "counters": dict(stats.counters),
    }

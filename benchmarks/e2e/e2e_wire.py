"""The wire load generator: raw asyncio connections speaking the frame protocol.

The benchmark owns its sockets (rather than using ``MoctopusClient``) so
it can count payload bytes and stamp each reply on arrival.  Three
drivers share one connection type:

* :func:`closed_loop` — N callers per connection, each waiting for its
  reply before sending the next request (throughput);
* :func:`open_loop` — requests leave on a fixed schedule whatever the
  server does, and each is timed from when it was *due* (latency);
* :func:`serial_loop` — one request outstanding (the PING round trips of
  the ``net`` probe).
"""

from __future__ import annotations

import asyncio
import struct
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.net.protocol import PROTOCOL_VERSION, decode_frame, encode_frame

_LENGTH = struct.Struct(">I")

#: ``(reply frame, arrival time from perf_counter)``.
Reply = Tuple[Dict, float]
Send = Callable[[Dict], Awaitable[Reply]]


class WireConnection:
    """One pipelined client connection that counts the bytes it moves."""

    def __init__(self) -> None:
        self.bytes_sent = 0
        self.bytes_received = 0
        self._pending: Dict[int, asyncio.Future] = {}
        self._next_id = 1
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None

    async def open(self, host: str, port: int) -> Dict:
        """Connect, shake hands and start demultiplexing replies."""
        self._reader, self._writer = await asyncio.open_connection(host, port)
        self._write({"type": "hello", "id": 0, "protocol": PROTOCOL_VERSION})
        welcome = await self._read()
        if welcome["type"] != "welcome":
            raise ConnectionError(f"handshake refused: {welcome}")
        self._reader_task = asyncio.get_running_loop().create_task(self._demux())
        return welcome

    def _write(self, frame: Dict) -> None:
        payload = encode_frame(frame)
        self.bytes_sent += len(payload)
        self._writer.write(payload)

    async def _read(self) -> Dict:
        header = await self._reader.readexactly(_LENGTH.size)
        payload = await self._reader.readexactly(_LENGTH.unpack(header)[0])
        self.bytes_received += len(header) + len(payload)
        return decode_frame(payload)

    async def _demux(self) -> None:
        try:
            while True:
                frame = await self._read()
                waiter = self._pending.pop(frame.get("id"), None)
                if waiter is not None and not waiter.done():
                    waiter.set_result((frame, time.perf_counter()))
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            for waiter in self._pending.values():
                if not waiter.done():
                    waiter.set_exception(ConnectionError("connection closed"))
            self._pending.clear()

    def request(self, frame: Dict) -> "asyncio.Future[Reply]":
        """Send ``frame`` under a fresh id; the future resolves on its reply."""
        request_id = self._next_id
        self._next_id += 1
        waiter = asyncio.get_running_loop().create_future()
        self._pending[request_id] = waiter
        self._write(dict(frame, id=request_id))
        return waiter

    async def close(self) -> bool:
        """GOODBYE, then close the socket; True when it closed cleanly."""
        clean = True
        try:
            await asyncio.wait_for(self.request({"type": "goodbye"}), timeout=10.0)
        except (asyncio.TimeoutError, ConnectionError):
            clean = False
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            clean = False
        return clean


@dataclass
class LoopResult:
    """What one driver observed: per-request outcomes in request order."""

    #: Seconds from send (closed/serial) or due time (open) to the reply.
    latencies: List[float] = field(default_factory=list)
    #: Reply frame per request (``None`` = no reply before the deadline).
    replies: List[Optional[Dict]] = field(default_factory=list)
    #: ``(start, end)`` perf_counter pair per request, for the span log.
    intervals: List[Tuple[float, float]] = field(default_factory=list)
    #: How late each open-loop request left, in seconds.
    lags: List[float] = field(default_factory=list)
    seconds: float = 0.0

    def count(self, frame_type: str) -> int:
        """Replies of one frame type (``result`` / ``busy`` / ``error``)."""
        return sum(1 for reply in self.replies if reply and reply["type"] == frame_type)

    @property
    def timeouts(self) -> int:
        """Requests that never got a reply."""
        return sum(1 for reply in self.replies if reply is None)


async def _await_reply(waiter: "asyncio.Future[Reply]", timeout: float) -> Optional[Reply]:
    try:
        return await asyncio.wait_for(waiter, timeout)
    except (asyncio.TimeoutError, ConnectionError):
        return None


async def closed_loop(
    sends: Sequence[Send], requests: Sequence[Dict], callers: int, timeout: float
) -> LoopResult:
    """``callers`` per connection, each sending its next request on a reply."""
    result = LoopResult(
        latencies=[0.0] * len(requests),
        replies=[None] * len(requests),
        intervals=[(0.0, 0.0)] * len(requests),
    )
    queue: Iterator[Tuple[int, Dict]] = iter(enumerate(requests))

    async def caller(send: Send) -> None:
        for index, request in queue:
            start = time.perf_counter()
            outcome = await _await_reply(send(request), timeout)
            end = outcome[1] if outcome else time.perf_counter()
            result.latencies[index] = end - start
            result.intervals[index] = (start, end)
            result.replies[index] = outcome[0] if outcome else None

    begin = time.perf_counter()
    await asyncio.gather(*(caller(send) for send in sends for _ in range(callers)))
    result.seconds = time.perf_counter() - begin
    return result


async def open_loop(
    sends: Sequence[Send], requests: Sequence[Dict], rate: float, timeout: float,
    max_outstanding: int,
) -> LoopResult:
    """Send request *i* at ``i / rate`` seconds; time each from its due time.

    Timing from the due time (not the actual send) counts the wait a
    stall imposes on every later request; ``lags`` records how late the
    generator itself ran.  After a stall the overdue requests leave at
    once, but never more than ``max_outstanding`` per connection: a
    client that respects the server's in-flight cap waits for a reply
    instead of collecting BUSY frames, and that wait is in the latency.
    """
    count = len(requests)
    result = LoopResult(
        latencies=[0.0] * count, replies=[None] * count,
        intervals=[(0.0, 0.0)] * count, lags=[0.0] * count,
    )

    slots = [asyncio.Semaphore(max_outstanding) for _ in sends]

    async def one(index: int, due: float, waiter: "asyncio.Future[Reply]") -> None:
        outcome = await _await_reply(waiter, timeout)
        slots[index % len(sends)].release()
        end = outcome[1] if outcome else time.perf_counter()
        result.latencies[index] = end - due
        result.intervals[index] = (due, end)
        result.replies[index] = outcome[0] if outcome else None

    begin = time.perf_counter()
    tasks = []
    for index, request in enumerate(requests):
        due = begin + index / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        await slots[index % len(sends)].acquire()
        result.lags[index] = max(0.0, time.perf_counter() - due)
        waiter = sends[index % len(sends)](request)
        tasks.append(asyncio.ensure_future(one(index, due, waiter)))
    await asyncio.gather(*tasks)
    result.seconds = time.perf_counter() - begin
    return result


async def serial_loop(send: Send, requests: Sequence[Dict], timeout: float) -> LoopResult:
    """One request outstanding at a time."""
    return await closed_loop([send], requests, callers=1, timeout=timeout)

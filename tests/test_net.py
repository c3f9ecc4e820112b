"""Tests of the asyncio network serving front-end.

Three layers:

* protocol unit tests — frame round-trips, bound enforcement, malformed
  payload rejection;
* wire parity — answers (destinations *and* the full wire-form stats)
  served over a socket must be bit-identical to direct
  :class:`~repro.serve.scheduler.BatchScheduler` calls against the same
  epoch;
* behaviour under pressure — per-client in-flight BUSY, scheduler
  saturation BUSY, request timeouts, graceful shutdown answering every
  in-flight query, auth rejection, and the ``GET /metrics`` scrape
  sharing the query port.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import threading
import time

import pytest

from repro.core import Moctopus, MoctopusConfig
from repro.graph import random_graph
from repro.net import (
    AsyncMoctopusClient,
    MAX_FRAME_BYTES,
    MoctopusClient,
    MoctopusServer,
    PROTOCOL_VERSION,
    ProtocolError,
    ServerBusy,
    ServerError,
    decode_frame,
    encode_frame,
    stats_to_wire,
)
from repro.net.protocol import MAX_WIRE_HOPS, decode_length, read_frame_blocking
from repro.pim import CostModel
from repro.rpq import RPQuery, evaluate_rpq
from repro.serve import BatchScheduler

LABEL_NAMES = {1: "a", 2: "b", 3: "c"}


@pytest.fixture(scope="module")
def system():
    graph = random_graph(30, 110, seed=7)
    config = MoctopusConfig(
        cost_model=CostModel(num_modules=4), high_degree_threshold=8
    )
    return Moctopus.from_graph(graph, config, label_names=LABEL_NAMES)


@pytest.fixture()
def server(system):
    with MoctopusServer(system, port=0).start() as srv:
        yield srv


@pytest.fixture()
def client(server):
    with MoctopusClient("127.0.0.1", server.port) as cli:
        yield cli


# ----------------------------------------------------------------------
# Protocol layer
# ----------------------------------------------------------------------
def test_frame_roundtrip():
    frame = {"type": "query", "id": 3, "kind": "khop", "source": 1, "hops": 2}
    payload = encode_frame(frame)
    length = decode_length(payload[:4])
    assert length == len(payload) - 4
    assert decode_frame(payload[4:]) == frame


def test_encode_rejects_unknown_type_and_oversize():
    with pytest.raises(ProtocolError):
        encode_frame({"type": "warp"})
    with pytest.raises(ProtocolError):
        encode_frame({"type": "ping", "pad": "x" * (MAX_FRAME_BYTES + 1)})


def test_decode_rejects_garbage():
    with pytest.raises(ProtocolError):
        decode_frame(b"\xff\xfenot json")
    with pytest.raises(ProtocolError):
        decode_frame(b"[1,2,3]")  # not an object
    with pytest.raises(ProtocolError):
        decode_frame(b'{"type":"warp"}')  # unknown type
    with pytest.raises(ProtocolError):
        decode_length(struct.pack(">I", MAX_FRAME_BYTES + 1))


# ----------------------------------------------------------------------
# Handshake and authentication
# ----------------------------------------------------------------------
def test_welcome_carries_protocol_and_engine(client):
    assert client.server_info["protocol"] == PROTOCOL_VERSION
    assert client.server_info["server"] == "moctopus"
    assert client.server_info["engine"] == "auto"
    assert client.server_info["max_inflight"] >= 1


def test_auth_token_enforced(system):
    with MoctopusServer(system, port=0, auth_token="sekrit").start() as srv:
        with pytest.raises(ServerError) as excinfo:
            MoctopusClient("127.0.0.1", srv.port, auth_token="wrong")
        assert excinfo.value.code == "auth"
        with pytest.raises(ServerError):
            MoctopusClient("127.0.0.1", srv.port)  # no token at all
        assert srv.metrics.snapshot()["auth_failures"] == 2
        with MoctopusClient(
            "127.0.0.1", srv.port, auth_token="sekrit"
        ) as cli:
            cli.ping(timeout=5)


def test_wrong_protocol_version_rejected(server):
    sock = socket.create_connection(("127.0.0.1", server.port), 5)
    try:
        sock.sendall(
            encode_frame({"type": "hello", "id": 0, "protocol": 999})
        )
        reply = read_frame_blocking(sock)
        assert reply["type"] == "error"
        assert reply["code"] == "bad_request"
        assert read_frame_blocking(sock) is None  # server closed
    finally:
        sock.close()


def test_query_before_hello_rejected(server):
    sock = socket.create_connection(("127.0.0.1", server.port), 5)
    try:
        sock.sendall(
            encode_frame(
                {"type": "query", "id": 1, "kind": "khop", "source": 0,
                 "hops": 1}
            )
        )
        reply = read_frame_blocking(sock)
        assert reply["type"] == "error"
        assert reply["code"] == "bad_request"
    finally:
        sock.close()


def test_malformed_frame_gets_error_frame(server):
    sock = socket.create_connection(("127.0.0.1", server.port), 5)
    try:
        sock.sendall(struct.pack(">I", 7) + b"notjson")
        reply = read_frame_blocking(sock)
        assert reply["type"] == "error"
        assert reply["code"] == "bad_request"
    finally:
        sock.close()


# ----------------------------------------------------------------------
# Query parity: wire answers == direct scheduler answers
# ----------------------------------------------------------------------
def test_khop_wire_parity_with_direct_scheduler(system, client):
    with system.serve() as direct:
        for source in (0, 5, 11):
            for hops in (1, 2, 3):
                wire_dest, wire_stats = client.khop(source, hops, timeout=15)
                expect_dest, expect_stats = direct.submit(
                    source, hops
                ).outcome(timeout=15)
                assert wire_dest == expect_dest
                assert wire_stats == stats_to_wire(expect_stats)
        # Expression groups take the scheduler's other path.
        for source in (0, 3, 9):
            for expression in (".{2}", ".+", "(./.)|."):
                wire_dest, wire_stats = client.rpq(source, expression, timeout=15)
                expect_dest, expect_stats = direct.submit_rpq(
                    source, expression
                ).outcome(timeout=15)
                assert wire_dest == expect_dest
                assert wire_stats == stats_to_wire(expect_stats)


def test_rpq_wire_parity_with_oracle(system, client):
    for source in (0, 3, 9):
        for expression in (".{2}", ".+", "a", "(a|b)+"):
            wire_dest, wire_stats = client.rpq(source, expression, timeout=15)
            oracle = evaluate_rpq(
                system.graph,
                RPQuery(expression, [source]),
                label_names=LABEL_NAMES,
            )
            assert wire_dest == set(oracle.destinations_of(0))
            assert wire_stats["total_time"] >= 0


def test_pipelined_queries_resolve_out_of_order(client):
    pending = [client.submit_khop(source, 2) for source in range(8)]
    pending += [client.submit_rpq(source, ".+") for source in range(4)]
    # Resolve in reverse submission order: ids must demux correctly.
    answers = [p.result(timeout=15) for p in reversed(pending)]
    assert len(answers) == 12
    for destinations, stats in answers:
        assert isinstance(destinations, set)
        assert stats["total_time"] >= 0


def test_bad_queries_are_bad_requests(client, server):
    before = server.metrics.snapshot()["bad_requests"]
    with pytest.raises(ServerError) as excinfo:
        client.khop(0, hops="two", timeout=5)
    assert excinfo.value.code == "bad_request"
    with pytest.raises(ServerError) as excinfo:
        client.rpq(0, "(((", timeout=5)  # unparsable expression
    assert excinfo.value.code == "bad_request"
    with pytest.raises(ServerError) as excinfo:
        client._send_request(
            {"type": "query", "kind": "teleport", "source": 0}
        ).result(5)
    assert excinfo.value.code == "bad_request"
    with pytest.raises(ServerError) as excinfo:
        client._send_request(
            {"type": "query", "kind": "khop", "source": "zero", "hops": 1}
        ).result(5)
    assert excinfo.value.code == "bad_request"
    assert server.metrics.snapshot()["bad_requests"] >= before + 4
    client.ping(timeout=5)  # connection survived every rejection


@pytest.mark.parametrize("hops", [0, -1, 2 ** 40, MAX_WIRE_HOPS + 1, True])
def test_out_of_range_hops_are_bad_requests(client, server, system, hops):
    """``hops`` off the wire is bounded before anything sizes a batch by it."""
    before = server.metrics.snapshot()["bad_requests"]
    with pytest.raises(ServerError) as excinfo:
        client._send_request(
            {"type": "query", "kind": "khop", "source": 0, "hops": hops}
        ).result(5)
    assert excinfo.value.code == "bad_request"
    assert str(MAX_WIRE_HOPS) in str(excinfo.value)
    assert server.metrics.snapshot()["bad_requests"] == before + 1
    client.ping(timeout=5)
    # The bound itself is served.
    destinations, _ = client.khop(0, MAX_WIRE_HOPS, timeout=15)
    expect, _ = system.batch_khop([0], MAX_WIRE_HOPS, auto_migrate=False)
    assert destinations == set(expect.destinations_of(0))


@pytest.mark.parametrize(
    "expression", [".{65}", "a{1,65}", "(a{9}){9}", ".{20000}", "(a|b){2000}"]
)
def test_rpq_unrolling_past_the_hop_bound_is_a_bad_request(
    client, server, system, monkeypatch, expression
):
    """A k-hop *is* ``.{k}``: bounded repetition obeys ``MAX_WIRE_HOPS``,
    measured on the AST — no DFA is built for a rejected expression (the
    drain thread would spend minutes on ``.{20000}``)."""
    import repro.rpq.automaton as automaton
    import repro.rpq.query as query_module

    built = []
    real = automaton.build_dfa

    def spy(target):
        built.append(target)
        return real(target)

    monkeypatch.setattr(automaton, "build_dfa", spy)
    monkeypatch.setattr(query_module, "build_dfa", spy)
    before = server.metrics.snapshot()["bad_requests"]
    start = time.perf_counter()
    with pytest.raises(ServerError) as excinfo:
        client.rpq(0, expression, timeout=5)
    elapsed = time.perf_counter() - start
    assert excinfo.value.code == "bad_request"
    assert str(MAX_WIRE_HOPS) in str(excinfo.value)
    assert elapsed < 0.05, f"{expression!r} took {elapsed * 1e3:.1f} ms to reject"
    assert built == []
    assert server.metrics.snapshot()["bad_requests"] == before + 1
    client.ping(timeout=5)
    # The bound itself is served, on the same connection.
    bound = f".{{{MAX_WIRE_HOPS}}}"
    destinations, _ = client.rpq(0, bound, timeout=15)
    expect, _ = system.batch_khop([0], MAX_WIRE_HOPS, auto_migrate=False)
    assert destinations == set(expect.destinations_of(0))


def test_kleene_operators_do_not_count_against_the_hop_bound(client, system):
    destinations, _ = client.rpq(0, "(a|b)*", timeout=15)
    expect, _ = system.execute(RPQuery("(a|b)*", [0]), auto_migrate=False)
    assert destinations == set(expect.destinations_of(0))


# ----------------------------------------------------------------------
# Backpressure: BUSY frames, server stays live
# ----------------------------------------------------------------------
def test_client_inflight_cap_sends_busy_then_timeout(system):
    # A scheduler that never drains (autostart=False) keeps the first
    # query in flight forever: the second must get BUSY immediately and
    # the first must time out — while the server keeps answering pings.
    scheduler = BatchScheduler(system, autostart=False)
    server = MoctopusServer(
        system,
        scheduler=scheduler,
        port=0,
        max_inflight_per_client=1,
        request_timeout=0.5,
    ).start()
    try:
        with MoctopusClient("127.0.0.1", server.port) as cli:
            stuck = cli.submit_khop(0, 2)
            with pytest.raises(ServerBusy) as excinfo:
                cli.khop(1, 2, timeout=5)
            assert excinfo.value.code == "client_inflight"
            cli.ping(timeout=5)  # rejection did not wedge the server
            with pytest.raises(ServerError) as timeout_info:
                stuck.result(timeout=10)
            assert timeout_info.value.code == "timeout"
            cli.ping(timeout=5)  # ...and neither did the timeout
            # Capacity freed by the timeout: the next query is admitted
            # (it times out too — nothing drains — but is not BUSY).
            with pytest.raises(ServerError) as follow_info:
                cli.khop(2, 2, timeout=10)
            assert follow_info.value.code == "timeout"
            snapshot = server.metrics.snapshot()
            assert snapshot["busy_client_inflight"] == 1
            assert snapshot["queries_timed_out"] == 2
            assert snapshot["queries_admitted"] == 2
            assert snapshot["admission_rejections"] >= 1
    finally:
        server.close()
        scheduler.close()


def test_scheduler_saturation_sends_busy(system):
    # queue_depth=1 and no drain thread: the first admitted query fills
    # the queue, the second bounces off it server-side.
    scheduler = BatchScheduler(system, autostart=False, queue_depth=1)
    server = MoctopusServer(
        system, scheduler=scheduler, port=0, request_timeout=0.5
    ).start()
    try:
        with MoctopusClient("127.0.0.1", server.port) as cli:
            cli.submit_khop(0, 2)
            with pytest.raises(ServerBusy) as excinfo:
                cli.khop(1, 2, timeout=5)
            assert excinfo.value.code == "server_saturated"
            cli.ping(timeout=5)
            assert server.metrics.snapshot()["busy_server_saturated"] == 1
    finally:
        server.close()
        scheduler.close()


# ----------------------------------------------------------------------
# Graceful shutdown
# ----------------------------------------------------------------------
def test_shutdown_answers_inflight_queries(system):
    # Admit a query while the drain thread is stopped, then shut the
    # server down concurrently: close() must wait for the (late) answer
    # to go out before the socket dies.
    scheduler = BatchScheduler(system, autostart=False)
    server = MoctopusServer(
        system, scheduler=scheduler, port=0, request_timeout=30.0
    ).start()
    cli = MoctopusClient("127.0.0.1", server.port)
    try:
        pending = cli.submit_khop(0, 2)
        deadline = time.monotonic() + 10
        while server.metrics.snapshot()["queries_admitted"] < 1:
            assert time.monotonic() < deadline, "query never admitted"
            time.sleep(0.01)
        closer = threading.Thread(target=server.close)
        closer.start()
        scheduler._worker.start()  # now let the batch execute
        destinations, stats = pending.result(timeout=15)
        closer.join(timeout=15)
        assert not closer.is_alive()
        assert destinations == set(
            system.batch_khop(sources=[0], hops=2)[0].destinations_of(0)
        )
        assert stats["total_time"] >= 0
    finally:
        cli.close()
        scheduler.close()
        server.close()


def test_queries_after_shutdown_get_closed_error(system):
    scheduler = BatchScheduler(system)
    server = MoctopusServer(system, scheduler=scheduler, port=0).start()
    cli = MoctopusClient("127.0.0.1", server.port)
    try:
        cli.khop(0, 2, timeout=10)
        scheduler.close()  # backend gone, sockets still up
        with pytest.raises(ServerError) as excinfo:
            cli.khop(1, 2, timeout=5)
        assert excinfo.value.code == "closed"
    finally:
        cli.close()
        server.close()
        scheduler.close()


# ----------------------------------------------------------------------
# Metrics: STATS frame and HTTP scrape
# ----------------------------------------------------------------------
def test_stats_frame_reports_backend_gauges(system, client):
    client.khop(0, 2, timeout=10)
    metrics = client.stats(timeout=10)
    assert metrics["queries_admitted"] >= 1
    assert metrics["queries_answered"] >= 1
    assert metrics["scheduler_batches_executed"] >= 1
    assert metrics["scheduler_queries_served"] >= 1
    assert metrics["epochs_published"] >= 1
    assert metrics["served_total_time_seconds"] > 0
    assert metrics['client_inflight{client="1"}'] == 0
    assert any(key.startswith("cache_") for key in metrics)


def _http_get(port: int, path: str) -> tuple:
    sock = socket.create_connection(("127.0.0.1", port), 5)
    try:
        sock.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode())
        buf = b""
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                break
            buf += chunk
    finally:
        sock.close()
    head, _, body = buf.partition(b"\r\n\r\n")
    return head.split(b"\r\n")[0].decode(), body.decode()

def test_http_metrics_scrape_shares_the_port(server, client):
    client.khop(0, 2, timeout=10)
    status, body = _http_get(server.port, "/metrics")
    assert status == "HTTP/1.0 200 OK"
    lines = dict(
        line.rsplit(" ", 1) for line in body.strip().splitlines()
    )
    assert int(lines["moctopus_queries_answered"]) >= 1
    assert "moctopus_scheduler_batches_executed" in lines
    status, _ = _http_get(server.port, "/anything-else")
    assert status == "HTTP/1.0 404 Not Found"
    client.ping(timeout=5)  # frame clients unaffected by HTTP traffic


# ----------------------------------------------------------------------
# Facade, async client, lifecycle
# ----------------------------------------------------------------------
def test_listen_facade_and_goodbye(system):
    with system.listen(port=0) as server:
        assert server.address[1] == server.port
        with MoctopusClient("127.0.0.1", server.port) as cli:
            destinations, _ = cli.khop(0, 1, timeout=10)
            assert destinations == set(
                system.batch_khop(sources=[0], hops=1)[0].destinations_of(0)
            )
        # close() sent GOODBYE; further requests must refuse locally.
        with pytest.raises(RuntimeError):
            cli.ping()


def test_async_client_roundtrip(server, system):
    async def go():
        cli = await AsyncMoctopusClient.connect("127.0.0.1", server.port)
        try:
            destinations, stats = await cli.khop(0, 2)
            replies = await asyncio.gather(
                *(cli.khop(source, 2) for source in range(4))
            )
            rpq_dest, _ = await cli.rpq(0, ".+")
            metrics = await cli.stats()
            await cli.ping()
            return destinations, stats, replies, rpq_dest, metrics
        finally:
            await cli.close()

    destinations, stats, replies, rpq_dest, metrics = asyncio.run(go())
    expect, _ = system.batch_khop(sources=[0], hops=2)
    assert destinations == set(expect.destinations_of(0))
    assert stats["total_time"] >= 0
    assert len(replies) == 4
    assert isinstance(rpq_dest, set)
    assert metrics["queries_answered"] >= 5


def test_async_client_auth_failure(system):
    with MoctopusServer(system, port=0, auth_token="sekrit").start() as srv:

        async def go():
            with pytest.raises(ServerError) as excinfo:
                await AsyncMoctopusClient.connect("127.0.0.1", srv.port)
            assert excinfo.value.code == "auth"

        asyncio.run(go())


def test_server_rejects_bad_knobs(system):
    with pytest.raises(ValueError):
        MoctopusServer(system, port=0, max_inflight_per_client=0)
    with pytest.raises(ValueError):
        MoctopusServer(system, port=0, request_timeout=0)
    server = MoctopusServer(system, port=0)
    try:
        with pytest.raises(RuntimeError):
            server.port  # not started yet
    finally:
        server.close()

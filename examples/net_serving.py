"""Network serving walkthrough: a TCP front-end over the scheduler.

Run with::

    python examples/net_serving.py

The example starts a :class:`~repro.net.server.MoctopusServer` on an
ephemeral port via ``system.listen()``, connects two independent
clients that pipeline k-hop and regular-path queries over the wire,
scrapes the server's metrics both through the STATS frame and the
HTTP-ish ``GET /metrics`` endpoint, and shuts everything down
gracefully — in-flight queries are answered before the sockets close.
"""

from __future__ import annotations

import os
import socket
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro import Moctopus, MoctopusConfig
from repro.graph import power_law_graph
from repro.net import MoctopusClient
from repro.pim import CostModel


def main() -> None:
    # 1. Build a system and put a socket in front of it.  port=0 binds
    #    an ephemeral port; the auth token gates the handshake.
    graph = power_law_graph(num_nodes=2000, edges_per_node=4, skew=0.8, seed=7)
    config = MoctopusConfig(cost_model=CostModel(num_modules=16))
    system = Moctopus.from_graph(graph, config)
    system.use_engine("vectorized")
    server = system.listen(port=0, auth_token="demo-token")
    print(f"serving {system.num_nodes} nodes on 127.0.0.1:{server.port}")

    # 2. Two clients, each its own connection, pipelining queries.  The
    #    scheduler coalesces equal-shaped queries from both connections
    #    into shared engine batches.
    alice = MoctopusClient("127.0.0.1", server.port, auth_token="demo-token")
    bob = MoctopusClient("127.0.0.1", server.port, auth_token="demo-token")
    print(f"handshake: engine={alice.server_info['engine']}, "
          f"per-client in-flight cap={alice.server_info['max_inflight']}")

    pending = [alice.submit_khop(source, 2) for source in range(8)]
    pending += [bob.submit_khop(source, 2) for source in range(8, 16)]
    pending.append(alice.submit_rpq(0, ".+"))        # reachability
    pending.append(bob.submit_rpq(1, ".{2}"))        # exactly two hops
    answers = [handle.result(timeout=30) for handle in pending]
    total_destinations = sum(len(destinations) for destinations, _ in answers)
    batch_time = answers[0][1]["total_time"]
    print(f"{len(answers)} pipelined queries answered, "
          f"{total_destinations} destinations total; "
          f"first batch simulated at {batch_time * 1e3:.3f} ms")

    # 3. Metrics, twice: the STATS frame (JSON over the protocol) and
    #    the HTTP text endpoint on the same port.
    metrics = alice.stats(timeout=10)
    print(f"\nSTATS frame: answered={metrics['queries_answered']}, "
          f"batches={metrics['scheduler_batches_executed']}, "
          f"epochs published={metrics['epochs_published']}")

    raw = socket.create_connection(("127.0.0.1", server.port), 5)
    raw.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
    scrape = b""
    while chunk := raw.recv(4096):
        scrape += chunk
    raw.close()
    body = scrape.split(b"\r\n\r\n", 1)[1].decode()
    served_lines = [line for line in body.splitlines()
                    if line.startswith("moctopus_queries")]
    print("GET /metrics:")
    for line in served_lines:
        print(f"  {line}")

    # 4. Graceful teardown: clients say GOODBYE, the server drains and
    #    closes its scheduler.
    alice.close()
    bob.close()
    server.close()
    print("\nserver closed; every admitted query was answered first")


if __name__ == "__main__":
    main()

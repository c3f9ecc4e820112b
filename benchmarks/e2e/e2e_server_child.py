"""The ``wire_serve`` server process.

Builds the shared graph from the seed, loads it into a default-configured
system and serves it on an ephemeral port.  Speaks one JSON line each way
on its pipes: ``{"port": ...}`` once listening, and after the parent
writes a line (or closes the pipe) it shuts the server down and reports
its own resource usage and the final partition quality.  It exits 0 only
if it had no child process left to kill.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import e2e_env

e2e_env.add_source_path()

import e2e_inputs as inputs  # noqa: E402
from e2e_workloads import build_system, partition_metrics  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    args = parser.parse_args()

    start = time.perf_counter()
    graph = inputs.build_graph(args.seed, args.scale)
    generated = time.perf_counter()
    system = build_system(graph)
    loaded = time.perf_counter()
    server = system.listen(port=0)
    print(json.dumps({
        "port": server.port,
        "generate_s": generated - start,
        "load_graph_s": loaded - generated,
    }), flush=True)

    sys.stdin.readline()
    server.close()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report = {
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    report.update(partition_metrics(system))
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        left_running = e2e_env.stop_child_processes()
    sys.exit(1 if left_running else code)

"""Writes ``tests/data/query_golden.json``: the absolute record of the
query path's accounting.

Every kernel runs under the one driver (``engine/driver.py``), so
cross-engine parity cannot see a charge that moves for all of them at
once.  The committed file was recorded at the last commit that still
lowered a ``LogicalPlan`` into a ``PhysicalPlan`` of op objects (PR 22),
where this script first showed ``record(engine)`` equal for all four
engine names; ``tests/test_engine_driver.py`` asserts the record
exactly, for every engine.  Re-record (only when a change moves a
charge on purpose)::

    PYTHONPATH=src python tests/data/make_query_golden.py tests/data/query_golden.json

One seeded labeled graph (two host-resident hubs, a rare ``c`` label)
after seeded insert/delete churn, queried live and through a pinned
session: 1/2/3-hop batches, ``a/c`` from one source and from a bulk
batch, a Kleene RPQ, the zero-length ``a{0}``, and a batch with unknown
and duplicate sources.  Per query the record holds the phase names in
the order the driver opened them, the full ``ExecutionStats`` and a
digest of the answer; live queries run the maintenance pass they
trigger, so its phase and counters are in the record too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

from repro.core import Moctopus, MoctopusConfig
from repro.engine import ENGINE_NAMES
from repro.graph import DiGraph
from repro.pim import CostModel
from repro.pim.system import OperationContext
from repro.rpq import KHopQuery, RPQuery

LABEL_NAMES = {1: "a", 2: "b", 3: "c"}
NUM_NODES = 160
HUBS = (0, 1)
#: A node id the graph never contains.
UNKNOWN = 10_000
SEED = 23
MODES = ("live", "pinned")


def base_graph() -> DiGraph:
    """Sparse ``a``/``b`` noise, two hubs over the threshold, rare ``c``."""
    rng = random.Random(SEED)
    graph = DiGraph(num_nodes=NUM_NODES)
    for _ in range(5 * NUM_NODES):
        src, dst = rng.randrange(NUM_NODES), rng.randrange(NUM_NODES)
        if src != dst:
            graph.add_edge(src, dst, label=rng.choice([1, 1, 1, 2]))
    for hub in HUBS:
        for step in range(20):
            graph.add_edge(hub, 10 + hub + 7 * step, label=1 + step % 2)
    for src in range(8, 8 + 12):
        graph.add_edge(src, (src * 11 + 5) % NUM_NODES, label=3)
    return graph


def build_system(engine: str) -> Moctopus:
    """The churned system one record is taken from."""
    config = MoctopusConfig(
        cost_model=CostModel(num_modules=8),
        engine=engine,
        high_degree_threshold=12,
    )
    graph = base_graph()
    system = Moctopus.from_graph(graph, config, label_names=LABEL_NAMES)
    rng = random.Random(SEED + 1)
    live = sorted(graph.edges())
    for _ in range(6):
        inserts = [
            (rng.randrange(NUM_NODES + 6), rng.randrange(NUM_NODES))
            for _ in range(24)
        ]
        system.insert_edges(inserts, labels=[rng.choice([1, 1, 2, 3, 1]) for _ in inserts])
        deletes = [live.pop(rng.randrange(len(live))) for _ in range(16)]
        system.delete_edges(deletes)
        live.extend(inserts)
    return system


def queries() -> Dict[str, object]:
    """The queries of one record, by name (fresh objects per call)."""
    rng = random.Random(SEED + 2)
    batch = [rng.randrange(NUM_NODES) for _ in range(40)]
    bulk = [rng.randrange(NUM_NODES) for _ in range(48)]
    return {
        "khop1": KHopQuery(1, batch),
        "khop2": KHopQuery(2, batch),
        "khop3": KHopQuery(3, batch),
        "rpq_fixed_forward": RPQuery("a/c", [9]),
        # Duplicates and an unknown source in a bulk DFA batch.
        "rpq_fixed_bulk": RPQuery("a/c", bulk + [9, 9, UNKNOWN]),
        "rpq_kleene": RPQuery("a/(a|b)*/c", batch[:6]),
        "rpq_zero_length": RPQuery("a{0}", batch[:6] + [UNKNOWN]),
        "khop_unknown_duplicates": KHopQuery(
            2, [batch[0], batch[1], batch[0], UNKNOWN, batch[1], HUBS[0]]
        ),
    }


@contextmanager
def recorded_phases() -> Iterator[List[str]]:
    """The names of every phase opened inside the block, in order."""
    names: List[str] = []
    original = OperationContext.phase

    def phase(self, name=""):
        names.append(name)
        return original(self, name)

    OperationContext.phase = phase
    try:
        yield names
    finally:
        OperationContext.phase = original


def answer_digest(result) -> str:
    digest = hashlib.sha256()
    digest.update(repr(list(result.sources)).encode())
    digest.update(repr(result.indptr.tolist()).encode())
    digest.update(repr(result.indices.tolist()).encode())
    return digest.hexdigest()


def _entry(phases: List[str], outcome: Tuple) -> Dict[str, object]:
    result, stats = outcome
    return {
        "phases": list(phases),
        "stats": dataclasses.asdict(stats),
        "matches": result.total_matches,
        "answer_sha256": answer_digest(result),
    }


def record(engine: str) -> Dict[str, Dict[str, object]]:
    """``{mode: {query name: entry}}`` for one engine name."""
    out: Dict[str, Dict[str, object]] = {}
    for mode in MODES:
        system = build_system(engine)
        entries = out[mode] = {}
        for name, query in queries().items():
            if mode == "live":
                with recorded_phases() as phases:
                    outcome = system.execute(query)
                entries[name] = _entry(phases, outcome)
                entries[name]["maintenance"] = dataclasses.asdict(
                    system.last_maintenance_stats
                )
            else:
                with system.begin() as session, recorded_phases() as phases:
                    outcome = session.execute(query)
                entries[name] = _entry(phases, outcome)
        system.close()
    return out


if __name__ == "__main__":
    records = {engine: record(engine) for engine in ENGINE_NAMES}
    golden = records["python"]
    for engine, recorded in records.items():
        assert recorded == golden, f"{engine} diverged from the scalar kernel"
    bulk = golden["pinned"]["rpq_fixed_bulk"]["stats"]["counters"]
    assert (bulk["batch_size"], bulk["unknown_sources"]) == (51, 1)
    with open(sys.argv[1], "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")

"""The committed record of the paper's evaluation, ``REPRODUCTION.json``.

``python -m repro.paper`` writes it at the repository root.  Every value
is a simulated counter or a ratio of counters, and every entry depends
only on its (experiment, trace), so part of the record is regenerated
here and must come back byte for byte.  The shape claims the paper's
figures make are asserted on the committed numbers.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.paper import geometric_mean
from repro.paper.reproduce import (
    HIGHLY_SKEWED_TRACES,
    LESS_SKEWED_TRACES,
    LONG_HOPS,
    RECORD_NAME,
    ROAD_TRACES,
    SHORT_HOPS,
    TRACES,
    ablation_capacity,
    ablation_threshold,
    dump,
    geomean_speedup,
    headline,
    render,
    trace_entry,
)

RECORD_PATH = pathlib.Path(__file__).resolve().parent.parent / RECORD_NAME
RECORD = json.loads(RECORD_PATH.read_text())
TRACE_ROWS = RECORD["traces"]
ABLATIONS = RECORD["ablations"]


# ----------------------------------------------------------------------
# The record regenerates
# ----------------------------------------------------------------------
@pytest.mark.parametrize("trace_id", [1, 12])
def test_trace_entry_regenerates_byte_for_byte(trace_id):
    assert dump(trace_entry(trace_id)) == dump(TRACE_ROWS[f"#{trace_id}"])


@pytest.mark.parametrize(
    "name, measure",
    [("a2_capacity", ablation_capacity), ("a3_threshold", ablation_threshold)],
    ids=["a2_capacity", "a3_threshold"],
)
def test_ablation_regenerates_byte_for_byte(name, measure):
    assert dump(measure()) == dump(ABLATIONS[name])


def test_headline_is_derived_from_the_committed_rows():
    assert dump(headline(TRACE_ROWS)) == dump(RECORD["headline"])
    assert dump(RECORD) == RECORD_PATH.read_text(), "the record is not in canonical form"


def test_record_holds_every_experiment_entry():
    assert list(TRACE_ROWS) == [f"#{trace_id}" for trace_id in TRACES]
    for trace_id in TRACES:
        hops = SHORT_HOPS + (LONG_HOPS if trace_id in ROAD_TRACES else ())
        expected = ["name", "table1", *(f"fig4_k{k}" for k in hops), "fig5", "fig6"]
        assert list(TRACE_ROWS[f"#{trace_id}"]) == expected, trace_id
    assert list(ABLATIONS["a1_partitioners"]) == ["#1", "#7", "#12"]
    for claim, values in RECORD["headline"].items():
        assert set(values) == {"measured", "paper"}, claim


def test_render_prints_every_table():
    text = render(RECORD)
    for title in (
        "Table 1", "Figure 4(a)", "Figure 4(c)", "Figure 4 (long paths): 8-hop",
        "Figure 5", "Figure 6(a)", "Figure 6(b)", "Ablation A1", "Ablation A2",
        "Ablation A3", "Headline claims",
    ):
        assert title in text, title


# ----------------------------------------------------------------------
# The paper's shape holds on the committed numbers
# ----------------------------------------------------------------------
def test_table1_skew_classes():
    for trace_id in (1, 2, 3):
        assert TRACE_ROWS[f"#{trace_id}"]["table1"]["hd_pct"] == 0.0, "road networks have no hubs"
    for trace_id in (5, 6, 11, 12):
        assert TRACE_ROWS[f"#{trace_id}"]["table1"]["hd_pct"] > 0.3, "skewed traces have hubs"


@pytest.mark.parametrize("hops", SHORT_HOPS)
def test_fig4_khop_speedups(hops):
    if hops >= 2:
        assert geomean_speedup(TRACE_ROWS, hops, LESS_SKEWED_TRACES, "redisgraph") > 1.5
    assert geomean_speedup(TRACE_ROWS, hops, HIGHLY_SKEWED_TRACES, "pim_hash") > 1.2


@pytest.mark.parametrize("hops", LONG_HOPS)
def test_fig4_long_paths_beat_redisgraph_on_every_road_trace(hops):
    for trace_id in ROAD_TRACES:
        assert TRACE_ROWS[f"#{trace_id}"][f"fig4_k{hops}"]["speedup_vs_redisgraph"] > 1.0


def test_fig5_ipc_reduction():
    rows = [entry["fig5"] for entry in TRACE_ROWS.values()]
    for row in rows:
        assert row["moctopus_ipc_ms"] <= row["pim_hash_ipc_ms"] * 1.05
    reductions = [row["ipc_reduction"] for row in rows if row["pim_hash_ipc_ms"] > 0]
    assert sum(reductions) / len(reductions) > 0.40


def test_fig6_update_speedups():
    rows = [entry["fig6"] for entry in TRACE_ROWS.values()]
    inserts = [row["insert_speedup"] for row in rows]
    deletes = [row["delete_speedup"] for row in rows]
    assert all(speedup > 2.0 for speedup in inserts)
    assert all(speedup > 2.0 for speedup in deletes)
    assert geometric_mean(deletes) >= geometric_mean(inserts)


def test_headline_claims_hold_their_direction():
    measured = {claim: values["measured"] for claim, values in RECORD["headline"].items()}
    assert measured["max_speedup_vs_redisgraph"] > 2.0
    assert measured["max_speedup_vs_pim_hash_skewed"] > 1.5
    assert measured["avg_ipc_reduction_pct"] > 40.0
    assert measured["avg_insert_speedup"] > 5.0
    assert measured["avg_delete_speedup"] > 5.0


def test_a1_radical_greedy_beats_hash_without_scanning():
    for trace, rows in ABLATIONS["a1_partitioners"].items():
        assert rows["radical-greedy"]["locality"] >= rows["hash"]["locality"], trace
        assert rows["radical-greedy"]["overhead"] == 0, trace
        assert rows["ldg"]["overhead"] > 0, trace


def test_a2_capacity_trades_locality_for_balance():
    rows = list(ABLATIONS["a2_capacity"].values())
    tightest, loosest = rows[0], rows[-1]
    assert loosest["locality"] >= tightest["locality"]
    assert tightest["balance"] <= loosest["balance"] + 1e-9


def test_a3_labor_division_moves_hubs_to_the_host():
    rows = ABLATIONS["a3_threshold"]
    assert rows["none"]["host_nodes"] == 0
    assert rows["16"]["host_nodes"] > 0
    assert rows["16"]["pim_load_imbalance"] <= rows["none"]["pim_load_imbalance"] + 1e-9
